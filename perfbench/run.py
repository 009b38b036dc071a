"""Benchmark of the ``altcox`` command line.

    python3 perfbench/run.py [--workload regular|chain|session|all]
                             [--seed N] [--seconds S] [--trace 0|1]

A run measures one workload in one process: a closed loop with one client
that calls ``altcox.cli.main(argv)`` for each request of the workload's mix
(workloads.py), in whole passes over the mix.  Pass 0 runs the mix in its
own order, later passes in a seeded order.  The run stops after the first
pass that ends past ``--seconds`` once the latency percentiles rest on
enough samples.  Every output is checked against the oracle; a wrong
output, an unexpected exit code or an exception counts as a failed request.

Times are scaled to a reference speed (reference.py): each request's time
is multiplied by ``REFERENCE_S`` over the time of the reference loop, run
between requests at most 50 ms apart and averaged over the runs just
before and just after the request.  The raw wall-clock figures are printed
and recorded next to the scaled ones.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.
``--trace 1`` runs one untimed warm-up pass, then alternates untraced and
traced passes (tracing.py) and reports the per-layer metrics, whose meaning
and expected effect are listed in layer_map.json, plus the tracing
overhead.  ``--workload all`` runs each workload in its own process, one
after the other.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.

The package is first built in place from the checkout's source
(``setup.py build_ext --inplace``, again only when a source file changes)
and runs on whichever core it selects by default.  Everything the
benchmark writes goes under .bench_build/perfbench/.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

from reference import REFERENCE_S, reference_loop

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_build" / "perfbench"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
LAYER_MAP = json.loads((HERE / "layer_map.json").read_text())["metrics"]
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}

MIN_SAMPLES = 150      # ten beyond the 90th percentile, and a steady median
MAX_STRETCH = 3        # ...but a run stops adding passes after 3x --seconds
LOOP_EVERY_S = 0.05    # longest gap between two runs of the reference loop
SETUP_SPAWNS_FIRST = 6     # fresh interpreters timed for setup_s before the loop
SETUP_SPAWNS_PER_PASS = 3  # ...and after each pass
SHOWN_FAILURES = 20

IMPORT_PROBE = """\
import sys, time
sys.path.insert(0, sys.argv[2])
from reference import reference_loop
before = reference_loop()
sys.path.insert(0, sys.argv[1])
t = time.perf_counter()
import altcox.cli
from altcox import engine
backend = engine.BACKEND
seconds = time.perf_counter() - t
print(seconds, (before + reference_loop()) / 2, backend)
"""


def digest(paths):
    h = hashlib.sha256()
    for path in paths:
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def source_files():
    suffixes = {".py", ".pyx", ".pxd", ".c", ".h"}
    files = [p for p in (ROOT / "src").rglob("*")
             if p.suffix in suffixes and "__pycache__" not in p.parts]
    files += [ROOT / n for n in ("setup.py", "setup.cfg", "pyproject.toml")
              if (ROOT / n).exists()]
    return sorted(files)


def build():
    """Build extensions in place, once per source state."""
    stamp = OUT / "build.stamp"
    state = digest(source_files())
    if stamp.exists() and stamp.read_text() == state:
        return
    log = OUT / "build.log"
    with open(log, "w") as f:
        r = subprocess.run([sys.executable, "setup.py", "build_ext", "--inplace"],
                           cwd=ROOT, stdout=f, stderr=subprocess.STDOUT, timeout=840)
    if r.returncode != 0:
        sys.stderr.write(log.read_text()[-4000:])
        raise SystemExit(f"build failed (exit {r.returncode}); log in {log}")
    stamp.write_text(state)


def time_setup(raw, scaled, backends, spawns):
    """Time ``spawns`` fresh interpreters importing altcox.cli and selecting
    the backend.  Bytecode is cached under OUT, as an installed package has
    its bytecode compiled."""
    env = dict(os.environ, PYTHONPYCACHEPREFIX=str(OUT / "pycache"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    for _ in range(spawns):
        r = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(ROOT / "src"), str(HERE)],
                           cwd=ROOT, env=env, capture_output=True, text=True,
                           timeout=60, check=True)
        seconds, loop, backend = r.stdout.split()
        raw.append(float(seconds))
        scaled.append(float(seconds) * REFERENCE_S / float(loop))
        backends.add(backend)


def run_pass(cli, requests, order, failures, tracer, first_id):
    """One pass over the mix.  Returns each request's wall time in seconds
    and the factor that scales it to the reference speed."""
    raw, loops = [], []  # loops: (requests done before it, loop seconds)
    last_loop = float("-inf")
    for n, i in enumerate(order):
        if time.perf_counter() - last_loop >= LOOP_EVERY_S:
            loops.append((n, reference_loop()))
            last_loop = time.perf_counter()
        req = requests[i]
        for path in req.outputs:
            path.unlink(missing_ok=True)
        out, err = io.StringIO(), io.StringIO()
        exc = None
        if tracer:
            tracer.begin(first_id + n)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                rc = cli.main(list(req.argv))
            except Exception as e:  # the request failed; the loop goes on
                exc = e
            raw.append(time.perf_counter() - t0)
        if tracer:
            tracer.end()
        if exc is not None:
            reason = f"raised {type(exc).__name__}: {exc}"
        else:
            try:
                reason = req.check(rc, out.getvalue(), err.getvalue())
            except Exception as e:  # e.g. a file the request should have written
                reason = f"check raised {type(e).__name__}: {e}"
        if reason:
            failures.append((req, reason))
    loops.append((len(order), reference_loop()))
    scale, k = [], 0
    for n in range(len(order)):
        while loops[k + 1][0] <= n:
            k += 1
        scale.append(REFERENCE_S / ((loops[k][1] + loops[k + 1][1]) / 2))
    return raw, scale


def timing_metrics(samples, completed, setup):
    return {
        "latency_p50_ms": statistics.median(samples) * 1e3,
        "latency_p90_ms": statistics.quantiles(samples, n=10)[-1] * 1e3,
        "requests_per_s": completed / sum(samples),
        "setup_s": statistics.median(setup),
    }


def run_workload(name, seed, seconds, trace):
    if not (ROOT / "setup.py").exists() or not (ROOT / "src" / "altcox" / "__init__.py").exists():
        sys.stderr.write(f"no altcox source under {ROOT}: need setup.py and src/altcox\n")
        return 2
    OUT.mkdir(parents=True, exist_ok=True)
    build()
    sys.path.insert(0, str(ROOT / "src"))
    import altcox
    from altcox import cli, engine
    if ROOT / "src" not in Path(altcox.__file__).resolve().parents:
        sys.stderr.write(f"imported altcox from {altcox.__file__}, not from {ROOT / 'src'}\n")
        return 2
    import workloads
    from tracing import Tracer, layer_metrics

    setup_raw, setup_scaled, backends = [], [], set()
    if not trace:
        time_setup([], [], backends, 1)  # fills the bytecode cache
        time_setup(setup_raw, setup_scaled, backends, SETUP_SPAWNS_FIRST)
    tracer = Tracer() if trace else None
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT))
    try:
        requests = workloads.build(name, seed, workdir)
        # each request's (raw, scaled) times in the untraced measured passes
        times = [[] for _ in requests]
        failures, raw_samples, samples = [], [], []
        pass_seconds = {False: [], True: []}  # scaled request time per pass
        scale_by_request, pass_counts = {}, []
        attempted = completed = passes = 0
        start = time.perf_counter()
        while True:
            order = list(range(len(requests)))
            if passes:
                random.Random(f"{seed}/{passes}").shuffle(order)
            # pass 0 runs the mix in its own order on every seed, so peak RSS
            # does not hinge on the seed; in a traced run it only warms up
            warmup = trace and passes == 0
            traced = trace and passes % 2 == 0 and not warmup
            if traced:
                tracer.install()
            failed_before = len(failures)
            try:
                raw, scale = run_pass(cli, requests, order, failures,
                                      tracer if traced else None, attempted)
            finally:
                if traced:
                    tracer.uninstall()
            scaled = [r * s for r, s in zip(raw, scale)]
            if warmup:
                start = time.perf_counter()
            elif traced:
                pass_seconds[True].append(sum(scaled))
                scale_by_request.update(zip(range(attempted, attempted + len(raw)), scale))
                pass_counts.append(tracer.take_counts())
            else:
                pass_seconds[False].append(sum(scaled))
                raw_samples += raw
                samples += scaled
                for i, r, s in zip(order, raw, scaled):
                    times[i].append((r, s))
                completed += len(raw) - (len(failures) - failed_before)
            attempted += len(raw)
            passes += 1
            if not trace:
                # spread over the run, setup_s samples the machine as the requests do
                time_setup(setup_raw, setup_scaled, backends, SETUP_SPAWNS_PER_PASS)
            elapsed = time.perf_counter() - start
            if trace:
                enough = bool(pass_counts)
            else:
                enough = len(samples) >= MIN_SAMPLES or elapsed >= MAX_STRETCH * seconds
            if elapsed >= seconds and enough:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = len(failures)
    correct = failed == 0
    env = {"backend": engine.BACKEND, "python": platform.python_version(),
           "nproc": len(os.sched_getaffinity(0)), "seed": seed, "run_seconds": seconds,
           "measured_s": round(elapsed, 3),
           "passes": len(pass_seconds[False]) + len(pass_seconds[True]),
           "mix_size": len(requests), "reference_s": REFERENCE_S}
    notes, raw_metrics, detail = [], {}, {}
    if trace:
        counts = Counter()
        for c in pass_counts:
            counts.update(c)
        metrics = layer_metrics(tracer.spans, scale_by_request, counts)
        # each traced pass against the untraced pass just before it, as the
        # machine and the process drift over a run
        metrics["trace_overhead_frac"] = statistics.median(
            t / u for u, t in zip(pass_seconds[False], pass_seconds[True])) - 1
        # the core is deterministic: each traced pass must give the same counts,
        # and so must every run of this source and benchmark with this seed
        if any(c != pass_counts[0] for c in pass_counts):
            correct = False
            notes.append("engine counts differ between traced passes")
        key = digest(source_files() + sorted(HERE.glob("*.py")))[:16]
        record = OUT / "counts" / f"{name}-seed{seed}-{key}.json"
        mine = json.dumps(dict(sorted(pass_counts[0].items())))
        if record.exists() and record.read_text() != mine:
            correct = False
            notes.append(f"engine counts differ from the earlier run in {record}")
        record.parent.mkdir(exist_ok=True)
        record.write_text(mine)
        spans_path = OUT / f"spans-{name}-seed{seed}.jsonl"
        tracer.write(spans_path)
        env.update(traced_passes=len(pass_seconds[True]), traced_requests=len(scale_by_request),
                   spans=len(tracer.spans), spans_file=str(spans_path.relative_to(ROOT)))
        for m, entry in LAYER_MAP.items():
            if entry["source"] == "computed":
                detail[m] = f"computed: {entry['defined']}"
    else:
        if backends != {engine.BACKEND}:
            correct = False
            notes.append(f"fresh interpreters chose backend {sorted(backends)}")
        metrics = timing_metrics(samples, completed, setup_scaled)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        raw_metrics = timing_metrics(raw_samples, completed, setup_raw)
        beyond = len(samples) - int(0.9 * len(samples))
        detail = {
            "latency_p50_ms": f"n={len(samples)}",
            "latency_p90_ms": f"n={len(samples)}, {beyond} beyond",
            "requests_per_s": f"{completed} completed",
            "peak_rss_mb": "ru_maxrss of this process",
            "setup_s": f"median of {len(setup_scaled)} fresh interpreters",
        }
        for m, v in raw_metrics.items():
            detail[m] += f"; raw {v:.6g} {UNITS[m]}"
        if beyond < 10:
            notes.append(f"latency_p90_ms rests on {beyond} samples beyond it")

    wanted = [m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]]
    if sorted(metrics) != sorted(wanted):
        raise SystemExit(f"metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(wanted)}")

    print(f"altcox benchmark: workload={name} trace={trace} "
          + " ".join(f"{k}={v}" for k, v in env.items()))
    if trace:
        print(f"traced aliases: {' '.join(tracer.aliases)}")
        if tracer.missing:
            print(f"traced names missing from this altcox: {' '.join(tracer.missing)}")
    for m in wanted:
        print(f"{m} {metrics[m]:.6g} {UNITS[m]}" + (f" ({detail[m]})" if m in detail else ""))
    print(f"failed_frac {failed / attempted:.6g} frac ({failed}/{attempted})")
    for req, reason in failures[:SHOWN_FAILURES]:
        print(f"FAIL {' '.join(req.argv)}: {reason}")
    for note in notes:
        print(f"NOTE {note}")

    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {m: {"value": metrics[m], "unit": UNITS[m]} for m in wanted}}
    results = OUT / "results" / f"{name}-seed{seed}-trace{trace}.json"
    results.parent.mkdir(exist_ok=True)
    results.write_text(json.dumps({
        "workload": name, "trace": trace, "environment": env, **result,
        "raw_metrics": raw_metrics, "failed_frac": failed / attempted, "notes": notes,
        "failures": [{"argv": list(r.argv), "reason": why} for r, why in failures],
        "aliases_traced": tracer.aliases if trace else [],
        "request_times_s": [{"argv": list(r.argv), "raw_scaled": t}
                            for r, t in zip(requests, times)],
    }, indent=1) + "\n")
    print(f"results: {results.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


def run_all(args, names):
    """Each workload in a fresh process; the last line merges their results."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        r = subprocess.run([sys.executable, __file__, "--workload", name,
                            "--seed", str(args.seed), "--seconds", str(args.seconds),
                            "--trace", str(args.trace)],
                           stdout=subprocess.PIPE, text=True, timeout=900)
        lines = r.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if r.returncode != 0 or not lines:
            sys.stderr.write(f"workload {name} exited {r.returncode}\n")
            return r.returncode or 1
        last = json.loads(lines[-1])
        merged["correct"] &= last["correct"]
        merged["attempted"] += last["attempted"]
        merged["failed"] += last["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in last["metrics"].items()})
    print(json.dumps(merged))
    return 0


def main(argv=None):
    names = [w["name"] for w in SPEC["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=names + ["all"], default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args, names)
    return run_workload(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
