"""Record the benchmark's end-to-end metrics in BENCH_<workload>.json files.

    python tools/bench_record.py
    python tools/bench_record.py --reach [--write]

For each workload that BENCHMARK.json declares it runs ``perfbench/run.py
--workload NAME`` in a fresh process, at seed 1 and BENCHMARK.json's run
length, and reads the results file that run writes under
.bench_build/perfbench/results/.  From it, it writes BENCH_<workload>.json
at the repository root: the scaled and raw metrics, the request counts,
the git revision (and whether the source differs from it), the seed, the
run length, the backend, the number of CPUs and the Python version.  It
prints each metric's change from the BENCH_<workload>.json committed at
HEAD, beside that metric's bound in BENCHMARK.json, and marks a change
worse than its bound; when the committed file was run with another seed,
run length, backend, CPU count or Python, it names those and compares
nothing.  A run that fails, or whose outputs are not all correct, writes
no file and makes the script exit 1.

With --reach it runs no workload.  It checks how far ``altcox order``
reaches at its default cap against BENCH_reach.json.  For each family A,
B and D and each variant of REACH_VARIANTS it runs ``altcox order`` in a
fresh interpreter at every rank from 3 to 11, and records the highest
rank that exits 0, with that run's wall time (the interpreter's start
included) and peak RSS, or a rank of null when none does.  It prints
each rank beside the one in the BENCH_reach.json committed at HEAD, and
marks each (family, variant) whose rank fell below that one (a rank of
null is below any rank), and exits 1 when any rank fell.  It writes
nothing unless given --write, which writes BENCH_reach.json from the
run, whether or not a rank fell.  Reach counts what exits 0 at the
default cap, not time, so the committed record holds on any machine.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RESULTS = ROOT / ".bench_build" / "perfbench" / "results"
REACH = ROOT / "BENCH_reach.json"
# the files whose changes change what the benchmark measures
SOURCE = ("src", "perfbench", "setup.py", "pyproject.toml", "BENCHMARK.json")
ENVIRONMENT = ("seed", "run_seconds", "measured_s", "backend", "nproc", "python")
# the fields that two runs must share for their metrics to be compared
COMPARABLE = ("seed", "run_seconds", "backend", "nproc", "python")
SEED = 1
# the variants whose reach --reach records: the --variant values that name
# an A, a B and a D group by --family and --rank (vv is type A only)
REACH_VARIANTS = ("coxeter", "carmichael", "bourbaki", "edge", "tilde", "tilde-prime",
                  "tilde-plus-bourbaki", "tilde-plus-edge",
                  "tilde-prime-plus-bourbaki", "tilde-prime-plus-edge")
REACH_RANKS = range(3, 12)


def _git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)


def revision():
    """The commit checked out, and whether the measured source differs from it."""
    head = _git("rev-parse", "HEAD").stdout.strip()
    modified = bool(_git("status", "--porcelain", "--", *SOURCE).stdout.strip())
    return head, modified


def record(results, head, modified):
    """The BENCH file of one run of perfbench/run.py, from its results."""
    env = results["environment"]
    return {"workload": results["workload"], "revision": head,
            "source_modified": modified, **{k: env[k] for k in ENVIRONMENT},
            "correct": results["correct"], "attempted": results["attempted"],
            "failed": results["failed"],
            "metrics": {m: v["value"] for m, v in results["metrics"].items()},
            "units": {m: v["unit"] for m, v in results["metrics"].items()},
            "raw_metrics": results["raw_metrics"]}


def committed(name):
    """BENCH_<name>.json as committed at HEAD, or None."""
    r = _git("show", f"HEAD:BENCH_{name}.json")
    return json.loads(r.stdout) if r.returncode == 0 else None


def changes(bench, previous):
    """One line per end-to-end metric: its value, its change from previous
    and its bound, marked when the change is worse than the bound; or one
    line naming the fields in which the two runs' environments differ."""
    name = bench["workload"]
    if previous is None:
        return [f"{name}: no committed BENCH_{name}.json to compare with"]
    differ = [f"{k} {previous[k]} -> {bench[k]}" for k in COMPARABLE
              if previous[k] != bench[k]]
    if differ:
        return [f"{name}: not compared with the committed BENCH_{name}.json: "
                + ", ".join(differ)]
    lines = []
    for spec in SPEC["end_to_end"]:
        m, bound = spec["name"], spec["bound"]
        new, old = bench["metrics"][m], previous["metrics"][m]
        change = (new - old) / old if old else 0.0
        worse = change if spec["better"] == "lower" else -change
        lines.append(f"{name} {m} {old:.6g} -> {new:.6g} {bench['units'][m]} "
                     f"{change:+.1%} (bound {bound:.0%}, {spec['better']} is better)"
                     + (" WORSE THAN BOUND" if worse > bound else ""))
    return lines


def _altcox(*args):
    """The exit code, wall time in s and peak RSS in MB of one altcox
    command in a fresh interpreter, over the source in this checkout."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "altcox.cli", *args], cwd=ROOT,
                            env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)  # the child's own peak RSS
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024


def reach(families="ABD", variants=REACH_VARIANTS, ranks=REACH_RANKS):
    """{family: {variant: {"rank", "wall_s", "peak_rss_mb"}}} for the
    highest rank at which ``altcox order`` exits 0, every rank tried."""
    table = {}
    for family in families:
        for variant in variants:
            best = {"rank": None, "wall_s": None, "peak_rss_mb": None}
            for rank in ranks:
                code, wall, rss = _altcox("order", "--family", family,
                                          "--rank", str(rank), "--variant", variant)
                if code == 0:
                    best = {"rank": rank, "wall_s": round(wall, 3),
                            "peak_rss_mb": round(rss, 1)}
            table.setdefault(family, {})[variant] = best
    return table


def record_reach():
    """BENCH_reach.json's contents, one line per family and variant, and
    whether any rank fell below the committed one."""
    backend = subprocess.run(
        [sys.executable, "-c", "from altcox import engine; print(engine.BACKEND)"],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True, check=True).stdout.strip()
    head, modified = revision()
    table = reach()
    bench = {"workload": "reach", "revision": head, "source_modified": modified,
             "backend": backend, "nproc": os.cpu_count(),
             "python": platform.python_version(),
             "ranks": [REACH_RANKS.start, REACH_RANKS.stop - 1], "reach": table}
    previous = (committed("reach") or {}).get("reach", {})
    lines, fell = [], False
    for f, rows in table.items():
        for v, row in rows.items():
            old = previous.get(f, {}).get(v, {}).get("rank", "none")
            lower = isinstance(old, int) and (row["rank"] or 0) < old
            fell |= lower
            lines.append(f"reach {f} {v} {row['rank']} (committed {old})"
                         + (" FELL BELOW COMMITTED" if lower else ""))
    return bench, lines, fell


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--reach", action="store_true",
                    help="check how far altcox order reaches against BENCH_reach.json")
    ap.add_argument("--write", action="store_true",
                    help="with --reach, write the run to BENCH_reach.json")
    args = ap.parse_args(argv)
    if args.write and not args.reach:
        ap.error("--write goes with --reach")
    if args.reach:
        bench, lines, fell = record_reach()
        print("\n".join(lines))
        if args.write:
            REACH.write_text(json.dumps(bench, indent=1) + "\n")
        return int(fell)
    status = 0
    for name in (w["name"] for w in SPEC["workloads"]):
        r = subprocess.run([sys.executable, str(ROOT / "perfbench" / "run.py"),
                            "--workload", name, "--seed", str(SEED),
                            "--seconds", str(SPEC["run_seconds"])], cwd=ROOT)
        results = RESULTS / f"{name}-seed{SEED}-trace0.json"
        if r.returncode != 0 or not results.exists():
            print(f"{name}: perfbench/run.py exited {r.returncode}")
            status = 1
            continue
        bench = record(json.loads(results.read_text()), *revision())
        if not bench["correct"]:
            print(f"{name}: {bench['failed']} of {bench['attempted']} requests "
                  "failed their check; no file written")
            status = 1
            continue
        print("\n".join(changes(bench, committed(name))))
        (ROOT / f"BENCH_{name}.json").write_text(json.dumps(bench, indent=1) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
