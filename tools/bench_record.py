"""Record the benchmark's end-to-end metrics in BENCH_<workload>.json files.

    python tools/bench_record.py

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
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RESULTS = ROOT / ".bench_build" / "perfbench" / "results"
# the files whose changes change what the benchmark measures
SOURCE = ("src", "perfbench", "setup.py", "pyproject.toml", "BENCHMARK.json")
ENVIRONMENT = ("seed", "run_seconds", "measured_s", "backend", "nproc", "python")
# the fields that two runs must share for their metrics to be compared
COMPARABLE = ("seed", "run_seconds", "backend", "nproc", "python")
SEED = 1


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


def main(argv=None):
    argparse.ArgumentParser(description=__doc__.split("\n\n")[0]).parse_args(argv)
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
