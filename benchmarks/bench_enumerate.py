"""Compare engine.enumerate on the compiled and pure-Python cores.

Run as: python3 benchmarks/bench_enumerate.py [--repeat N]
Times are in milliseconds, the minimum over N runs.  Each time covers the whole engine.enumerate call: encoding the words, the
core's enumeration and its standardization of the table.  The compiled
column needs the extension built first, for a source checkout with
``python setup.py build_ext --inplace``.  The last row times the Word
layer instead, which no core runs: engine.schreier plus
engine.schreier_texts on one finished table.
"""

import argparse
import time

from altcox import engine
from altcox._tc_py import enumerate_core as py_core
from altcox.coxeter import standard_matrix
from altcox.presentations import (chain_presentation, coxeter_presentation,
                                  universal_extension)
from altcox.words import Word

try:
    from altcox._tc_core import enumerate_core as c_core
except ImportError:
    c_core = None


CASES = [
    ("A5 symmetric, regular", coxeter_presentation(standard_matrix("A", 5)), ()),
    ("A6 alternating edge, regular", chain_presentation("A", "edge", 6), ()),
    ("B4 alternating bourbaki, regular", chain_presentation("B", "bourbaki", 4), ()),
    ("D5 alternating carmichael, regular",
     chain_presentation("D", "carmichael", 5), ()),
    ("A5 six-fold cover, regular", universal_extension("A5"), ()),
    ("A7 alternating edge over first 5 gens",
     chain_presentation("A", "edge", 7),
     tuple(Word.gen(k) for k in range(5))),
]


def run(core, p, sub, cap=500_000):
    """Seconds for one engine.enumerate call on the given core."""
    saved, engine._core = engine._core, core
    try:
        t0 = time.perf_counter()
        engine.enumerate(p, sub, cap)
        return time.perf_counter() - t0
    finally:
        engine._core = saved


def run_schreier(t):
    """Seconds for the Schreier words and their texts of table t."""
    t0 = time.perf_counter()
    engine.schreier(t)
    engine.schreier_texts(t)
    return time.perf_counter() - t0


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--repeat", type=int, default=3)
    args = ap.parse_args()
    print(f"{'case':45s} {'python':>11s} {'compiled':>11s} {'speedup':>8s}")
    for name, p, sub in CASES:
        t_py = min(run(py_core, p, sub) for _ in range(args.repeat))
        if c_core is None:
            print(f"{name:45s} {t_py * 1e3:9.3f}ms {'n/a':>11s} {'n/a':>8s}")
            continue
        t_c = min(run(c_core, p, sub) for _ in range(args.repeat))
        print(f"{name:45s} {t_py * 1e3:9.3f}ms {t_c * 1e3:9.3f}ms {t_py / t_c:7.1f}x")
    t = engine.enumerate(chain_presentation("B", "edge", 5), ())
    t_w = min(run_schreier(t) for _ in range(args.repeat))
    print(f"{'B5 edge regular (1920): schreier + texts':45s} {t_w * 1e3:9.3f}ms")


if __name__ == "__main__":
    main()
