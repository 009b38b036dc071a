"""Compare engine.enumerate and engine.index on the compiled and
pure-Python cores.

Run as: python3 benchmarks/bench_enumerate.py [--repeat N]
Times are in milliseconds, the minimum over N >= 1 runs.  Each time
covers one whole engine call on a fresh copy of the presentation, so
encoding its words is timed too.  The "table" columns time
engine.enumerate: the core's enumeration and its standardization of the
table.  The "index" columns time engine.index, the same enumeration
counted without standardizing its table (the core still returns a copy
of the table in its own coset ids), which is what an ``altcox
enumerate`` that writes no artifact runs.  The "defined" columns give
the cosets each core defines for the case, live and dead, which both
calls share; a presentation with g^2 relators defines fewer than with
two columns per generator, as its involutions get one self-inverse
column each.  The compiled columns need the
extension built first, for a source checkout with
``python setup.py build_ext --inplace``.  The last row times a layer
that no core runs: engine.schreier_texts on one finished table, the
representative strings that ``altcox enumerate --reps`` and ``--dot``
write.
"""

import argparse
import copy
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
    ("A7 alternating edge, regular", chain_presentation("A", "edge", 7), ()),
    ("B4 alternating bourbaki, regular", chain_presentation("B", "bourbaki", 4), ()),
    ("D5 alternating carmichael, regular",
     chain_presentation("D", "carmichael", 5), ()),
    ("A5 six-fold cover, regular", universal_extension("A5"), ()),
    ("A7 alternating edge over first 5 gens",
     chain_presentation("A", "edge", 7),
     tuple(Word.gen(k) for k in range(5))),
]


def run(core, call, p, sub, cap=500_000):
    """Seconds for one engine call, enumerate or index, on the given core."""
    p = copy.copy(p)  # its relators not yet encoded
    saved, engine._core = engine._core, core
    try:
        t0 = time.perf_counter()
        call(p, sub, cap)
        return time.perf_counter() - t0
    finally:
        engine._core = saved


def defined(core, p, sub, cap=500_000):
    """Cosets the given core defines for <sub> in p."""
    subwords = [engine._columns(w) for w in sub]
    return core(2 * p.rank, engine._relator_columns(p), subwords, cap, False)[1]


def run_schreier_texts(t):
    """Seconds for the Schreier words' texts of table t."""
    t0 = time.perf_counter()
    engine.schreier_texts(t)
    return time.perf_counter() - t0


def at_least_one(text):
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, not {n}")
    return n


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--repeat", type=at_least_one, default=3)
    args = ap.parse_args()
    cores = [("python", py_core), ("compiled", c_core)]
    print(f"{'case':45s}" + "".join(
        f" {name + ' table':>16s} {name + ' index':>16s} {name + ' defined':>16s}"
        for name, _ in cores))
    for name, p, sub in CASES:
        cells = []
        for _, core in cores:
            if core is None:
                cells += [f"{'n/a':>16s}"] * 3
                continue
            for call in (engine.enumerate, engine.index):
                t = min(run(core, call, p, sub) for _ in range(args.repeat))
                cells.append(f"{t * 1e3:14.3f}ms")
            cells.append(f"{defined(core, p, sub):16d}")
        print(f"{name:45s} " + " ".join(cells))
    t = engine.enumerate(chain_presentation("B", "edge", 5), ())
    t_w = min(run_schreier_texts(t) for _ in range(args.repeat))
    print(f"{'B5 edge regular (1920): schreier texts':45s} {t_w * 1e3:14.3f}ms")


if __name__ == "__main__":
    main()
