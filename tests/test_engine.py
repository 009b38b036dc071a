import hashlib
import os
import signal
import subprocess
import sys
import tracemalloc
from array import array
from pathlib import Path

import pytest

from altcox import engine
from altcox.words import Word, Presentation, render_word
from altcox.coxeter import CoxeterMatrix, standard_matrix
from altcox.chains import chain_subgroup_words
from altcox.presentations import (coxeter_presentation, chain_presentation,
                                  spinor_plus_presentation, universal_extension)
from altcox._tc_py import CapExceeded, enumerate_core as py_core

# affine A2: infinite, so every enumeration of it runs into its cap
AFFINE_A2 = CoxeterMatrix(3, ((1, 3, 3), (3, 1, 3), (3, 3, 1)))


def columns(p, sub=()):
    return (2 * p.rank, [engine._columns(w) for w in p.relators],
            [engine._columns(w) for w in sub])


def s(*ks):
    return tuple(Word.gen(k) for k in ks)


def nested(t):
    """t's (rows, arrival) in the nested form the cores returned before
    they returned flat arrays: one tuple per row, one (parent, generator)
    pair per arrival edge, None for cosets 0 and 1."""
    n = 2 * t.presentation.rank
    rows = tuple(tuple(t.rows[c * n:(c + 1) * n]) for c in range(t.index + 1))
    arrival = (None, None) + tuple(
        (t.arrival[2 * c], t.arrival[2 * c + 1]) for c in range(2, t.index + 1))
    return rows, arrival


def test_index_a3_parabolic():
    p = coxeter_presentation(standard_matrix("A", 3))
    t = engine.enumerate(p, s(0, 1))
    assert t.index == 4


def test_index_full_generator_subgroup_is_one():
    p = chain_presentation("B", "edge", 3)
    t = engine.enumerate(p, s(0, 1))
    assert t.index == 1


def test_carmichael_a4_index_five():
    p = chain_presentation("A", "carmichael", 4)
    t = engine.enumerate(p, s(0, 1))
    assert t.index == 5


def test_orders():
    assert engine.order(chain_presentation("A", "edge", 4)) == 60
    assert engine.order(chain_presentation("B", "edge", 3)) == 24
    assert engine.order(universal_extension("A5"), cap=500_000) == 2160


def test_cap_exceeded_on_infinite_group():
    inf = CoxeterMatrix(2, ((1, 0), (0, 1)))
    with pytest.raises(CapExceeded):
        engine.enumerate(coxeter_presentation(inf), (), cap=10_000)
    assert engine.order(coxeter_presentation(inf), cap=10_000) is None


def test_table_consistency_invariant():
    p = chain_presentation("D", "edge", 4)
    t = engine.enumerate(p, s(0, 1))
    ncols = 2 * p.rank
    assert len(t.rows) == (t.index + 1) * ncols
    for c in range(1, t.index + 1):
        for col in range(ncols):
            d = t.rows[c * ncols + col]
            assert d and t.rows[d * ncols + (col ^ 1)] == c


def test_relators_close_everywhere():
    p = chain_presentation("B", "bourbaki", 3)
    t = engine.enumerate(p, s(0,))
    for c in range(1, t.index + 1):
        for rel in p.relators:
            assert t.trace(c, rel) == c


def test_word_problem():
    p = chain_presentation("A", "edge", 3)
    t = engine.enumerate(p, ())
    for rel in p.relators:
        assert engine.word_in_subgroup(t, rel)
    assert not engine.word_in_subgroup(t, Word.gen(0))
    assert engine.words_equal(t, Word((1, 2, 1)), Word((2, 2)))


def test_schreier_representatives_a():
    p = coxeter_presentation(standard_matrix("A", 4))
    t = engine.enumerate(p, s(0, 1, 2))
    reps = engine.schreier(t)
    words = [w.letters for w in reps[1:]]
    assert words == [(), (4,), (3, 4), (2, 3, 4), (1, 2, 3, 4)]
    for c, w in enumerate(reps[1:], start=1):
        assert t.trace(1, w) == c
    # the arrival tree the representatives are read from
    arrival, ncols = t.arrival, 2 * p.rank
    assert arrival[:4].tolist() == [0] * 4 and len(arrival) == 2 * (t.index + 1)
    for c in range(2, t.index + 1):
        parent, gen = arrival[2 * c], arrival[2 * c + 1]
        assert parent < c and t.rows[parent * ncols + 2 * gen] == c


def test_schreier_representatives_b():
    n = 3
    p = coxeter_presentation(standard_matrix("B", n))
    reps = engine.schreier(engine.enumerate(p, s(*range(n - 1))))
    assert len(reps) - 1 == 2 * n
    # doubled-back chain: longest representative walks down through s0 and up
    longest = max(reps[1:], key=len)
    assert longest.letters == (3, 2, 1, 2, 3)


def test_schreier_index_one():
    p = Presentation(("g",), (Word.gen(0),))
    t = engine.enumerate(p, ())
    reps = engine.schreier(t)
    assert reps[1:] == (Word(),)
    dot = engine.to_dot(t)
    assert "->" not in dot


def test_dot_output():
    p = coxeter_presentation(standard_matrix("A", 3))
    t = engine.enumerate(p, s(0, 1))
    dot = engine.to_dot(t)
    assert dot.count("dir=none") == 3     # path of 4 nodes, involution edges
    assert 'label="H"' in dot
    d = coxeter_presentation(standard_matrix("D", 4))
    td = engine.enumerate(d, s(0, 1, 2))
    dotd = engine.to_dot(td)
    assert 'label="s0"' in dotd and 'label="s1"' in dotd


def test_determinism():
    p = chain_presentation("D", "edge", 4)
    t1 = engine.enumerate(p, s(0, 1))
    t2 = engine.enumerate(p, s(0, 1))
    assert t1.rows == t2.rows
    assert engine.to_dot(t1) == engine.to_dot(t2)


def golden_cases():
    """296 enumerations: every A2-A7/B2-B6/D3-D6 chain presentation in each
    variant over every prefix subgroup and its chain subgroup, then the
    Coxeter and four spinor-plus presentations of A1-A5, B2-B5, D4-D5 and
    the A5 cover, all regular."""
    for f, ranks in (("A", range(2, 8)), ("B", range(2, 7)), ("D", range(3, 7))):
        for n in ranks:
            for v in ("carmichael", "bourbaki", "edge"):
                p = chain_presentation(f, v, n)
                for k in range(p.rank + 1):
                    yield p, s(*range(k))
                yield p, chain_subgroup_words(f, v, n)
    for f, ranks in (("A", range(1, 6)), ("B", range(2, 6)), ("D", range(4, 6))):
        for n in ranks:
            m = standard_matrix(f, n)
            yield coxeter_presentation(m), ()
            for style in ("bourbaki", "edge"):
                for variant in ("tilde", "tilde_prime"):
                    yield spinor_plus_presentation(m, style, variant), ()
    yield universal_extension("A5"), ()


# taken with the renumbering still in engine.enumerate, before the cores
# standardized their own tables
ENUMERATION_DIGEST = "96fc374324ac96181e51816bad13aa97870e00aa7e936a07952d5ac0ead88d94"


@pytest.mark.parametrize("backend", ["python", "compiled"])
def test_enumeration_golden(backend, request, monkeypatch):
    """Rows and arrival trees (hence Schreier words) of both cores, through
    engine.enumerate, pinned by one SHA-256."""
    core = py_core if backend == "python" else request.getfixturevalue("c_core")
    monkeypatch.setattr(engine, "_core", core)
    h = hashlib.sha256()
    n = 0
    for p, sub in golden_cases():
        t = engine.enumerate(p, sub, cap=500_000)
        h.update(repr(nested(t)).encode())
        n += 1
    assert n == 296
    assert h.hexdigest() == ENUMERATION_DIGEST


@pytest.mark.parametrize("backend", ["python", "compiled"])
def test_core_returns_flat_arrays(backend, request):
    """Each core returns rows, parent and arrival as flat array('i') with
    (index+1)*ncols, ndef+1 and 2*(index+1) entries; row 0 and the
    arrivals of cosets 0 and 1 are zeros, and parent has one root per
    live coset (and the root 0)."""
    core = py_core if backend == "python" else request.getfixturevalue("c_core")
    for p, sub in ((chain_presentation("A", "edge", 5), s(0, 1)),
                   (chain_presentation("B", "carmichael", 4), ()),
                   (universal_extension("A5"), ())):
        ncols, relators, subwords = columns(p, sub)
        rows, ndef, parent, arrival = core(ncols, relators, subwords, 50_000)
        index = engine.enumerate(p, sub).index
        for seq in (rows, parent, arrival):
            assert type(seq) is array and seq.typecode == "i"
        assert len(rows) == (index + 1) * ncols
        assert len(parent) == ndef + 1
        assert len(arrival) == 2 * (index + 1)
        assert rows[:ncols].tolist() == [0] * ncols
        assert arrival[:4].tolist() == [0] * 4
        assert sum(parent[c] == c for c in range(1, ndef + 1)) == index


def test_schreier_words_reduced_and_texts_rendered():
    """The arrival-tree shortcuts match the general path: every Schreier
    word is freely reduced and schreier_texts is render_word of it."""
    for p, sub in golden_cases():
        t = engine.enumerate(p, sub, cap=500_000)
        reps, texts = engine.schreier(t), engine.schreier_texts(t)
        assert len(reps) == len(texts) == t.index + 1
        for c in range(1, t.index + 1):
            assert reps[c] == Word(reps[c].letters)
            assert texts[c] == render_word(reps[c], p)


def test_backend_equivalence(c_core):
    cases = []
    for f, n in (("A", 4), ("B", 3), ("D", 4)):
        for v in ("carmichael", "bourbaki", "edge"):
            cases.append((chain_presentation(f, v, n), ()))
            cases.append((chain_presentation(f, v, n), chain_subgroup_words(f, v, n)))
        cases.append((coxeter_presentation(standard_matrix(f, n)), s(*range(n - 1))))
    a4 = standard_matrix("A", 4)
    cases += [(spinor_plus_presentation(a4, style, variant), ())
              for style in ("bourbaki", "edge") for variant in ("tilde", "tilde_prime")]
    cases.append((coxeter_presentation(a4), s(0, 1)))
    cases.append((universal_extension("A5"), ()))
    for p, sub in cases:
        args = columns(p, sub)
        want = py_core(*args, 50_000)
        assert len(want) == 4  # (rows, ndef, parent, arrival)
        assert want == c_core(*args, 50_000), p.generators
        # the cap boundary: exactly ndef cosets completes, one fewer does not
        ndef = want[1]
        assert py_core(*args, ndef) == c_core(*args, ndef) == want
        for core in (py_core, c_core):
            with pytest.raises(CapExceeded):
                core(*args, ndef - 1)
    for core in (py_core, c_core):
        with pytest.raises(CapExceeded):
            core(*columns(coxeter_presentation(AFFINE_A2)), 20_000)


def test_backend_cap_equivalence(c_core):
    inf = coxeter_presentation(CoxeterMatrix(2, ((1, 0), (0, 1))))
    for core in (py_core, c_core):
        with pytest.raises(CapExceeded):
            core(*columns(inf), 100)


def test_cores_reject_bad_input(c_core):
    rel = [(0, 0), (2, 2)]
    for core in (py_core, c_core):
        for ncols, words, cap in ((4, rel, 0), (4, rel, 2**31 - 2), (3, rel, 10),
                                  (0, rel, 10), (4, rel + [(0, 4)], 10),
                                  (4, [(0, -1)], 10), (4, [(0, "x")], 10)):
            with pytest.raises(ValueError):
                core(ncols, words, [], cap)
            with pytest.raises(ValueError):
                core(ncols, [], words, cap)
        with pytest.raises(TypeError):
            core(4, [5], [], 10)


def test_pure_core_memory_follows_cosets_not_cap():
    args = columns(chain_presentation("A", "edge", 3))
    peaks = []
    for cap in (1_000, 2_000_000):
        tracemalloc.start()
        try:
            py_core(*args, cap)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 2 * peaks[0], peaks


def test_compiled_core_stops_on_signal(c_core):
    """A signal handler's exception ends the compiled loop, as Ctrl-C's
    KeyboardInterrupt must.  The run would define 2,000,000 cosets before
    raising CapExceeded, far more than fit in the 20 ms before the timer."""
    class Interrupted(Exception):
        pass

    def handler(signum, frame):
        raise Interrupted

    args = columns(coxeter_presentation(AFFINE_A2))
    previous = signal.signal(signal.SIGALRM, handler)
    try:
        signal.setitimer(signal.ITIMER_REAL, 0.02)
        with pytest.raises(Interrupted):
            c_core(*args, 2_000_000)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_subgroup_indices_grow_linearly():
    for fam, ranks, idx in (("A", range(3, 6), lambda n: n + 1),
                            ("B", range(3, 5), lambda n: 2 * n),
                            ("D", range(4, 6), lambda n: 2 * n)):
        for n in ranks:
            for v in ("carmichael", "bourbaki", "edge"):
                p = chain_presentation(fam, v, n)
                t = engine.enumerate(p, s(*range(n - 2)))
                assert t.index == idx(n), (fam, v, n)


def test_bench_enumerate_script_runs():
    # the script reaches into engine internals; running it here keeps a
    # rename from breaking it unnoticed
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])))
    r = subprocess.run([sys.executable, str(root / "benchmarks" / "bench_enumerate.py"),
                        "--repeat", "1"], capture_output=True, text=True, env=env,
                       timeout=120)
    assert r.returncode == 0, r.stderr
    header, *cases = r.stdout.splitlines()
    assert header.startswith("case") and len(cases) == 7
