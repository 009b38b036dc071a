import pytest

from altcox import engine
from altcox.words import Word, Presentation
from altcox.coxeter import CoxeterMatrix, standard_matrix
from altcox.presentations import (coxeter_presentation, chain_presentation,
                                  universal_extension)
from altcox._tc_py import enumerate_core as py_core

try:
    from altcox._tc_core import enumerate_core as c_core
except ImportError:
    c_core = None


def s(*ks):
    return tuple(Word.gen(k) for k in ks)


def test_index_a3_parabolic():
    p = coxeter_presentation(standard_matrix("A", 3))
    r = engine.enumerate(p, s(0, 1))
    assert r.completed and r.index == 4


def test_index_full_generator_subgroup_is_one():
    p = chain_presentation("B", "edge", 3)
    r = engine.enumerate(p, s(0, 1))
    assert r.index == 1


def test_carmichael_a4_index_five():
    p = chain_presentation("A", "carmichael", 4)
    r = engine.enumerate(p, s(0, 1))
    assert r.index == 5


def test_orders():
    assert engine.order(chain_presentation("A", "edge", 4)) == 60
    assert engine.order(chain_presentation("B", "edge", 3)) == 24
    assert engine.order(universal_extension("A5"), cap=500_000) == 2160


def test_cap_exceeded_on_infinite_group():
    inf = CoxeterMatrix(2, ((1, 0), (0, 1)))
    r = engine.enumerate(coxeter_presentation(inf), (), cap=10_000)
    assert r.status == "cap_exceeded" and r.table is None
    assert engine.order(coxeter_presentation(inf), cap=10_000) is None


def test_table_consistency_invariant():
    p = chain_presentation("D", "edge", 4)
    t = engine.enumerate(p, s(0, 1)).table
    ncols = 2 * p.rank
    for c in range(1, t.index + 1):
        for col in range(ncols):
            d = t.rows[c][col]
            assert d and t.rows[d][col ^ 1] == c


def test_relators_close_everywhere():
    p = chain_presentation("B", "bourbaki", 3)
    r = engine.enumerate(p, s(0,))
    for c in range(1, r.index + 1):
        for rel in p.relators:
            assert r.table.trace(c, rel) == c


def test_word_problem():
    p = chain_presentation("A", "edge", 3)
    r = engine.enumerate(p, ())
    for rel in p.relators:
        assert engine.word_in_subgroup(r, rel)
    assert not engine.word_in_subgroup(r, Word.gen(0))
    assert engine.words_equal(r, Word((1, 2, 1)), Word((2, 2)))


def test_schreier_representatives_a():
    p = coxeter_presentation(standard_matrix("A", 4))
    g = engine.schreier(engine.enumerate(p, s(0, 1, 2)))
    words = [w.letters for w in g.representatives[1:]]
    assert words == [(), (4,), (3, 4), (2, 3, 4), (1, 2, 3, 4)]
    for c, w in enumerate(g.representatives[1:], start=1):
        assert g.table.trace(1, w) == c
    # the arrival tree the representatives are read from
    arrival = g.table.arrival
    assert arrival[:2] == (None, None) and len(arrival) == g.table.index + 1
    for c in range(2, g.table.index + 1):
        parent, gen = arrival[c]
        assert parent < c and g.table.rows[parent][2 * gen] == c


def test_schreier_representatives_b():
    n = 3
    p = coxeter_presentation(standard_matrix("B", n))
    g = engine.schreier(engine.enumerate(p, s(*range(n - 1))))
    assert len(g.representatives) - 1 == 2 * n
    # doubled-back chain: longest representative walks down through s0 and up
    longest = max(g.representatives[1:], key=len)
    assert longest.letters == (3, 2, 1, 2, 3)


def test_schreier_index_one():
    p = Presentation(("g",), (Word.gen(0),))
    g = engine.schreier(engine.enumerate(p, ()))
    assert g.representatives[1:] == (Word(),)
    dot = engine.to_dot(g)
    assert "->" not in dot


def test_dot_output():
    p = coxeter_presentation(standard_matrix("A", 3))
    g = engine.schreier(engine.enumerate(p, s(0, 1)))
    dot = engine.to_dot(g)
    assert dot.count("dir=none") == 3     # path of 4 nodes, involution edges
    assert 'label="H"' in dot
    d = coxeter_presentation(standard_matrix("D", 4))
    gd = engine.schreier(engine.enumerate(d, s(0, 1, 2)))
    dotd = engine.to_dot(gd)
    assert 'label="s0"' in dotd and 'label="s1"' in dotd


def test_determinism():
    p = chain_presentation("D", "edge", 4)
    r1 = engine.enumerate(p, s(0, 1))
    r2 = engine.enumerate(p, s(0, 1))
    assert r1.table.rows == r2.table.rows
    assert engine.to_dot(engine.schreier(r1)) == engine.to_dot(engine.schreier(r2))


@pytest.mark.skipif(c_core is None, reason="compiled core not built")
def test_backend_equivalence():
    cases = [(chain_presentation(f, v, n), ())
             for f, n in (("A", 4), ("B", 3), ("D", 4))
             for v in ("carmichael", "bourbaki", "edge")]
    cases.append((coxeter_presentation(standard_matrix("A", 4)), s(0, 1)))
    cases.append((universal_extension("A5"), ()))
    for p, sub in cases:
        ncols = 2 * p.rank
        rel = [engine._columns(w) for w in p.relators]
        sw = [engine._columns(w) for w in sub]
        assert py_core(ncols, rel, sw, 50_000) == c_core(ncols, rel, sw, 50_000)


def test_backend_cap_equivalence():
    from altcox._tc_py import CapExceeded
    inf = coxeter_presentation(CoxeterMatrix(2, ((1, 0), (0, 1))))
    rel = [engine._columns(w) for w in inf.relators]
    with pytest.raises(CapExceeded):
        py_core(4, rel, [], 100)
    if c_core is not None:
        with pytest.raises(CapExceeded):
            c_core(4, rel, [], 100)


def test_subgroup_indices_grow_linearly():
    for fam, ranks, idx in (("A", range(3, 6), lambda n: n + 1),
                            ("B", range(3, 5), lambda n: 2 * n),
                            ("D", range(4, 6), lambda n: 2 * n)):
        for n in ranks:
            for v in ("carmichael", "bourbaki", "edge"):
                p = chain_presentation(fam, v, n)
                r = engine.enumerate(p, s(*range(n - 2)))
                assert r.index == idx(n), (fam, v, n)
