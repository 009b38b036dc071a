import hashlib
import itertools
import json
import math
import os
import pickle
import signal
import subprocess
import sys
import tracemalloc
from array import array
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from altcox import cli, engine
from altcox.words import InputError, Word, Presentation, render_word
from altcox.coxeter import CoxeterMatrix, standard_matrix
from altcox.presentations import (coxeter_presentation, chain_presentation,
                                  spinor_presentation, spinor_plus_presentation,
                                  universal_extension)
from altcox._tc_py import CapExceeded, enumerate_core as py_core

from subgroups import chain_subgroup_words, schreier_words

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


def test_rank_zero_is_the_trivial_group():
    p = Presentation((), ())
    assert engine.index(p) == engine.enumerate(p).index == engine.order(p) == 1


def counting_core(monkeypatch, core=None):
    """Route engine's core calls through a recorder; returns the list of
    each call's column count and subgroup column words."""
    runs, core = [], core or engine._core
    monkeypatch.setattr(engine, "_core",
                        lambda *a: runs.append((a[0], list(a[2]))) or core(*a))
    return runs


def test_cap_exceeded_on_infinite_group(monkeypatch):
    inf = CoxeterMatrix(2, ((1, 0), (0, 1)))
    with pytest.raises(CapExceeded):
        engine.enumerate(coxeter_presentation(inf), (), cap=10_000)
    # <s0> has infinite index: order's one enumeration meets the cap, and
    # it does not go on to the trivial subgroup
    runs = counting_core(monkeypatch)
    assert engine.order(coxeter_presentation(inf), cap=10_000) is None
    assert runs == [(4, [(0,)])]


def presented(generators, *relators, central=()):
    return Presentation.from_json(json.dumps({
        "generators": generators, "relators": list(relators),
        "central": [{"name": name, "order": k} for name, k in central]}))


@pytest.mark.parametrize("backend", ["python", "compiled"])
@pytest.mark.parametrize("p, want, subgroups", [
    # <x> is the whole group, and x^2 moves no coset: x^4 = 1 is not x's
    # order, and k * [G:<x>] would say 4
    (presented(["x"], "x^4", "x^2"), 2, [[(0,)], []]),
    # S3: x moves <x>'s three cosets, but x^2 = x^(4/2), or x^(6/3), moves none
    (presented(["x", "y"], "x^4", "x^2", "y^3", "x y x y"), 6, [[(0,)], []]),
    (presented(["x", "y"], "x^6", "x^2", "y^3", "x y x y"), 6, [[(0,)], []]),
    # <x> is normal, so it fixes every coset of its own
    (presented(["x", "y"], "x^6", "y^2", "x y x^-1 y^-1"), 12, [[(0,)], []]),
    # A4: x of order 3 (given as x^-3) certified on <x>'s four cosets
    (presented(["x", "y"], "x^-3", "y^2", "y x y x y x"), 12, [[(0,)]]),
    # the largest power, then the lowest generator
    (presented(["x", "y"], "x^2", "y^3", "x y x y x y"), 12, [[(2,)]]),
    (presented(["x", "y"], "x^3", "y^3", "x y x y"), 12, [[(0,)]]),
    # the only pure power is alpha^2, and alpha is central
    (spinor_presentation(standard_matrix("A", 3), "tilde_prime"), 48, [[]]),
], ids=["cyclic", "square-below-k", "order-below-k", "normal", "certified",
        "largest-k", "lowest-g", "central-only"])
def test_order_through_a_cyclic_subgroup(backend, request, monkeypatch, p, want,
                                         subgroups):
    """engine.order's enumerations at rank 2, where no pair is tried: the
    subgroup of each, the certificate's fallback to the trivial subgroup,
    and the order it returns."""
    core = py_core if backend == "python" else request.getfixturevalue("c_core")
    runs = counting_core(monkeypatch, core)
    assert engine.order(p) == want
    assert runs == [(2 * p.rank, words) for words in subgroups]


@pytest.mark.parametrize("backend", ["python", "compiled"])
@pytest.mark.parametrize("p, want, bound, runs", [
    # S5: <s0, s1> = S3 counted (6), certified on its twenty cosets
    (coxeter_presentation(standard_matrix("A", 4)), 120, 1000,
     [(4, []), (8, [(0,), (2,)])]),
    # S3 x S3 on a = z, b = w, c = z x, e = w^-1 y: <y, x> is the diagonal
    # S3, whose orbits on its six cosets have sizes 1, 3 and 2, none 6
    (presented(["x", "y", "z", "w"], "x^2", "y^3", "x y x y", "z^2", "w^3",
               "z w z w", "z x z x", "w^-1 y w^-1 y w^-1 y", "z x w^-1 y z x w^-1 y",
               "z x z^-1 x^-1", "z w^-1 y z^-1 y^-1 w", "w z x w^-1 x^-1 z^-1",
               "y w^-1 y^-1 w"), 36, 1000, [(4, []), (8, [(2,), (0,)])]),
    # S4: <s0, s1> fixes each of its four cosets, too few for an orbit of
    # six, so s0 is certified on the twelve cosets of <s0>
    (coxeter_presentation(standard_matrix("A", 3)), 24, 1000,
     [(4, []), (6, [(0,), (2,)]), (6, [(0,)])]),
    # x = y through w = 1, so G is trivial, not A4: neither <x, y> (12)
    # nor <x> (3) is certified on one coset, and the trivial subgroup is
    (presented(["x", "y", "w"], "x^3", "y^3", "x y x y", "w", "x w y^-1"), 1, 1000,
     [(4, []), (6, [(0,), (2,)]), (6, [(0,)]), (6, [])]),
    # <y, x> presents the infinite triangle group (2, 3, 8): its count
    # reaches the bound, and the pair is dropped for <y> in G = S4
    (presented(["x", "y", "z"], "x^2", "y^3", "x y x y x y x y x y x y x y x y",
               "z^2", "x y x y z^-1"), 24, 1000, [(4, []), (6, [(2,)])]),
    # at a bound of 5 cosets <s0, s1> = S3 is dropped, and the next h
    # gives <s0, s2> = C2 x C2, counted and certified
    (coxeter_presentation(standard_matrix("A", 4)), 120, 5,
     [(4, []), (4, []), (8, [(0,), (4,)])]),
    # <x, y> = <x> has order 3, no more than x's, so y is passed over for
    # z; in G = S3, <x, z> has index 1 and <x> is normal
    (presented(["x", "y", "z"], "x^3", "x y", "z^2", "x z x z"), 6, 1000,
     [(4, []), (4, []), (6, [(0,), (4,)]), (6, [(0,)]), (6, [])]),
    # c is the lowest generator with a two-letter relator in y, but
    # central; <y, x> = A4 has index 2 and fixes both cosets
    (presented(["c", "x", "y"], "x^2", "y^3", "x y x y x y", "c^2",
               "c x c^-1 x^-1", "c y c^-1 y^-1", central=[("c", 2)]), 24, 1000,
     [(4, []), (6, [(4,), (2,)]), (6, [(4,)])]),
], ids=["certified", "orbit-lcm", "fallback", "collapsed", "bounded", "bound",
        "not-above-k", "central"])
def test_order_through_a_pair(backend, request, monkeypatch, p, want, bound, runs):
    """engine.order's core calls at rank 3 and above: the count of the
    pair's group, with four columns and no subgroup, then the tables over
    <g, h> and <g>, then the trivial subgroup, until one certifies."""
    core = py_core if backend == "python" else request.getfixturevalue("c_core")
    monkeypatch.setattr(engine, "PAIR_BOUND", bound)
    calls = counting_core(monkeypatch, core)
    assert engine.order(p) == want
    assert calls == runs


def regular_cases():
    """The golden corpus's trivial-subgroup enumerations, all of finite
    groups, and the A6 cover."""
    for p, sub in golden_cases():
        if not sub:
            yield p
    yield universal_extension("A6")


@pytest.mark.parametrize("backend", ["python", "compiled"])
def test_order_agrees_with_the_regular_index(backend, request, monkeypatch):
    """order is the regular index on every corpus case, through the paths
    pinned here: each is the sizes of the subgroups order enumerates, in
    turn, with the pair's counts left out."""
    core = py_core if backend == "python" else request.getfixturevalue("c_core")
    runs = counting_core(monkeypatch, core)
    paths = Counter()
    for p in regular_cases():
        runs.clear()
        assert engine.order(p, cap=500_000) == engine.index(p, (), cap=500_000)
        runs.pop()  # the index's
        paths[tuple(len(w) for ncols, w in runs if ncols == 2 * p.rank)] += 1
    # the pair certified, the pair then <g>, <g>, <g> then the trivial
    # subgroup, the trivial subgroup alone
    assert paths == {(2,): 28, (2, 1): 11, (1,): 25, (1, 0): 15, (0,): 29}


def orbit_lcm(t, gens):
    """The lcm of the sizes of all the orbits of <gens> on t's cosets."""
    ncols, seen, sizes = 2 * t.presentation.rank, set(), []
    for c in range(1, t.index + 1):
        if c not in seen:
            orbit, todo = {c}, [c]
            while todo:
                a = todo.pop()
                for g in gens:
                    b = t.rows[a * ncols + 2 * g]
                    if b not in orbit:
                        orbit.add(b)
                        todo.append(b)
            seen |= orbit
            sizes.append(len(orbit))
    return math.lcm(*sizes)


# the orbit-lcm fixture of test_order_through_a_pair: S3 x S3, whose
# diagonal S3 <y, x> has orbits of sizes 1, 3 and 2 on its six cosets
S3_BY_S3 = presented(["x", "y", "z", "w"], "x^2", "y^3", "x y x y", "z^2", "w^3",
                     "z w z w", "z x z x", "w^-1 y w^-1 y w^-1 y",
                     "z x w^-1 y z x w^-1 y", "z x z^-1 x^-1", "z w^-1 y z^-1 y^-1 w",
                     "w z x w^-1 x^-1 z^-1", "y w^-1 y^-1 w")


def test_orbits_certify_is_the_lcm_of_every_orbit():
    """The certificate's answer is whether the lcm of all of H's orbit sizes
    is d, whichever orbits it walks, on every subgroup that _subgroups makes
    over the corpus, S3 x S3 (certified by no single orbit) and A3 (whose
    pair is not certified)."""
    answers = Counter()
    for p in [*regular_cases(), S3_BY_S3, coxeter_presentation(standard_matrix("A", 3))]:
        for gens, d in engine._subgroups(p, 500_000):
            t = engine.enumerate(p, tuple(map(Word.gen, gens)), 500_000)
            certified = engine._orbits_certify(t, gens, d)
            assert certified == (orbit_lcm(t, gens) == d), (p, gens)
            answers[len(gens), certified] += 1
    # False on the 11 corpus pairs and 15 cyclic subgroups that order passes
    # over, and on A3's pair, in the corpus and again as a fixture
    assert answers == {(2, True): 29, (2, False): 12, (1, True): 66, (1, False): 15}


class CountingRows:
    """A table's rows that count the entries read, one per index and the
    length of each slice."""

    def __init__(self, rows):
        self.rows, self.reads = rows, 0

    def __getitem__(self, i):
        got = self.rows[i]
        self.reads += len(got) if isinstance(i, slice) else 1
        return got


REGULAR_ARGVS = [
    *(["--family", f, "--rank", str(r), "--variant", v]
      for f, r in (("A", 6), ("A", 7), ("D", 6), ("B", 5))
      for v in ("carmichael", "bourbaki", "edge")),
    ["--family", "A", "--rank", "6", "--variant", "coxeter"],
    ["--family", "A", "--rank", "5", "--variant", "tilde-plus-edge"],
    ["--family", "D", "--rank", "5", "--variant", "tilde-plus-edge"],
    ["--family", "D", "--rank", "5", "--variant", "tilde"],
    ["--family", "D", "--rank", "5", "--variant", "tilde-prime"],
    ["--variant", "a5-cover"], ["--variant", "a6-cover"]]


def test_certificate_reads_the_orbits_it_needs():
    """On the 19 presentations of the benchmark's regular workload, the
    certificates of order's path read 1,025 table entries in all, where
    copying whole generator columns reads 27,133."""
    reads = 0
    for argv in REGULAR_ARGVS:
        p = cli._build_presentation(cli._parse(["order", *argv]))
        for gens, d in engine._subgroups(p, 500_000):
            t = engine.enumerate(p, tuple(map(Word.gen, gens)), 500_000)
            counted = engine.CosetTable(p, CountingRows(t.rows), t.arrival)
            certified = engine._orbits_certify(counted, gens, d)
            reads += counted.rows.reads
            if certified:
                break
    assert reads == 1025


def test_order_plan_is_worked_out_once(monkeypatch):
    """A second order of a presentation makes the same core calls, with the
    same relators, from the plan kept on it, without reading its relators."""
    class Unread:
        def __iter__(self):
            raise AssertionError("relators read again")

    calls, core = [], engine._core
    monkeypatch.setattr(engine, "_core", lambda *a: calls.append(
        (a[0], [tuple(w) for w in a[1]], list(a[2]), a[3], a[4])) or core(*a))
    for p in (coxeter_presentation(standard_matrix("A", 4)), S3_BY_S3,
              coxeter_presentation(standard_matrix("A", 3)),
              spinor_presentation(standard_matrix("A", 3), "tilde_prime"),
              universal_extension("A5")):
        calls.clear()
        want = engine.order(p, cap=500_000)
        first = list(calls)
        object.__setattr__(p, "relators", Unread())
        calls.clear()
        assert engine.order(p, cap=500_000) == want
        assert calls == first


def test_presentations_ignore_the_order_plan():
    """Equality, hash, repr and pickle of a presentation read its public
    fields only: an order's plan is neither compared nor copied."""
    p, q = (coxeter_presentation(standard_matrix("A", 4)) for _ in range(2))
    assert engine.order(p) == 120
    assert p._order_plan and q._order_plan is None
    assert p == q and hash(p) == hash(q) and repr(p) == repr(q)
    r = pickle.loads(pickle.dumps(p))
    assert r == p and r._order_plan is None


def test_order_plan_is_no_heavier_than_the_relators():
    """The plan's recoded words hold no more letters than the relators of
    any catalog group, which is what cli._weight counts a memo entry by."""
    for v in cli._VARIANTS:
        if v.endswith("-cover"):
            argvs = [["--variant", v]]
        else:
            argvs = [["--family", f, "--rank", str(r), "--variant", v]
                     for f in (("A",) if v == "vv" else ("A", "B", "D"))
                     for r in (3, 4, 5, 6, 8, 12, 20)]
        for argv in argvs:
            p = cli._build_presentation(cli._parse(["order", *argv]))
            plan = engine._order_plan(p)
            letters = sum(len(w) for _, words in plan[2] for w in words) if plan else 0
            assert letters <= cli._weight(p), argv


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
    reps = schreier_words(t)
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
    reps = schreier_words(engine.enumerate(p, s(*range(n - 1))))
    assert len(reps) - 1 == 2 * n
    # doubled-back chain: longest representative walks down through s0 and up
    longest = max(reps[1:], key=len)
    assert longest.letters == (3, 2, 1, 2, 3)


def test_schreier_index_one():
    p = Presentation(("g",), (Word.gen(0),))
    t = engine.enumerate(p, ())
    reps = schreier_words(t)
    assert reps[1:] == (Word(),)
    dot = engine.to_dot(t, engine.schreier_texts(t))
    assert "->" not in dot


def test_dot_output():
    p = coxeter_presentation(standard_matrix("A", 3))
    t = engine.enumerate(p, s(0, 1))
    dot = engine.to_dot(t, engine.schreier_texts(t))
    assert dot.count("dir=none") == 3     # path of 4 nodes, involution edges
    assert 'label="H"' in dot
    d = coxeter_presentation(standard_matrix("D", 4))
    td = engine.enumerate(d, s(0, 1, 2))
    dotd = engine.to_dot(td, engine.schreier_texts(td))
    assert 'label="s0"' in dotd and 'label="s1"' in dotd


def test_determinism():
    p = chain_presentation("D", "edge", 4)
    t1 = engine.enumerate(p, s(0, 1))
    t2 = engine.enumerate(p, s(0, 1))
    assert t1.rows == t2.rows
    assert (engine.to_dot(t1, engine.schreier_texts(t1))
            == engine.to_dot(t2, engine.schreier_texts(t2)))


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
# standardized their own tables.  This digest and the next were re-taken
# when the Bourbaki tilde_prime braids (R_i^-1 R_j)^m took twist (m-1) mod 2,
# which changed only the 8 Bourbaki tilde_prime runs of rank 3 and up
ENUMERATION_DIGEST = "dc89a0fd23c2a7fdd9357769ddefc2c5006179279cd6ae441206c17b63f0f96b"
# each run's (ndef, parent): the cosets it defined and the union-find forest
# of its merges, with one self-inverse column per involutory generator.
# Against the two-column enumeration, the 166 runs without a g^2 relator
# define and merge the same cosets, and 91 of the other 130 define fewer
# (529,734 cosets in all before, 449,983 after, and 450,472 with the twist
# above).  Skipping the relators already closed at a coset must not change
# which cosets are defined or merged.
SEQUENCE_DIGEST = "a9a0aec6b18a01f3de90fe33972d6a7df2874f5b799c7f7d615271cff7e823bd"


@pytest.mark.parametrize("backend", ["python", "compiled"])
def test_enumeration_golden(backend, request, monkeypatch):
    """Rows and arrival trees (hence Schreier words) of both cores, through
    engine.enumerate, pinned by one SHA-256; a second pins the core's ndef
    and parent on the same runs, both through engine.enumerate and through
    engine.index, whose count must be the table's index."""
    core = py_core if backend == "python" else request.getfixturevalue("c_core")
    sequences = {True: hashlib.sha256(), False: hashlib.sha256()}  # by table

    def recording_core(*args):
        result = core(*args)
        sequences[args[4]].update(repr((result[1], result[2].tolist())).encode())
        return result

    monkeypatch.setattr(engine, "_core", recording_core)
    h = hashlib.sha256()
    n = 0
    for p, sub in golden_cases():
        t = engine.enumerate(p, sub, cap=500_000)
        h.update(repr(nested(t)).encode())
        assert engine.index(p, sub, cap=500_000) == t.index
        n += 1
    assert n == 296
    assert h.hexdigest() == ENUMERATION_DIGEST
    assert sequences[True].hexdigest() == sequences[False].hexdigest() == SEQUENCE_DIGEST


def conjugated_squares(p):
    """p with each relator g^2 or g^-2 rewritten as h g^2 h^-1 or
    h g^-2 h^-1, h the next generator: the same group, in a form the cores
    do not read as an involution."""
    def rewrite(w):
        if len(w.letters) != 2 or w.letters[0] != w.letters[1]:
            return w
        x = w.letters[0]
        h = abs(x) % p.rank + 1
        return Word((h, x, x, -h))
    return Presentation(p.generators, map(rewrite, p.relators))


@pytest.mark.parametrize("backend", ["python", "compiled"])
def test_involution_columns_change_no_table(backend, request):
    """An involution's one self-inverse column changes which cosets are
    defined, not the table: every golden case whose presentation has a g^2
    relator and a second generator gives the rows and arrival it gives with
    each g^2 conjugated, and column 2g+1 of each involution g is a copy of
    column 2g.  HLT's count is not monotone, but the conjugated form
    defines no fewer cosets in every case but one: the B3 Bourbaki group
    over <R1>, built twice, defines 7 cosets against 6 conjugated (and 8
    with two columns per generator).  The count of cosets regular A6
    defines is pinned, with its squares written s_i^2 or s_i^-2; with two
    columns per generator it was 12,935."""
    core = py_core if backend == "python" else request.getfixturevalue("c_core")
    counts = []
    for p, sub in golden_cases():
        involutions = engine._involutions(p)
        if not involutions or p.rank < 2:
            continue
        q = conjugated_squares(p)
        assert not engine._involutions(q)
        rows, ndef, _, arrival = core(*columns(p, sub), 500_000)
        conjugated_rows, conjugated_ndef, _, conjugated_arrival = core(
            *columns(q, sub), 500_000)
        assert (conjugated_rows, conjugated_arrival) == (rows, arrival)
        counts.append((p.generators, sub, ndef, conjugated_ndef))
        ncols = 2 * p.rank
        for g in involutions:
            assert rows[2 * g::ncols] == rows[2 * g + 1::ncols]
    assert len(counts) == 125
    assert [c for c in counts if c[2] > c[3]] == [(("R1", "R2"), s(0), 7, 6)] * 2
    a6 = coxeter_presentation(standard_matrix("A", 6))
    inverse_squares = Presentation(a6.generators, (w.inverse() if len(w.letters) == 2 else w
                                                   for w in a6.relators))
    for p in (a6, inverse_squares):
        assert core(*columns(p), 500_000, False)[:2] == (5040, 6191)


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
        reps, texts = schreier_words(t), engine.schreier_texts(t)
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
        rows, ndef, parent, arrival = want
        counted = (len(arrival) // 2 - 1, ndef, parent)  # (index, ndef, parent)
        assert py_core(*args, 50_000, table=False) == c_core(*args, 50_000, table=False) \
            == counted
        # the cap boundary: exactly ndef cosets completes, one fewer does not
        assert py_core(*args, ndef) == c_core(*args, ndef) == want
        assert py_core(*args, ndef, False) == c_core(*args, ndef, False) == counted
        for core in (py_core, c_core):
            for table in (True, False):
                with pytest.raises(CapExceeded):
                    core(*args, ndef - 1, table)
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
    for core, table in itertools.product((py_core, c_core), (True, False)):
        for ncols, words, cap in ((4, rel, 0), (4, rel, 2**31 - 2), (3, rel, 10),
                                  (0, rel, 10), (4, rel + [(0, 4)], 10),
                                  (4, [(0, -1)], 10), (4, [(0, "x")], 10),
                                  (4, [(0, 2**70)], 10), (4, rel, 2**40)):
            with pytest.raises(ValueError):
                core(ncols, words, [], cap, table=table)
            with pytest.raises(ValueError):
                core(ncols, [], words, cap, table=table)
        with pytest.raises(TypeError):
            core(4, [5], [], 10, table=table)
        with pytest.raises(TypeError):
            core(4, rel + [(0, 2) * 3], [], 100.0, table=table)


def outcome(core, *args):
    """core(*args), or CapExceeded when it raises that."""
    try:
        return core(*args)
    except CapExceeded:
        return CapExceeded


@st.composite
def random_presentations(draw):
    """(ncols, relators, subgroup words, cap): 1-4 generators, 2-12
    relators of up to 8 letters with g^2 and g^-2 mixed in, 0-2 subgroup
    words and a cap of at most 20,000."""
    ncols = 2 * draw(st.integers(1, 4))
    letter = st.integers(0, ncols - 1)
    word = st.lists(letter, min_size=1, max_size=8).map(tuple)
    relators = draw(st.lists(st.one_of(word, letter.map(lambda x: (x, x))),
                             min_size=2, max_size=12))
    return ncols, relators, draw(st.lists(word, max_size=2)), draw(st.integers(1, 20_000))


@settings(max_examples=600, deadline=None)
@given(random_presentations())
def test_cores_agree_on_random_presentations(c_core, case):
    """The two cores, with and without the table, return identical results
    or both raise CapExceeded; the index path counts the table's index;
    and on the compiled core a run whose cap is exactly its ndef completes
    while one fewer does not."""
    ncols, relators, subwords, cap = case
    args = (ncols, relators, subwords)
    want = outcome(py_core, *args, cap)
    assert outcome(c_core, *args, cap) == want
    counted = outcome(py_core, *args, cap, False)
    assert outcome(c_core, *args, cap, False) == counted
    if want is CapExceeded:
        assert counted is CapExceeded
        return
    rows, ndef, parent, arrival = want
    assert counted == (len(arrival) // 2 - 1, ndef, parent)
    assert c_core(*args, ndef) == want
    if ndef > 1:
        for table in (True, False):
            with pytest.raises(CapExceeded):
                c_core(*args, ndef - 1, table)


class IterOnly:
    """A word that can only be iterated, whatever len() it reports."""

    def __init__(self, letters, length):
        self.letters, self.length = letters, length

    def __len__(self):
        return self.length

    def __iter__(self):
        return iter(self.letters)


def test_cores_read_words_by_iterating(c_core):
    """A word is the letters it iterates, whatever its len() says: here
    the relator (s_1 s_2)^201 and the subgroup word (s_2 s_1)^201, both
    trivial in S3 and of len() 1, which leave all six cosets; their first
    letters alone would leave one.  The involution s_1^2 is a relator of
    len() 2 that has no indexing either."""
    s3 = [IterOnly((0, 0), 2), (2, 2), (0, 2) * 3]
    for table in (True, False):
        results = [core(4, s3 + [IterOnly((0, 2) * 201, 1)],
                        [IterOnly((2, 0) * 201, 1)], 1_000, table)
                   for core in (py_core, c_core)]
        assert results[0] == results[1]
        index = len(results[0][3]) // 2 - 1 if table else results[0][0]
        assert index == 6


@pytest.mark.parametrize("backend", ["python", "compiled"])
def test_engine_leaves_encoded_relators_alone(backend, request, monkeypatch):
    """engine.index and engine.enumerate hand the core a presentation's
    cached column words; with no subgroup the core must not write into
    them, nor replace them."""
    core = py_core if backend == "python" else request.getfixturevalue("c_core")
    monkeypatch.setattr(engine, "_core", core)
    p = coxeter_presentation(standard_matrix("B", 3))
    assert engine.index(p) == 48
    encoded = p._encoded
    words, letters = list(encoded), [list(w) for w in encoded]
    assert engine.index(p) == engine.enumerate(p).index == 48
    assert p._encoded is encoded
    assert all(a is b for a, b in zip(encoded, words)) and len(encoded) == len(words)
    assert [list(w) for w in encoded] == letters


@pytest.mark.parametrize("backend", ["python", "compiled"])
def test_engine_rejects_a_non_int_cap(backend, request, monkeypatch):
    """A float cap is an InputError, as an out-of-range one is, whichever
    core would run; order raises it before its pair's count, whose bound
    min(cap, PAIR_BOUND) the core would reject otherwise."""
    core = py_core if backend == "python" else request.getfixturevalue("c_core")
    monkeypatch.setattr(engine, "_core", core)
    p = coxeter_presentation(standard_matrix("A", 3))
    for cap in (100.0, 0):
        for run in (engine.index, engine.enumerate):
            with pytest.raises(InputError):
                run(p, (), cap=cap)
        with pytest.raises(InputError):
            engine.order(p, cap=cap)


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
    assert header.startswith("case") and len(cases) == 8
    r = subprocess.run([sys.executable, str(root / "benchmarks" / "bench_enumerate.py"),
                        "--repeat", "0"], capture_output=True, text=True, env=env,
                       timeout=120)
    assert r.returncode == 2 and "must be at least 1" in r.stderr, r.stderr
