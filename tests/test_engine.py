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

from altcox import cli, engine, oracle
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


def kept_quotient(p):
    """(quotient, factor, least cap) of the central quotient that order
    keeps in p's engine record once it is proved, else None."""
    record = p._engine
    return (*record["quotient"], record["least"]) if "least" in record else None


def test_cap_exceeded_on_infinite_group(monkeypatch):
    inf = CoxeterMatrix(2, ((1, 0), (0, 1)))
    with pytest.raises(CapExceeded):
        engine.enumerate(coxeter_presentation(inf), (), cap=10_000)
    # <s0> has infinite index: order's one enumeration meets the cap, and
    # it does not go on to the trivial subgroup
    runs = counting_core(monkeypatch)
    with pytest.raises(CapExceeded):
        engine.order(coxeter_presentation(inf), cap=10_000)
    assert runs == [(4, [(0,)])]


def presented(generators, *relators, central=()):
    return Presentation.from_json(json.dumps({
        "generators": generators, "relators": list(relators),
        "central": [{"name": name, "order": k} for name, k in central]}))


@pytest.mark.parametrize("backend", ["python", "compiled"])
@pytest.mark.parametrize("p, want, subgroups", [
    # at rank 1 <x> would be the whole group, whose one coset x^2 cannot
    # move, so x^4 = 1 could not be certified: the trivial subgroup alone
    (presented(["x"], "x^4", "x^2"), 2, [[]]),
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
    (spinor_presentation(standard_matrix("A", 3), "tilde-prime"), 48, [[]]),
], ids=["cyclic", "square-below-k", "order-below-k", "normal", "certified",
        "largest-k", "lowest-g", "central-only"])
def test_order_through_a_cyclic_subgroup(backend, request, monkeypatch, p, want,
                                         subgroups):
    """engine.order's enumerations at ranks 1 and 2, where no pair is tried:
    the subgroup of each, the certificate's fallback to the trivial
    subgroup, and the order it returns."""
    core = py_core if backend == "python" else request.getfixturevalue("c_core")
    runs = counting_core(monkeypatch, core)
    assert engine.order(p) == want
    assert runs == [(2 * p.rank, words) for words in subgroups]


@pytest.mark.parametrize("backend", ["python", "compiled"])
@pytest.mark.parametrize("build, want, bound, runs", [
    # S5: <s0, s1> = S3 counted (6), certified on its twenty cosets
    (lambda: coxeter_presentation(standard_matrix("A", 4)), 120, 1000,
     [(4, []), (8, [(0,), (2,)])]),
    # S3 x S3 on a = z, b = w, c = z x, e = w^-1 y: <y, x> is the diagonal
    # S3, whose orbits on its six cosets have sizes 1, 3 and 2, none 6
    (lambda: presented(["x", "y", "z", "w"], "x^2", "y^3", "x y x y", "z^2",
                       "w^3", "z w z w", "z x z x", "w^-1 y w^-1 y w^-1 y",
                       "z x w^-1 y z x w^-1 y", "z x z^-1 x^-1",
                       "z w^-1 y z^-1 y^-1 w", "w z x w^-1 x^-1 z^-1",
                       "y w^-1 y^-1 w"), 36, 1000, [(4, []), (8, [(2,), (0,)])]),
    # S4: <s0, s1> fixes each of its four cosets, too few for an orbit of
    # six, so s0 is certified on the twelve cosets of <s0>
    (lambda: coxeter_presentation(standard_matrix("A", 3)), 24, 1000,
     [(4, []), (6, [(0,), (2,)]), (6, [(0,)])]),
    # x = y through w = 1, so G is trivial, not A4: neither <x, y> (12)
    # nor <x> (3) is certified on one coset, and the trivial subgroup is
    (lambda: presented(["x", "y", "w"], "x^3", "y^3", "x y x y", "w", "x w y^-1"),
     1, 1000, [(4, []), (6, [(0,), (2,)]), (6, [(0,)]), (6, [])]),
    # <y, x> presents the infinite triangle group (2, 3, 8): its count
    # reaches the bound, and the pair is dropped for <y> in G = S4
    (lambda: presented(["x", "y", "z"], "x^2", "y^3",
                       "x y x y x y x y x y x y x y x y", "z^2", "x y x y z^-1"),
     24, 1000, [(4, []), (6, [(2,)])]),
    # at a bound of 5 cosets <s0, s1> = S3 is dropped, and the next h
    # gives <s0, s2> = C2 x C2, counted and certified
    (lambda: coxeter_presentation(standard_matrix("A", 4)), 120, 5,
     [(4, []), (4, []), (8, [(0,), (4,)])]),
    # <x, y> = <x> has order 3, no more than x's, so y is passed over for
    # z; in G = S3, <x, z> has index 1 and <x> is normal
    (lambda: presented(["x", "y", "z"], "x^3", "x y", "z^2", "x z x z"), 6, 1000,
     [(4, []), (4, []), (6, [(0,), (4,)]), (6, [(0,)]), (6, [])]),
    # c is the lowest generator with a two-letter relator in y, but
    # central; <y, x> = A4 has index 2 and fixes both cosets
    (lambda: presented(["c", "x", "y"], "x^2", "y^3", "x y x y x y", "c^2",
                       "c x c^-1 x^-1", "c y c^-1 y^-1", central=[("c", 2)]), 24, 1000,
     [(4, []), (6, [(4,), (2,)]), (6, [(4,)])]),
], ids=["certified", "orbit-lcm", "fallback", "collapsed", "bounded", "bound",
        "not-above-k", "central"])
def test_order_through_a_pair(backend, request, monkeypatch, build, want, bound, runs):
    """engine.order's core calls at rank 3 and above: the count of the
    pair's group, with four columns and no subgroup, then the tables over
    <g, h> and <g>, then the trivial subgroup, until one certifies.  Each
    case builds its presentation afresh, as an order may keep a central
    quotient on it that a second order would count instead."""
    core = py_core if backend == "python" else request.getfixturevalue("c_core")
    monkeypatch.setattr(engine, "PAIR_BOUND", bound)
    calls = counting_core(monkeypatch, core)
    assert engine.order(build()) == want
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
    # subgroup, the trivial subgroup alone (every rank-1 case)
    assert paths == {(2,): 28, (2, 1): 11, (1,): 25, (1, 0): 2, (0,): 42}


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
    """The certificate's answer, read off the core's unstandardized table,
    is whether the lcm of all of H's orbit sizes on the standardized table
    is d, whichever orbits it walks, on every subgroup that _subgroups makes
    over the corpus, S3 x S3 (certified by no single orbit) and A3 (whose
    pair is not certified)."""
    answers = Counter()
    for p in [*regular_cases(), S3_BY_S3, coxeter_presentation(standard_matrix("A", 3))]:
        for gens, d in engine._subgroups(p, 500_000)[0]:
            sub = tuple(map(Word.gen, gens))
            t = engine.enumerate(p, sub, 500_000)
            _, _, parent, cells = engine._run(p, sub, 500_000, False)
            certified = engine._orbits_certify(p, cells, parent, gens, d)
            assert certified == (orbit_lcm(t, gens) == d), (p, gens)
            answers[len(gens), certified] += 1
    # False on the 11 corpus pairs and 2 cyclic subgroups that order passes
    # over, and on A3's pair, in the corpus and again as a fixture; the
    # trivial subgroup, last in every list, is always certified
    assert answers == {(2, True): 29, (2, False): 12, (1, True): 66, (1, False): 2,
                       (0, True): 110}


class CountingRows:
    """A table's cells that count the entries read, one per index and the
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
    certificates of order's path, through the central quotient of each of
    the six covers, read 1,190 entries of the core's unstandardized tables
    in all, where copying whole generator columns of those tables reads
    29,710."""
    reads = 0
    for argv in REGULAR_ARGVS:
        args = cli._parse(["order", *argv])
        p = cli._build_presentation(args)
        assert engine.order(p, 500_000, cli._certificate(args, p))
        p = kept_quotient(p)[0] if kept_quotient(p) else p
        for gens, d in engine._subgroups(p, 500_000)[0]:
            _, _, parent, cells = engine._run(p, tuple(map(Word.gen, gens)), 500_000,
                                              False)
            counted = CountingRows(cells)
            certified = engine._orbits_certify(p, counted, parent, gens, d)
            reads += counted.reads
            if certified:
                break
    assert reads == 1190


def test_order_plan_is_worked_out_once(monkeypatch):
    """A second order of a presentation makes the same core calls, with the
    same relators, from the plan kept on it, without reading its relators;
    that of the A5 cover, whose first order proved its central quotient,
    makes the calls of the quotient's first order."""
    class Unread:
        def __iter__(self):
            raise AssertionError("relators read again")

    calls, core = [], engine._core
    monkeypatch.setattr(engine, "_core", lambda *a: calls.append(
        (a[0], [tuple(w) for w in a[1]], list(a[2]), a[3], a[4])) or core(*a))
    for p in (coxeter_presentation(standard_matrix("A", 4)), S3_BY_S3,
              coxeter_presentation(standard_matrix("A", 3)),
              spinor_presentation(standard_matrix("A", 3), "tilde-prime"),
              universal_extension("A5")):
        calls.clear()
        want = engine.order(p, cap=500_000)
        first = list(calls)
        if kept_quotient(p):
            calls.clear()
            engine.order(engine._central_quotient(p)[0], cap=500_000)
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
    assert p._engine["plan"] and q._engine == {}
    assert p == q and hash(p) == hash(q) and repr(p) == repr(q)
    r = pickle.loads(pickle.dumps(p))
    assert r == p and r._engine == {}


def letters(p):
    return sum(map(len, p.relators))


def plan_letters(p):
    plan = engine._order_plan(p)
    return sum(len(w) for _, words in plan[2] for w in words) if plan else 0


def test_order_plan_is_no_heavier_than_the_relators():
    """The plan's recoded words hold no more letters than the relators of
    any catalog group, which is what cli._weight counts a memo entry by.
    A cover's central quotient has fewer letters, and its plan no more
    than it, so the cover's letters and its quotient's, with their
    encodings and plans, make at most the cover's weight."""
    for v in cli._VARIANTS:
        if v.endswith("-cover"):
            argvs = [["--variant", v]]
        else:
            argvs = [["--family", f, "--rank", str(r), "--variant", v]
                     for f in (("A",) if v == "vv" else ("A", "B", "D"))
                     for r in (3, 4, 5, 6, 8, 12, 20)]
        for argv in argvs:
            p = cli._build_presentation(cli._parse(["order", *argv]))
            assert plan_letters(p) <= letters(p), argv
            found = engine._central_quotient(p)
            q = found[0] if found else None
            if q is not None:
                assert plan_letters(q) <= letters(q) < letters(p), argv
            assert letters(p) + (letters(q) if q else 0) <= cli._weight(p), argv


@pytest.mark.parametrize("argv, want", [
    *((argv, want) for argv, want in zip(REGULAR_ARGVS[13:17],
                                         (720, 1920, 3840, 3840))),
    # exit 3 without the quotient, at the default cap
    (["--family", "A", "--rank", "7", "--variant", "tilde-prime"], 80640),
    (["--family", "B", "--rank", "6", "--variant", "tilde-prime"], 92160),
    (["--family", "D", "--rank", "7", "--variant", "tilde-prime"], 645120),
], ids=["A5-tilde-plus-edge", "D5-tilde-plus-edge", "D5-tilde", "D5-tilde-prime",
        "A7-tilde-prime", "B6-tilde-prime", "D7-tilde-prime"])
def test_a_catalog_cover_is_counted_through_its_quotient(monkeypatch, capsys,
                                                         argv, want):
    """altcox order on a catalog spinor cover makes its core calls at its
    central quotient's width, or four columns for a pair's count, never at
    its own; it builds the Clifford images once, and the second order
    reads the quotient the cover keeps."""
    built = []
    images = oracle.clifford_images
    monkeypatch.setattr(oracle, "clifford_images",
                        lambda *a: built.append(a) or images(*a))
    runs = counting_core(monkeypatch)
    for _ in range(2):
        assert cli.main(["order", *argv]) == 0
        assert capsys.readouterr().out == f"{want}\n"
    p = cli._build_presentation(cli._parse(["order", *argv]))
    quotient, factor, bound = kept_quotient(p)
    assert quotient.generators == p.generators[:-1] and (factor, bound) == (2, 1)
    assert {ncols for ncols, _ in runs} == {4, 2 * quotient.rank}
    assert built == [(argv[1], argv[-1], int(argv[3]))]


def test_a_cover_whose_quotient_meets_the_cap_takes_its_own_path(capsys):
    """At a cap of 10 cosets A3 tilde's quotient S4 is not counted, as the
    twelve cosets of <s0> exceed it, but the cover's own path fits, and
    order prints what it prints without the quotient."""
    argv = ["order", "--family", "A", "--rank", "3", "--variant", "tilde",
            "--max-cosets", "10"]
    assert cli.main(argv) == 0 and capsys.readouterr().out == "48\n"
    assert kept_quotient(cli._build_presentation(cli._parse(argv))) is None


def test_a_tampered_cover_fails_the_certificate(monkeypatch):
    """A D4 tilde relator with its alpha dropped maps to -1 under the
    Clifford images, so the certificate fails: after its quotient's count,
    order takes the path of an order without a certificate, with its
    answer, and keeps no quotient."""
    def tampered():
        p = spinor_presentation(standard_matrix("D", 4), "tilde")
        k = next(k for k, w in enumerate(p.relators) if w.letters[-1] == -p.rank)
        relators = list(p.relators)
        relators[k] = Word(relators[k].letters[:-1])
        return Presentation(p.generators, relators, p.central)

    args = cli._parse(["order", "--family", "D", "--rank", "4", "--variant", "tilde"])
    p = tampered()
    assert engine._central_quotient(p) is not None
    certificate = cli._certificate(args, p)
    assert not certificate()
    runs = counting_core(monkeypatch)
    want = engine.order(tampered())
    path = list(runs)
    runs.clear()
    assert engine.order(p, engine.DEFAULT_CAP, certificate) == want
    assert runs[-len(path):] == path and kept_quotient(p) is None


# the caps of test_cover_orders_do_not_depend_on_history; each input prints
# its order from its least cap up, and exits 3 below it, as it did before an
# order kept a quotient that its table proved.  For the covers that least
# cap is the bound the quotient is kept with
HISTORY_GRID = [1, 2, 10, 64, 65, 100, 1000, 1320, 1321, 2000, 8682, 8683,
                10_000, 100_000, 200_000]


@pytest.mark.parametrize("argv, want, least", [
    (["--variant", "a5-cover"], 2160, 1321),
    (["--variant", "a6-cover"], 15120, 8683),
    (["--presentation", "D4-tilde.json"], 384, 65),
], ids=["a5-cover", "a6-cover", "presentation-D4-tilde"])
def test_cover_orders_do_not_depend_on_history(capsys, tmp_path, monkeypatch,
                                               argv, want, least):
    """Each cap of the grid prints the same (exit, stdout, stderr) in a
    fresh memo and after a 500,000-cap order of the same input, which
    keeps the covers' quotients: below the kept bound the cover's own path
    runs, and at it the quotient is counted."""
    monkeypatch.chdir(tmp_path)
    assert cli.main(["present", "--family", "D", "--rank", "4", "--variant",
                     "tilde", "--output", "D4-tilde.json"]) == 0
    for cap in HISTORY_GRID:
        got = []
        for history in (False, True):
            cli._memo.clear()
            if history:
                assert cli.main(["order", *argv, "--max-cosets", "500000"]) == 0
            capsys.readouterr()
            got.append((cli.main(["order", *argv, "--max-cosets", str(cap)]),
                        *capsys.readouterr()))
        if cap >= least:
            assert got == [(0, f"{want}\n", "")] * 2, cap
        else:
            assert got == [(3, "", f"cap exceeded at {cap} cosets\n")] * 2, cap
    if argv[0] == "--variant":
        p = cli._build_presentation(cli._parse(["order", *argv]))
        assert kept_quotient(p)[2] == least


def test_central_quotient_needs_distinct_prime_orders():
    """The A5 cover's z and zeta, of orders 2 and 3, give its quotient A6
    and the factor 6; two central involutions, which may be equal, or one
    of order 4, which may have order 2, give none."""
    quotient, factor = engine._central_quotient(universal_extension("A5"))
    assert factor == 6 and quotient.generators == ("tr1", "tr2", "tr3", "tr4")
    assert [render_word(w, quotient) for w in quotient.relators] == [
        "tr1^3", "tr2^3", "tr3^3", "tr4^3", "tr1 tr2 tr1 tr2", "tr2 tr3 tr2 tr3",
        "tr3 tr4 tr3 tr4", "tr1 tr2 tr3 tr1 tr2 tr3", "tr2 tr3 tr4 tr2 tr3 tr4",
        "tr1 tr4 tr1^-1 tr4^-1"]
    assert engine.order(quotient) == 360
    two = presented(["x", "c", "d"], "x^3", "c^2", "d^2", "c x c^-1 x^-1",
                    "c d c^-1 d^-1", "d x d^-1 x^-1", central=[("c", 2), ("d", 2)])
    four = presented(["x", "c"], "x^3", "c^4", "c x c^-1 x^-1", central=[("c", 4)])
    assert engine._central_quotient(two) is None
    assert engine._central_quotient(four) is None
    assert engine.order(two) == 12 and engine.order(four) == 12


@pytest.mark.parametrize("p, want", [
    # S4 with c = 1: <s0> is certified on its twelve cosets, and c fixes them
    (presented(["s0", "s1", "s2", "c"], "s0^2", "s1^2", "s2^2", "s0 s1 s0 s1 s0 s1",
               "s1 s2 s1 s2 s1 s2", "s0 s2 s0 s2", "c^2", "c s0 c^-1 s0^-1",
               "c s1 c^-1 s1^-1", "c s2 c^-1 s2^-1", "c", central=[("c", 2)]), 24),
    # D4 with c = x^2 in <x>: c fixes every coset of <x, y> and <x>, so
    # neither is certified, and the trivial subgroup counts 8
    (presented(["x", "y", "c"], "x^4", "y^2", "x y x y", "c^2", "c x c^-1 x^-1",
               "c y c^-1 y^-1", "c x^-2", central=[("c", 2)]), 8),
], ids=["c-is-1", "c-in-g"])
def test_a_central_generator_in_the_subgroup_keeps_no_quotient(p, want):
    """A central generator that fixes coset 1 of the certified table, or
    leaves no table certified, proves nothing: no quotient is kept, and a
    second order counts the same."""
    assert engine.order(p) == want and kept_quotient(p) is None
    assert engine.order(p) == want


def test_a_pair_passed_over_at_the_cap_keeps_no_quotient():
    """At a cap of 29 the count of <g, h1> (dihedral of order 40) is passed
    over, and the table over <g, h2>, which defines 29 cosets, certifies
    it with c outside.  A cap of 40 completes that count, and <g> then
    needs more than 40 cosets, so order raises CapExceeded.  The order at 29
    keeps no quotient: counted at 40, its order 24 would give 48."""
    g, h1, h2 = (Word.gen(i) for i in range(3))

    def build():
        return Presentation.build(
            ("g", "h1", "h2", "c"), [g ** 2, h1 ** 2, h2 ** 2, (g * h1) ** 20,
                                     (g * h2) ** 2, (h1 * h2) ** 3, (g * h1 * h2) ** 3],
            central=(("c", 2),))

    p = build()
    assert engine.order(p, cap=29) == 48 and kept_quotient(p) is None
    for q in (p, build()):
        with pytest.raises(CapExceeded):
            engine.order(q, cap=40)
    assert engine.order(p, cap=1000) == 48 and kept_quotient(p)[1:] == (2, 43)


def test_a_second_order_of_the_a6_cover_counts_its_quotient(monkeypatch, capsys):
    """The first altcox order of the A6 cover counts it over <tr1>; the
    second makes only its quotient A7's calls: the count of <tr1, tr2>
    (A4) in four columns, then the table over it, in ten."""
    runs = counting_core(monkeypatch)
    argv = ["order", "--variant", "a6-cover"]
    assert cli.main(argv) == 0
    assert runs == [(14, [(0,)])]
    runs.clear()
    assert cli.main(argv) == 0
    assert runs == [(4, []), (10, [(0,), (2,)])]
    assert capsys.readouterr().out == "15120\n" * 2


def test_central_quotients_halve_the_covers():
    """2 |G/<z>| is the regular index of each of the 44 spinor covers of the
    corpus, and 6 |G/<z, zeta>| that of the A5 and A6 covers, whose two
    central generators have orders 2 and 3."""
    factors = Counter()
    for p in regular_cases():
        found = engine._central_quotient(p)
        assert (found is None) == (not p.central)
        if found is not None:
            q, factor = found
            assert factor * engine.order(q, cap=500_000) == engine.index(p, (), cap=500_000)
            factors[factor] += 1
    assert factors == {2: 44, 6: 2}


def test_order_prints_the_regular_orders(capsys):
    """The bytes altcox order printed before covers were counted through
    their quotients, on the 19 requests of the regular workload."""
    want = [2520] * 3 + [20160] * 3 + [11520] * 3 + [1920] * 3 + [
        5040, 720, 1920, 3840, 3840, 2160, 15120]
    for argv, n in zip(REGULAR_ARGVS, want, strict=True):
        assert cli.main(["order", *argv]) == 0
        assert capsys.readouterr() == (f"{n}\n", "")


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
                for variant in ("tilde", "tilde-prime"):
                    yield spinor_plus_presentation(m, style, variant), ()
    yield universal_extension("A5"), ()


# taken with the renumbering still in engine.enumerate, before the cores
# standardized their own tables.  This digest and the next were re-taken
# when the Bourbaki tilde-prime braids (R_i^-1 R_j)^m took twist (m-1) mod 2,
# which changed only the 8 Bourbaki tilde-prime runs of rank 3 and up
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
              for style in ("bourbaki", "edge") for variant in ("tilde", "tilde-prime")]
    cases.append((coxeter_presentation(a4), s(0, 1)))
    cases.append((universal_extension("A5"), ()))
    for p, sub in cases:
        args = columns(p, sub)
        want = py_core(*args, 50_000)
        assert len(want) == 4  # (rows, ndef, parent, arrival)
        assert want == c_core(*args, 50_000), p.generators
        rows, ndef, parent, arrival = want
        counted = py_core(*args, 50_000, table=False)  # (index, ndef, parent, cells)
        assert counted[:3] == (len(arrival) // 2 - 1, ndef, parent)
        assert c_core(*args, 50_000, table=False) == counted
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
    (the index path's unstandardized cells among them) or both raise
    CapExceeded; the index path counts the table's index; and on the
    compiled core a run whose cap is exactly its ndef completes while one
    fewer does not."""
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
    assert counted[:3] == (len(arrival) // 2 - 1, ndef, parent)
    assert c_core(*args, ndef) == want
    if ndef > 1:
        for table in (True, False):
            with pytest.raises(CapExceeded):
                c_core(*args, ndef - 1, table)


def standardized(ncols, relators, cells, parent):
    """(rows, arrival) of the completed table cells, over the live cosets
    of parent, renumbered as _tc_py.enumerate_core's docstring specifies:
    in the order a traversal from coset 1 first reaches them, each coset
    trying its arrival generator first, then the other generators in
    decreasing index, positive letters only, with column 2g+1 of an
    involutory g (one with a relator of two equal letters) a copy of
    column 2g."""
    ngens = ncols // 2
    col = list(range(ncols))
    for w in relators:
        if len(w) == 2 and w[0] == w[1]:
            col[w[0] | 1] = w[0] & ~1
    number, order, arrival = {1: 1}, [0, 1], [0, 0, 0, 0]
    for k, c in enumerate(order):  # order grows as the traversal numbers cosets
        if not k:
            continue
        gens = list(range(ngens - 1, -1, -1))
        if k > 1:
            gens.remove(arrival[2 * k + 1])
            gens.insert(0, arrival[2 * k + 1])
        for g in gens:
            d = cells[c * ncols + 2 * g]
            if d not in number:
                number[d] = len(order)
                order.append(d)
                arrival += (k, g)
    assert len(order) - 1 == sum(parent[c] == c for c in range(1, len(parent)))
    rows = [0] * ncols
    for c in order[1:]:
        rows += (number[cells[c * ncols + col[x]]] for x in range(ncols))
    return array("i", rows), array("i", arrival)


@settings(max_examples=600, deadline=None)
@given(random_presentations())
def test_cores_cells_standardize_to_the_table(c_core, case):
    """On both cores, the index path's cells is the completed table in the
    enumeration's own coset ids: standardized by the traversal that
    _tc_py.enumerate_core's docstring specifies, it gives the table path's
    rows and arrival exactly.  Row 0, every dead row and column 2g+1 of
    each involutory g are zeros; every other entry of a live row names a
    live coset."""
    ncols, relators, subwords, cap = case
    args = (ncols, relators, subwords, cap)
    for core in (py_core, c_core):
        counted = outcome(core, *args, False)
        if counted is CapExceeded:
            return
        _, ndef, parent, cells = counted
        rows, _, _, arrival = core(*args)
        assert type(cells) is array and cells.typecode == "i"
        assert len(cells) == (ndef + 1) * ncols
        assert standardized(ncols, relators, cells, parent) == (rows, arrival)
        skipped = {w[0] | 1 for w in relators if len(w) == 2 and w[0] == w[1]}
        for c in range(ndef + 1):
            row = cells[c * ncols:(c + 1) * ncols]
            if c and parent[c] == c:
                assert [x for x, e in enumerate(row) if not e] == sorted(skipped)
                assert all(parent[e] == e for e in row if e)
            else:
                assert not any(row)


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
    encoded = p._engine["columns"]
    words, letters = list(encoded), [list(w) for w in encoded]
    assert engine.index(p) == engine.enumerate(p).index == 48
    assert p._engine["columns"] is encoded
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
