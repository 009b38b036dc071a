"""End-to-end acceptance checks, one per numbered criterion.

Each test prints a single PASS/FAIL line so the run log reads as a
checklist.  Frozen constants were derived with the permutation/wreath
oracle (and the exact reflection representation for the infinite case)
before being written down here.
"""

import os
import random
import subprocess
import sys
import time
from contextlib import contextmanager

import pytest

from altcox import chains, engine, oracle
from altcox import presentations as pres
from altcox.coxeter import CoxeterMatrix, standard_matrix
from altcox.words import Word, render_word

from reflection_rep import edge_images, simple_reflections
from subgroups import chain_subgroup_words, quotient_by_generators

EXAMPLE5 = CoxeterMatrix(5, ((1, 4, 2, 2, 2),
                             (4, 1, 2, 2, 2),
                             (2, 2, 1, 3, 3),
                             (2, 2, 3, 1, 3),
                             (2, 2, 3, 3, 1)))

ALT_VARIANTS = ("carmichael", "bourbaki", "edge")


@contextmanager
def criterion(num, desc, budget):
    t0 = time.monotonic()
    try:
        yield
    except Exception:
        print(f"FAIL criterion {num}: {desc}")
        raise
    dt = time.monotonic() - t0
    assert dt < budget, f"criterion {num} took {dt:.1f}s, budget {budget}s"
    print(f"PASS criterion {num}: {desc} ({dt:.2f}s)")


def test_criterion_01_coset_counts():
    with criterion(1, "coset counts match the expected indices", 15):
        cases = [("A", range(2, 8), lambda n: n + 1),
                 ("B", range(2, 6), lambda n: 2 * n),
                 ("D", range(3, 6), lambda n: 2 * n)]
        for fam, ranks, idx in cases:
            for n in ranks:
                p = pres.coxeter_presentation(standard_matrix(fam, n))
                sub = tuple(Word.gen(k) for k in range(n - 1))
                assert engine.enumerate(p, sub).index == idx(n), (fam, n)
                for v in ALT_VARIANTS:
                    pv = pres.chain_presentation(fam, v, n)
                    sv = chain_subgroup_words(fam, v, n)
                    assert engine.enumerate(pv, sv).index == idx(n), (fam, v, n)


def test_criterion_02_order_triple_agreement():
    with criterion(2, "enumeration, oracle and closed-form orders agree", 30):
        cases = [("A", range(2, 7)), ("B", range(2, 5)), ("D", range(3, 6))]
        for fam, ranks in cases:
            for n in ranks:
                closed = oracle.alternating_order(fam, n)
                for v in ALT_VARIANTS:
                    enum = engine.order(pres.chain_presentation(fam, v, n))
                    images = oracle.standard_images(fam, v, n)
                    assert enum == oracle.generated_order(images) == closed, \
                        (fam, v, n)


def test_criterion_03_relator_verification_matrix():
    with criterion(3, "every stated generator map is a homomorphism", 30):
        cases = [("A", range(2, 7)), ("B", range(2, 5)), ("D", range(3, 6))]
        for fam, ranks in cases:
            for n in ranks:
                for v in ("coxeter",) + ALT_VARIANTS:
                    if v == "coxeter":
                        p = pres.coxeter_presentation(standard_matrix(fam, n))
                    else:
                        p = pres.chain_presentation(fam, v, n)
                    assert oracle.verify_hom(p, oracle.standard_images(fam, v, n)), \
                        (fam, v, n)


def test_criterion_04_spinor_doubling():
    with criterion(4, "central extensions double the edge-group order", 90):
        cases = [("A", range(2, 6)), ("B", range(2, 5)), ("D", range(3, 5))]
        for fam, ranks in cases:
            for n in ranks:
                m = standard_matrix(fam, n)
                plain = engine.order(pres.edge_presentation(m)[0])
                doubled = engine.order(
                    pres.spinor_plus_presentation(m, "edge", "tilde"))
                assert doubled == 2 * plain, (fam, n)


def test_criterion_05_universal_central_extensions():
    with criterion(5, "six-fold covers and their central quotients", 120):
        for name, alt_order in (("A5", 360), ("A6", 2520)):
            p = pres.universal_extension(name)
            assert engine.order(p, cap=2_000_000) == 6 * alt_order, name
            q = quotient_by_generators(p, ("z", "zeta"))
            assert engine.order(q, cap=500_000) == alt_order, name


def test_criterion_06_spinor_isomorphism():
    with criterion(6, "tilde/tilde-prime isomorphism verified both ways", 10):
        for fam in ("A", "B"):
            m = standard_matrix(fam, 3)
            fwd, bwd = pres.spinor_iso(pres.spinor_plus_presentation(m, "edge", "tilde"),
                                       pres.spinor_plus_presentation(m, "edge", "tilde-prime"))
            rt = engine.enumerate(fwd.target, ())
            rs = engine.enumerate(bwd.target, ())
            assert fwd.verify(rt) and bwd.verify(rs), fam
            assert pres.is_identity_hom(pres.compose(fwd, bwd), rs), fam
            assert pres.is_identity_hom(pres.compose(bwd, fwd), rt), fam


def test_criterion_07_normal_form_uniqueness():
    with criterion(7, "chain normal forms are complete and distinct", 60):
        cases = [("A", v, n) for v in ALT_VARIANTS for n in range(2, 6)]
        cases += [("B", "edge", n) for n in range(2, 5)]
        cases += [("D", "edge", n) for n in range(3, 5)]
        for fam, v, n in cases:
            p = pres.chain_presentation(fam, v, n)
            chain = chains.Chain(p, fam)
            reg = engine.enumerate(p, ())
            forms = chain.enumerate_elements()
            assert len(forms) == reg.index == oracle.alternating_order(fam, n)
            cosets = {reg.trace(1, Word(tuple(x for f in d for x in f)))
                      for d in forms}
            assert len(cosets) == len(forms), (fam, v, n)


def _random_walks(rng, adjacency, count, max_len):
    walks = []
    vertices = sorted(adjacency)
    while len(walks) < count:
        w = [rng.choice(vertices)]
        for _ in range(rng.randint(1, max_len)):
            w.append(rng.choice(adjacency[w[-1]]))
        if w[0] != w[-1]:
            walks.append(w)
    return walks


def test_criterion_08_equivalence_properties():
    with criterion(8, "presentation equivalences and path relators", 60):
        # identity maps between the two rank-(n-1) presentations
        for n in range(3, 6):
            p_vv = pres.vv_presentation(n)
            assert engine.order(p_vv) == oracle.alternating_order("A", n)
            p_edge = pres.chain_presentation("A", "edge", n)
            ident = tuple(Word.gen(k) for k in range(n - 1))
            assert pres.GroupHom(p_vv, p_edge, ident).verify()
            assert pres.GroupHom(p_edge, p_vv, ident).verify()
        # braid relation for the sign-twisted permutation images
        for n in range(3, 8):
            images = oracle.standard_images("A", "edge", n)
            signed = [img.inverse() if (i + 1) % 2 else img
                      for i, img in enumerate(images)]
            for a, b in zip(signed, signed[1:]):
                assert a * b * a == b * a * b
        # path relators along 50 seeded random walks in the rank-6 group
        rng = random.Random(20260823)
        m6 = standard_matrix("A", 6)
        p6, emap6 = pres.edge_presentation(m6)
        reg6 = engine.enumerate(p6, ())
        adj6 = {i: sorted({j for j in range(m6.n)
                           if m6.entry(i, j) >= 3}) for i in range(m6.n)}
        for walk in _random_walks(rng, adj6, 50, 8):
            w = Word()
            for a, b in zip(walk, walk[1:]):
                w = w * emap6.gen_word(a, b)
            assert engine.word_in_subgroup(reg6, w ** m6.entry(walk[0], walk[-1]))
        # the same property in the disconnected example, checked in the
        # exact reflection representation because the group is infinite
        refs = simple_reflections(EXAMPLE5)
        emap = pres.edge_presentation(EXAMPLE5, (1, 2))[1]
        emap_imgs = edge_images(EXAMPLE5, emap)
        adj = {i: sorted({b for a, b in emap.edges if a == i} |
                         {a for a, b in emap.edges if b == i})
               for i in range(EXAMPLE5.n)}
        for walk in _random_walks(rng, adj, 10, 5):
            prod = None
            for a, b in zip(walk, walk[1:]):
                i = emap.edges.index((min(a, b), max(a, b)))
                step = emap_imgs[i] if a < b else emap_imgs[i].inverse()
                prod = step if prod is None else prod * step
            # telescoping: the product equals s_i s_j for the endpoints
            i, j = walk[0], walk[-1]
            assert prod == refs[i] * refs[j]
            m = EXAMPLE5.entry(i, j)
            power = prod
            for _ in range(m - 1):
                power = power * prod
            assert power.is_identity()


def test_criterion_09_disconnected_example_end_to_end():
    with criterion(9, "worked 5-vertex example: relators and infinitude", 30):
        p, emap = pres.edge_presentation(EXAMPLE5, (1, 2))
        assert [render_word(w, p) for w in p.relators] == [
            "r0_1^4", "r1_2^2", "r2_3^3", "r2_4^3", "r3_4^3",
            "r2_3 r3_4 r2_4^-1",
            "r0_1 r1_2 r0_1 r1_2",
            "r1_2 r2_3 r1_2 r2_3",
            "r1_2 r2_4 r1_2 r2_4",
            "r0_1 r1_2 r2_3 r0_1 r1_2 r2_3",
            "r0_1 r1_2 r2_4 r0_1 r1_2 r2_4",
            "r1_2 r2_3 r3_4 r1_2 r2_3 r3_4",
            "r1_2 r2_4 r3_4^-1 r1_2 r2_4 r3_4^-1",
            "r0_1 r3_4 r0_1^-1 r3_4^-1",
        ]
        # both the enumerator and the exact linear oracle find the group
        # infinite: enumeration never closes, and one word maps to a
        # unipotent non-identity matrix, which has infinite order
        with pytest.raises(engine.CapExceeded):
            engine.order(p, cap=20_000)
        imgs = edge_images(EXAMPLE5, emap)
        witness = oracle.eval_word(imgs, p.gen("r2_3") * p.gen("r2_4"))
        assert witness.is_unipotent() and not witness.is_identity()


def _determinism_transcript(tmp_path, seed):
    env = dict(os.environ, PYTHONHASHSEED=seed)
    out = b""
    run = lambda *args: subprocess.run(
        [sys.executable, "-m", "altcox.cli", *args],
        capture_output=True, env=env, check=True).stdout
    out += run("present", "--family", "D", "--rank", "4", "--variant", "edge")
    out += run("present", "--family", "B", "--rank", "3", "--variant",
               "tilde-plus-edge")
    t = tmp_path / f"table-{seed}.csv"
    d = tmp_path / f"graph-{seed}.dot"
    r = tmp_path / f"reps-{seed}.txt"
    out += run("enumerate", "--family", "A", "--rank", "4",
               "--variant", "carmichael", "--subgroup-gens", "2",
               "--table", str(t), "--dot", str(d), "--reps", str(r))
    out += t.read_bytes() + d.read_bytes() + r.read_bytes()
    out += run("nf", "--family", "A", "--variant", "carmichael",
               "--rank", "3", "--enumerate")
    out += run("verify", "--only", "orders-A4")
    return out


def test_criterion_10_determinism(tmp_path):
    with criterion(10, "byte-identical output across runs and hash seeds", 60):
        first = _determinism_transcript(tmp_path, "0")
        second = _determinism_transcript(tmp_path, "31337")
        assert first == second
