import itertools
import random

import pytest

from altcox import engine, oracle
from altcox.words import Word, Presentation, render_word, commutator
from altcox.coxeter import (CoxeterMatrix, INFINITY, connected_extension,
                            cycle_basis, standard_matrix)
from altcox import presentations as pres

from reflection_rep import edge_images, simple_reflections
from subgroups import quotient_by_generators

EXAMPLE5 = CoxeterMatrix(5, ((1, 4, 2, 2, 2),
                             (4, 1, 2, 2, 2),
                             (2, 2, 1, 3, 3),
                             (2, 2, 3, 1, 3),
                             (2, 2, 3, 3, 1)))


def rendered(p):
    return [render_word(w, p) for w in p.relators]


def edge_spinor_pair(m):
    """The tilde and tilde-prime edge-style spinor extensions over m."""
    return (pres.spinor_plus_presentation(m, "edge", "tilde"),
            pres.spinor_plus_presentation(m, "edge", "tilde-prime"))


def test_coxeter_rank1():
    p = pres.coxeter_presentation(standard_matrix("A", 1))
    assert p.generators == ("s0",) and rendered(p) == ["s0^2"]


def test_coxeter_a3_six_relators():
    p = pres.coxeter_presentation(standard_matrix("A", 3))
    assert len(p.relators) == 6
    assert engine.order(p) == 24


def test_coxeter_infinite_label_omitted():
    m = CoxeterMatrix(2, ((1, 0), (0, 1)))
    p = pres.coxeter_presentation(m)
    assert rendered(p) == ["s0^2", "s1^2"]


def test_bourbaki_leading_powers():
    assert "R1^3" in rendered(pres.bourbaki_presentation(standard_matrix("A", 3)))
    assert "R1^4" in rendered(pres.bourbaki_presentation(standard_matrix("B", 3)))
    d = pres.bourbaki_presentation(standard_matrix("D", 4))
    out = rendered(d)
    assert "R2^3" in out and "R1^2" in out


def test_edge_single_edge_graph():
    p, emap = pres.edge_presentation(standard_matrix("A", 2))
    assert p.generators == ("r0_1",) and rendered(p) == ["r0_1^3"]
    assert engine.order(p) == 3


def test_edge_presentation_example_verbatim():
    p, emap = pres.edge_presentation(EXAMPLE5, (1, 2))
    assert p.generators == ("r0_1", "r1_2", "r2_3", "r2_4", "r3_4")
    assert rendered(p) == [
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
    assert len(p.relators) == 14


def test_edge_relators_hold_in_reflection_representation():
    p, emap = pres.edge_presentation(EXAMPLE5, (1, 2))
    assert oracle.verify_hom(p, edge_images(EXAMPLE5, emap))


def test_example_group_is_infinite():
    p, emap = pres.edge_presentation(EXAMPLE5, (1, 2))
    with pytest.raises(engine.CapExceeded):
        engine.enumerate(p, (), cap=20_000)
    # independent witness: r2_3 r2_4 maps to a unipotent matrix that is not
    # the identity, hence has infinite order
    imgs = edge_images(EXAMPLE5, emap)
    w = oracle.eval_word(imgs, p.gen("r2_3") * p.gen("r2_4"))
    assert w.is_unipotent() and not w.is_identity()


def test_chain_a_carmichael():
    p = pres.chain_presentation("A", "carmichael", 4)
    want = [Word.gen(i) ** 3 for i in range(3)]
    want += [(Word.gen(i) * Word.gen(j)) ** 2
             for i in range(3) for j in range(i + 1, 3)]
    assert list(p.relators) == want


def test_chain_b_edge_3():
    p = pres.chain_presentation("B", "edge", 3)
    assert rendered(p) == ["r1^4", "r2^3", "r1 r2 r1 r2"]


def test_chain_d_edge_4():
    p = pres.chain_presentation("D", "edge", 4)
    assert rendered(p) == ["r1^3", "r2^3", "r3^3",
                           "r1 r2^2 r1 r2^2", "r1 r3 r1 r3", "r2 r3 r2 r3"]
    assert engine.order(p) == 96


def test_chain_b_carmichael_matches_display():
    p = pres.chain_presentation("B", "carmichael", 4)
    out = rendered(p)
    assert "a1^4" in out and "a1 a2 a1 a2 a1 a2" in out
    assert "a1^2 a2 a1^2 a2" in out
    assert "a1 a2 a1 a3 a1 a2 a1 a3" in out


def test_chain_agrees_with_generic_builders():
    for fam, ranks in (("A", range(2, 8)), ("B", range(2, 7)), ("D", range(3, 7))):
        for n in ranks:
            m = standard_matrix(fam, n)
            chain_b = pres.chain_presentation(fam, "bourbaki", n)
            assert chain_b.relators == pres.bourbaki_presentation(m).relators
            chain_e = pres.chain_presentation(fam, "edge", n)
            generic = pres.edge_presentation(m)[0]
            assert chain_e.rank == generic.rank
            if fam != "D":
                assert chain_e.relators == generic.relators
    # type D's display uses another generator choice: check that the two
    # relator sets are mutually derivable
    m = standard_matrix("D", 5)
    chain_e = pres.chain_presentation("D", "edge", 5)
    generic = pres.edge_presentation(m)[0]
    reg_generic = engine.enumerate(generic, ())
    reg_chain = engine.enumerate(chain_e, ())
    for w in chain_e.relators:
        assert engine.word_in_subgroup(reg_generic, w)
    for w in generic.relators:
        assert engine.word_in_subgroup(reg_chain, w)
    assert engine.order(chain_e) == engine.order(generic)


def test_chain_rank_minimum():
    with pytest.raises(pres.BuildError):
        pres.chain_presentation("D", "carmichael", 2)


def test_builders_refuse_unknown_arguments():
    m = standard_matrix("A", 3)
    for build, message in (
            (lambda: pres.spinor_presentation(m, "hat"), "unknown spinor variant 'hat'"),
            (lambda: pres.spinor_presentation(m, "tilde_prime"),
             "unknown spinor variant 'tilde_prime'"),
            (lambda: pres.spinor_plus_presentation(m, "carmichael", "tilde"),
             "unknown spinor style 'carmichael'"),
            (lambda: pres.vv_presentation(1), "vv presentation needs n >= 2"),
            (lambda: pres.universal_extension("A7"), "unknown extension 'A7'")):
        with pytest.raises(pres.BuildError, match=f"^{message}$"):
            build()
    fwd, _ = pres.spinor_iso(*edge_spinor_pair(m))  # its target names zp, its source z
    with pytest.raises(pres.BuildError, match="^homs not composable$"):
        pres.compose(fwd, fwd)


def coxeter_words(n):
    """The Coxeter generators s0..s{n-1} as words."""
    return [Word.gen(i) for i in range(n)]


def test_carmichael_generators():
    ws = oracle.chain_generators("A", "carmichael", 3, coxeter_words(3))
    assert [w.letters for w in ws] == [(1, 2), (3, 1, 2, 3)]
    sx = oracle.standard_images("D", "coxeter", 3)
    imgs = [oracle.eval_word(sx, w)
            for w in oracle.chain_generators("D", "carmichael", 3, coxeter_words(3))]
    assert oracle.generated_order(imgs) == 12
    with pytest.raises(oracle.OracleError):
        oracle.chain_generators("D", "carmichael", 2, coxeter_words(2))


def test_edge_generators_follow_the_edge_builder():
    """The k-th edge generator is s_i s_j for the k-th edge (i, j) of the
    builder's extension, so the oracle's images satisfy the generic edge
    presentation too, not only the chain display."""
    for fam, base in (("A", 2), ("B", 2), ("D", 3)):
        for n in range(base, 9):
            edges = connected_extension(standard_matrix(fam, n)).all_edges()
            got = oracle.chain_generators(fam, "edge", n, coxeter_words(n))
            assert got == [Word.gen(i) * Word.gen(j) for i, j, _ in edges], (fam, n)
            if n <= 5:
                p = pres.edge_presentation(standard_matrix(fam, n))[0]
                assert oracle.verify_hom(p, oracle.standard_images(fam, "edge", n))


def test_vv_presentation():
    p = pres.vv_presentation(3)
    assert rendered(p) == ["rho1^3", "rho2^3", "rho1 rho2 rho1 rho2"]
    assert engine.order(pres.vv_presentation(4)) == 60


def test_vv_equivalence_n5():
    n = 5
    p_vv = pres.vv_presentation(n)
    p_edge = pres.chain_presentation("A", "edge", n)
    ident = tuple(Word.gen(k) for k in range(n - 1))
    assert pres.GroupHom(p_vv, p_edge, ident).verify()
    assert pres.GroupHom(p_edge, p_vv, ident).verify()


def test_braid_relation_for_twisted_images():
    # with r'_i = r_i^(+-1) (inverse at odd i) the braid relation holds
    for n in range(3, 8):
        images = oracle.standard_images("A", "edge", n)
        signed = [img.inverse() if (i + 1) % 2 else img
                  for i, img in enumerate(images)]
        for i in range(len(signed) - 1):
            a, b = signed[i], signed[i + 1]
            assert a * b * a == b * a * b


def test_spinor_rank1():
    p = pres.spinor_presentation(standard_matrix("A", 1), "tilde")
    out = rendered(p)
    assert "ts0^2" in out and "alpha^2" in out


def test_spinor_parity_rule():
    m = standard_matrix("A", 3)
    tilde = rendered(pres.spinor_presentation(m, "tilde"))
    assert "ts0 ts2 ts0 ts2 alpha^-1" in tilde     # even label picks up alpha
    assert "ts0 ts1 ts0 ts1 ts0 ts1" in tilde      # odd label does not
    prime = rendered(pres.spinor_presentation(m, "tilde-prime"))
    assert "ts0 ts1 ts0 ts1 ts0 ts1 alpha^-1" in prime


def test_spinor_orders_double_full_group():
    for fam, n in (("A", 3), ("B", 3)):
        m = standard_matrix(fam, n)
        full = engine.order(pres.coxeter_presentation(m))
        for v in ("tilde", "tilde-prime"):
            assert engine.order(pres.spinor_presentation(m, v)) == 2 * full


def test_spinor_plus_relator_shapes():
    m = standard_matrix("A", 3)
    bour = rendered(pres.spinor_plus_presentation(m, "bourbaki", "tilde"))
    assert "tR1^3" in bour                         # z^(3-1) = z^2 = 1
    edge = rendered(pres.spinor_plus_presentation(m, "edge", "tilde"))
    assert "tr0_1 tr1_2 tr0_1 tr1_2 z^-1" in edge  # (r r')^2 = z
    prime = rendered(pres.spinor_plus_presentation(m, "bourbaki", "tilde-prime"))
    assert "tR1^3 zp^-1" in prime


def test_spinor_plus_orders():
    for fam, n in (("A", 3), ("B", 3), ("D", 4)):
        m = standard_matrix(fam, n)
        plain = oracle.alternating_order(fam, n)
        for style in ("bourbaki", "edge"):
            for v in ("tilde", "tilde-prime"):
                assert engine.order(pres.spinor_plus_presentation(m, style, v)) \
                    == 2 * plain


@pytest.mark.parametrize("fam, n", [("A", 3), ("A", 4), ("B", 3), ("D", 4)])
# the ids keep the names these cases had when the builders spelt the
# variant tilde_prime
@pytest.mark.parametrize("variant", ["tilde", "tilde-prime"], ids=["tilde", "tilde_prime"])
@pytest.mark.parametrize("style", ["bourbaki", "edge"])
def test_spinor_plus_lifts_into_spinor(fam, n, variant, style):
    # each spinor-plus generator names an element of the spinor group of
    # the same variant, R_i = ts_0 ts_i or r_ij = ts_i ts_j, and z or zp is
    # its alpha: every relator holds there
    m = standard_matrix(fam, n)
    if style == "bourbaki":
        pairs = [(0, i) for i in range(1, n)]
    else:
        pairs = [(i, j) for i, j, _ in connected_extension(m).all_edges()]
    images = tuple(Word.gen(i) * Word.gen(j) for i, j in pairs) + (Word.gen(n),)
    lift = pres.GroupHom(pres.spinor_plus_presentation(m, style, variant),
                         pres.spinor_presentation(m, variant), images)
    assert lift.verify()


def _matrix(n, labels):
    """Coxeter matrix with the given {(i, j): m_ij} labels, 2 elsewhere."""
    m = [[1 if i == j else 2 for j in range(n)] for i in range(n)]
    for (i, j), lab in labels.items():
        m[i][j] = m[j][i] = lab
    return CoxeterMatrix(n, m)


SPINOR_MATRICES = (
    [standard_matrix("A", n) for n in range(1, 8)]
    + [standard_matrix("B", n) for n in range(2, 7)]
    + [standard_matrix("D", n) for n in range(3, 7)]
    + [_matrix(3, {(0, 1): 5, (1, 2): 3}),                       # H3
       _matrix(4, {(0, 1): 3, (1, 2): 4, (2, 3): 3}),            # F4
       _matrix(2, {(0, 1): 5}), _matrix(2, {(0, 1): 6}),         # I2(5), I2(6)
       _matrix(3, {(0, 1): 3, (1, 2): 3, (0, 2): 3}),            # affine A2
       _matrix(4, {(0, 1): 3, (1, 2): 3, (2, 3): 3, (0, 3): 3}), # 4-cycle
       _matrix(3, {(0, 1): INFINITY, (1, 2): 3}),
       _matrix(4, {(0, 1): 3, (2, 3): 4})])                      # two components


@pytest.mark.parametrize("m", SPINOR_MATRICES)
def test_spinor_builders_kill_central_to_plain(m):
    # deleting the central generator from a spinor presentation's relators
    # leaves the plain presentation's relators first, under t-prefixed names
    plain = [pres.coxeter_presentation(m), pres.bourbaki_presentation(m),
             pres.edge_presentation(m)[0]]
    cases = []
    for v in ("tilde", "tilde-prime"):
        cases.append((plain[0], "alpha", pres.spinor_presentation(m, v)))
        zname = "z" if v == "tilde" else "zp"
        for p, style in zip(plain[1:], ("bourbaki", "edge")):
            cases.append((p, zname, pres.spinor_plus_presentation(m, style, v)))
    for p, zname, spinor in cases:
        assert spinor.generators == tuple("t" + s for s in p.generators) + (zname,)
        assert spinor.central == ((zname, 2),)
        z = spinor.rank
        killed = [Word(tuple(x for x in w.letters if abs(x) != z))
                  for w in spinor.relators]
        assert tuple(killed[:len(p.relators)]) == p.relators


def _reference_edge_family(m):
    """The edge presentation's generators (edges) and relator triples
    (relator, tilde twist, tilde-prime twist), with the squared paths and
    commutators found by brute force: every simple 2- and 3-path whose ends
    a < b have m_ab = 2, and every pair of edges with no end of one equal
    or adjacent to an end of the other."""
    ext = connected_extension(m)
    edges = [(i, j) for i, j, _ in ext.all_edges()]
    gen = {e: k for k, e in enumerate(edges)}

    def adjacent(p, q):
        return (min(p, q), max(p, q)) in gen

    def word(path):
        w = Word()
        for p, q in zip(path, path[1:]):
            w = w * (Word.gen(gen[(p, q)]) if p < q else Word.gen(gen[(q, p)], -1))
        return w

    triples = [(Word.gen(k) ** lab, (lab - 1) % 2, 1)
               for k, (_, _, lab) in enumerate(ext.all_edges()) if lab != INFINITY]
    triples += [(word(c), 0, (len(c) - 1) % 2) for c in cycle_basis(ext)]
    for length in (2, 3):  # permutations come in lexicographic order
        for path in itertools.permutations(range(m.n), length + 1):
            if (path[0] < path[-1] and m.entry(path[0], path[-1]) == 2
                    and all(adjacent(p, q) for p, q in zip(path, path[1:]))):
                triples.append((word(path) ** 2, 1, 1))
    for a, b in itertools.combinations(range(len(edges)), 2):
        if not any(p == q or adjacent(p, q) for p in edges[a] for q in edges[b]):
            triples.append((commutator(Word.gen(a), Word.gen(b)), 0, 0))
    return tuple(edges), triples


def test_edge_families_match_brute_force():
    # random density: sparse matrices are mostly disconnected, dense ones
    # have many cycles and few squared paths or commutators
    rng = random.Random(7)
    disconnected = 0
    for _ in range(300):
        n = rng.randint(1, 8)
        density = rng.random()
        m = _matrix(n, {(i, j): rng.choice([3, 4, 5, 6, INFINITY])
                        for i in range(n) for j in range(i + 1, n)
                        if rng.random() < density})
        edges, triples = _reference_edge_family(m)
        disconnected += bool(connected_extension(m).virtual_edges)
        p, emap = pres.edge_presentation(m)
        assert emap.edges == edges
        assert p.relators == tuple(w for w, _, _ in triples)
        z = Word.gen(len(edges))
        central = [z ** 2] + [commutator(z, Word.gen(k)) for k in range(len(edges))]
        built = [p]
        for k, v in ((1, "tilde"), (2, "tilde-prime")):
            sp = pres.spinor_plus_presentation(m, "edge", v)
            assert sp.relators == tuple([t[0] * z ** -t[k] for t in triples] + central)
            built += [sp, pres.spinor_plus_presentation(m, "bourbaki", v),
                      pres.spinor_presentation(m, v)]
        # Presentation.build does not validate what it builds, and from_json
        # validates: every spinor and cover build must pass its checks
        for q in built:
            assert Presentation.from_json(q.to_json()) == q
    assert disconnected >= 50
    for which in ("A5", "A6"):
        q = pres.universal_extension(which)
        assert Presentation.from_json(q.to_json()) == q


def test_spinor_iso_both_ways():
    for fam in ("A", "B"):
        fwd, bwd = pres.spinor_iso(*edge_spinor_pair(standard_matrix(fam, 3)))
        rt = engine.enumerate(fwd.target, ())
        rs = engine.enumerate(bwd.target, ())
        assert fwd.verify(rt) and bwd.verify(rs)
        assert pres.is_identity_hom(pres.compose(fwd, bwd), rs)
        assert pres.is_identity_hom(pres.compose(bwd, fwd), rt)


def test_universal_extension_a5():
    p = pres.universal_extension("A5")
    assert p.generators == ("tr1", "tr2", "tr3", "tr4", "z", "zeta")
    assert engine.order(p, cap=500_000) == 6 * 360
    q = quotient_by_generators(p, ("z", "zeta"))
    assert engine.order(q) == 360


def test_universal_extension_quotient_by_zeta_gives_spinor_order():
    p = pres.universal_extension("A5")
    assert engine.order(quotient_by_generators(p, ("zeta",)),
                        cap=500_000) == 2 * 360


def test_hom_checks_let_cap_overrun_through():
    # the A4 edge group has order 60, so its regular table needs more than 5 cosets
    p_vv = pres.vv_presentation(4)
    p_edge = pres.chain_presentation("A", "edge", 4)
    ident = tuple(Word.gen(k) for k in range(3))
    with pytest.raises(engine.CapExceeded):
        pres.GroupHom(p_vv, p_edge, ident).verify(cap=5)
    with pytest.raises(engine.CapExceeded):
        pres.is_identity_hom(pres.GroupHom(p_edge, p_vv, ident), cap=5)


def test_bourbaki_edge_homs():
    m = standard_matrix("A", 3)
    phi, psi = pres.bourbaki_edge_homs(m)
    # phi(r0_1) = R1, phi(r1_2) = R1^-1 R2; psi(R2) = r0_1 r1_2
    assert phi.images[0] == Word.gen(0)
    assert phi.images[1] == Word.gen(0, -1) * Word.gen(1)
    assert psi.images[1] == Word.gen(0) * Word.gen(1)
    rb = engine.enumerate(phi.target, ())
    re_ = engine.enumerate(psi.target, ())
    assert phi.verify(rb) and psi.verify(re_)
    assert pres.is_identity_hom(pres.compose(phi, psi), re_)
    assert pres.is_identity_hom(pres.compose(psi, phi), rb)


B2_A2 = CoxeterMatrix(4, ((1, 4, 2, 2), (4, 1, 2, 2), (2, 2, 1, 3), (2, 2, 3, 1)))
A1_CUBED = CoxeterMatrix(3, ((1, 2, 2), (2, 1, 2), (2, 2, 1)))


@pytest.mark.parametrize("m, psi_images", [
    # a branch at vertex 2
    (standard_matrix("D", 4), ["r0_2 r1_2^-1", "r0_2", "r0_2 r2_3"]),
    # a label 4
    (standard_matrix("B", 4), ["r0_1", "r0_1 r1_2", "r0_1 r1_2 r2_3"]),
    # one virtual edge, (0, 2)
    (B2_A2, ["r0_1", "r0_2", "r0_2 r2_3"]),
    # virtual edges (0, 1) and (1, 2)
    (A1_CUBED, ["r0_1", "r0_1 r1_2"]),
], ids=["D4", "B4", "B2+A2", "A1^3"])
def test_bourbaki_edge_homs_beyond_a_path(m, psi_images):
    phi, psi = pres.bourbaki_edge_homs(m)
    # phi(r_ij) = R_i^-1 R_j with R_0 = 1; psi(R_v) runs along the tree to v
    for k, name in enumerate(phi.source.generators):
        i, j = map(int, name[1:].split("_"))
        want = Word.gen(j - 1) if i == 0 else Word.gen(i - 1, -1) * Word.gen(j - 1)
        assert phi.images[k] == want
    assert [render_word(w, psi.target) for w in psi.images] == psi_images
    rb = engine.enumerate(phi.target, ())
    re_ = engine.enumerate(psi.target, ())
    assert phi.verify(rb) and psi.verify(re_)
    assert pres.is_identity_hom(pres.compose(phi, psi), re_)
    assert pres.is_identity_hom(pres.compose(psi, phi), rb)


def test_path_relator_property_a5():
    p, emap = pres.edge_presentation(standard_matrix("A", 5))
    m = standard_matrix("A", 5)
    reg = engine.enumerate(p, ())
    for i in range(m.n - 1):
        for j in range(i + 1, m.n):
            w = Word()
            for a, b in zip(range(i, j), range(i + 1, j + 1)):
                w = w * emap.gen_word(a, b)
            assert engine.word_in_subgroup(reg, w ** m.entry(i, j))
