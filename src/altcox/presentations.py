"""Builders for every presentation family, plus the homomorphisms between
them.

Families: standard Coxeter, Bourbaki/Moore (vertex generators R_i),
edge-generator presentations (one generator per oriented edge of a
connected extension), Carmichael-style presentations, the VV variant for
type A, the spinor extensions (tilde and tilde-prime, Bourbaki and edge
styles), and the universal central extensions of A5+ and A6+.

The Coxeter, Bourbaki and edge families are each written once, as
(relator, tilde twist, tilde-prime twist) triples yielded lazily, so that
Presentation's size rule stops a build at its limit.  The plain builder
keeps the relators.  Its spinor extension prefixes the generator names with
t, appends a central involution z (alpha for the full group; z or zp for
the even subgroup) and multiplies each relator by z^-twist.  The twists are:

    relator                     tilde          tilde-prime
    label-m powers and braids   (m-1) mod 2    1
    Bourbaki (R_i^-1 R_j)^m     (m-1) mod 2    (m-1) mod 2
    fundamental cycles          0              (edge count) mod 2
    squared 2- and 3-paths      1              1
    commutators                 0              0

Displays written by hand, because deriving them would change the bytes
``altcox present`` prints:
- type-D edge: it writes r2^2 where the edge family writes r1_2^-1;
- carmichael: its generators a_i are neither edge nor Bourbaki generators;
- vv: it replaces the edge family's squared 3-paths by another relator;
- A5/A6 covers: zeta twists, and A6 orders its commutators differently.
"""

from __future__ import annotations

from .coxeter import (CoxeterMatrix, ConnectedExtension, INFINITY,
                      connected_extension, cycle_basis, root_paths,
                      standard_matrix)
from .words import InputError, Record, Word, Presentation, commutator
from . import engine


class BuildError(InputError):
    pass


# ---------------------------------------------------------------------------
# relator families, plain and spinor builders

def _plain(names, family) -> Presentation:
    return Presentation(names, (w for w, _, _ in family))


def _spinor(names, family, variant: str, zname: str) -> Presentation:
    """Names prefixed with t, central ``zname`` of order 2 appended, and
    each relator w replaced by w z^-twist for the variant's twist."""
    if variant not in ("tilde", "tilde-prime"):
        raise BuildError(f"unknown spinor variant {variant!r}")
    k = 1 if variant == "tilde" else 2
    z = Word.gen(len(names))
    return Presentation.build(tuple("t" + s for s in names) + (zname,),
                              (t[0] * z ** -t[k] for t in family),
                              central=((zname, 2),))


def _label_twists(mij):
    """A label-m power or braid is z^(m-1) in tilde, z in tilde-prime."""
    return (mij - 1) % 2, 1


def _coxeter_family(m: CoxeterMatrix):
    def triples():
        for i in range(m.n):
            for j in range(i, m.n):
                mij = m.entry(i, j)
                if mij != INFINITY:
                    yield (Word.gen(i) * Word.gen(j)) ** mij, *_label_twists(mij)
    return tuple(f"s{i}" for i in range(m.n)), triples()


def _bourbaki_family(m: CoxeterMatrix):
    def triples():  # generator a is R_{a+1}
        for a in range(m.n - 1):
            mv = m.entry(0, a + 1)
            if mv != INFINITY:
                yield Word.gen(a) ** mv, *_label_twists(mv)
        for a in range(m.n - 1):
            for b in range(a + 1, m.n - 1):
                mij = m.entry(a + 1, b + 1)
                if mij != INFINITY:  # tilde-prime's ts_i^-1 is alpha ts_i
                    twist = (mij - 1) % 2
                    yield (Word.gen(a, -1) * Word.gen(b)) ** mij, twist, twist
    return tuple(f"R{v}" for v in range(1, m.n)), triples()


def coxeter_presentation(m: CoxeterMatrix) -> Presentation:
    """Generators s0..s{n-1}; relators (s_i s_j)^m_ij for i <= j, infinite
    labels omitted."""
    return _plain(*_coxeter_family(m))


def bourbaki_presentation(m: CoxeterMatrix) -> Presentation:
    """Generators R_i = s_0 s_i for 1 <= i < n; relators R_i^m_{0,i} and
    (R_i^-1 R_j)^m_ij for i < j."""
    return _plain(*_bourbaki_family(m))


# ---------------------------------------------------------------------------
# edge presentations

class EdgeGeneratorMap(Record):
    """Bijection between oriented edges (i<j) of an extension and generators."""

    __slots__ = ("edges", "_pos")

    def __init__(self, edges: tuple[tuple[int, int], ...]):
        # sorted (i, j); generator k is edges[k]
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "_pos", {e: k for k, e in enumerate(edges)})

    def gen_word(self, p, q) -> Word:
        """Word for the oriented-edge symbol r_pq: the generator if p < q,
        its formal inverse if p > q."""
        if p < q:
            return Word.gen(self._pos[(p, q)])
        return Word.gen(self._pos[(q, p)], -1)

    def path_word(self, verts) -> Word:
        """Product of the symbols r_pq along a simple path or cycle."""
        pos = self._pos
        # consecutive edges of a simple path or cycle are distinct
        # generators, so no letter cancels; the ends of a squared path are a
        # far pair, so its square cannot cancel at the seam either
        return Word._reduced(tuple(pos[p, q] + 1 if p < q else -(pos[q, p] + 1)
                                   for p, q in zip(verts, verts[1:])))


def _edge_family(ext: ConnectedExtension):
    """Generator names, relator triples and generator map of the edge
    presentation.

    The squared paths and commutators are found from the far pairs, two
    vertices distinct and not adjacent in the extension.  A virtual edge
    lies on no cycle, so the ends of a 2- or 3-path have m = 2 exactly when
    they are far; two edges are not connected exactly when each end of one
    is far from both ends of the other.  The search thus follows the
    relators yielded, and costs O(n^2) on a complete graph, which has none.
    """
    all_edges = ext.all_edges()  # virtual edges carry label 2
    emap = EdgeGeneratorMap(tuple((i, j) for i, j, _ in all_edges))

    def triples():
        for k, (_, _, lab) in enumerate(all_edges):
            if lab != INFINITY:
                yield Word.gen(k) ** lab, *_label_twists(lab)
        for cyc in cycle_basis(ext):
            yield emap.path_word(cyc), 0, (len(cyc) - 1) % 2
        adj = ext.adjacency()
        far = [[b for b in range(a + 1, ext.n) if b not in adj[a]]
               for a in range(ext.n)]  # far pairs (a, b), a < b
        for a, fa in enumerate(far):  # squared 2-paths (a, v, b)
            for path in sorted((v, b) for b in fa for v in adj[a] & adj[b]):
                yield emap.path_word((a, *path)) ** 2, 1, 1
        for a, fa in enumerate(far):  # squared 3-paths (a, u, v, b)
            for path in sorted((u, v, b) for b in fa for u in adj[a]
                               for v in adj[u] & adj[b]):
                yield emap.path_word((a, *path)) ** 2, 1, 1
        upper = [sorted(w for w in adj[v] if w > v) for v in range(ext.n)]
        for e, (i, j) in enumerate(emap.edges):  # edges (k, l) after (i, j)
            near = adj[i] | adj[j]  # i, j and their neighbours
            for k in far[i]:
                if k not in near:
                    for l in upper[k]:
                        if l not in near:
                            yield commutator(Word.gen(e), emap.gen_word(k, l)), 0, 0
    return tuple(f"r{i}_{j}" for i, j in emap.edges), triples(), emap


def edge_presentation(m: CoxeterMatrix, anchors=None):
    """Edge-generator presentation of the alternating subgroup, over the
    connected extension of m with the given anchors (default: each
    component's smallest vertex).

    Relator families, in order: edge powers, cycle relators for a
    fundamental cycle basis, squared 2-paths (a, v, b) and squared 3-paths
    (a, u, v, b) with a < b and m_ab = 2, each in lexicographic order, and
    commutators of not-connected generator pairs.  Presentation's size
    rule refuses more than MAX_GENERATORS edges before any relator is
    built, and stops the build at MAX_LETTERS relator letters.
    """
    names, family, emap = _edge_family(connected_extension(m, anchors))
    return _plain(names, family), emap


# ---------------------------------------------------------------------------
# chain presentations (types A, B, D in three variants)

# lowest chain level per family, also read by the chains module; its
# representative block is the whole base group (A2+ = C3, B2+ = C4, D3+ of
# order 12)
CHAIN_BASE = {"A": 2, "B": 2, "D": 3}


def chain_presentation(family: str, variant: str, n: int) -> Presentation:
    """The displayed A/B/D presentation in the given variant at rank n.

    Generators are a1.., R1.., or r1.. (n-1 of them).  The Bourbaki and
    A/B edge variants are the generic builders, the edge generators
    renamed; type D's edge display uses its own generator choice.
    """
    family = family.upper()
    if family not in CHAIN_BASE or variant not in ("carmichael", "bourbaki", "edge"):
        raise BuildError(f"unsupported chain ({family}, {variant})")
    if n < CHAIN_BASE[family]:
        raise BuildError(f"rank {n} below minimum for ({family}, {variant})")
    if variant == "bourbaki":  # generators R1..R{n-1} already
        return bourbaki_presentation(standard_matrix(family, n))
    if variant == "edge" and family != "D":
        triples = _edge_family(connected_extension(standard_matrix(family, n)))[1]
        return _plain(tuple(f"r{i}" for i in range(1, n)), triples)
    g = lambda i, k=1: Word.gen(i - 1, k)  # 1-based generator helper
    rel = [g(i) ** (4 if family == "B" else 3) for i in range(1, n)]
    if variant == "carmichael":
        names = tuple(f"a{i}" for i in range(1, n))
        if family == "A":
            rel += [(g(i) * g(j)) ** 2 for i in range(1, n) for j in range(i + 1, n)]
        elif family == "B":
            rel += [(g(1) * g(i)) ** 3 for i in range(2, n)]
            rel += [(g(1, 2) * g(i)) ** 2 for i in range(2, n)]
            rel += [(g(1) * g(i) * g(1) * g(j)) ** 2
                    for i in range(2, n) for j in range(i + 1, n)]
        else:
            rel += [(g(1) * g(i)) ** 2 for i in range(2, n)]
            rel += [(g(2, 2) * g(i)) ** 2 for i in range(3, n)]
            rel += [(g(i) * g(j)) ** 2 for i in range(3, n) for j in range(i + 1, n)]
    else:  # type D edge display
        names = tuple(f"r{i}" for i in range(1, n))
        rel += [(g(1) * g(2, 2)) ** 2]
        if n >= 4:
            rel += [(g(1) * g(3)) ** 2]
        rel += [(g(i) * g(i + 1)) ** 2 for i in range(2, n - 1)]
        if n >= 5:
            rel += [(g(1) * g(3) * g(4)) ** 2]
        rel += [(g(i) * g(i + 1) * g(i + 2)) ** 2 for i in range(2, n - 2)]
        rel += [commutator(g(1), g(i)) for i in range(5, n)]
        rel += [commutator(g(i), g(j)) for i in range(2, n)
                for j in range(i + 3, n)]
    return Presentation(names, tuple(rel))


def vv_presentation(n: int) -> Presentation:
    """The type-A variant with the squared 3-path relator replaced by
    rho_i rho_{i+1}^2 rho_{i+2} = rho_{i+2} rho_i."""
    if n < 2:
        raise BuildError("vv presentation needs n >= 2")
    g = lambda i, k=1: Word.gen(i - 1, k)
    rel = [g(i) ** 3 for i in range(1, n)]
    rel += [(g(i) * g(i + 1)) ** 2 for i in range(1, n - 1)]
    rel += [g(i) * g(i + 1, 2) * g(i + 2) * g(i, -1) * g(i + 2, -1)
            for i in range(1, n - 2)]
    rel += [commutator(g(i), g(j)) for i in range(1, n) for j in range(i + 3, n)]
    return Presentation(tuple(f"rho{i}" for i in range(1, n)), tuple(rel))


# ---------------------------------------------------------------------------
# spinor extensions

def spinor_presentation(m: CoxeterMatrix, variant: str) -> Presentation:
    """Central extension of the full Coxeter group by alpha (order 2).

    tilde: (ts_i ts_j)^m_ij = 1 for odd m_ij, = alpha for even.
    tilde-prime: every (ts_i ts_j)^m_ij = alpha.
    """
    return _spinor(*_coxeter_family(m), variant, "alpha")


def spinor_plus_presentation(m: CoxeterMatrix, style: str, variant: str) -> Presentation:
    """Spinor extension of the alternating subgroup, with central z (tilde)
    or zp (tilde-prime); Bourbaki or edge style."""
    zname = "z" if variant == "tilde" else "zp"
    if style == "bourbaki":
        return _spinor(*_bourbaki_family(m), variant, zname)
    if style != "edge":
        raise BuildError(f"unknown spinor style {style!r}")
    names, family, _ = _edge_family(connected_extension(m))
    return _spinor(names, family, variant, zname)


def universal_extension(which: str) -> Presentation:
    """Universal central extensions of A5+ / A6+ (kernel C2 x C3).

    Generators tr1.. plus z (order 2) and zeta (order 3).
    """
    if which not in ("A5", "A6"):
        raise BuildError(f"unknown extension {which!r}")
    n = 5 if which == "A5" else 6
    ngen = n - 1
    names = tuple(f"tr{i}" for i in range(1, n)) + ("z", "zeta")
    g = lambda i, k=1: Word.gen(i - 1, k)
    z = Word.gen(ngen)
    zeta = Word.gen(ngen + 1)
    rel = [g(i) ** 3 for i in range(1, n)]
    if which == "A5":
        rel += [(g(1) * g(2)) ** 2 * z.inverse(),
                (g(2) * g(3)) ** 2 * (z * zeta).inverse(),
                (g(3) * g(4)) ** 2 * z.inverse()]
        rel += [(g(1) * g(2) * g(3)) ** 2 * z.inverse(),
                (g(2) * g(3) * g(4)) ** 2 * z.inverse()]
        # tr1 tr4 = zeta^2 tr4 tr1
        rel += [g(1) * g(4) * g(1, -1) * g(4, -1) * zeta ** (-2)]
    else:
        rel += [(g(i) * g(i + 1)) ** 2 * z.inverse() for i in range(1, 5)]
        rel += [(g(1) * g(2) * g(3)) ** 2 * z.inverse(),
                (g(2) * g(3) * g(4)) ** 2 * (z * zeta).inverse(),
                (g(3) * g(4) * g(5)) ** 2 * z.inverse()]
        rel += [g(1) * g(4) * g(1, -1) * g(4, -1) * zeta.inverse(),
                g(2) * g(5) * g(2, -1) * g(5, -1) * zeta.inverse(),
                g(1) * g(5) * g(1, -1) * g(5, -1) * zeta ** (-2)]
    return Presentation.build(names, rel, central=(("z", 2), ("zeta", 3)))


# ---------------------------------------------------------------------------
# homomorphisms

class GroupHom(Record):
    """Map between presented groups, given by one target word per source
    generator."""

    __slots__ = ("source", "target", "images")

    def apply(self, w: Word) -> Word:
        out = Word()
        for x in w:
            img = self.images[abs(x) - 1]
            out = out * (img if x > 0 else img.inverse())
        return out

    def verify(self, target_table=None, cap=engine.DEFAULT_CAP) -> bool:
        """Check all source relators die in the target, via the target's
        regular coset table (enumerated here when not given)."""
        if target_table is None:
            target_table = engine.enumerate(self.target, (), cap)
        return all(engine.word_in_subgroup(target_table, self.apply(rel))
                   for rel in self.source.relators)


def compose(f: GroupHom, g: GroupHom) -> GroupHom:
    """g after f (f applied first)."""
    if f.target.generators != g.source.generators:
        raise BuildError("homs not composable")
    images = tuple(g.apply(w) for w in f.images)
    return GroupHom(f.source, g.target, images)


def is_identity_hom(h: GroupHom, source_table=None, cap=engine.DEFAULT_CAP) -> bool:
    """True iff h fixes every generator modulo the source relations, via
    the source's regular coset table (enumerated here when not given)."""
    if source_table is None:
        source_table = engine.enumerate(h.source, (), cap)
    return all(engine.words_equal(source_table, h.images[k], Word.gen(k))
               for k in range(h.source.rank))


def spinor_iso(src: Presentation, dst: Presentation):
    """The isomorphism pair between src and dst, the tilde and tilde-prime
    edge-style spinor extensions of one Coxeter matrix, as
    spinor_plus_presentation(m, "edge", variant) builds them:
    tr_ij -> zp * tr'_ij, z -> zp (and its inverse)."""
    nedges = src.rank - 1
    c = Word.gen(nedges)  # the central generator, z or zp, on either side
    images = tuple(c * Word.gen(k) for k in range(nedges)) + (c,)
    return GroupHom(src, dst, images), GroupHom(dst, src, images)


def bourbaki_edge_homs(m: CoxeterMatrix):
    """The mutually inverse maps phi: edge -> Bourbaki (r_ij -> R_i^-1 R_j,
    with R_0 read as 1) and psi: Bourbaki -> edge (R_i -> product of edge
    generators along the root_paths spanning tree path from vertex 0)."""
    edge_p, emap = edge_presentation(m)
    bour_p = bourbaki_presentation(m)

    def R(v):  # word for R_v in the Bourbaki presentation, R_0 = 1
        return Word() if v == 0 else Word.gen(v - 1)

    phi_images = tuple(R(i).inverse() * R(j) for i, j in emap.edges)
    phi = GroupHom(edge_p, bour_p, phi_images)
    paths = root_paths(connected_extension(m))[1:]
    psi = GroupHom(bour_p, edge_p, tuple(emap.path_word(p[::-1]) for p in paths))
    return phi, psi
