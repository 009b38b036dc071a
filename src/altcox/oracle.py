"""Independent ground truth: permutations, wreath products C2 wr S_n,
word evaluation, homomorphism checks, BFS subgroup orders, the generator
images for the A/B/D presentation catalog, and the images of its spinor
covers in a Clifford algebra.  Only the images of the Coxeter generators
s_i are written out; the chain generators (a_i, R_i, r_i) are computed
from their words in the s_i, as the paper defines them, and the covers'
from the simple roots of the s_i.

Composition convention: in a product p*q the right factor acts first,
so (1,2)(2,3) = (1,2,3).
"""

from __future__ import annotations

import functools
import math
from operator import itemgetter, mul, xor

from .words import Record, Word


class OracleError(ValueError):
    pass


class Permutation(Record):
    """A permutation of {1..N}, stored as the image tuple."""

    __slots__ = ("images",)

    def __init__(self, images):
        object.__setattr__(self, "images", tuple(images))
        if sorted(self.images) != list(range(1, len(self.images) + 1)):
            raise OracleError(f"not a bijection: {self.images}")

    @classmethod
    def identity(cls, n):
        return cls(tuple(range(1, n + 1)))

    @classmethod
    def cycle(cls, n, *points):
        """The cycle (points[0], points[1], ...) on {1..n}."""
        images = list(range(1, n + 1))
        for a, b in zip(points, points[1:] + points[:1]):
            images[a - 1] = b
        return cls(tuple(images))

    def __call__(self, i):
        return self.images[i - 1]

    def __mul__(self, other):
        # other applied first; a product of two bijections of one degree is
        # one, so the result skips the constructor's check
        if len(self.images) != len(other.images):
            raise OracleError("permutation degrees differ")
        p = object.__new__(Permutation)
        object.__setattr__(p, "images", tuple(
            map(((0,) + self.images).__getitem__, other.images)))
        return p

    def inverse(self):
        inv = [0] * len(self.images)
        for i, v in enumerate(self.images):
            inv[v - 1] = i + 1
        return Permutation(tuple(inv))

    def is_identity(self):
        return all(v == i + 1 for i, v in enumerate(self.images))


class WreathElement(Record):
    """An element (flags, pi) of C2 wr S_n; pi permutes the flag positions.

    Product rule: (g, pi) * (h, sigma) = (g + pi.h, pi*sigma), where
    (pi.h)[pi(i)] = h[i] and flags add mod 2.
    """

    __slots__ = ("flags", "perm")

    def __init__(self, flags, perm: Permutation):
        object.__setattr__(self, "flags", tuple(f % 2 for f in flags))
        object.__setattr__(self, "perm", perm)
        if len(self.flags) != len(self.perm.images):
            raise OracleError("flag vector length != permutation degree")

    @classmethod
    def identity(cls, n):
        return cls((0,) * n, Permutation.identity(n))

    @classmethod
    def from_perm(cls, p):
        return cls((0,) * len(p.images), p)

    @classmethod
    def gamma(cls, n, *positions):
        """Flags set at the given positions, trivial permutation."""
        flags = [0] * n
        for i in positions:
            flags[i - 1] = 1
        return cls(tuple(flags), Permutation.identity(n))

    def __mul__(self, other):
        # (pi.h)[pi(i)] = h[i] lists h sorted by pi's images; the product of
        # two checked elements has 0/1 flags of one degree: no __init__ check
        perm = self.perm * other.perm
        moved = map(itemgetter(1), sorted(zip(self.perm.images, other.flags)))
        e = object.__new__(WreathElement)
        object.__setattr__(e, "flags", tuple(map(xor, self.flags, moved)))
        object.__setattr__(e, "perm", perm)
        return e

    def inverse(self):
        pinv = self.perm.inverse()
        moved = [0] * len(self.flags)
        for i in range(1, len(self.flags) + 1):
            moved[pinv(i) - 1] = self.flags[i - 1]
        return WreathElement(tuple(moved), pinv)

    def is_identity(self):
        return not any(self.flags) and self.perm.is_identity()


def eval_word(images, w: Word):
    """Left-to-right product of the letter images (rightmost acts first).

    ``images`` is a sequence of group elements supporting ``*`` and
    ``.inverse()``, indexed by 0-based generator; it must be nonempty even
    for the identity word.
    """
    result = None
    for x in w:
        try:
            g = images[abs(x) - 1]
        except IndexError:
            raise _no_image(x) from None
        if x < 0:
            g = g.inverse()
        result = g if result is None else result * g
    if result is None:
        return images[0] * images[0].inverse()
    return result


def _no_image(x):
    return OracleError(f"no image for generator index {abs(x) - 1}")


def verify_hom(presentation, images) -> bool:
    """True iff every relator evaluates to the identity under the images,
    which are elements as in eval_word that also have ``is_identity()``.
    When the images are a nonempty list or tuple of WreathElements of one
    degree, at most 128, each relator is evaluated on their _points
    encodings, and on those of their inverses, each read off its image's
    table, right to left, so that its rightmost letter acts first, one
    bytes.translate call a letter; a relator with a letter that has no
    image raises eval_word's error, naming the leftmost such letter.  Any
    other images go through eval_word."""
    wreaths = (isinstance(images, (list, tuple))
               and all(isinstance(g, WreathElement) for g in images))
    degrees = {len(g.flags) for g in images} if wreaths else ()
    if len(degrees) != 1 or max(degrees) > 128:
        return all(eval_word(images, rel).is_identity()
                   for rel in presentation.relators)
    tables = {}
    for i, g in enumerate(images, 1):
        table = tables[i] = _points(g)
        tables[-i] = bytes.maketrans(table, _BYTES)
    identity = _BYTES[:2 * max(degrees)]
    for rel in presentation.relators:
        try:
            e = functools.reduce(bytes.translate,
                                 map(tables.__getitem__, reversed(rel.letters)), identity)
        except KeyError:
            raise _no_image(next(x for x in rel.letters if x not in tables)) from None
        if e != identity:
            return False
    return True


_BYTES = bytes(range(256))


def _points(e: WreathElement) -> bytes:
    """e as a permutation of the 2n signed points, point 2i standing for
    +(i+1) and point 2i+1 for -(i+1): +(i+1) goes to +pi(i+1), negated if
    pi(i+1) is flagged.  It is a bytes.translate table, so the points
    2n to 255 are fixed, and n is at most 128: e*g encodes as
    _points(g).translate(_points(e)), and g*x, for x the first 2n bytes
    of an encoding, as x.translate(_points(g))."""
    if len(e.flags) > 128:
        raise OracleError(f"degree {len(e.flags)} above 128: no byte encoding")
    images = []
    for j in e.perm.images:
        k = 2 * j - 2 + e.flags[j - 1]
        images += (k, k ^ 1)
    return bytes(images) + _BYTES[len(images):]


def generated_order(generators, cap=10 ** 6) -> int:
    """Order of the subgroup generated by WreathElements of one degree, at
    most 128, by breadth-first closure over the first 2n bytes of their
    _points encodings, multiplied on the left by each generator, one
    bytes.translate call a product."""
    if not generators or not generators[0].flags:  # degree 0 is trivial
        return 1
    if len({len(g.flags) for g in generators}) != 1:
        raise OracleError("generator degrees differ")
    tables = [_points(g) for g in generators]
    identity = _BYTES[:2 * len(generators[0].flags)]
    seen = {identity}
    frontier = [identity]
    while frontier:
        new = []
        for e in frontier:
            for table in tables:
                x = e.translate(table)
                if x not in seen:
                    seen.add(x)
                    new.append(x)
                    if len(seen) > cap:
                        raise OracleError(f"BFS closure exceeded cap {cap}")
        frontier = new
    return len(seen)


def chain_generators(family: str, variant: str, n: int, s):
    """The generators of ``chain_presentation(family, variant, n)`` as
    products of the Coxeter generators s[0..n-1], words or group elements.

    carmichael: a_1 = s_0 s_1 and a_i = s_i a_{i-1} s_i for A and B; for D,
    a_1 = s_0 s_2, a_2 = s_1 a_1 s_1, a_3 = s_3 a_1 s_3, then
    a_i = s_i a_{i-1} s_i.  bourbaki: R_i = s_0 s_i.  edge: s_i s_j for each
    edge (i, j) of the Coxeter graph in sorted order, the edge builder's
    numbering: (i, i+1) for A and B; (0, 2), (1, 2), then (i, i+1) for D.
    """
    family = family.upper()
    fork = family == "D"  # s_0 and s_1 both join s_2
    if (family not in ("A", "B", "D") or n < 2 + fork
            or variant not in ("carmichael", "bourbaki", "edge")):
        raise OracleError(f"unsupported chain ({family}, {variant}, {n})")
    if variant == "bourbaki":
        return [s[0] * s[i] for i in range(1, n)]
    if variant == "edge":
        edges = [(0, 2), (1, 2)] if fork else [(0, 1)]
        edges += [(i, i + 1) for i in range(1 + fork, n - 1)]
        return [s[i] * s[j] for i, j in edges]
    a = [s[0] * s[1 + fork]]
    for i in (1, *range(3, n)) if fork else range(2, n):
        a.append(s[i] * a[0 if fork and i <= 3 else -1] * s[i])
    return a


def _least_rank(family: str, rank: int) -> str:
    """The family, upper-cased, once it is known and rank is at least its
    least rank: 1 for A and B, 2 for D."""
    family = family.upper()
    if family not in ("A", "B", "D"):
        raise OracleError(f"unknown family {family!r}")
    if rank < 1 + (family == "D"):
        raise OracleError(f"{family}{rank}: rank below the least for {family}")
    return family


def standard_images(family: str, variant: str, rank: int):
    """The signed-permutation images, as WreathElements, of the generators
    of (family, variant, rank).

    The s_i are the data: transpositions (i+1 i+2) on rank+1 points for A
    (trivial flags); for B, gamma_1 then (i i+1); for D, gamma_12 (1 2) then
    (i i+1).  The coxeter variant maps the s_i; the chain variants map
    chain_generators of them.
    """
    family = _least_rank(family, rank)
    deg = rank + (family == "A")  # the points the s_i permute
    s = [WreathElement.from_perm(Permutation.cycle(deg, i, i + 1))
         for i in range(1, deg)]
    if family == "B":
        s.insert(0, WreathElement.gamma(rank, 1))
    elif family == "D":
        s.insert(0, WreathElement.gamma(rank, 1, 2) * s[0])
    return s if variant == "coxeter" else chain_generators(family, variant, rank, s)


def _blade_sign(a: int, b: int, square: int) -> int:
    """The sign of the product of blades a and b, bitmasks of basis
    vectors: one factor -1 for each pair of a vector of a after a vector of
    b, which must swap, and one factor square for each shared vector."""
    swaps = (a & b).bit_count() if square < 0 else 0
    while b:
        low = b & -b
        swaps += (a & -(low << 1)).bit_count()  # a's vectors after low's
        b ^= low
    return -1 if swaps & 1 else 1


class CliffordElement(Record):
    """An element of the Clifford algebra Cl(R^n) with e_k^2 = square,
    +1 or -1, kept up to a positive scalar: its (blade, coefficient) terms
    in blade order, with integer coefficients of gcd 1, so that products
    are exact.  The identity is then every positive scalar, and -1 every
    negative one."""

    __slots__ = ("terms", "square")

    def __init__(self, terms, square):
        terms = {b: c for b, c in dict(terms).items() if c}
        g = math.gcd(*terms.values())
        object.__setattr__(self, "terms",
                           tuple(sorted((b, c // g) for b, c in terms.items())))
        object.__setattr__(self, "square", square)

    @classmethod
    def vector(cls, coords, square):
        """sum_k coords[k] e_k."""
        return cls({1 << k: c for k, c in enumerate(coords)}, square)

    def __mul__(self, other):
        square, terms = self.square, {}
        for a, c in self.terms:
            for b, d in other.terms:
                terms[a ^ b] = (terms.get(a ^ b, 0)
                                + _blade_sign(a, b, square) * c * d)
        return CliffordElement(terms, square)

    def inverse(self):
        """x^-1 is x's reverse over x times it, which is a nonzero scalar
        for the products of vectors that the images are."""
        rev = CliffordElement({b: (-1) ** (b.bit_count() // 2 % 2) * c
                               for b, c in self.terms}, self.square)
        norm = self * rev
        if len(norm.terms) != 1 or norm.terms[0][0]:
            raise OracleError("not a product of invertible vectors")
        return CliffordElement({b: norm.terms[0][1] * c for b, c in rev.terms},
                               self.square)

    def is_identity(self):
        return self.terms == ((0, 1),)


def _simple_roots(family: str, rank: int):
    """The simple roots of the s_i of standard_images, as integer vectors:
    e_k - s_i(e_k) for the first basis vector e_k that s_i moves, divided
    by its gcd, and negated where it is acute to the root of a later s_j,
    so that the roots of joined s_i are obtuse, as a simple system's are.
    Each s_i has at most one later neighbour, so one sign serves.  Only the
    roots of s_0 change: D's e1 + e2 becomes -e1 - e2, obtuse to s_2's
    e2 - e3, and B's e1 becomes -e1."""
    roots = []
    for s in reversed(standard_images(family, "coxeter", rank)):
        v = [0] * len(s.flags)
        k = next(k for k, j in enumerate(s.perm.images)
                 if j != k + 1 or s.flags[k])
        j = s.perm.images[k]
        v[k] += 1
        v[j - 1] -= (-1) ** s.flags[j - 1]
        g = math.gcd(*v)
        if any(sum(map(mul, v, u)) > 0 for u in roots):
            g = -g
        roots.append([x // g for x in v])
    return roots[::-1]


def clifford_images(family: str, variant: str, rank: int):
    """The images in Cl(R^deg) of the generators of a catalog spinor cover,
    variant one of tilde, tilde-prime and their plus-bourbaki and plus-edge
    styles, the central generator (alpha, z or zp) last: e_k^2 = +1 for the
    tilde variants and -1 for tilde-prime, each ts_i the simple root of
    s_i, the plus variants' generators chain_generators of those roots, and
    the central generator -1.  Every relator maps to a positive scalar, so
    the images define a homomorphism in which the central generator is not
    1 (Atiyah, Bott and Shapiro, "Clifford modules", 1964)."""
    if variant not in ("tilde", "tilde-prime", "tilde-plus-bourbaki",
                       "tilde-plus-edge", "tilde-prime-plus-bourbaki",
                       "tilde-prime-plus-edge"):
        raise OracleError(f"no Clifford images for variant {variant!r}")
    square = -1 if variant.startswith("tilde-prime") else 1
    s = [CliffordElement.vector(v, square) for v in _simple_roots(family, rank)]
    if "-plus-" in variant:  # A1's plus variants have no generator but z
        style = variant.rsplit("-", 1)[1]
        s = chain_generators(family, style, rank, s) if rank > 1 else []
    return [*s, CliffordElement({0: -1}, square)]


def alternating_order(family: str, n: int) -> int:
    """Closed-form |G+|: (n+1)!/2, 2^(n-1) n!, 2^(n-2) n!."""
    family = _least_rank(family, n)
    if family == "A":
        return math.factorial(n + 1) // 2
    if family == "B":
        return 2 ** (n - 1) * math.factorial(n)
    return 2 ** (n - 2) * math.factorial(n)
