"""Independent ground truth: permutations, wreath products C2 wr S_n,
word evaluation, homomorphism checks, BFS subgroup orders, and the
generator images for the A/B/D presentation catalog.  Only the images of
the Coxeter generators s_i are written out; the chain generators (a_i, R_i,
r_i) are computed from their words in the s_i, as the paper defines them.

Composition convention: in a product p*q the right factor acts first,
so (1,2)(2,3) = (1,2,3).
"""

from __future__ import annotations

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
        # other applied first
        return Permutation(tuple(self.images[other.images[i] - 1]
                                 for i in range(len(self.images))))

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
        moved = [0] * len(self.flags)
        for i in range(1, len(self.flags) + 1):
            moved[self.perm(i) - 1] = other.flags[i - 1]
        flags = tuple((a + b) % 2 for a, b in zip(self.flags, moved))
        return WreathElement(flags, self.perm * other.perm)

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

    ``images`` maps 0-based generator index to a group element supporting
    ``*`` and ``.inverse()``; must be nonempty even for the identity word.
    """
    result = None
    for x in w:
        try:
            g = images[abs(x) - 1]
        except (KeyError, IndexError):
            raise OracleError(f"no image for generator index {abs(x) - 1}") from None
        if x < 0:
            g = g.inverse()
        result = g if result is None else result * g
    if result is None:
        some = images[next(iter(images))] if isinstance(images, dict) else images[0]
        return some * some.inverse()
    return result


def verify_hom(presentation, images) -> bool:
    """True iff every relator evaluates to the identity under the images,
    which are elements as in eval_word that also have ``is_identity()``."""
    return all(eval_word(images, rel).is_identity()
               for rel in presentation.relators)


def _signed(e: WreathElement) -> tuple[int, ...]:
    """(flags, pi) as signed images: i -> pi(i), negated if pi(i) is flagged."""
    return tuple(-j if e.flags[j - 1] else j for j in e.perm.images)


def _signed_mul(e, g):
    """e*g of signed permutations, g acting first: x[i] = +-e[|g[i]|-1]."""
    return tuple(e[j - 1] if j > 0 else -e[-j - 1] for j in g)


def generated_order(generators, cap=10 ** 6) -> int:
    """Order of the subgroup generated by WreathElements, by breadth-first
    closure over their _signed encodings (which multiply as they do)."""
    if not generators:
        return 1
    gens = [_signed(g) for g in generators]
    identity = tuple(range(1, len(gens[0]) + 1))
    seen = {identity}
    frontier = [identity]
    while frontier:
        new = []
        for e in frontier:
            for g in gens:
                x = _signed_mul(e, g)
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


def standard_images(family: str, variant: str, rank: int):
    """The signed-permutation images, as WreathElements, of the generators
    of (family, variant, rank).

    The s_i are the data: transpositions (i+1 i+2) on rank+1 points for A
    (trivial flags); for B, gamma_1 then (i i+1); for D, gamma_12 (1 2) then
    (i i+1).  The coxeter variant maps the s_i; the chain variants map
    chain_generators of them.
    """
    family = family.upper()
    if family not in ("A", "B", "D"):
        raise OracleError(f"unknown family {family!r}")
    deg = rank + (family == "A")  # the points the s_i permute
    s = [WreathElement.from_perm(Permutation.cycle(deg, i, i + 1))
         for i in range(1, deg)]
    if family == "B":
        s.insert(0, WreathElement.gamma(rank, 1))
    elif family == "D":
        s.insert(0, WreathElement.gamma(rank, 1, 2) * s[0])
    return s if variant == "coxeter" else chain_generators(family, variant, rank, s)


def alternating_order(family: str, n: int) -> int:
    """Closed-form |G+|: (n+1)!/2, 2^(n-1) n!, 2^(n-2) n!."""
    import math
    family = family.upper()
    if family == "A":
        return math.factorial(n + 1) // 2
    if family == "B":
        return 2 ** (n - 1) * math.factorial(n)
    if family == "D":
        return 2 ** (n - 2) * math.factorial(n)
    raise OracleError(f"unknown family {family!r}")
