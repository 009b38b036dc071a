"""Independent ground truth: permutations, wreath products C2 wr S_n,
word evaluation, homomorphism checks, BFS subgroup orders, and the
explicit generator images for the A/B/D presentation catalog.

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


def standard_images(family: str, variant: str, rank: int):
    """The stated wreath/permutation images for (family, variant, rank).

    Returns a list of WreathElement images, one per presentation generator
    (type A is embedded with trivial flags).  Coxeter variants map the s_i,
    the alternating variants map a_i / R_i / r_i.
    """
    family = family.upper()
    n = rank
    if family == "A":
        deg = n + 1
        perm = lambda *pts: WreathElement.from_perm(Permutation.cycle(deg, *pts))
        if variant == "coxeter":
            return [perm(i + 1, i + 2) for i in range(n)]
        if variant == "carmichael":
            return [perm(1, 2, i + 2) for i in range(1, n)]
        if variant == "bourbaki":
            return [WreathElement.from_perm(
                Permutation.cycle(deg, 1, 2) * Permutation.cycle(deg, i + 1, i + 2))
                for i in range(1, n)]
        if variant == "edge":
            return [perm(i, i + 1, i + 2) for i in range(1, n)]
    elif family == "B":
        g1 = WreathElement.gamma(n, 1)
        cyc = lambda *pts: WreathElement.from_perm(Permutation.cycle(n, *pts))
        if variant == "coxeter":
            return [g1] + [cyc(i, i + 1) for i in range(1, n)]
        if variant == "carmichael":
            return [g1 * cyc(1, i + 1) for i in range(1, n)]
        if variant == "bourbaki":
            return [g1 * cyc(i, i + 1) for i in range(1, n)]
        if variant == "edge":
            return [g1 * cyc(1, 2)] + [cyc(i - 1, i, i + 1) for i in range(2, n)]
    elif family == "D":
        g12 = WreathElement.gamma(n, 1, 2)
        cyc = lambda *pts: WreathElement.from_perm(Permutation.cycle(n, *pts))
        if variant == "coxeter":
            return [g12 * cyc(1, 2)] + [cyc(i, i + 1) for i in range(1, n)]
        if variant == "carmichael":
            return [g12 * cyc(1, 2, 3), g12 * cyc(1, 3, 2)] + \
                [g12 * cyc(1, 2, i + 1) for i in range(3, n)]
        if variant == "bourbaki":
            return [g12] + [g12 * WreathElement.from_perm(
                Permutation.cycle(n, 1, 2) * Permutation.cycle(n, i, i + 1))
                for i in range(2, n)]
        if variant == "edge":
            return [cyc(1, 2, 3), g12 * cyc(1, 2, 3)] + \
                [cyc(i - 1, i, i + 1) for i in range(3, n)]
    raise OracleError(f"unsupported catalog triple ({family}, {variant}, {rank})")


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
