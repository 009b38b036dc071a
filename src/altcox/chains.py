"""Chain normal forms for the A/B/D towers in every presentation variant.

An element of the rank-n group factors uniquely as u_n u_{n-1} ... u_base
with u_i drawn from a level-i representative set E_i.  For type A the sets
are explicit closed-form lists; for B and D they are the engine's Schreier
representatives of the level-i enumeration over the level-(i-1) subgroup.
A cap overrun in any enumeration raises the engine's CapExceeded.
"""

from __future__ import annotations

import itertools

from .words import InputError, Word
from .presentations import CHAIN_BASE, chain_presentation
from . import engine


class ChainError(InputError):
    pass


def _closed_form_a(variant: str, i: int):
    """Closed-form E_i lists for the three type-A variants (1-based g)."""
    g = lambda k, p=1: Word.gen(k - 1, p)
    if variant == "carmichael":
        # 1, a_{i-1}, a_{i-1}^2, a_{i-2} a_{i-1}^2, ..., a_1 a_{i-1}^2
        out = [Word(), g(i - 1), g(i - 1, 2)]
        out += [g(k) * g(i - 1, 2) for k in range(i - 2, 0, -1)]
        return out
    if variant == "bourbaki":
        # 1, R_{i-1}, R_{i-2} R_{i-1}, ..., R_1...R_{i-1}, R_1^2 R_2...R_{i-1}
        def run(k):
            w = Word()
            for j in range(k, i):
                w = w * g(j)
            return w
        out = [Word()] + [run(k) for k in range(i - 1, 0, -1)]
        out.append(g(1) * run(1))
        return out
    # edge: alternating-index runs r_k r_{k+2} ... ending at r_{i-1} or r_{i-1}^2
    def run(k, last_power):
        w = Word()
        for j in range(k, i - 1, 2):
            w = w * g(j)
        return w * g(i - 1, last_power)
    first = [run(k, 1) for k in range(i - 1, 0, -2)]
    second = [g(i - 1, 2)] + [run(k, 2) for k in range(i - 2, 0, -2)]
    return [Word()] + first + second


class Chain:
    """Representative sets and membership tables for one (family, variant,
    n) chain.

    The rank-n presentation is built once, which validates the triple; the
    rank-i one below it is its restriction to the first i-1 generators and
    the relators over them, which is the rank-i chain presentation, relators
    in the same order; it shares the rank-n presentation's encoding of
    those relators.  The level-i subgroup is generated by the first i-2
    generators, or is trivial at the base level.  Membership at level i
    reads the rank-n table over that subgroup, so every factor word stays
    over the rank-n alphabet; the B/D representatives at level i are the
    Schreier words of the rank-i table over the same subgroup.  Each table
    is enumerated once, on first use.
    """

    def __init__(self, family: str, variant: str, n: int, cap=engine.DEFAULT_CAP):
        self.presentation = chain_presentation(family, variant, n)
        self.family, self.variant, self.n = family.upper(), variant, n
        self.base = CHAIN_BASE[self.family]
        self.cap = cap
        self._tables = {}
        self._reps = {}

    def levels(self):
        return range(self.n, self.base - 1, -1)

    def _table(self, rank, i):
        """Coset table of the level-i subgroup inside the rank-`rank` group."""
        if (rank, i) not in self._tables:
            p = self.presentation
            if rank < self.n:
                p = engine.restrict(p, rank - 1)
            sub = tuple(Word.gen(k) for k in range(i - 2)) if i > self.base else ()
            self._tables[rank, i] = engine.enumerate(p, sub, self.cap)
        return self._tables[rank, i]

    def rep_set(self, i) -> tuple[Word, ...]:
        if not self.base <= i <= self.n:
            raise ChainError(f"level {i} outside [{self.base}, {self.n}]")
        if i not in self._reps:
            if self.family == "A" and i > self.base:
                self._reps[i] = tuple(_closed_form_a(self.variant, i))
            else:
                self._reps[i] = engine.schreier(self._table(i, i))[1:]
        return self._reps[i]

    def decompose(self, w: Word) -> tuple[Word, ...]:
        """Peel factors u_n, u_{n-1}, ..., u_base from level n down to the
        base block; their product is w.  u^-1 w fixes coset 1 of a level's
        table (a permutation action) iff u and w move coset 1 alike, and
        the level's representatives cover its cosets."""
        factors = []
        for i in self.levels():
            t = self._table(self.n, i)
            c = t.trace(1, w)
            u = next(u for u in self.rep_set(i) if t.trace(1, u) == c)
            factors.append(u)
            w = u.inverse() * w
        return tuple(factors)

    def enumerate_elements(self, scale_cap=100_000):
        """All normal forms, as factor tuples: the Cartesian product of the
        E_i."""
        sets = [self.rep_set(i) for i in self.levels()]
        total = 1
        for s in sets:
            total *= len(s)
        if total > scale_cap:
            raise ChainError(f"{total} normal forms exceed scale cap {scale_cap}")
        return list(itertools.product(*sets))

