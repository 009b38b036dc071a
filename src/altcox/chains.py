"""Chain normal forms for the A/B/D towers in every presentation variant.

An element of the rank-n group factors uniquely as u_n u_{n-1} ... u_base
with u_i drawn from a level-i representative set E_i.  For type A the sets
are explicit closed-form lists; for B and D they are the engine's Schreier
representatives of the level-i enumeration over the level-(i-1) subgroup.
A cap overrun in any enumeration raises the engine's CapExceeded.
"""

from __future__ import annotations

import itertools
import math

from .words import InputError, Word
from .presentations import CHAIN_BASE, chain_presentation
from . import engine

SCALE_CAP = 100_000  # the most normal forms enumerate_elements lists


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
    """Representative sets, level tables and sift cosets for one (family,
    variant, n) chain.

    The rank-n presentation is built once, which validates the triple; the
    rank-i one is its restriction to the first i-1 generators and the
    relators over them, in order and sharing their encoding, cut from the
    presentation of the nearest level above whose table is held, or from
    the rank-n one: level i+1 when the levels are walked down.  The level-i subgroup is generated by the first i-2
    generators, or is trivial at the base.  _table(i), enumerated on first
    use, is the rank-i table over it, of index i+1 (A), 2i (B, D) or 12
    (D's base); the B/D representatives are its Schreier words.
    decompose sifts through the top table alone.
    """

    def __init__(self, family: str, variant: str, n: int, cap=engine.DEFAULT_CAP):
        self.presentation = chain_presentation(family, variant, n)
        self.family, self.variant, self.n = family.upper(), variant, n
        self.base, self.cap = CHAIN_BASE[self.family], cap
        self._tables, self._reps, self._sifts = {}, {}, []

    def levels(self):
        return range(self.n, self.base - 1, -1)

    def _subgroup_rank(self, i):
        return i - 2 if i > self.base else 0

    def _table(self, i):
        """Coset table of the level-i subgroup inside the rank-i group."""
        if i not in self._tables:
            above = min((k for k in self._tables if k > i), default=None)
            p = self.presentation if above is None else self._tables[above].presentation
            if i < self.n:
                p = engine.restrict(p, i - 1)
            sub = tuple(map(Word.gen, range(self._subgroup_rank(i))))
            self._tables[i] = engine.enumerate(p, sub, self.cap)
        return self._tables[i]

    def rep_set(self, i) -> tuple[Word, ...]:
        if not self.base <= i <= self.n:
            raise ChainError(f"level {i} outside [{self.base}, {self.n}]")
        if i not in self._reps:
            if self.family == "A" and i > self.base:
                self._reps[i] = tuple(_closed_form_a(self.variant, i))
            else:
                self._reps[i] = engine.schreier(self._table(i))[1:]
        return self._reps[i]

    def _sift(self):
        """Per level, from the top: its sift cosets, the top table's cosets that
        its generators move and its subgroup fixes, and its reps by their
        images."""
        if not self._sifts:
            t = self._table(self.n)
            rows, rank = t.rows, t.presentation.rank
            first = [next((g for g in range(rank) if rows[2 * (c * rank + g)] != c),
                          rank) for c in range(t.index + 1)]  # lowest mover of c
            for i in self.levels():
                cosets = [c for c in range(1, t.index + 1)
                          if self._subgroup_rank(i) <= first[c] < i - 1]
                reps = {}
                for u in self.rep_set(i):
                    cols = engine._columns(u)
                    reps[tuple(t.walk(c, cols) for c in cosets)] = u
                self._sifts.append((cosets, reps))
        return self._sifts

    def decompose(self, w: Word) -> tuple[Word, ...]:
        """Peel factors u_n, u_{n-1}, ..., u_base, whose product is w: u_i
        sends level i's sift cosets where w does.  The level's subgroup fixes
        them and its representatives send them to distinct tuples, so by
        orbit-stabilizer that subgroup is their stabilizer in the level.
        w is encoded once, and so is each factor u, which is peeled by
        appending the columns of u^-1, u's own reversed and flipped: the
        completed table sends a word and its free reduction to one coset."""
        t = self._table(self.n)
        factors, cols = [], list(engine._columns(w))
        for cosets, reps in self._sift():
            u = reps[tuple(t.walk(c, cols) for c in cosets)]
            factors.append(u)
            cols += [col ^ 1 for col in reversed(engine._columns(u))]
        return tuple(factors)

    def enumerate_elements(self):
        """All normal forms, as factor tuples: the Cartesian product of the
        E_i, refused past SCALE_CAP of them."""
        sets = [self.rep_set(i) for i in self.levels()]
        total = math.prod(map(len, sets))
        if total > SCALE_CAP:
            raise ChainError(f"{total} normal forms exceed scale cap {SCALE_CAP}")
        return list(itertools.product(*sets))
