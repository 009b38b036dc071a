"""Chain normal forms for the A/B/D towers in every presentation variant.

An element of the rank-n group factors uniquely as u_n u_{n-1} ... u_base
with u_i drawn from a level-i representative set E_i: Schreier words read
off the one table a chain enumerates, whose cap overrun raises the engine's
CapExceeded.
"""

from __future__ import annotations

import itertools
import math
from operator import ne

from .words import InputError, Word
from .presentations import CHAIN_BASE
from . import engine

SCALE_CAP = 100_000  # the most normal forms enumerate_elements lists


class ChainError(InputError):
    pass


def _schreier_word(arrival, k):
    """Orbit point k's Schreier word: its arrival generator times its
    parent's word, all letters positive, so nothing cancels."""
    letters = []
    while k > 1:
        letters.append(arrival[2 * k + 1] + 1)
        k = arrival[2 * k]
    return Word._reduced(tuple(letters))


class Chain:
    """Representative sets and sift cosets for the chain of a rank-n
    (family, variant) presentation, read off one coset table.

    The presentation is chain_presentation(family, variant, n), built by
    the caller, which validates the triple: its n-1 generators give n.  The
    level-i subgroup is generated by the first i-2 generators, or is trivial
    at the base.  A chain is complete when it is made, and holds only its
    tables (_table): the top table's rows, the rank-n group over the
    level-n subgroup, of index n+1 (A), 2n (B, D) or 12 (D3), and every
    level's sift, so a cap overrun or a sift cut short makes no chain.
    Level i's sift cosets are its cosets that the level's generators move
    and its subgroup fixes, which is their stabilizer (see decompose); so
    their tuple's orbit is the level-i table as a pointed set, and the
    Schreier words of its standardized numbering are the level's
    representatives.
    """

    def __init__(self, presentation, family: str, cap=engine.DEFAULT_CAP):
        self.n, self.base = presentation.rank + 1, CHAIN_BASE[family.upper()]
        self._rows, self._ncols, self._sifts = self._table(presentation, cap)

    def levels(self):
        return range(self.n, self.base - 1, -1)

    def _subgroup_rank(self, i):
        return i - 2 if i > self.base else 0

    def _table(self, presentation, cap):
        """The top table, the rank-n group over the level-n subgroup, as its
        rows and column count, and its sift (_sift)."""
        sub = tuple(map(Word.gen, range(self._subgroup_rank(self.n))))
        top = engine.enumerate(presentation, sub, cap)
        return top.rows, 2 * presentation.rank, self._sift(top)

    def rep_set(self, i) -> tuple[Word, ...]:
        if not self.base <= i <= self.n:
            raise ChainError(f"level {i} outside [{self.base}, {self.n}]")
        _, number, arrival = self._sifts[self.n - i]
        return tuple(_schreier_word(arrival, k) for k in number.values())

    def _sift(self, t):
        """Per level of top table t, from the top: its sift cosets, and the
        traversal of their tuple's orbit under the level's generators that
        standardizes a table, as a map from orbit tuples to numbers and a
        CosetTable's arrival list.  A point tries its arrival generator,
        then those that move it in decreasing index, skipping those that
        fix it."""
        rows, ncols, cosets = t.rows, 2 * t.presentation.rank, range(t.index + 1)
        movers = [[] for _ in cosets]  # the generators moving each coset, ascending
        for g in range(t.presentation.rank):
            for c in itertools.compress(cosets, map(ne, rows[2 * g::ncols], cosets)):
                movers[c].append(g)
        sifts = []
        for i in self.levels():
            sub, ngens = self._subgroup_rank(i), i - 1
            start = tuple(c for c, m in enumerate(movers) if m and sub <= m[0] < ngens)
            number, order, arrival = {start: 1}, [start], [0, 0, 0, 0]
            for k, point in enumerate(order, 1):
                gens = sorted({g for c in point for g in movers[c] if g < ngens},
                              reverse=True)
                first = arrival[2 * k + 1] if k > 1 else ngens - 1
                for g in (first, *gens):
                    image = tuple(rows[c * ncols + 2 * g] for c in point)
                    if image not in number:
                        number[image] = len(order) + 1
                        order.append(image)
                        arrival += (k, g)
            sifts.append((start, number, arrival))
        return sifts

    def weight(self):
        """The cells of the top table and the points of the sift, the cosets
        in its orbit tuples: all that the chain holds."""
        return len(self._rows) + sum(len(start) * len(number)
                                     for start, number, _ in self._sifts)

    def decompose(self, w: Word) -> tuple[Word, ...]:
        """Peel factors u_n, u_{n-1}, ..., u_base, whose product is w: u_i
        sends level i's sift cosets where w does.  The level's subgroup fixes
        them and its representatives send them to distinct tuples, so by
        orbit-stabilizer that subgroup is their stabilizer in the level.
        w is encoded once and walked through the top table's rows; each
        factor u is peeled by appending the columns of u^-1, read off u's
        letters, all positive: the completed table sends a word and its
        free reduction to one coset."""
        rows, ncols = self._rows, self._ncols
        factors, cols = [], list(engine._columns(w))
        for cosets, number, arrival in self._sifts:
            images = []
            for c in cosets:
                for col in cols:
                    c = rows[c * ncols + col]
                images.append(c)
            u = _schreier_word(arrival, number[tuple(images)])
            factors.append(u)
            cols += [2 * x - 1 for x in u.letters]
        return tuple(factors)

    def enumerate_elements(self):
        """All normal forms, as factor tuples: the Cartesian product of the
        E_i, refused past SCALE_CAP of them."""
        sets = [self.rep_set(i) for i in self.levels()]
        total = math.prod(map(len, sets))
        if total > SCALE_CAP:
            raise ChainError(f"{total} normal forms exceed scale cap {SCALE_CAP}")
        return list(itertools.product(*sets))
