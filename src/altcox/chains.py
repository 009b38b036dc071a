"""Chain normal forms for the A/B/D towers in every presentation variant.

An element of the rank-n group factors uniquely as u_n u_{n-1} ... u_base
with u_i drawn from a level-i representative set E_i.  For type A the sets
are explicit closed-form lists; for B and D they are the engine's Schreier
representatives of the level-i enumeration over the level-(i-1) subgroup.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .words import Word
from .presentations import CHAIN_BASE, chain_presentation, BuildError
from . import engine


class ChainError(ValueError):
    pass


@dataclass(frozen=True)
class ChainSpec:
    family: str
    variant: str
    n: int

    def __post_init__(self):
        object.__setattr__(self, "family", self.family.upper())
        if self.family not in CHAIN_BASE:
            raise ChainError(f"unknown family {self.family!r}")
        if self.n < CHAIN_BASE[self.family]:
            raise ChainError(f"rank {self.n} below chain base")
        chain_presentation(self.family, self.variant, self.n)  # validates

    @property
    def base(self):
        return CHAIN_BASE[self.family]

    @property
    def presentation(self):
        return chain_presentation(self.family, self.variant, self.n)

    def levels(self):
        return range(self.n, self.base - 1, -1)


@dataclass(frozen=True)
class CosetRepSet:
    level: int
    representatives: tuple[Word, ...]

    def __len__(self):
        return len(self.representatives)

    def __iter__(self):
        return iter(self.representatives)


@dataclass(frozen=True)
class ChainDecomposition:
    spec: ChainSpec
    factors: tuple[Word, ...]  # u_n, u_{n-1}, ..., u_base

    def product(self) -> Word:
        out = Word()
        for f in self.factors:
            out = out * f
        return out


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
    if variant == "edge":
        # alternating-index runs r_k r_{k+2} ... ending at r_{i-1} or r_{i-1}^2
        def run(k, last_power):
            w = Word()
            for j in range(k, i - 1, 2):
                w = w * g(j)
            return w * g(i - 1, last_power)
        first = [run(k, 1) for k in range(i - 1, 0, -2)]
        second = [g(i - 1, 2)] + [run(k, 2) for k in range(i - 2, 0, -2)]
        return [Word()] + first + second
    raise ChainError(f"unknown variant {variant!r}")


class Chain:
    """Representative sets and membership tables for one ChainSpec.

    Tables are computed lazily: level-i membership uses the rank-n
    presentation with the first (i-2) generators as subgroup, so every
    factor word stays over the rank-n alphabet.
    """

    def __init__(self, spec: ChainSpec, cap=engine.DEFAULT_CAP):
        self.spec = spec
        self.cap = cap
        self._tables = {}
        self._reps = {}
        self._regular = None

    def _regular_table(self):
        if self._regular is None:
            r = engine.enumerate(self.spec.presentation, (), self.cap)
            if not r.completed:
                raise ChainError(f"regular enumeration exceeded cap {self.cap}")
            self._regular = r
        return self._regular

    def _table(self, i):
        """Coset table of the level-(i-1) subgroup inside the rank-n group."""
        if i not in self._tables:
            p = self.spec.presentation
            sub = tuple(Word.gen(k) for k in range(max(i - 2, 0)))
            r = engine.enumerate(p, sub, self.cap)
            if not r.completed:
                raise ChainError(f"level-{i} enumeration exceeded cap {self.cap}")
            self._tables[i] = r
        return self._tables[i]

    def rep_set(self, i) -> CosetRepSet:
        spec = self.spec
        if not spec.base <= i <= spec.n:
            raise ChainError(f"level {i} outside [{spec.base}, {spec.n}]")
        if i not in self._reps:
            if spec.family == "A" and i > spec.base:
                reps = tuple(_closed_form_a(spec.variant, i))
            elif i == spec.base:
                # the whole base group, as Schreier words of its regular table
                r = engine.enumerate(chain_presentation(spec.family, spec.variant,
                                                        spec.base), (), self.cap)
                reps = engine.schreier(r).representatives[1:]
            else:
                r = engine.enumerate(chain_presentation(spec.family, spec.variant, i),
                                     tuple(Word.gen(k) for k in range(i - 2)),
                                     self.cap)
                reps = engine.schreier(r).representatives[1:]
            self._reps[i] = CosetRepSet(i, tuple(reps))
        return self._reps[i]

    def decompose(self, w: Word) -> ChainDecomposition:
        """Peel factors from level n down to the base block."""
        factors = []
        for i in range(self.spec.n, self.spec.base, -1):
            t = self._table(i)
            for u in self.rep_set(i):
                if engine.word_in_subgroup(t, u.inverse() * w):
                    factors.append(u)
                    w = u.inverse() * w
                    break
            else:  # pragma: no cover - reps cover all cosets
                raise ChainError(f"no representative matched at level {i}")
        regular = self._regular_table()
        for u in self.rep_set(self.spec.base):
            if engine.words_equal(regular, u, w):
                factors.append(u)
                break
        else:  # pragma: no cover
            raise ChainError("no base representative matched")
        return ChainDecomposition(self.spec, tuple(factors))

    def enumerate_elements(self, scale_cap=100_000):
        """All normal forms as the Cartesian product of the E_i."""
        sets = [self.rep_set(i) for i in self.spec.levels()]
        total = 1
        for s in sets:
            total *= len(s)
        if total > scale_cap:
            raise ChainError(f"{total} normal forms exceed scale cap {scale_cap}")
        return [ChainDecomposition(self.spec, combo)
                for combo in itertools.product(*(s.representatives for s in sets))]


def chain_subgroup_words(family: str, variant: str, n: int):
    """Words generating the rank-(n-1) subgroup inside the rank-n chain
    presentation.

    Generically the first n-2 generators.  At D rank 3 those generate a
    C3, not the order-2 rank-2 group, so the generator of the rank-2
    group is spelled out per variant instead.
    """
    family = family.upper()
    chain_presentation(family, variant, n)  # validates the triple
    if family == "D" and n == 3:
        g = lambda k, p=1: Word.gen(k - 1, p)
        if variant == "carmichael":
            return (g(1) * g(2, 2) * g(1),)
        if variant == "bourbaki":
            return (g(1),)
        return (g(1) * g(2, 2),)
    return tuple(Word.gen(k) for k in range(n - 2))


def rep_set(spec: ChainSpec, i, cap=engine.DEFAULT_CAP) -> CosetRepSet:
    return Chain(spec, cap).rep_set(i)


def decompose(spec: ChainSpec, w: Word, cap=engine.DEFAULT_CAP) -> ChainDecomposition:
    return Chain(spec, cap).decompose(w)


def enumerate_elements(spec: ChainSpec, cap=engine.DEFAULT_CAP):
    return Chain(spec, cap).enumerate_elements()
