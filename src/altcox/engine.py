"""Deterministic Todd-Coxeter coset enumeration over a Presentation.

The enumeration and the standardization of its table run in a core: a C
extension (``altcox._tc_core``, built from ``_tc_core.c`` whenever a C
compiler is present) with the pure-Python reference core
(``altcox._tc_py``) as the fallback; BACKEND names the one in use.  Both
return identical ``(rows, ndef, parent, arrival)``, each sequence a flat
``array('i')``; this module encodes the words, calls the core and wraps
its rows and arrival tree in a CosetTable.  A run that would define more
cosets than its cap raises the core's CapExceeded, which ``enumerate``
lets through to its caller; only ``order`` turns it into None.

Tables act on left cosets: words act with their rightmost letter first,
matching the composition convention of the oracle module.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

from .words import InputError, Word, Presentation
from ._tc_py import CapExceeded, MAX_CAP

try:
    from ._tc_core import enumerate_core as _core
    BACKEND = "compiled"
except ImportError:
    from ._tc_py import enumerate_core as _core
    BACKEND = "python"

DEFAULT_CAP = 200_000


def _columns(w: Word):
    """Column indices of a word, reversed for left-action scanning."""
    return tuple(2 * (abs(x) - 1) + (0 if x > 0 else 1)
                 for x in reversed(w.letters))


@dataclass(frozen=True)
class CosetTable:
    """Completed, standardized table over live cosets 1..index.

    rows and arrival are the core's flat arrays, as specified in
    ``_tc_py.enumerate_core``: with ncols = 2 * rank, rows[c*ncols + col]
    is coset c's entry in column col (row 0 is unused), and arrival[2c],
    arrival[2c+1] are c's parent coset and generator g for c >= 2, meaning
    rows[parent*ncols + 2g] == c and parent < c; cosets 0 and 1 hold
    zeros.  The numbering is the order in which a traversal from coset 1
    first reaches each coset, trying the arrival generator first, then the
    other generators in decreasing index, positive letters only.
    """

    presentation: Presentation
    rows: array  # 1-based coset ids, row-major
    arrival: array

    @property
    def index(self):
        return len(self.arrival) // 2 - 1

    def trace(self, coset, w: Word):
        """Apply word w to a coset (rightmost letter acts first)."""
        rows, ncols = self.rows, 2 * self.presentation.rank
        for col in _columns(w):
            coset = rows[coset * ncols + col]
        return coset


def enumerate(p: Presentation, subgroup=(), cap=DEFAULT_CAP) -> CosetTable:
    """HLT enumeration of the cosets of <subgroup> in the presented group.

    Deterministic: identical inputs give identical standardized tables.
    Raises CapExceeded when the enumeration would define more than cap
    cosets.  A presentation with no generators is the trivial group.
    """
    if not 1 <= cap <= MAX_CAP:  # any int; the compiled core parses a C int
        raise InputError(f"cap must be between 1 and {MAX_CAP}")
    if not p.rank:  # the cores reject a table without columns
        return CosetTable(p, array("i"), array("i", (0,) * 4))
    relators = [_columns(w) for w in p.relators]
    subwords = [_columns(w) for w in subgroup]
    rows, _, _, arrival = _core(2 * p.rank, relators, subwords, cap)
    return CosetTable(p, rows, arrival)


def order(p: Presentation, cap=DEFAULT_CAP):
    """Group order via enumeration over the trivial subgroup.

    Returns the order, or None when the cap was exceeded.
    """
    try:
        return enumerate(p, (), cap).index
    except CapExceeded:
        return None


def word_in_subgroup(t: CosetTable, w: Word) -> bool:
    """True iff w stabilizes coset 1 (the word problem for empty subgroups)."""
    return t.trace(1, w) == 1


def words_equal(t: CosetTable, a: Word, b: Word) -> bool:
    """Equality in the group, via a regular (trivial-subgroup) table."""
    return word_in_subgroup(t, a * b.inverse())


def schreier(t: CosetTable) -> tuple[Word, ...]:
    """Representative words along the arrival tree of the standardizing
    traversal: coset c's word is its arrival generator times its parent's
    word.  Index 0 is unused."""
    letters = [(), ()]
    for parent, g in zip(t.arrival[4::2], t.arrival[5::2]):
        letters.append((g + 1,) + letters[parent])
    # arrival letters are all positive, so no product cancels
    return tuple(map(Word._reduced, letters))


def schreier_texts(t: CosetTable) -> list[str]:
    """render_word of each Schreier word, built along the arrival tree: c's
    text is its generator's token, merged into the parent's leading run when
    it repeats (r1 r1 r2 -> r1^2 r2), then the parent's text.  Index 0 unused."""
    names = t.presentation.generators
    texts = ["", ""]
    runs = [None, (None, 0, "")]  # (leading generator, its run, text after it)
    for parent, g in zip(t.arrival[4::2], t.arrival[5::2]):
        lead, k, rest = runs[parent]
        k, rest = (k + 1, rest) if lead == g else (1, texts[parent])
        runs.append((g, k, rest))
        token = names[g] if k == 1 else f"{names[g]}^{k}"
        texts.append(f"{token} {rest}" if rest else token)
    texts[1] = "1"  # render_word's identity
    return texts


def _involutions(p: Presentation):
    """Generators g with a g^2 relator (rendered undirected in DOT)."""
    out = set()
    for w in p.relators:
        if len(w.letters) == 2 and w.letters[0] == w.letters[1] and w.letters[0] > 0:
            out.add(w.letters[0] - 1)
    return out

def to_dot(t: CosetTable) -> str:
    """DOT export of the Schreier graph of t, coset 1 labelled H and every
    other coset by its representative's schreier_texts: self-loops
    omitted, involution generators drawn as single undirected-styled
    edges."""
    p = t.presentation
    invol = _involutions(p)
    texts = schreier_texts(t)
    rank = p.rank
    targets = t.rows[::2].tolist()  # the positive columns, rank per row
    lines = ["digraph schreier {", '  1 [label="H"];']
    lines += [f'  {c} [label="{texts[c]}"];' for c in range(2, t.index + 1)]
    for c in range(1, t.index + 1):
        row = targets[c * rank:(c + 1) * rank]
        for gen in range(rank):
            d = row[gen]
            if d == c:
                continue
            name = p.generators[gen]
            if gen in invol:
                if c < d:
                    lines.append(f'  {c} -> {d} [label="{name}", dir=none];')
            else:
                lines.append(f'  {c} -> {d} [label="{name}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
