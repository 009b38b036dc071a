"""Deterministic Todd-Coxeter coset enumeration over a Presentation.

The enumeration and the standardization of its table run in a core: a C
extension (``altcox._tc_core``, built from ``_tc_core.c`` whenever a C
compiler is present) with the pure-Python reference core
(``altcox._tc_py``) as the fallback; BACKEND names the one in use.  The
docstring of ``_tc_py.enumerate_core`` specifies both cores: the
involution rule, the renumbering and the return shapes.  This module
encodes the words and calls the core: ``enumerate`` wraps the rows and
arrival tree in a CosetTable, while ``index`` takes the count alone from
the core's index path (``table=False``), which renumbers nothing and
returns the completed table in the enumeration's own coset ids.  What it
works out from a presentation is kept in one record, the presentation's
``_engine`` slot, which no other module reads (``_kept``): the relators'
column encoding, the order plan (``_order_plan``: which g, k and candidate
h to try, and each pair's relators in four columns) and the central
quotient, each worked out once.  ``order``, which ``altcox order`` calls,
walks one list of subgroups (``_subgroups``): the two-generator <g, h>,
the cyclic <g> and the trivial subgroup.  It returns |H| * [G:H] for the
first H whose order its table certifies; each order still counts the
pair's group in the core.  H's table comes from the index path too, and no
CosetTable is built: the certificate (``_orbits_certify``) walks H's
orbits on the live cosets, from the last coset defined down, reading only
the table entries of the orbits it visits, until the lcm of their sizes
reaches H's order bound.  A group G whose central generators have distinct
prime orders, such as a spinor cover (z of order 2) or the A5 and A6
covers (z and zeta, of orders 2 and 3), is counted as f |G/C| through its
central quotient (``_central_quotient``), f the product of those orders,
once each central generator is proved not 1: by a certificate given to
``order``, a function that returns whether its proof holds (``altcox
order`` passes one for a catalog spinor cover, cli._certificate; this
module imports no oracle), or by the table of an earlier order of G that
certified |H| with every central generator outside H.  A proof is kept as
one number in G's record, the least cap at which the quotient stands in
for G: 1 after a certificate, and the bound of G's own path after a
table.  A run that would define more cosets than its cap
raises the core's CapExceeded, which ``enumerate``, ``index`` and
``order`` let through to their caller (those of G's quotient are caught,
and G's own path runs).

Tables act on left cosets: words act with their rightmost letter first,
matching the composition convention of the oracle module.
"""

from __future__ import annotations

from array import array
from itertools import chain, compress, repeat
from math import isqrt, lcm, prod
from operator import add, lt, ne

from .words import InputError, Record, Word, Presentation
from ._tc_py import CapExceeded, MAX_CAP

try:
    from ._tc_core import enumerate_core as _core
    BACKEND = "compiled"
except ImportError:
    from ._tc_py import enumerate_core as _core
    BACKEND = "python"

DEFAULT_CAP = 200_000
# the most cosets a pair's group <g, h> may take to count (see order)
PAIR_BOUND = 1000


def _columns(w: Word):
    """Column indices of a word, reversed for left-action scanning."""
    return tuple(2 * (abs(x) - 1) + (0 if x > 0 else 1)
                 for x in reversed(w.letters))


def _kept(p: Presentation, name, work):
    """work(p), worked out on the first call for name and kept under it in
    p's engine record: "columns", "plan" or "quotient"."""
    record = p._engine
    try:
        return record[name]
    except KeyError:
        value = record[name] = work(p)
        return value


def _relator_columns(p: Presentation):
    """The column words of p's relators, encoded once, so that every
    enumeration over p shares them."""
    return _kept(p, "columns", lambda p: tuple(map(_columns, p.relators)))


class CosetTable(Record):
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

    __slots__ = ("presentation", "rows", "arrival")

    @property
    def index(self):
        return len(self.arrival) // 2 - 1

    def trace(self, coset, w: Word):
        """Apply word w to a coset (rightmost letter acts first)."""
        rows, ncols = self.rows, 2 * self.presentation.rank
        for col in _columns(w):
            coset = rows[coset * ncols + col]
        return coset


def _check_cap(cap):
    """Refuse a cap that is not an int from 1 to MAX_CAP, a C int in the core."""
    if not isinstance(cap, int) or not 1 <= cap <= MAX_CAP:
        raise InputError(f"cap must be between 1 and {MAX_CAP}")


def _run(p: Presentation, subgroup, cap, table):
    """The core's return for <subgroup> in p, with or without its table.
    The cores reject a table without columns, so when p has no generators
    it is the trivial group's, in the core's shapes: one coset, defined and
    live, with no cells."""
    _check_cap(cap)
    if not p.rank:
        return ((array("i"), 1, array("i", (0, 1)), array("i", (0,) * 4)) if table
                else (1, 1, array("i", (0, 1)), array("i")))
    subwords = [_columns(w) for w in subgroup]
    return _core(2 * p.rank, _relator_columns(p), subwords, cap, table)


def enumerate(p: Presentation, subgroup=(), cap=DEFAULT_CAP) -> CosetTable:
    """HLT enumeration of the cosets of <subgroup> in the presented group.

    Deterministic: identical inputs give identical standardized tables.
    Raises CapExceeded when the enumeration would define more than cap
    cosets.  A presentation with no generators is the trivial group.
    """
    rows, _, _, arrival = _run(p, subgroup, cap, True)
    return CosetTable(p, rows, arrival)


def index(p: Presentation, subgroup=(), cap=DEFAULT_CAP) -> int:
    """The index of <subgroup>: enumerate's enumeration, with its cap and
    its CapExceeded, counted in the core without standardizing it or
    building a table."""
    return _run(p, subgroup, cap, False)[0]


def _order_plan(p: Presentation):
    """The subgroups that _subgroups tries on p, worked out once, on p's
    first order (``_kept``): (g, k, pairs), or () when no g is made, with
    pairs the (h, words) of each candidate h in increasing order.  g is the
    generator outside central, the indices of p.central, with a relator
    g^k or g^-k, k >= 2, of the largest k, then the lowest g, read like the
    pairs' words from the relators' column encoding; none is made
    when no generator has one, or at rank 1, where <g> is all of G and its
    one coset could certify no k.  A central g is left out: <g> is then
    normal, acts trivially on its own cosets, and its order could not be
    certified.  A candidate h is a generator, other than g and outside
    central, such that some relator has exactly the letters g and h; at
    rank below 3 there is none, as <g, h> would be all of G.  Its words
    are the relators in g and h alone, in relator order, re-encoded to
    four columns, g's first."""
    central = {p.gen_index(name) for name, _ in p.central}
    encoded = _relator_columns(p) if p.rank >= 2 else ()
    powers = ((w[0] >> 1, len(w)) for w in encoded
              if len(w) >= 2 and w.count(w[0]) == len(w))
    found = max((gk for gk in powers if gk[0] not in central),
                key=lambda gk: (gk[1], -gk[0]), default=None)
    if found is None:
        return ()
    g, k = found
    letters = [{x >> 1 for x in w} for w in encoded] if p.rank >= 3 else ()
    others = sorted({h for s in letters if len(s) == 2 and g in s
                     for h in s} - central - {g})
    pairs = []
    for h in others:
        pair, recode = {g, h}, {2 * g: 0, 2 * g + 1: 1, 2 * h: 2, 2 * h + 1: 3}
        words = tuple(tuple(map(recode.__getitem__, w))
                      for w, s in zip(encoded, letters) if s <= pair)
        pairs.append((h, words))
    return g, k, tuple(pairs)


def _subgroups(p: Presentation, cap):
    """The subgroups H that ``order`` tries on p, in turn, each as (H's
    generators, a multiple d of |H|), and the most cosets that counting
    their d's defined.  The list is ((g, h), d) for the first candidate h
    of _order_plan with d = |<g, h | the relators in g and h alone>| > k,
    then ((g,), k), then the trivial subgroup ((), 1), which always
    certifies, as each of its orbits is one coset.  Each pair's d is
    counted by the core on h's words, to at most min(cap, PAIR_BOUND)
    cosets; an h whose count reaches that bound is passed over, and counts
    as defining that bound + 1 cosets."""
    subgroups, defined = [], 0
    plan = _kept(p, "plan", _order_plan)
    if plan:
        g, k, pairs = plan
        limit = min(cap, PAIR_BOUND)
        for h, words in pairs:
            try:
                d, ndef, *_ = _core(4, words, (), limit, False)
            except CapExceeded:
                defined = limit + 1
                continue
            defined = max(defined, ndef)
            if d > k:
                subgroups.append(((g, h), d))
                break
        subgroups.append(((g,), k))
    subgroups.append(((), 1))
    return subgroups, defined


def _is_prime(n):
    return n > 1 and all(n % d for d in range(2, isqrt(n) + 1))


def _central_quotient(p: Presentation):
    """(p over its central generators, the product of their orders) when
    those orders are distinct primes, else None: the central generators'
    letters deleted from every relator, each word freely reduced and the
    empty ones dropped, which drops their powers and commutators (a Tietze
    move), and their names deleted from the generators.  Central c_i of
    distinct prime orders p_i, each c_i != 1, span a subgroup of order
    their product, so that |p| is the product times |quotient|."""
    orders = [k for _, k in p.central]
    if not orders or len(set(orders)) < len(orders) or not all(map(_is_prime, orders)):
        return None
    central = {name for name, _ in p.central}
    kept = [name for name in p.generators if name not in central]
    # the letters of the other generators, renumbered past the deleted ones
    renumber = {}
    for new, name in zip(range(1, len(kept) + 1), kept):
        g = p.gen_index(name) + 1
        renumber[g], renumber[-g] = new, -new
    words = (Word([renumber[x] for x in w.letters if x in renumber])
             for w in p.relators)
    return Presentation(kept, (w for w in words if w)), prod(orders)


def _moves_central(p: Presentation, cells):
    """Whether every central generator c of p moves coset 1 of cells, a
    completed table over p as the core's index path returns it: c is then
    outside the subgroup, so c is not 1."""
    row = 2 * p.rank  # coset 1's
    return all(cells[row + 2 * p.gen_index(name)] != 1 for name, _ in p.central)


def _orbits_certify(p: Presentation, cells, parent, gens, n):
    """Whether the lcm of the orbit sizes of <gens> on the live cosets of
    cells is n, cells and parent a completed table over p and its
    union-find forest, in the enumeration's own coset ids, as the core's
    index path returns them.  <gens> acts on the completed table, so each
    orbit size divides its order; when that order divides n, the lcm
    reaching n proves it is n, and the lcm of any set of orbits reaching
    n is the same answer.  A live row names live cosets only, so the
    orbits need no find and no renumbering.  The walk reads the table
    entries of the orbits it visits, from the last coset defined down,
    skipping dead ones (parent[c] != c), and it stops at the first orbit
    that brings the lcm to n.  On the 19 presentations of the benchmark's
    regular workload, the certificates of a repeated order read 1,190
    entries this way and 1,574 walking up from coset 1, as the cosets far
    from coset 1 more often lie in orbits that settle the lcm."""
    ncols = 2 * p.rank
    cols = [2 * g for g in gens]
    seen = bytearray(len(parent))
    reached = 1
    for c in range(len(parent) - 1, 0, -1):
        if seen[c] or parent[c] != c:
            continue
        seen[c] = 1
        orbit = [c]
        for a in orbit:  # grows as the walk reaches new cosets
            row = a * ncols
            for col in cols:
                b = cells[row + col]
                if not seen[b]:
                    seen[b] = 1
                    orbit.append(b)
        reached = lcm(reached, len(orbit))
        if reached == n:
            return True
    return False


def order(p: Presentation, cap=DEFAULT_CAP, certificate=None):
    """|G| = f |G/C| for a group whose central quotient G/C, by the
    subgroup C of order f that its central generators span, is proved
    (_central_quotient) and whose order fits in the cap; else
    |G| = d [G:H] for the first subgroup H in the list of _subgroups whose
    table certifies that |H| = d: <g, h>, <g>, and at the latest the
    trivial subgroup, whose d is 1.

    G keeps its quotient in its engine record (_kept), worked out once,
    and once the quotient is proved, the least cap at which it stands in
    for G.  It is proved in one of two ways:

    - by certificate, a function of no arguments that returns whether
      every central generator of p is proved not 1, called after the
      quotient's order, when that order is counted and no proof holds at
      the cap: a quotient whose order meets the cap needs no proof.  The
      least cap is then 1.
    - without a certificate, by G's own path: a table over <g, h> or <g>
      that certifies |H| and in which every central generator moves coset
      1 (_moves_central) proves them all not 1.  The least cap is the most
      cosets any core call of that order defined, or would have defined
      past its limit; at any cap of at least that, G's own path makes the
      same calls with the same results, and prints that order.

    An order at a cap below the least takes G's own path, as does one whose
    quotient's order meets the cap, so every order prints what it would
    print had G kept nothing.

    The relators in g and h alone present a group of order d of which
    <g, h> in G is a quotient, and g^k = 1, so |H| divides d, or k, and the
    table certifies |H| when the orbit sizes of H on it have that lcm
    (_orbits_certify).  Each enumeration has the cap, and the CapExceeded
    of one over <g, h>, <g> or the trivial subgroup is raised, as
    enumerate and index raise theirs, not fallen back from; only the
    quotient's is caught.
    """
    # _run's check, made before the pair's count, whose bound
    # min(cap, PAIR_BOUND) the core would reject as a ValueError or TypeError
    _check_cap(cap)
    record = p._engine
    proved = record.get("least", cap + 1) <= cap
    found = (proved or certificate is not None) and _kept(p, "quotient", _central_quotient)
    if found:
        quotient, factor = found
        try:
            n = order(quotient, cap)
        except CapExceeded:
            n = None
        if n is not None and (proved or certificate()):
            if not proved:  # a certificate holds at every cap
                record["least"] = 1
            return factor * n
    subgroups, bound = _subgroups(p, cap)
    for gens, d in subgroups:
        cosets, ndef, parent, cells = _run(p, tuple(map(Word.gen, gens)), cap, False)
        bound = max(bound, ndef)
        if _orbits_certify(p, cells, parent, gens, d):
            if (gens and p.central and certificate is None and "least" not in record
                    and bound <= cap and _moves_central(p, cells)
                    and _kept(p, "quotient", _central_quotient)):
                record["least"] = bound
            return d * cosets


def word_in_subgroup(t: CosetTable, w: Word) -> bool:
    """True iff w stabilizes coset 1 (the word problem for empty subgroups)."""
    return t.trace(1, w) == 1


def words_equal(t: CosetTable, a: Word, b: Word) -> bool:
    """Equality in the group, via a regular (trivial-subgroup) table."""
    return word_in_subgroup(t, a * b.inverse())


def schreier_texts(t: CosetTable) -> list[str]:
    """render_word of each Schreier word, built along the arrival tree
    (coset c's word is its arrival generator times its parent's): c's
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
    """Generators g with a relator of two equal letters, g^2 or g^-2: the
    cores' involutions, drawn undirected in DOT."""
    return {w[0] // 2 for w in _relator_columns(p) if len(w) == 2 and w[0] == w[1]}


def to_dot(t: CosetTable, texts) -> str:
    """DOT export of the Schreier graph of t, coset 1 labelled H and every
    other coset c by texts[c], its representative's schreier_texts:
    self-loops omitted, involution generators drawn as single
    undirected-styled edges.  The edge lines are built a generator column at
    a time, interleaved row by row, and kept where an edge is drawn."""
    p, index = t.presentation, t.index
    invol = _involutions(p)
    ncols = 2 * p.rank
    nums = list(map(str, range(index + 1)))
    heads = [f"  {c} -> " for c in nums[1:]]
    cosets = range(1, index + 1)
    pieces, drawn = [], []  # two per generator: edge heads, edge ends
    for gen, name in zip(range(p.rank), p.generators):
        targets = t.rows[ncols + 2 * gen::ncols].tolist()  # rows 1..index
        if gen in invol:  # drawn once, from its lower end
            tail, keep = f' [label="{name}", dir=none];\n', lt
        else:
            tail, keep = f' [label="{name}"];\n', ne
        ends = list(map(add, nums, repeat(tail)))
        pieces += (heads, map(ends.__getitem__, targets))
        drawn += (map(keep, cosets, targets), map(keep, cosets, targets))
    nodes = [f'  {c} [label="{texts[c]}"];\n' for c in cosets[1:]]
    edges = compress(chain.from_iterable(zip(*pieces)),
                     chain.from_iterable(zip(*drawn)))
    return "".join(chain(('digraph schreier {\n  1 [label="H"];\n',), nodes,
                         edges, ("}\n",)))
