"""Pure-Python Todd-Coxeter core (HLT strategy) and table standardization.

The table acts on *left* cosets: column ``2*g`` is the action of generator
g, column ``2*g+1`` of its inverse, and words act rightmost letter first.
Callers pass relator/subgroup words already reversed so the scan below can
run left to right.  A generator with a g^2 or g^-2 relator is an
involution: it is enumerated in column ``2*g`` alone, and its column
``2*g+1`` is filled in only when the table is standardized.

This is the reference core.  Its compiled twin in ``_tc_core.c`` is a
line-for-line port; the test suite asserts that both return identical
``(rows, ndef, parent, arrival)``, and identical ``(index, ndef, parent,
cells)`` when the table is not asked for.
"""

from __future__ import annotations

import operator
from array import array

MAX_CAP = 2**31 - 3  # coset ids must fit the compiled core's C int


class CapExceeded(Exception):
    """More cosets (live + dead) were defined than the cap allows."""


def enumerate_core(ncols, relators, subgroup_words, cap, table=True):
    """Run HLT coset enumeration and, when table is true, standardize the
    completed table.

    HLT visits the live cosets in order.  At each one a read-only closure
    pass first walks every relator from it; only the relators that do not
    return to it are then scanned and filled, in their given order, before
    its row's empty entries are defined.  A scan of a closed relator would
    change nothing, so the definitions and merges are those of plain HLT.

    Involutions: generator g is involutory when some relator consists of
    two equal letters, (2g, 2g) or (2g+1, 2g+1).  Such a g gets one
    self-inverse column: the letter 2g+1 reads column 2g, in relators and
    subgroup words alike; defining alpha g = beta also sets beta g = alpha;
    the two-letter relators that made g involutory are dropped, since they
    hold by construction; and a row's empty entries skip column 2g+1.  HLT
    then never defines a coset for alpha g^-1 that a later g^2 scan would
    merge into alpha g.  A presentation without such a relator is
    enumerated exactly as without the rule.

    ncols: 2 * generator count, positive and even.  relators /
    subgroup_words: sequences of column-index tuples (reversed words), each
    letter an int in [0, ncols).  cap: at most this many cosets (live +
    dead) are defined, an int 1 <= cap <= MAX_CAP; more raises CapExceeded.
    Malformed input raises ValueError; a cap that is not an int, TypeError.

    Returns (rows, ndef, parent, arrival), rows, parent and arrival each
    a flat array('i').  The live cosets are renumbered 1..index in the
    order a traversal from coset 1 first reaches them: each coset, in its
    new order, tries its arrival generator first, then the other generators
    in decreasing index, positive letters only (coset 1 has no arrival
    generator).  rows is row-major with (index+1)*ncols entries:
    rows[k*ncols + x] is coset k's entry in column x in that numbering, and
    row 0 is all zeros.  arrival has 2*(index+1) entries: arrival[2k] and
    arrival[2k+1] are k's parent coset p and generator g, with
    rows[p*ncols + 2*g] == k and p < k, for k >= 2; cosets 0 and 1 have
    zeros.  The renumbering copies column 2g into column 2g+1 of an
    involutory g, so rows and arrival are those of an enumeration with
    two columns per generator.  ndef is the number of cosets defined and
    parent, with ndef+1 entries, the union-find forest over the old ids
    0..ndef, with parent[c] == c exactly for the live cosets.

    With table false the enumeration is the same, but nothing is renumbered
    and no rows or arrival are built: the return is (index, ndef, parent,
    cells), index the number of live cosets, ndef and parent as above, and
    cells the completed table in the enumeration's own coset ids, a flat
    array('i') of (ndef+1)*ncols entries laid out as rows is.  Row 0 and
    every dead row are all zeros, each live row names live cosets only,
    and column 2g+1 of an involutory g is 0, as its letter reads column
    2g.
    """
    if not 1 <= operator.index(cap) <= MAX_CAP:  # a float raises TypeError
        raise ValueError(f"cap must be between 1 and {MAX_CAP}")
    if ncols < 2 or ncols % 2:
        raise ValueError("ncols must be a positive even number")
    # each word is read once, by iterating it, as the compiled core does
    subgroup_words = tuple(map(tuple, subgroup_words))
    relators = tuple(map(tuple, relators))
    for w in subgroup_words + relators:
        for x in w:
            if not isinstance(x, int) or not 0 <= x < ncols:
                raise ValueError(f"word letters must be ints in [0, {ncols})")
    # col[x] is the column letter x reads and inv[x] the column of its
    # inverse; an involutory g's two letters both read column 2g
    col, inv = list(range(ncols)), [x ^ 1 for x in range(ncols)]
    for w in relators:
        if len(w) == 2 and w[0] == w[1]:
            x = w[0] & ~1
            col[x + 1] = inv[x] = x
    subgroup_words = [[col[x] for x in w] for w in subgroup_words]
    relators = [[col[x] for x in w] for w in relators
                if len(w) != 2 or w[0] != w[1]]
    fill = [x for x in range(ncols) if col[x] == x]  # the columns a row fills

    cells = [0] * (2 * ncols)  # the table: rows 0 and 1, doubled as cosets are defined
    parent = [0, 1]
    ndef = 1
    dead = []

    def find(c):
        root = c
        while parent[root] != root:
            root = parent[root]
        while parent[c] != root:
            parent[c], c = root, parent[c]
        return root

    def define(alpha, x):
        nonlocal ndef
        if ndef >= cap:
            raise CapExceeded
        ndef += 1
        beta = ndef
        parent.append(beta)
        if len(cells) <= beta * ncols:
            cells.extend([0] * min(len(cells), (cap + 1) * ncols - len(cells)))
        cells[alpha * ncols + x] = beta
        cells[beta * ncols + inv[x]] = alpha
        return beta

    def merge(k, l):
        k, l = find(k), find(l)
        if k == l:
            return
        if k > l:
            k, l = l, k
        parent[l] = k
        dead.append(l)

    def coincidence(alpha, beta):
        merge(alpha, beta)
        while dead:
            gamma = dead.pop()
            grow = gamma * ncols
            for x in range(ncols):
                delta = cells[grow + x]
                if not delta:
                    continue
                cells[grow + x] = 0
                cells[delta * ncols + inv[x]] = 0
                mu, nu = find(gamma), find(delta)
                murow = mu * ncols
                if cells[murow + x]:
                    merge(nu, cells[murow + x])
                elif cells[nu * ncols + inv[x]]:
                    merge(mu, cells[nu * ncols + inv[x]])
                else:
                    cells[murow + x] = nu
                    cells[nu * ncols + inv[x]] = mu

    def scan_and_fill(alpha, word):
        f, i = alpha, 0
        b, j = alpha, len(word) - 1
        while True:
            while i <= j and cells[f * ncols + word[i]]:
                f = cells[f * ncols + word[i]]
                i += 1
            if i > j:
                if f != b:
                    coincidence(f, b)
                return
            while j >= i and cells[b * ncols + inv[word[j]]]:
                b = cells[b * ncols + inv[word[j]]]
                j -= 1
            if j < i:
                coincidence(f, b)
                return
            if j == i:
                cells[f * ncols + word[i]] = b
                cells[b * ncols + inv[word[i]]] = f
                return
            f = define(f, word[i])
            i += 1

    for w in subgroup_words:
        scan_and_fill(1, w)
        if find(1) != 1:  # pragma: no cover - coset 1 is the union-find minimum
            raise AssertionError("coset 1 merged away")

    alpha = 1
    while alpha <= ndef:
        if find(alpha) != alpha:
            alpha += 1
            continue
        # closure pass: walk each relator from alpha without writing; an
        # undefined entry sends the walk to row 0, which is all zeros, so
        # the walk needs no test.  A relator that returns to alpha is closed
        # there and stays closed through later merges, and its scan would
        # change nothing, so only the open ones are scanned.
        open_relators = []
        for w in relators:
            f = alpha
            for x in w:
                f = cells[f * ncols + x]
            if f != alpha:
                open_relators.append(w)
        for w in open_relators:
            scan_and_fill(alpha, w)
            if find(alpha) != alpha:
                break
        if find(alpha) == alpha:
            arow = alpha * ncols
            for x in fill:
                if not cells[arow + x]:
                    define(alpha, x)
        alpha += 1

    live = [c for c in range(1, ndef + 1) if parent[c] == c]
    if not table:
        return (len(live), ndef, array("i", parent),
                array("i", cells[:(ndef + 1) * ncols]))

    # standardize: number[c] is the new number of live coset c, order[k]
    # the old id of new coset k; order grows while the loop walks it.  In
    # the completed table every live row is full and names live cosets only
    # (a merge clears every entry into the dead row), so no find is needed.
    ngens = ncols // 2
    number = [0] * (ndef + 1)
    number[1] = 1
    order = [0, 1]
    arrival = [0, 0, 0, 0]
    k = 1
    while k < len(order):
        c = order[k]
        first = arrival[2 * k + 1] if k > 1 else ngens - 1
        # first is tried again in the descending sweep, where its target is
        # already numbered
        for g in (first, *range(ngens - 1, -1, -1)):
            d = cells[c * ncols + 2 * g]
            if d and not number[d]:
                number[d] = len(order)
                order.append(d)
                arrival += (k, g)
        k += 1
    if len(order) - 1 != len(live):  # pragma: no cover - the positive orbit covers all
        raise AssertionError("positive-letter traversal missed cosets")

    # in ascending old id, so the table is read front to back; column 2g+1
    # of an involutory g copies column 2g
    rows = [0] * (len(order) * ncols)
    for c in live:
        k, row = number[c] * ncols, c * ncols
        rows[k:k + ncols] = [number[cells[row + x]] for x in col]
    return array("i", rows), ndef, array("i", parent), array("i", arrival)
