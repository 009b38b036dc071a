"""Pure-Python Todd-Coxeter core (HLT strategy) and table standardization.

The table acts on *left* cosets: column ``2*g`` is the action of generator
g, column ``2*g+1`` of its inverse, and words act rightmost letter first.
Callers pass relator/subgroup words already reversed so the scan below can
run left to right.

This is the reference core.  Its compiled twin in ``_tc_core.c`` is a
line-for-line port; the test suite asserts that both return identical
``(rows, ndef, parent, arrival)``.
"""

from __future__ import annotations

from array import array

MAX_CAP = 2**31 - 3  # coset ids must fit the compiled core's C int


class CapExceeded(Exception):
    """More cosets (live + dead) were defined than the cap allows."""


def enumerate_core(ncols, relators, subgroup_words, cap):
    """Run HLT coset enumeration and standardize the completed table.

    ncols: 2 * generator count, positive and even.  relators /
    subgroup_words: sequences of column-index tuples (reversed words), each
    letter an int in [0, ncols).  cap: at most this many cosets (live +
    dead) are defined, 1 <= cap <= MAX_CAP; more raises CapExceeded.
    Malformed input raises ValueError.

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
    zeros.  ndef is the number of cosets defined and parent, with ndef+1
    entries, the union-find forest over the old ids 0..ndef, with
    parent[c] == c exactly for the live cosets.
    """
    if not 1 <= cap <= MAX_CAP:
        raise ValueError(f"cap must be between 1 and {MAX_CAP}")
    if ncols < 2 or ncols % 2:
        raise ValueError("ncols must be a positive even number")
    subgroup_words, relators = tuple(subgroup_words), tuple(relators)
    for w in subgroup_words + relators:
        for x in w:
            if not isinstance(x, int) or not 0 <= x < ncols:
                raise ValueError(f"word letters must be ints in [0, {ncols})")

    table = [0] * (2 * ncols)  # rows 0 and 1; doubled as cosets are defined
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
        if len(table) <= beta * ncols:
            table.extend([0] * min(len(table), (cap + 1) * ncols - len(table)))
        table[alpha * ncols + x] = beta
        table[beta * ncols + (x ^ 1)] = alpha
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
                delta = table[grow + x]
                if not delta:
                    continue
                table[grow + x] = 0
                table[delta * ncols + (x ^ 1)] = 0
                mu, nu = find(gamma), find(delta)
                murow = mu * ncols
                if table[murow + x]:
                    merge(nu, table[murow + x])
                elif table[nu * ncols + (x ^ 1)]:
                    merge(mu, table[nu * ncols + (x ^ 1)])
                else:
                    table[murow + x] = nu
                    table[nu * ncols + (x ^ 1)] = mu

    def scan_and_fill(alpha, word):
        f, i = alpha, 0
        b, j = alpha, len(word) - 1
        while True:
            while i <= j and table[f * ncols + word[i]]:
                f = table[f * ncols + word[i]]
                i += 1
            if i > j:
                if f != b:
                    coincidence(f, b)
                return
            while j >= i and table[b * ncols + (word[j] ^ 1)]:
                b = table[b * ncols + (word[j] ^ 1)]
                j -= 1
            if j < i:
                coincidence(f, b)
                return
            if j == i:
                table[f * ncols + word[i]] = b
                table[b * ncols + (word[i] ^ 1)] = f
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
        for w in relators:
            scan_and_fill(alpha, w)
            if find(alpha) != alpha:
                break
        if find(alpha) == alpha:
            arow = alpha * ncols
            for x in range(ncols):
                if not table[arow + x]:
                    define(alpha, x)
        alpha += 1

    # standardize: number[c] is the new number of live coset c, order[k]
    # the old id of new coset k; order grows while the loop walks it
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
            d = table[c * ncols + 2 * g]
            if d:
                d = find(d)
                if not number[d]:
                    number[d] = len(order)
                    order.append(d)
                    arrival += (k, g)
        k += 1
    live = sum(parent[c] == c for c in range(1, ndef + 1))
    if len(order) - 1 != live:  # pragma: no cover - the positive orbit covers all
        raise AssertionError("positive-letter traversal missed cosets")

    rows = [0] * ncols
    for c in order[1:]:
        rows += [number[find(d)] if d else 0 for d in table[c * ncols:(c + 1) * ncols]]
    return array("i", rows), ndef, array("i", parent), array("i", arrival)
