"""Pure-Python Todd-Coxeter core (HLT strategy).

The table acts on *left* cosets: column ``2*g`` is the action of generator
g, column ``2*g+1`` of its inverse, and words act rightmost letter first.
Callers pass relator/subgroup words already reversed so the scan below can
run left to right.

A compiled twin of this loop lives in ``_tc_core.c``; both must stay
behaviourally identical (the test suite compares their results).
"""

from __future__ import annotations


class CapExceeded(Exception):
    """More cosets (live + dead) were defined than the cap allows."""


def enumerate_core(ncols, relators, subgroup_words, cap):
    """Run HLT coset enumeration.

    ncols: 2 * generator count.  relators / subgroup_words: sequences of
    column-index tuples (reversed words).  Returns (table, ndef, parent)
    where table is a flat list of size (ndef+1)*ncols with 0 for dead rows
    and parent is the union-find forest over cosets 0..ndef.
    """
    if cap < 1:
        raise ValueError("cap must be >= 1")
    table = [0] * ((cap + 2) * ncols)
    parent = list(range(cap + 2))
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

    return table[: (ndef + 1) * ncols], ndef, parent[: ndef + 1]
