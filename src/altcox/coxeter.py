"""Coxeter matrices, connected extensions, spanning trees and cycle bases.

Matrix entries are ints: the diagonal is 1, off-diagonal entries are >= 2,
and 0 marks an infinite label (also in the JSON format).
"""

from __future__ import annotations

from .words import InputError, Record, load_json

INFINITY = 0

# bounds --rank and the size of a --matrix.  The builders take time
# quadratic in the rank plus time near the relators they write, which
# words.MAX_GENERATORS and words.MAX_LETTERS bound for every presentation
MAX_RANK = 400


class MatrixError(InputError):
    pass


class CoxeterMatrix(Record):
    __slots__ = ("n", "m")

    def __init__(self, n, m):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "m", tuple(tuple(row) for row in m))
        self.validate()

    def validate(self):
        if not 1 <= self.n <= MAX_RANK:
            raise MatrixError(f"matrix size {self.n} outside 1..{MAX_RANK}")
        if len(self.m) != self.n or any(len(row) != self.n for row in self.m):
            raise MatrixError("matrix not n x n")
        for i, row in enumerate(self.m):
            if row[i] != 1:
                raise MatrixError(f"diagonal entry m[{i}][{i}] must be 1")
            for j, v in enumerate(row):
                if i != j and v != INFINITY and v < 2:
                    raise MatrixError(f"off-diagonal entry m[{i}][{j}] = {v} < 2")
                if v != self.m[j][i]:
                    raise MatrixError("matrix not symmetric")

    def entry(self, i, j):
        return self.m[i][j]

    @classmethod
    def from_json(cls, text):
        data = load_json(text)
        if not (isinstance(data, dict) and type(data.get("n")) is int
                and isinstance(data.get("m"), list)
                and all(isinstance(r, list) and all(type(v) is int for v in r)
                        for r in data["m"])):
            raise MatrixError('matrix JSON needs an integer "n" and a list "m" '
                              'of integer rows')
        return cls(data["n"], tuple(tuple(r) for r in data["m"]))


def standard_matrix(family: str, n: int) -> CoxeterMatrix:
    """Coxeter matrix of type A/B/D at rank n.

    A: path, all labels 3.  B: path with label 4 on the 0-1 edge.
    D: fork at vertex 2 with legs 0 and 1, all labels 3.
    """
    family = family.upper()
    minima = {"A": 1, "B": 2, "D": 3}
    if family not in minima:
        raise MatrixError(f"unknown family {family!r}")
    if n < minima[family]:
        raise MatrixError(f"type {family} needs rank >= {minima[family]}")
    m = [[2] * n for _ in range(n)]
    for i in range(n):
        m[i][i] = 1
    if family in ("A", "B"):
        for i in range(n - 1):
            m[i][i + 1] = m[i + 1][i] = 3
        if family == "B":
            m[0][1] = m[1][0] = 4
    else:
        m[0][2] = m[2][0] = 3
        m[1][2] = m[2][1] = 3
        for i in range(2, n - 1):
            m[i][i + 1] = m[i + 1][i] = 3
    return CoxeterMatrix(n, tuple(tuple(r) for r in m))


class ConnectedExtension(Record):
    """The Coxeter graph of a matrix (vertices 0..n-1, an edge {i,j}
    labeled m_ij iff m_ij >= 3 or m_ij is infinite), plus virtual label-2
    edges chaining one anchor per component."""

    __slots__ = ("matrix", "virtual_edges")

    @property
    def n(self):
        return self.matrix.n

    def all_edges(self):
        """Sorted (i, j, label) for real and virtual edges, i < j.  A
        virtual edge joins two components, so its matrix label is 2."""
        virtual, m = set(self.virtual_edges), self.matrix.m
        return [(i, j, m[i][j]) for i in range(self.n) for j in range(i + 1, self.n)
                if m[i][j] == INFINITY or m[i][j] >= 3 or (i, j) in virtual]

    def adjacency(self):
        adj = {v: set() for v in range(self.n)}
        for i, j, _ in self.all_edges():
            adj[i].add(j)
            adj[j].add(i)
        return adj


def connected_extension(m: CoxeterMatrix, anchors=None) -> ConnectedExtension:
    """The Coxeter graph of m with one anchor per connected component,
    consecutive anchors joined by virtual edges (components ordered by
    their smallest vertex).

    Default anchors are the smallest vertex of each component.
    """
    adj = ConnectedExtension(m, ()).adjacency()  # the Coxeter graph alone
    comps, seen = [], set()
    for start in range(m.n):
        if start in seen:
            continue
        comp, stack = {start}, [start]
        while stack:
            for w in adj[stack.pop()] - comp:
                comp.add(w)
                stack.append(w)
        seen |= comp
        comps.append(sorted(comp))
    if anchors is None:
        anchors = [c[0] for c in comps]
    else:
        anchors = list(anchors)
        if len(anchors) != len(comps):
            raise InputError("need exactly one anchor per component")
        by_comp = []
        for c in comps:
            hits = [a for a in anchors if a in c]
            if len(hits) != 1:
                raise InputError(f"component {c} needs exactly one anchor, got {hits}")
            by_comp.append(hits[0])
        anchors = by_comp
    virtual = []
    for a, b in zip(anchors, anchors[1:]):
        virtual.append((min(a, b), max(a, b)))
    return ConnectedExtension(m, tuple(virtual))


def root_paths(ext: ConnectedExtension):
    """The path (v, ..., 0) from each vertex v to vertex 0 in one spanning
    tree of the extension: a stack search from vertex 0 that pushes the
    unseen neighbours of each popped vertex, lowest index on top, and makes
    the popped vertex their parent."""
    adj = ext.adjacency()
    paths = {0: (0,)}
    stack = [0]
    while stack:
        v = stack.pop()
        for w in sorted(adj[v], reverse=True):
            if w not in paths:
                paths[w] = (w,) + paths[v]
                stack.append(w)
    return [paths[v] for v in range(ext.n)]


def cycle_basis(ext: ConnectedExtension):
    """Fundamental cycles of the root_paths spanning tree.

    Each cycle is a closed vertex sequence (v0, v1, ..., v0).  Empty when
    the extension is a tree.
    """
    paths = root_paths(ext)
    cycles = []
    for i, j, _ in ext.all_edges():
        pi, pj = paths[i], paths[j]
        if pi[1:2] == (j,) or pj[1:2] == (i,):  # a tree edge
            continue
        common = set(pi) & set(pj)
        # lowest common ancestor = first common vertex on i's root path
        lca = next(v for v in pi if v in common)
        up = pi[: pi.index(lca) + 1]
        down = pj[: pj.index(lca)]
        cycles.append(_normalize_cycle(list(up + down[::-1])))
    return cycles


def _normalize_cycle(verts):
    """Rotate a cycle to start at its smallest vertex, oriented toward the
    smaller of that vertex's two cycle neighbors, and close it."""
    k = verts.index(min(verts))
    verts = verts[k:] + verts[:k]
    if verts[-1] < verts[1]:
        verts = [verts[0]] + verts[:0:-1]
    return tuple(verts + [verts[0]])

