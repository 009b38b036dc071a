"""Exact integer reflection representation used as an oracle for infinite
groups.

Generators s_i act on the root lattice Z^n by alpha_j -> alpha_j -
a_ij alpha_i through a generalized Cartan matrix: a_ii = 2 and, for
i < j, (a_ij, a_ji) is read off m_ij, so that a_ij a_ji = 0, 1, 2, 3, 4
for m_ij = 2, 3, 4, 6, infinity; any other label raises ValueError.  For
a finite label, s_i s_j has order m_ij on the plane of alpha_i and
alpha_j and fixes a complement of it; for an infinite label it is
unipotent of infinite order.  So this is a representation of the Coxeter
group.  An edge generator r_ij maps to the matrix of s_i s_j; telescoping
makes every path relator land on (s_i s_j)^{m_ij} = 1.
"""

from altcox.coxeter import INFINITY

# (a_ij, a_ji) for i < j by label
_CARTAN = {2: (0, 0), 3: (-1, -1), 4: (-1, -2), 6: (-1, -3), INFINITY: (-2, -2)}


def _mul(a, b):
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*b))
                 for row in a)


def _identity(n):
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


class MatrixElement:
    """An integer matrix with its inverse, giving the oracle element
    interface."""

    def __init__(self, m, inv):
        self.m, self.inv = m, inv

    def __mul__(self, other):
        return MatrixElement(_mul(self.m, other.m), _mul(other.inv, self.inv))

    def inverse(self):
        return MatrixElement(self.inv, self.m)

    def is_identity(self):
        return self.m == _identity(len(self.m))

    def __eq__(self, other):
        return self.m == other.m

    def is_unipotent(self):
        """(M - I)^n = 0, i.e. every eigenvalue is 1."""
        n = len(self.m)
        d = tuple(tuple(x - y for x, y in zip(r, e))
                  for r, e in zip(self.m, _identity(n)))
        power = d
        for _ in range(n - 1):
            power = _mul(power, d)
        return not any(any(r) for r in power)


def cartan_matrix(matrix):
    n = matrix.n
    a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            m = matrix.entry(i, j)
            if m not in _CARTAN:
                raise ValueError(f"label {m} has no integer Cartan entries")
            a[i][j], a[j][i] = _CARTAN[m]
    return a


def simple_reflections(matrix):
    a = cartan_matrix(matrix)
    n = matrix.n
    refs = []
    for i in range(n):
        # alpha_j -> alpha_j - a_ij alpha_i, so only row i differs from
        # the identity; s_i is its own inverse
        s = [list(r) for r in _identity(n)]
        for j in range(n):
            s[i][j] -= a[i][j]
        s = tuple(tuple(r) for r in s)
        refs.append(MatrixElement(s, s))
    return refs


def edge_images(matrix, emap):
    """Map each edge generator r_ij to the matrix of s_i s_j."""
    refs = simple_reflections(matrix)
    return [refs[i] * refs[j] for i, j in emap.edges]
