import json

import pytest

from altcox.coxeter import (CoxeterMatrix, MatrixError, INFINITY,
                            standard_matrix, connected_extension,
                            cycle_basis)

EXAMPLE5 = CoxeterMatrix(5, ((1, 4, 2, 2, 2),
                             (4, 1, 2, 2, 2),
                             (2, 2, 1, 3, 3),
                             (2, 2, 3, 1, 3),
                             (2, 2, 3, 3, 1)))


def test_matrix_validation():
    with pytest.raises(MatrixError):
        CoxeterMatrix(2, ((1, 3), (3, 2)))        # bad diagonal
    with pytest.raises(MatrixError):
        CoxeterMatrix(2, ((1, 3), (4, 1)))        # asymmetric
    with pytest.raises(MatrixError):
        CoxeterMatrix(2, ((1, 1), (1, 1)))        # off-diagonal < 2


def test_matrix_json_roundtrip():
    m = standard_matrix("B", 3)
    text = json.dumps({"n": m.n, "m": [list(r) for r in m.m]})
    assert CoxeterMatrix.from_json(text) == m
    text = json.dumps({"n": 2, "m": [[1, INFINITY], [INFINITY, 1]]})
    assert CoxeterMatrix.from_json(text).entry(0, 1) == INFINITY


def test_standard_matrices():
    a3 = standard_matrix("A", 3)
    assert a3.entry(0, 1) == a3.entry(1, 2) == 3 and a3.entry(0, 2) == 2
    b3 = standard_matrix("B", 3)
    assert b3.entry(0, 1) == 4 and b3.entry(1, 2) == 3 and b3.entry(0, 2) == 2
    d4 = standard_matrix("D", 4)
    assert {(i, j) for i, j, _ in connected_extension(d4).all_edges()} == \
        {(0, 2), (1, 2), (2, 3)}
    assert d4.entry(0, 1) == 2
    with pytest.raises(MatrixError):
        standard_matrix("D", 2)
    with pytest.raises(MatrixError):
        standard_matrix("E", 4)


def test_graph_edges_and_components():
    ext = connected_extension(EXAMPLE5)
    assert [e for e in ext.all_edges() if e[:2] not in ext.virtual_edges] == \
        [(0, 1, 4), (2, 3, 3), (2, 4, 3), (3, 4, 3)]
    # the components are {0, 1} and {2, 3, 4}: exactly the anchor pairs
    # with one vertex in each are accepted
    for a in range(5):
        for b in range(a + 1, 5):
            if (a < 2) == (b < 2):
                with pytest.raises(ValueError):
                    connected_extension(EXAMPLE5, (a, b))
            else:
                assert connected_extension(EXAMPLE5, (a, b)).virtual_edges == ((a, b),)


def test_connected_extension_defaults():
    ext = connected_extension(EXAMPLE5)
    assert ext.virtual_edges == ((0, 2),)
    connected = connected_extension(standard_matrix("A", 4))
    assert connected.virtual_edges == ()


def test_connected_extension_chosen_anchors():
    ext = connected_extension(EXAMPLE5, (1, 2))
    assert ext.virtual_edges == ((1, 2),)
    with pytest.raises(ValueError):
        connected_extension(EXAMPLE5, (0,))
    with pytest.raises(ValueError):
        connected_extension(EXAMPLE5, (0, 1))     # both anchors in one component


def test_three_singletons_chain():
    m = CoxeterMatrix(3, ((1, 2, 2), (2, 1, 2), (2, 2, 1)))
    ext = connected_extension(m)
    assert ext.virtual_edges == ((0, 1), (1, 2))


def test_cycle_basis():
    tree = connected_extension(standard_matrix("A", 5))
    assert cycle_basis(tree) == []
    ext = connected_extension(EXAMPLE5, (1, 2))
    assert cycle_basis(ext) == [(2, 3, 4, 2)]
    ring = CoxeterMatrix(4, ((1, 3, 2, 3), (3, 1, 3, 2),
                             (2, 3, 1, 3), (3, 2, 3, 1)))
    cycles = cycle_basis(connected_extension(ring))
    assert len(cycles) == 1 and len(cycles[0]) == 5


def test_cycle_count_matches_betti_number():
    for m in (EXAMPLE5, standard_matrix("D", 5)):
        ext = connected_extension(m)
        edges = len(ext.all_edges())
        assert len(cycle_basis(ext)) == edges - m.n + 1
