import json
import random
from fractions import Fraction as F

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_matrix, random_tree

from diminimal import (
    WeightedTreeMatrix,
    build_tree,
    delete_vertex,
    format_rational,
    make_matrix,
    matrix_from_json,
    matrix_to_dot,
    matrix_to_json,
    parse_rational,
    to_dense_float,
    trace,
)


def test_parse_rational_forms():
    assert parse_rational("3") == F(3)
    assert parse_rational("-7/2") == F(-7, 2)
    assert parse_rational(5) == F(5)
    assert parse_rational(F(1, 3)) == F(1, 3)


def test_parse_rational_rejects_floats_and_bools():
    with pytest.raises(ValueError):
        parse_rational(0.5)
    with pytest.raises(ValueError):
        parse_rational(True)
    with pytest.raises(ValueError):
        parse_rational("1.5")
    with pytest.raises(ValueError):
        parse_rational("x")


def test_format_rational():
    assert format_rational(F(3)) == "3"
    assert format_rational(F(-7, 2)) == "-7/2"
    assert parse_rational(format_rational(F(22, 7))) == F(22, 7)


def test_matrix_validation():
    t = build_tree([(0, 1)], 0)
    with pytest.raises(ValueError):
        WeightedTreeMatrix(t, (F(0),), (F(1),))  # diag too short
    with pytest.raises(ValueError):
        WeightedTreeMatrix(t, (F(0), F(0)), ())  # missing edge weight
    with pytest.raises(ValueError):
        WeightedTreeMatrix(t, (F(0), F(0)), (F(0),))  # zero weight off-tree
    with pytest.raises(ValueError):
        WeightedTreeMatrix(t, (F(0), F(0)), (F(-1),))


def test_make_matrix_accepts_both_edge_orientations():
    t = build_tree([(0, 1), (1, 2)], 0)
    a = make_matrix(t, (F(1), F(2), F(3)), {(0, 1): F(4), (1, 2): F(9)})
    b = make_matrix(t, (F(1), F(2), F(3)), {(1, 0): F(4), (2, 1): F(9)})
    assert a.sq_edge == b.sq_edge == (F(4), F(9))
    assert a.sq_weight[(0, 1)] == F(4)


def test_trace():
    t = build_tree([(0, 1), (1, 2)], 0)
    m = make_matrix(t, (F(1), F(-5, 2), F(3)), {(0, 1): F(1), (1, 2): F(1)})
    assert trace(m) == F(3, 2)


def test_delete_leaf():
    t = build_tree([(0, 1), (1, 2)], 0)
    m = make_matrix(t, (F(1), F(2), F(3)), {(0, 1): F(4), (1, 2): F(9)})
    comps = delete_vertex(m, 2)
    assert len(comps) == 1
    assert comps[0].diag == (F(1), F(2))
    assert comps[0].sq_edge == (F(4),)


def test_delete_internal_vertex():
    # star of paths: deleting the hub splits into one component per arm
    t = build_tree([(0, 1), (1, 2), (0, 3), (0, 4), (4, 5)], 0)
    diag = tuple(F(i) for i in range(6))
    w = {e: F(1) for e in t.edges}
    m = make_matrix(t, diag, w)
    comps = delete_vertex(m, 0)
    assert sorted(c.n for c in comps) == [1, 2, 2]
    # ids compact ascending, diagonal entries follow the original vertices
    sizes = {c.n: c for c in comps if c.n == 1}
    assert sizes[1].diag == (F(3),)
    pairs = sorted(c.diag for c in comps if c.n == 2)
    assert pairs == [(F(1), F(2)), (F(4), F(5))]


def test_delete_vertex_bad_id():
    t = build_tree([(0, 1)], 0)
    m = make_matrix(t, (F(0), F(0)), {(0, 1): F(1)})
    with pytest.raises(ValueError):
        delete_vertex(m, 2)


def test_delete_vertex_component_count_matches_degree():
    rng = random.Random(9)
    for _ in range(20):
        t = random_tree(rng.randint(2, 25), rng)
        m = random_matrix(t, rng)
        v = rng.randrange(t.n)
        comps = delete_vertex(m, v)
        assert len(comps) == t.degree(v)
        assert sum(c.n for c in comps) == t.n - 1


def _components_by_networkx(m, v):
    """delete_vertex's contract rebuilt in networkx: one component per
    neighbour of v (ascending), ids compacted in increasing order of the
    original ids, rooted at the former neighbour."""
    g = nx.Graph(m.tree.edges)
    g.add_nodes_from(range(m.n))
    g.remove_node(v)
    out = []
    for nb in sorted(m.tree.adjacency[v]):
        comp = sorted(nx.node_connected_component(g, nb))
        relabel = {old: new for new, old in enumerate(comp)}
        parent = [-1] * len(comp)
        for child, par in nx.bfs_predecessors(g.subgraph(comp), nb):
            parent[relabel[child]] = relabel[par]
        w = {}
        for a, b in g.subgraph(comp).edges:
            a, b = min(a, b), max(a, b)
            w[(relabel[a], relabel[b])] = m.sq_weight[(a, b)]
        out.append((tuple(parent), relabel[nb], tuple(m.diag[old] for old in comp),
                    tuple(w[e] for e in sorted(w))))
    return out


def test_delete_vertex_matches_networkx_components():
    rng = random.Random(12)
    for n in range(2, 41):
        perm = list(range(n))
        rng.shuffle(perm)
        edges = [(perm[a], perm[b]) for a, b in random_tree(n, rng).edges]
        m = random_matrix(build_tree(edges, rng.randrange(n)), rng)
        for v in range(n):
            got = [(c.tree.parent, c.tree.root, c.diag, c.sq_edge)
                   for c in delete_vertex(m, v)]
            assert got == _components_by_networkx(m, v), (n, v)


def test_to_dense_float():
    t = build_tree([(0, 1)], 0)
    m = make_matrix(t, (F(1), F(-1)), {(0, 1): F(4)})
    a = to_dense_float(m)
    assert a.shape == (2, 2)
    assert a[0, 0] == 1.0 and a[1, 1] == -1.0
    assert a[0, 1] == a[1, 0] == 2.0  # sqrt of the squared weight
    assert np.allclose(a, a.T)


def test_matrix_json_round_trip():
    rng = random.Random(10)
    t = random_tree(12, rng)
    m = random_matrix(t, rng)
    back = matrix_from_json(json.loads(json.dumps(matrix_to_json(m))))
    assert back.diag == m.diag
    assert back.sq_edge == m.sq_edge
    assert back.tree.parent == m.tree.parent


def test_matrix_json_rejects_missing_weight():
    t = build_tree([(0, 1)], 0)
    m = make_matrix(t, (F(0), F(0)), {(0, 1): F(1)})
    blob = matrix_to_json(m)
    del blob["sq_edge"][0]
    with pytest.raises(ValueError):
        matrix_from_json(blob)


def test_matrix_to_dot_labels():
    t = build_tree([(0, 1)], 0)
    m = make_matrix(t, (F(1, 2), F(0)), {(0, 1): F(9)})
    dot = matrix_to_dot(m)
    assert "1/2" in dot
    assert "9" in dot


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 20), st.integers(0, 10**6))
def test_delete_then_sizes_sum(n, seed_val):
    rng = random.Random(seed_val)
    t = random_tree(n, rng)
    m = random_matrix(t, rng)
    v = rng.randrange(n)
    comps = delete_vertex(m, v)
    assert sum(c.n for c in comps) == n - 1
    assert sum(trace(c) for c in comps) == trace(m) - m.diag[v]
