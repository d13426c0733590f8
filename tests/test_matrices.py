import ast
import json
import math
import random
from decimal import Decimal
from fractions import Fraction as F
from pathlib import Path

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    random_matrix,
    random_tree,
    reference_float_scale,
    reference_matrix_to_dot,
    reference_matrix_to_json,
    reference_to_dense_float,
    rooted_at,
)

import diminimal
from diminimal import (
    Family,
    OracleError,
    Variant,
    WeightedTreeMatrix,
    build_tree,
    compare_counts,
    count_in_interval,
    counts_at,
    counts_within,
    delete_vertex,
    diagonalize,
    find_parter_vertex,
    format_rational,
    is_parter,
    isolate_eigenvalues,
    ladder,
    make_matrix,
    matrix_from_json,
    matrix_to_dot,
    matrix_to_json,
    multiplicity,
    parse_rational,
    realize_family,
    realize_integral,
    realize_variant,
    reroot,
    seed,
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


def _refusal(build, *args):
    """The text of the ValueError that build(*args) raises."""
    with pytest.raises(ValueError) as exc:
        build(*args)
    return str(exc.value)


def test_matrix_validation():
    t = build_tree([(0, 1)], 0)
    assert (_refusal(WeightedTreeMatrix, t, (F(0),), (F(1),))
            == "diag length does not match vertex count")
    assert (_refusal(WeightedTreeMatrix, t, (F(0), F(0)), ())
            == "sq_edge length does not match edge count")
    assert (_refusal(WeightedTreeMatrix, t, (F(0), F(0)), (F(0),))
            == "squared edge weight must be positive, got 0")
    assert (_refusal(WeightedTreeMatrix, t, (F(0), F(0)), (F(-1),))
            == "squared edge weight must be positive, got -1")


def test_make_matrix_accepts_both_edge_orientations():
    t = build_tree([(0, 1), (1, 2)], 0)
    a = make_matrix(t, (F(1), F(2), F(3)), {(0, 1): F(4), (1, 2): F(9)})
    b = make_matrix(t, (F(1), F(2), F(3)), {(1, 0): F(4), (2, 1): F(9)})
    c = make_matrix(t, (F(1), F(2), F(3)), {(np.int64(1), np.int32(0)): F(4),
                                            (np.intp(1), np.uint8(2)): F(9)})
    assert a == b == c
    assert a.sq_edge == b.sq_edge == (F(4), F(9))
    # each weight is held at the child end of its edge
    assert a.rows.wn == b.rows.wn == (0, 4, 9)


def test_make_matrix_accepts_numpy_ints():
    t = build_tree([(0, 1), (1, 2)], 0)
    want = make_matrix(t, (0, -3, 0), {(0, 1): 1, (1, 2): 5})
    assert make_matrix(t, np.array([0, -3, 0]), {(0, 1): np.int64(1), (1, 2): np.uint8(5)}) == want
    assert WeightedTreeMatrix(t, np.array([0, -3, 0]), np.array([1, 5])) == want
    assert parse_rational(np.int32(-3)) == F(-3)


@pytest.mark.parametrize("value", [np.float64(0.5), np.True_])
def test_numpy_floats_and_bools_are_refused(value):
    t = build_tree([(0, 1), (1, 2)], 0)
    message = f"not a rational: {value!r}"  # np.float64(0.5), np.True_
    assert _refusal(make_matrix, t, (0, value, 0), {(0, 1): 1, (1, 2): 5}) == message
    assert _refusal(make_matrix, t, (0, 0, 0), {(0, 1): 1, (1, 2): value}) == message


# the public functions that take a rational, each called with x in one of
# its rational arguments; at x = 2 each has a result: 2 is an eigenvalue of
# multiplicity 2 of the star, and a valid anchor and shift of a realization
STAR = make_matrix(build_tree([(0, 1), (0, 2), (0, 3)], 0), (2,) * 4,
                   dict.fromkeys([(0, 1), (0, 2), (0, 3)], 3))
D3 = seed(Family.UNIFORM, 3)
ENTRY_POINTS = {
    "diagonalize": lambda x: diagonalize(STAR, x),
    "counts_at": lambda x: counts_at(STAR, x),
    "multiplicity": lambda x: multiplicity(STAR, x),
    "count_in_interval-a": lambda x: count_in_interval(STAR, x, 9),
    "count_in_interval-b": lambda x: count_in_interval(STAR, -9, x),
    "counts_within": lambda x: counts_within(STAR, x, (0, 1, 2)),
    "isolate_eigenvalues": lambda x: isolate_eigenvalues(STAR, x),
    "is_parter": lambda x: is_parter(STAR, 0, x),
    "find_parter_vertex": lambda x: find_parter_vertex(STAR, x),
    "compare_counts": lambda x: compare_counts(STAR, x),
    "ladder-alpha": lambda x: ladder(x, 34, 2),
    "ladder-beta": lambda x: ladder(0, x, 2),
    "realize_variant": lambda x: realize_variant(D3, ladder(0, 32, 2), Variant.HIGH_SHIFT, x),
    "realize_family-alpha": lambda x: realize_family(D3, x, 34),
    "realize_family-beta": lambda x: realize_family(D3, 0, x),
    "realize_integral-alpha": lambda x: realize_integral(D3, x),
    "realize_integral-beta": lambda x: realize_integral(D3, 0, x),
}


@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_entry_points_take_the_forms_and_the_refused_values_of_parse_rational(name):
    call = ENTRY_POINTS[name]
    for value in (0.5, True, np.float64(0.5), Decimal("0.5"), "0.5"):
        assert _refusal(call, value) == _refusal(parse_rational, value), value
    want = call(F(2))
    for form in (2, np.int64(2), "4/2"):
        assert call(form) == want, form


def test_no_module_of_the_package_has_an_assert_statement():
    # python -O strips asserts, so every check of the package must be code
    src = Path(diminimal.__file__).parent
    asserts = [f"{path.name}:{node.lineno}" for path in sorted(src.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.Assert)]
    assert asserts == []


# the text goes on with Python's own reason, which its versions word apart
@pytest.mark.parametrize("key", [("0", "1"), (0.0, 1.0), (0, np.float64(1)), (0, 1, 2), 1,
                                 (True, 0), (0, False)])
def test_make_matrix_keys_that_are_not_int_pairs_are_refused(key):
    t = build_tree([(0, 1), (1, 2)], 0)
    assert (_refusal(make_matrix, t, (1, 2, 3), {key: 4, (1, 2): 9})
            .startswith("sq_edge keys must be pairs of ints: "))


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
    g, sq = nx.Graph(m.tree.edges), dict(zip(m.tree.edges, m.sq_edge))
    g.add_nodes_from(range(m.n))
    neighbours = sorted(g.neighbors(v))
    g.remove_node(v)
    out = []
    for nb in neighbours:
        comp = sorted(nx.node_connected_component(g, nb))
        relabel = {old: new for new, old in enumerate(comp)}
        parent = [-1] * len(comp)
        for child, par in nx.bfs_predecessors(g.subgraph(comp), nb):
            parent[relabel[child]] = relabel[par]
        w = {}
        for a, b in g.subgraph(comp).edges:
            a, b = min(a, b), max(a, b)
            w[(relabel[a], relabel[b])] = sq[(a, b)]
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


def _components_by_edge_scan(m, v):
    """delete_vertex as it was built before it read the rerooted rows:
    per component, a scan of every edge and make_matrix on the Fractions."""
    t = reroot(m.tree, v)
    out = []
    for nb in t.children[v]:
        comp = t.subtree(nb)
        relabel = {old: new for new, old in enumerate(comp)}
        w = {}
        for (a, b), x in zip(m.tree.edges, m.sq_edge):
            if a in relabel and b in relabel:
                w[relabel[a], relabel[b]] = x
        diag = tuple(m.diag[old] for old in comp)
        out.append(make_matrix(build_tree(w.keys(), relabel[nb]), diag, w))
    return out


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 60), st.integers(0, 10**6))
def test_delete_vertex_equals_the_edge_scan(n, seed_val):
    # same components, trees, ids and int rows, on random trees rooted
    # anywhere, with entries up to 10^+-300
    rng = random.Random(seed_val)
    t = reroot(random_tree(n, rng), rng.randrange(n))
    m = random_matrix(t, rng)
    c = F(10) ** rng.choice((-300, 0, 300))
    m = WeightedTreeMatrix(t, [q * c for q in m.diag], [w * c for w in m.sq_edge])
    for v in {rng.randrange(n), t.root, max(range(n), key=t.degree)}:
        got, want = delete_vertex(m, v), _components_by_edge_scan(m, v)
        assert [(g.tree, g.rows) for g in got] == [(w.tree, w.rows) for w in want]
        assert [(g.diag, g.sq_edge) for g in got] == [(w.diag, w.sq_edge) for w in want]


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


def _base_blob():
    return {"tree": {"n": 3, "root": 0, "edges": [[0, 1], [1, 2]]},
            "diag": ["1", "2", "3"],
            "sq_edge": [{"u": 0, "v": 1, "w2": "4"}, {"u": 1, "v": 2, "w2": "9"}]}


def _entry(u, v, w2):
    return {"u": u, "v": v, "w2": w2}


# (change to the base blob, error text): matrix_from_json reports an sq_edge
# entry listed twice or missing a field, then the first entry it cannot read
# (diag first), then a missing edge, an edge not in the tree, the diag length
# and a non-positive weight, in that order
JSON_ERRORS = [
    (lambda b: b["diag"].__setitem__(0, 0.5), "not a rational: 0.5"),
    (lambda b: b["diag"].__setitem__(0, "1.5"), "invalid literal for int() with base 10: '1.5'"),
    (lambda b: b["sq_edge"][0].__setitem__("w2", "1/0"), "zero denominator in '1/0'"),
    (lambda b: b["sq_edge"][0].__setitem__("w2", True), "booleans are not rationals"),
    (lambda b: b["sq_edge"].append(_entry(1, 0, "4")), "edge (1, 0) is listed twice in sq_edge"),
    (lambda b: b["sq_edge"].extend([_entry(0, 2, "1"), _entry(2, 0, "1")]),
     "edge (2, 0) is listed twice in sq_edge"),
    (lambda b: b["sq_edge"].pop(1), "missing squared weight for edge (1, 2)"),
    (lambda b: b["sq_edge"].__setitem__(1, _entry(7, 1, "1")),
     "missing squared weight for edge (1, 2)"),
    (lambda b: b["sq_edge"].append(_entry(-1, 0, "1")),
     "squared-weight mapping mentions edges not in the tree"),
    (lambda b: b["sq_edge"].extend([_entry(0, 2, "1"), _entry(5, 6, "x")]),
     "invalid literal for int() with base 10: 'x'"),
    (lambda b: b["sq_edge"][0].__setitem__("w2", "0"), "squared edge weight must be positive, got 0"),
    (lambda b: b["sq_edge"][1].__setitem__("w2", "4/-2"),
     "squared edge weight must be positive, got -2"),
    (lambda b: [b["sq_edge"].reverse(), b["sq_edge"][0].__setitem__("w2", "-1"),
                b["sq_edge"][1].__setitem__("w2", "-3/6")],
     "squared edge weight must be positive, got -1/2"),
    (lambda b: [b["diag"].pop(), b["sq_edge"].pop()], "missing squared weight for edge (1, 2)"),
    (lambda b: [b["diag"].pop(), b["sq_edge"][0].__setitem__("w2", "-1")],
     "diag length does not match vertex count"),
    (lambda b: b["sq_edge"][0].pop("w2"), "malformed matrix object: 'w2'"),
    (lambda b: [b["diag"].__setitem__(0, "1.5"), b["sq_edge"].append(_entry(2, 1, "9"))],
     "edge (2, 1) is listed twice in sq_edge"),
    (lambda b: [b["diag"].__setitem__(0, "1.5"), b["sq_edge"][1].pop("u")],
     "malformed matrix object: 'u'"),
]


@pytest.mark.parametrize("change,message", JSON_ERRORS)
def test_matrix_json_error_texts(change, message):
    blob = _base_blob()
    change(blob)
    with pytest.raises(ValueError) as exc:
        matrix_from_json(blob)
    assert str(exc.value) == message


BY_ALL = ("matrix_from_json", "make_matrix", "WeightedTreeMatrix")
BY_KEYS = BY_ALL[:2]  # WeightedTreeMatrix takes no keys, one weight per edge

# (the constructors that can express the fault, diag, sq_edge entries in
# order, error text) on the tree of _base_blob: the three constructors read
# through one reader, so a fault has one text
SHARED_ERRORS = [
    (BY_KEYS, ["1", "2", "3"], [((0, 1), "4"), ((1, 2), "9"), ((1, 0), "4")],
     "edge (1, 0) is listed twice in sq_edge"),
    (BY_KEYS, ["1", "2", "3"], [((0, 1), "4")], "missing squared weight for edge (1, 2)"),
    (BY_KEYS, ["1", "2", "3"], [((0, 1), "4"), ((1, 2), "9"), ((0, 2), "1")],
     "squared-weight mapping mentions edges not in the tree"),
    (BY_ALL, ["1", "2"], [((0, 1), "4"), ((1, 2), "9")],
     "diag length does not match vertex count"),
    (BY_ALL, ["1", "2", "3"], [((0, 1), "4"), ((1, 2), 0.5)], "not a rational: 0.5"),
    (BY_ALL, ["1", "2", "3"], [((0, 1), "4"), ((1, 2), "9/x")],
     "invalid literal for int() with base 10: 'x'"),
    (BY_ALL, ["1", "2", "3"], [((0, 1), "-4/2"), ((1, 2), "9")],
     "squared edge weight must be positive, got -2"),
]


@pytest.mark.parametrize("names,diag,entries,message", SHARED_ERRORS)
def test_the_constructors_share_error_texts(names, diag, entries, message):
    blob = _base_blob()
    blob["diag"], blob["sq_edge"] = diag, [_entry(u, v, w2) for (u, v), w2 in entries]
    t = build_tree(blob["tree"]["edges"], blob["tree"]["root"])
    build = {"matrix_from_json": lambda: matrix_from_json(blob),
             "make_matrix": lambda: make_matrix(t, diag, dict(entries)),
             "WeightedTreeMatrix": lambda: WeightedTreeMatrix(t, diag, [w2 for _, w2 in entries])}
    for name in names:
        assert _refusal(build[name]) == message, name


# of two faulty sq_edge entries, an edge listed twice and an entry missing
# a field, the first one in the list is reported
@pytest.mark.parametrize("extra,message", [
    ([_entry(1, 0, "4"), {"v": 2, "w2": "1"}], "edge (1, 0) is listed twice in sq_edge"),
    ([{"v": 2, "w2": "1"}, _entry(1, 0, "4")], "malformed matrix object: 'u'"),
])
def test_error_texts_of_two_faulty_entries_follow_the_list(extra, message):
    blob = _base_blob()
    blob["sq_edge"] += extra
    assert _refusal(matrix_from_json, blob) == message


def test_matrix_json_reads_reduced_pairs():
    blob = _base_blob()
    blob["diag"][0], blob["sq_edge"][1]["w2"] = " -6/4 ", "18/4"
    m = matrix_from_json(blob)
    assert m.rows[2:6] == ((-3, 2, 3), (2, 1, 1), (0, 4, 9), (1, 1, 2))
    assert m == make_matrix(m.tree, (F(-3, 2), 2, 3), {(0, 1): 4, (1, 2): F(9, 2)})


def _from_fractions(m):
    return WeightedTreeMatrix(m.tree, tuple(m.diag), tuple(m.sq_edge))


def _from_arrays(m):
    return WeightedTreeMatrix.from_arrays(m.tree, *(list(x) for x in m.rows[2:6]))


def _assert_n_rows(m):
    """The n-row form that the kernel's callers rely on: the tree's postorder
    and parents, no further parent rows, every copy 1."""
    r = m.rows
    assert (tuple(r.order), tuple(r.parent)) == (m.tree.order, m.tree.parent)
    assert list(r.extra) == [()] * m.n and list(r.copies) == [1] * m.n


def test_both_constructors_give_equal_matrices():
    rng = random.Random(21)
    for _ in range(30):
        t = random_tree(rng.randint(1, 20), rng)
        m = random_matrix(t, rng)
        same = [_from_fractions(m), make_matrix(t, m.diag, dict(zip(t.edges, m.sq_edge))),
                _from_arrays(m), matrix_from_json(json.loads(json.dumps(matrix_to_json(m))))]
        for b in same:
            assert b == m and hash(b) == hash(m)
            assert b.diag == m.diag and b.sq_edge == m.sq_edge
        # every way to a matrix holds the n-row form
        v = rng.randrange(t.n)
        for b in (m, *same, m.rerooted(reroot(t, v)), *delete_vertex(m, v)):
            _assert_n_rows(b)
        # a changed entry breaks equality either way
        if t.n > 1:
            a = m.rows
            dn = list(a.dn)
            dn[0] += 1
            other = WeightedTreeMatrix.from_arrays(t, dn, list(a.dd), list(a.wn), list(a.wd))
            assert other != m
    # a constructed matrix, built on a rooting at its construction root
    t = seed(Family.UNIFORM, 7)
    t = reroot(t, t.n - 1)
    cert = realize_family(t, 0, 32)
    assert cert.construction_root != t.root
    m = cert.matrix
    assert m.tree is t
    rebuilt = _from_fractions(m)
    assert rebuilt == m and hash(rebuilt) == hash(m)
    assert rebuilt.rows == m.rows
    _assert_n_rows(m)


def test_views_are_tuples_of_fractions():
    m = realize_family(seed(Family.UNIFORM, 5), F(-1, 3), 2).matrix
    entries = m.diag + m.sq_edge
    assert isinstance(entries, tuple) and len(entries) == 2 * m.n - 1
    assert all(type(q) is F for q in entries)


def test_rerooted_moves_the_path_weights():
    # every rooting of the matrix's own tree, which is rooted anywhere
    rng = random.Random(22)
    for _ in range(20):
        t = random_tree(rng.randint(1, 15), rng)
        m = random_matrix(reroot(t, rng.randrange(t.n)), rng)
        # the matrix's own tree object gives the matrix itself
        assert m.rerooted(m.tree) is m
        for r in range(t.n):
            moved = m.rerooted(reroot(m.tree, r))
            assert moved == rooted_at(m, r)
            assert moved.sq_edge == m.sq_edge


def test_rerooted_refuses_a_tree_that_is_not_its_own():
    m = WeightedTreeMatrix(build_tree([(0, 1), (1, 2), (2, 3)], 0), [F(1)] * 4, [F(2), F(3), F(5)])
    text = "^the tree is not this matrix's tree rooted elsewhere$"
    # the star on the path's ids, and a tree with one vertex more, at every root
    star, five = ([(0, 1), (0, 2), (0, 3)], 4), ([(0, 1), (1, 2), (2, 3), (3, 4)], 5)
    for edges, n in (star, five):
        for r in range(n):
            with pytest.raises(ValueError, match=text):
                m.rerooted(build_tree(edges, r))


def test_from_arrays_wrong_length_refused():
    t = build_tree([(0, 1), (1, 2)], 0)
    with pytest.raises(ValueError, match="^kernel arrays do not match the vertex count 3$"):
        WeightedTreeMatrix.from_arrays(t, [1, 2], [1, 1], [0, 1, 1], [1, 1, 1])
    with pytest.raises(ValueError, match="^kernel arrays do not match the vertex count 3$"):
        WeightedTreeMatrix.from_arrays(t, [1, 2, 3], [1, 1, 1], [0, 1, 1], [1, 1, 1, 1])


def test_from_arrays_weight_not_positive_refused():
    t = build_tree([(0, 1), (1, 2)], 0)
    for bad in (0, -4):
        with pytest.raises(ValueError, match=f"^squared edge weight must be positive, got {bad}$"):
            WeightedTreeMatrix.from_arrays(t, [1, 2, 3], [1, 1, 1], [0, 1, bad], [1, 1, 1])
    # the root has no weight, so its entry is not read
    m = WeightedTreeMatrix.from_arrays(t, [1, 2, 3], [1, 1, 1], [-5, 1, 1], [7, 1, 1])
    assert m.rows.wn[0] == 0 and m.rows.wd[0] == 1


def test_from_arrays_denominator_not_positive_refused():
    t = build_tree([(0, 1), (1, 2)], 0)
    for wd, dd in (([1, 0, 1], [1, 1, 1]), ([1, 1, -2], [1, 1, 1]), ([1, 1, 1], [1, 0, 1])):
        with pytest.raises(ValueError, match="^denominators must be positive$"):
            WeightedTreeMatrix.from_arrays(t, [1, 2, 3], dd, [0, 1, 1], wd)


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


# ------------------------------------------------- int pairs in, text out
#
# The writers and the float expansion read the int pairs of `rows` as they
# are, so every matrix the package builds must hold reduced pairs with
# positive denominators, and the output must equal the Fraction-view
# references of tests/helpers.py.


def assert_reduced_pairs(m):
    a = m.rows
    for p, q in [*zip(a.dn, a.dd), *zip(a.wn, a.wd)]:
        assert q > 0 and math.gcd(p, q) == 1, (p, q)


def test_every_matrix_the_package_builds_holds_reduced_pairs():
    t = build_tree([(0, 1), (1, 2), (1, 3)], 0)
    raw = (" -6/4 ", 4, F(10, 4), "3/-9"), {(1, 0): "18/4", (1, 2): F(8, 12), (3, 1): "-4/-2"}
    m = make_matrix(t, *raw)
    blob = _base_blob()
    blob["diag"], blob["sq_edge"][1]["w2"] = ["0/5", "-12/8", "7/1"], "100/20"
    built = [m, matrix_from_json(blob), m.rerooted(reroot(t, 2)), *delete_vertex(m, 1)]
    for fam, d in ((Family.UNIFORM, 6), (Family.SHORT_CORE, 7), (Family.MIXED, 9)):
        c = realize_family(seed(fam, d), F(-7, 3), F(11, 3))
        built += [c.matrix, realize_integral(seed(fam, d), -2).matrix,
                  *delete_vertex(c.matrix, c.construction_root)]
        v = c.matrix.n - 1
        built.append(c.matrix.rerooted(reroot(c.matrix.tree, v)))
    for b in built:
        assert_reduced_pairs(b)


BIG = 10 ** 700  # beyond floats, and its square root too


@st.composite
def matrices(draw):
    """Small matrices with entries from a few units up to beyond the float
    range, in reduced and unreduced form."""
    n = draw(st.integers(1, 9))
    t = build_tree([(draw(st.integers(0, i - 1)), i) for i in range(1, n)],
                   draw(st.integers(0, n - 1)))
    nums = st.one_of(st.integers(-40, 40), st.integers(-2 ** 1100, 2 ** 1100), st.just(BIG))
    dens = st.one_of(st.integers(1, 12), st.integers(1, 2 ** 1100))
    diag = [F(draw(nums), draw(dens)) for _ in range(n)]
    w2 = {e: F(abs(draw(nums)) or 1, draw(dens)) for e in t.edges}
    return make_matrix(t, diag, w2)


def outcome(f, m):
    """f(m), or the type and text of the error it raises."""
    try:
        return f(m)
    except (OverflowError, OracleError) as exc:
        return type(exc), str(exc)


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_the_int_pair_writers_equal_the_fraction_views(m):
    fresh = lambda: WeightedTreeMatrix.from_arrays(m.tree, *m.rows[2:6])  # noqa: E731
    text = json.dumps(matrix_to_json(fresh()), sort_keys=True, separators=(",", ":"))
    assert text == json.dumps(reference_matrix_to_json(m), sort_keys=True, separators=(",", ":"))
    assert matrix_from_json(json.loads(text)) == m
    assert matrix_to_dot(fresh()) == reference_matrix_to_dot(m)
    dense, ref = outcome(to_dense_float, fresh()), outcome(reference_to_dense_float, m)
    if isinstance(ref, np.ndarray):
        assert dense.tobytes() == ref.tobytes()
    else:
        assert dense == ref
    scale = outcome(lambda b: b.float_scale, fresh())
    ref = outcome(reference_float_scale, m)
    assert scale == ref
    if type(ref) is tuple:
        with pytest.raises(OracleError) as exc:
            compare_counts(fresh(), F(0))
        assert str(exc.value) == f"float expansion overflows: {ref[1]}"


def test_a_weight_beyond_floats_has_no_dot_note_and_an_oracle_error():
    t = build_tree([(0, 1), (1, 2)], 0)
    m = make_matrix(t, (1, 2, 3), {(0, 1): BIG, (1, 2): 4})
    dot = matrix_to_dot(m)
    assert dot == reference_matrix_to_dot(m)
    assert f'  0 -- 1 [label="w2={BIG}"];\n' in dot
    assert '  1 -- 2 [label="w2=4"];  // weight ~ 2\n' in dot
    (_, text) = outcome(reference_float_scale, m)
    with pytest.raises(OracleError) as exc:
        compare_counts(m, F(1))
    assert str(exc.value) == f"float expansion overflows: {text}"
