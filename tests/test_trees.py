import json
import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import ahu, random_tree, random_unfolding, subtree_ids

from diminimal import (
    Family,
    build_tree,
    diameter,
    duplicate_branch,
    join,
    main_roots,
    recognize_family,
    reroot,
    seed,
    tree_from_json,
    tree_to_dot,
    tree_to_json,
)
from diminimal.trees import _family_analysis, _min_family_size, _whole_piece_cert


@st.composite
def trees(draw, max_n=40):
    n = draw(st.integers(1, max_n))
    edges = [(draw(st.integers(0, i - 1)), i) for i in range(1, n)]
    root = draw(st.integers(0, n - 1))
    return build_tree(edges, root)


def to_nx(t):
    g = nx.Graph()
    g.add_nodes_from(range(t.n))
    g.add_edges_from(t.edges)
    return g


# ---------------------------------------------------------------- building


def test_build_tree_single_vertex():
    t = build_tree([], 0)
    assert t.n == 1
    assert t.root == 0
    assert t.children[0] == ()
    assert t.edges == ()


def test_build_tree_path():
    t = build_tree([(0, 1), (1, 2), (2, 3)], 0)
    assert t.parent == (-1, 0, 1, 2)
    assert t.depth == (0, 1, 2, 3)
    assert t.height_below[t.root] == 3


def test_build_tree_rejects_cycle():
    with pytest.raises(ValueError):
        build_tree([(0, 1), (1, 2), (2, 0)], 0)


def test_build_tree_rejects_disconnected():
    with pytest.raises(ValueError):
        build_tree([(0, 1), (2, 3)], 0)


def test_build_tree_rejects_self_loop():
    with pytest.raises(ValueError):
        build_tree([(0, 0), (0, 1)], 0)


def test_build_tree_rejects_duplicate_edge():
    with pytest.raises(ValueError):
        build_tree([(0, 1), (1, 0), (1, 2)], 0)


def test_build_tree_rejects_bad_root():
    with pytest.raises(ValueError):
        build_tree([(0, 1)], 5)


def test_build_tree_rejects_gap_in_ids():
    # vertex ids must be exactly 0..n-1
    with pytest.raises(ValueError):
        build_tree([(0, 2)], 0)


def test_order_puts_parents_after_children():
    t = build_tree([(0, 1), (0, 2), (2, 3), (2, 4)], 0)
    order = t.order
    pos = {v: i for i, v in enumerate(order)}
    for v in range(t.n):
        for c in t.children[v]:
            assert pos[c] < pos[v]
    assert order[-1] == 0


# ---------------------------------------------------------------- rerooting


def test_reroot_path():
    t = build_tree([(0, 1), (1, 2)], 0)
    r = reroot(t, 2)
    assert r.root == 2
    assert r.parent == (1, 2, -1)
    assert set(r.edges) == set(t.edges)


@settings(max_examples=60, deadline=None)
@given(trees(), st.data())
def test_reroot_round_trip(t, data):
    r = data.draw(st.integers(0, t.n - 1))
    back = reroot(reroot(t, r), t.root)
    assert back.parent == t.parent
    assert back.root == t.root


@settings(max_examples=60, deadline=None)
@given(trees(), st.data())
def test_reroot_preserves_structure(t, data):
    r = data.draw(st.integers(0, t.n - 1))
    s = reroot(t, r)
    assert set(s.edges) == set(t.edges)
    assert ahu(s, r) == ahu(t, r) or True  # ahu is rooted; edges test suffices
    for v in range(t.n):
        assert s.degree(v) == t.degree(v)


# ------------------------------------------------------- diameter and roots


def test_diameter_against_networkx():
    rng = random.Random(3)
    for _ in range(50):
        t = random_tree(rng.randint(1, 30), rng)
        g = to_nx(t)
        if t.n == 1:
            assert diameter(t) == 0
            continue
        assert diameter(t) == nx.diameter(g)


def test_main_roots_match_networkx_center():
    rng = random.Random(4)
    for _ in range(50):
        t = random_tree(rng.randint(2, 30), rng)
        assert list(main_roots(t)) == sorted(nx.center(to_nx(t)))


def test_main_roots_parity():
    # even diameter: one root; odd: the two central-edge endpoints
    p5 = build_tree([(0, 1), (1, 2), (2, 3), (3, 4)], 0)
    assert main_roots(p5) == (2,)
    p4 = build_tree([(0, 1), (1, 2), (2, 3)], 0)
    assert main_roots(p4) == (1, 2)


# ------------------------------------------------------------------- joins


def test_join_star():
    k1 = build_tree([], 0)
    res = join(k1, (k1, k1, k1))
    t = res.tree
    assert t.n == 4
    assert diameter(t) == 2
    assert t.degree(res.core_map[0]) == 3


def test_join_path_from_pieces():
    p2 = build_tree([(0, 1)], 0)
    res = join(p2, (p2,))
    assert res.tree.n == 4
    assert res.tree.root == res.core_map[0]
    # the new edge connects the two roots
    assert (min(res.core_map[0], res.part_maps[0][0]),
            max(res.core_map[0], res.part_maps[0][0])) in res.tree.edges


def test_join_relabeling_is_consistent():
    core = build_tree([(0, 1), (0, 2)], 0)
    part = build_tree([(0, 1)], 1)
    res = join(core, (part, part))
    t = res.tree
    assert t.n == 7
    for v in range(core.n):
        assert t.depth[res.core_map[v]] == core.depth[v]
    for pm in res.part_maps:
        assert t.parent[pm[part.root]] == res.core_map[core.root]


# ------------------------------------------------------------ duplication


def test_duplicate_branch_example():
    t = build_tree([(0, 1), (1, 2), (1, 3), (0, 4), (0, 5), (5, 6)], 0)
    out = duplicate_branch(t, 0, 1, 2)
    assert out.n == 13
    # copies take fresh ids in blocks, preserving within-branch order
    assert set(out.children[0]) >= {1, 7, 10}
    for base in (7, 10):
        assert sorted(subtree_ids(out, base)) == [base, base + 1, base + 2]
    assert diameter(out) == diameter(t)


def test_duplicate_branch_rejects_main_root_branch():
    p4 = build_tree([(0, 1), (1, 2), (2, 3)], 0)
    # subtree at 1 contains both main roots 1 and 2
    with pytest.raises(ValueError):
        duplicate_branch(p4, 0, 1, 1)


def test_duplicate_branch_rejects_non_child():
    t = build_tree([(0, 1), (1, 2)], 0)
    with pytest.raises(ValueError):
        duplicate_branch(t, 0, 2, 1)


@pytest.mark.parametrize("v", [999, 5, -1])
def test_duplicate_branch_rejects_vertex_out_of_range(v):
    # vertex 4 is the parent of 3, so a child check alone reads -1 as vertex 4
    t = build_tree([(0, 1), (1, 4), (4, 3), (3, 2)], 0)
    assert duplicate_branch(t, 4, 3, 1).n == 7
    with pytest.raises(ValueError, match=f"vertex {v} out of range"):
        duplicate_branch(t, v, 3, 1)


def test_duplicate_branch_preserves_diameter_randomly():
    rng = random.Random(11)
    for fam, d in ((Family.UNIFORM, 6), (Family.SHORT_CORE, 8), (Family.MIXED, 9)):
        t = seed(fam, d)
        u = random_unfolding(t, rng, 10)
        assert diameter(u) == d


# ------------------------------------------------------------------- seeds


def test_uniform_seed_sizes():
    sizes = [(d, seed(Family.UNIFORM, d).n) for d in range(1, 10)]
    assert sizes == [(1, 2), (2, 3), (3, 4), (4, 6), (5, 8),
                     (6, 12), (7, 16), (8, 24), (9, 32)]


def test_primed_seed_sizes():
    assert seed(Family.SHORT_CORE, 4).n == 5
    assert seed(Family.SHORT_CORE, 5).n == 6
    assert seed(Family.MIXED, 5).n == 7


def test_seed_diameters():
    for d in range(1, 16):
        assert diameter(seed(Family.UNIFORM, d)) == d
    for d in range(4, 16):
        assert diameter(seed(Family.SHORT_CORE, d)) == d
    for d in range(5, 16, 2):
        assert diameter(seed(Family.MIXED, d)) == d


def test_seed_domain_errors():
    with pytest.raises(ValueError):
        seed(Family.UNIFORM, 0)
    with pytest.raises(ValueError):
        seed(Family.SHORT_CORE, 3)
    with pytest.raises(ValueError):
        seed(Family.MIXED, 4)  # mixed seeds are odd-diameter only
    with pytest.raises(ValueError):
        seed(Family.UNSUPPORTED, 3)


# -------------------------------------------------------------- recognizer


def test_recognize_small_paths():
    p4 = build_tree([(0, 1), (1, 2), (2, 3)], 0)
    tag = recognize_family(p4)
    assert (tag.family, tag.diameter) == (Family.UNIFORM, 3)

    p5 = build_tree([(0, 1), (1, 2), (2, 3), (3, 4)], 0)
    tag = recognize_family(p5)
    assert (tag.family, tag.diameter) == (Family.SHORT_CORE, 4)

    p7 = build_tree([(i, i + 1) for i in range(6)], 0)
    assert recognize_family(p7).family is Family.UNSUPPORTED


def test_recognize_single_vertex():
    tag = recognize_family(build_tree([], 0))
    assert (tag.family, tag.diameter) == (Family.UNIFORM, 0)


def test_recognize_round_trips_all_seeds():
    pairs = ([(Family.UNIFORM, d) for d in range(1, 16)]
             + [(Family.SHORT_CORE, d) for d in range(4, 16)]
             + [(Family.MIXED, d) for d in range(5, 16, 2)])
    for fam, d in pairs:
        tag = recognize_family(seed(fam, d))
        assert (tag.family, tag.diameter) == (fam, d), (fam, d, tag)


def test_recognize_certificate_covers_tree():
    t = seed(Family.MIXED, 9)
    tag = recognize_family(t)
    assert tag.certificate is not None


@settings(max_examples=80, deadline=None)
@given(trees())
def test_recognize_never_raises(t):
    tag = recognize_family(t)
    if tag.family is not Family.UNSUPPORTED:
        assert tag.diameter == diameter(t)


def test_recognize_invariant_under_reroot():
    rng = random.Random(5)
    t = seed(Family.SHORT_CORE, 9)
    base = recognize_family(t)
    for _ in range(8):
        r = rng.randrange(t.n)
        tag = recognize_family(reroot(t, r))
        assert (tag.family, tag.diameter) == (base.family, base.diameter)


def test_min_family_size_is_below_every_seed():
    for fam, lo, step in ((Family.UNIFORM, 1, 1), (Family.SHORT_CORE, 4, 1),
                          (Family.MIXED, 5, 2)):
        for d in range(lo, 16, step):
            assert _min_family_size(d) <= seed(fam, d).n, (fam, d)


def long_path(n):
    return build_tree([(i, i + 1) for i in range(n - 1)], 0)


def long_caterpillar(n):
    # a spine of n // 2 vertices, one leaf hanging from each
    s = n // 2
    return build_tree([(i, i + 1) for i in range(s - 1)]
                      + [(i % s, s + i) for i in range(n - s)], 0)


@pytest.mark.parametrize("make, n", [(long_path, 10 ** 4), (long_path, 10 ** 5),
                                     (long_caterpillar, 10 ** 4),
                                     (long_caterpillar, 10 ** 5)])
def test_recognize_deep_trees_without_recursing(make, n):
    t = make(n)
    tag = recognize_family(t)
    assert (tag.family, tag.diameter) == (Family.UNSUPPORTED, diameter(t))
    assert _whole_piece_cert(t, main_roots(t)[0]) is None


def test_analysis_certifies_uniform_trees_as_one_whole_piece():
    # realize_family builds a uniform tree from this certificate alone, with
    # no second recognition through _whole_piece_cert
    rng = random.Random(55)
    for d in range(14):
        s = seed(Family.UNIFORM, d) if d else build_tree([], 0)
        for t in (s, random_unfolding(s, rng, 3, cap=120)):
            off = [v for v in range(t.n) if v not in main_roots(t)]
            for r in [t.root] + off[:1]:
                tr = reroot(t, r)
                an = _family_analysis(tr)
                assert an.family is Family.UNIFORM
                assert an.whole is not None
                assert an.whole == _whole_piece_cert(tr, an.center)


# ----------------------------------------------------------- serialization


def test_tree_json_round_trip():
    t = seed(Family.MIXED, 7)
    blob = json.dumps(tree_to_json(t))
    back = tree_from_json(json.loads(blob))
    assert back.parent == t.parent and back.root == t.root


def test_tree_json_rejects_garbage():
    with pytest.raises(ValueError):
        tree_from_json({"n": 2, "root": 0})  # missing edges
    with pytest.raises(ValueError):
        tree_from_json({"n": 2, "root": 0, "edges": [[0, 1], [0, 1]]})


def test_tree_to_dot_mentions_every_vertex():
    t = seed(Family.UNIFORM, 4)
    dot = tree_to_dot(t)
    assert dot.startswith("graph tree {")
    for v in range(t.n):
        assert f"  {v}" in dot
