import hashlib
import json
import random

import networkx as nx
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import random_unfolding, reference_piece, subtree_ids

from diminimal import (
    Family,
    RootedTree,
    build_tree,
    diameter,
    duplicate_branch,
    join,
    main_roots,
    recognize_family,
    reroot,
    seed,
    tree_from_json,
    tree_to_json,
)
import diminimal.trees
from diminimal.trees import MAX_VERTICES, _family_analysis, _seed_halves, _whole_piece_cert


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


def shuffled_trees(seed, count=40, max_n=300):
    """Random trees on up to max_n vertices, half of them on up to 30, with
    permuted ids and a random root: recursive trees, and trees whose vertices
    attach to one of the last three, which have long paths."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, rng.choice((30, max_n)))
        ids = rng.sample(range(n), n)
        reach = rng.choice((n, 3))
        edges = [(ids[rng.randrange(max(0, i - reach), i)], ids[i]) for i in range(1, n)]
        yield build_tree(edges, rng.randrange(n))


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


@pytest.mark.parametrize("parent", [
    (-1, 5),         # a parent id out of range
    (-1, -1),        # a second root
    (-1, 2, 1),      # a cycle away from the root
    (-1, -3),        # an id below -1
    (-1, 0, 3, 2),   # a cycle beside a valid branch
])
def test_rooted_tree_refuses_parent_arrays_that_are_not_trees(parent):
    with pytest.raises(ValueError, match="not a tree"):
        RootedTree(parent, 0)


@pytest.mark.parametrize("root", [2, -1])
def test_a_root_out_of_range_is_refused(root):
    with pytest.raises(ValueError, match=f"^root {root} out of range for 2 vertices$"):
        RootedTree((-1, 0), root)


def test_a_root_with_a_parent_is_refused():
    with pytest.raises(ValueError, match="^root must have parent -1$"):
        RootedTree((-1, 0), 1)


@pytest.mark.parametrize("root", [3, -1])
def test_a_reroot_out_of_range_is_refused(root):
    with pytest.raises(ValueError, match=f"^root {root} out of range for 3 vertices$"):
        reroot(build_tree([(0, 1), (1, 2)], 0), root)


def test_order_puts_parents_after_children():
    t = build_tree([(0, 1), (0, 2), (2, 3), (2, 4)], 0)
    order = t.order
    pos = {v: i for i, v in enumerate(order)}
    for v in range(t.n):
        for c in t.children[v]:
            assert pos[c] < pos[v]
    assert order[-1] == 0

    def postorder(kids, v):
        for c in sorted(kids[v]):
            yield from postorder(kids, c)
        yield v

    for t in shuffled_trees(5):
        kids = {v: [] for v in range(t.n)}
        for c, p in enumerate(t.parent):
            if p >= 0:
                kids[p].append(c)
        assert t.order == tuple(postorder(kids, t.root))
        assert t.pos == tuple(t.order.index(v) for v in range(t.n))
        for v in range(t.n):
            assert t.block(v) == tuple(postorder(kids, v))


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
    assert s.parent == build_tree(t.edges, r).parent
    for v in range(t.n):
        assert s.degree(v) == t.degree(v)


# ------------------------------------------------------- diameter and roots


def test_diameter_against_networkx():
    for t in [build_tree([], 0), *shuffled_trees(3)]:
        g = to_nx(t)
        assert diameter(t) == nx.diameter(g)
        for v in range(t.n):
            assert t.degree(v) == g.degree(v)


def test_main_roots_match_networkx_center():
    for t in [build_tree([], 0), *shuffled_trees(4)]:
        g = to_nx(t)
        assert list(main_roots(t)) == sorted(nx.center(g))
        below = nx.bfs_tree(g, t.root)
        for v in range(t.n):
            assert t.subtree(v) == tuple(sorted(nx.descendants(below, v) | {v}))


def test_main_roots_parity():
    # even diameter: one root; odd: the two central-edge endpoints
    p5 = build_tree([(0, 1), (1, 2), (2, 3), (3, 4)], 0)
    assert main_roots(p5) == (2,)
    p4 = build_tree([(0, 1), (1, 2), (2, 3)], 0)
    assert main_roots(p4) == (1, 2)


# ------------------------------------------------------------------- joins


def test_join_star():
    k1 = build_tree([], 0)
    t = join(k1, (k1, k1, k1))
    assert t.n == 4
    assert diameter(t) == 2
    assert t.degree(k1.pos[0]) == 3


def test_a_join_without_parts_is_refused():
    with pytest.raises(ValueError, match="^join needs at least one part$"):
        join(build_tree([(0, 1)], 0), [])


def test_join_path_from_pieces():
    p2 = build_tree([(0, 1)], 0)
    t = join(p2, (p2,))
    assert t.n == 4
    assert t.root == p2.pos[0]
    # the new edge connects the two roots
    core_root, part_root = p2.pos[0], p2.n + p2.pos[0]
    assert (min(core_root, part_root), max(core_root, part_root)) in t.edges


def test_join_relabeling_is_consistent():
    # core vertex v becomes core.pos[v]; vertex v of a part, offset + part.pos[v]
    core = build_tree([(0, 1), (0, 2)], 0)
    part = build_tree([(0, 1)], 1)
    t = join(core, (part, part))
    assert t.n == 7
    for v in range(core.n):
        assert t.depth[core.pos[v]] == core.depth[v]
    for offset in (core.n, core.n + part.n):
        assert t.parent[offset + part.pos[part.root]] == core.pos[core.root]
    # rerooted random cores and parts against build_tree on the relabelled edges
    rng = random.Random(23)
    pool = [reroot(s, rng.randrange(s.n)) for s in shuffled_trees(23, count=120, max_n=30)]
    for _ in range(200):
        core, *parts = rng.sample(pool, rng.randint(2, 5))
        root, offset = core.pos[core.root], core.n
        edges = [(core.pos[u], core.pos[v]) for u, v in core.edges]
        for p in parts:
            edges += [(offset + p.pos[u], offset + p.pos[v]) for u, v in p.edges]
            edges.append((root, offset + p.pos[p.root]))
            offset += p.n
        t = join(core, parts)
        assert (t.parent, t.root) == (build_tree(edges, root).parent, root)


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


def test_a_duplication_that_changes_the_diameter_is_refused(monkeypatch):
    # no duplication away from the centre changes the diameter; a diameter
    # that reads the vertex count sees the copy as a change
    t = build_tree([(0, 1), (1, 2), (0, 3), (3, 4)], 0)
    monkeypatch.setattr(diminimal.trees, "diameter", lambda tree: tree.n)
    with pytest.raises(RuntimeError, match="^branch duplication changed the diameter$"):
        duplicate_branch(t, 1, 2, 1)


def test_a_duplication_of_no_copies_is_refused():
    t = build_tree([(0, 1), (1, 2), (0, 3), (3, 4)], 0)
    with pytest.raises(ValueError, match="^copies must be >= 1$"):
        duplicate_branch(t, 1, 2, 0)


@pytest.mark.parametrize("v", [999, 5, -1])
def test_duplicate_branch_rejects_vertex_out_of_range(v):
    # vertex 4 is the parent of 3, so a child check alone reads -1 as vertex 4
    t = build_tree([(0, 1), (1, 4), (4, 3), (3, 2)], 0)
    assert duplicate_branch(t, 4, 3, 1).n == 7
    with pytest.raises(ValueError, match=f"vertex {v} out of range"):
        duplicate_branch(t, v, 3, 1)


def _duplicate_by_edges(t, v, branch_root, copies):
    """duplicate_branch as it was built before it wrote the parent array:
    the copies' edges, ids n + i*b + rank, sent through build_tree."""
    branch = t.subtree(branch_root)
    rank, edges, b = {old: i for i, old in enumerate(branch)}, list(t.edges), len(branch)
    for base in range(t.n, t.n + copies * b, b):
        edges += [(base + rank[a], base + rank[c]) for a, c in t.edges if a in rank and c in rank]
        edges.append((v, base + rank[branch_root]))
    return build_tree(edges, t.root)


@settings(max_examples=200, deadline=None)
@given(trees(), st.data())
def test_duplicate_branch_equals_the_edge_list_construction(t, data):
    # random trees rooted anywhere, so v may sit below the branch's ids
    central = set(main_roots(t))
    cands = [(p, c) for c, p in enumerate(t.parent)
             if p != -1 and not central & set(t.block(c))]
    assume(cands)
    v, c = data.draw(st.sampled_from(cands))
    copies = data.draw(st.integers(1, 3))
    assert duplicate_branch(t, v, c, copies) == _duplicate_by_edges(t, v, c, copies)


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


def test_seed_size_is_known_before_the_seed_is_built(monkeypatch):
    for fam, lo, step in ((Family.UNIFORM, 1, 1), (Family.SHORT_CORE, 4, 1),
                          (Family.MIXED, 5, 2)):
        for d in range(lo, 16, step):
            size = sum(2 ** c + sum(2 ** p for p in ps) for c, ps in _seed_halves(fam, d))
            assert size == seed(fam, d).n, (fam, d)
    # refused without building: seed(UNIFORM, 81) would have 2**41 vertices
    monkeypatch.setattr(diminimal.trees, "_uniform_piece", None)
    for d in (35, 81, 10 ** 12):
        with pytest.raises(ValueError, match=f"more than the supported {MAX_VERTICES} "):
            seed(Family.UNIFORM, d)


def test_seeds_beyond_the_golden_set_are_pinned_and_certified_by_their_halves():
    # (family, d, root, parent) of every seed with 16 <= d <= 25, hashed when
    # each family's seeds came from a recursion of its own
    rows = [(fam.value, d, s.root, s.parent)
            for fam, lo, step in ((Family.UNIFORM, 16, 1), (Family.SHORT_CORE, 16, 1),
                                  (Family.MIXED, 17, 2))
            for d in range(lo, 26, step) for s in [seed(fam, d)]]
    assert len(rows) == 25
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == (
        "0a448fa36b202d8aa43e97e557cf69ed19cf1004921700cb7c45e0a2316b8dff")
    # the recognizer's certificate holds each half with the heights it was
    # built from: the even piece, or the two sides of an odd tree, which for
    # a one-half (uniform) seed are its core and its one part
    for fam, lo, step in ((Family.UNIFORM, 1, 1), (Family.SHORT_CORE, 4, 1),
                          (Family.MIXED, 5, 2)):
        for d in range(lo, 16, step):
            halves = _seed_halves(fam, d)
            cert = recognize_family(seed(fam, d)).certificate
            pieces = [cert["piece"]] if d % 2 == 0 else [side["piece"] for side in cert["sides"]]
            if len(pieces) > len(halves):
                got = ((pieces[0]["height"], (pieces[1]["height"],)),)
            else:
                got = tuple((pc["core"]["height"], tuple(p["height"] for p in pc["parts"]))
                            for pc in pieces)
            assert got == halves, (fam, d)


def test_a_diameter_outside_the_domain_gets_the_domain_error():
    # the domain check comes before the size check, also for huge diameters
    for fam, d, text in ((Family.MIXED, 40, "odd diameter"),
                         (Family.MIXED, 10 ** 12, "odd diameter"),
                         (Family.SHORT_CORE, 3, "diameter >= 4"),
                         (Family.UNSUPPORTED, 10 ** 12, "no seed for family")):
        with pytest.raises(ValueError, match=text):
            seed(fam, d)


def test_the_vertex_bound_is_on_the_exact_output_size(monkeypatch):
    monkeypatch.setattr(diminimal.trees, "MAX_VERTICES", 16)
    assert seed(Family.UNIFORM, 7).n == 16
    assert seed(Family.MIXED, 7).n == 14
    for fam, d in ((Family.UNIFORM, 8), (Family.SHORT_CORE, 9), (Family.MIXED, 9)):
        with pytest.raises(ValueError, match="more than the supported 16 "):
            seed(fam, d)
    t = build_tree([(0, 1), (1, 2), (1, 3), (0, 4), (0, 5), (5, 6)], 0)
    assert duplicate_branch(t, 0, 1, 3).n == 16
    with pytest.raises(ValueError, match="give 19 vertices, more than the supported 16"):
        duplicate_branch(t, 0, 1, 4)


def test_json_trees_above_the_vertex_bound_are_refused(monkeypatch):
    monkeypatch.setattr(diminimal.trees, "MAX_VERTICES", 16)
    path = {"n": 16, "root": 0, "edges": [[v, v + 1] for v in range(15)]}
    assert tree_from_json(path).n == 16
    with pytest.raises(ValueError, match="tree claims 17 vertices, more than the "
                                         "supported 16"):
        tree_from_json({**path, "n": 17, "edges": path["edges"] + [[15, 16]]})
    # refused on the claim alone, before the edge count or the tree
    with pytest.raises(ValueError, match="tree claims 10000000000 vertices"):
        tree_from_json({**path, "n": 10 ** 10})


def test_numpy_ints_are_read_as_ints(monkeypatch):
    np = pytest.importorskip("numpy")
    t = seed(Family.UNIFORM, 9)
    # 2**62 copies of the 4-vertex branch at 13: in int64 copies * b wraps
    # to 0 and the tree came back unchanged
    with pytest.raises(ValueError, match=f"give {t.n + 2 ** 64} vertices, more than the "
                                         f"supported {MAX_VERTICES}$"):
        duplicate_branch(t, 14, 13, np.int64(2 ** 62))
    # numpy ids end up in no parent array, so the trees' JSON is the JSON of
    # plain ints
    i8 = np.int64
    for got, want in ((duplicate_branch(t, i8(14), i8(13), i8(2)), duplicate_branch(t, 14, 13, 2)),
                      (reroot(t, i8(5)), reroot(t, 5)), (seed(Family.UNIFORM, i8(9)), t)):
        assert json.dumps(tree_to_json(got)) == json.dumps(tree_to_json(want))
        assert tree_from_json(tree_to_json(got)) == want
    # in int64 the size of the d=200 seed sums to 0; refused without
    # building, so a guard that let it through fails here, not in memory
    monkeypatch.setattr(diminimal.trees, "_uniform_piece", None)
    with pytest.raises(ValueError, match=f"more than the supported {MAX_VERTICES} "):
        seed(Family.UNIFORM, np.int64(200))


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
    # the recognizer is one loop over the postorder: a spine of 10**5
    # vertices is no deeper for it than a star
    t = make(n)
    tag = recognize_family(t)
    assert (tag.family, tag.diameter) == (Family.UNSUPPORTED, diameter(t))
    assert _whole_piece_cert(t, main_roots(t)[0]) is None


def test_analysis_certifies_uniform_trees_as_one_whole_piece():
    # rooted at either central root, a uniform tree is the one uniform piece
    # the reference certifies there: the certificate's piece for even d, and
    # for odd d the central join of its sides, the side at that root as core
    # and the other as its one part
    rng = random.Random(55)
    for d in range(14):
        s = seed(Family.UNIFORM, d) if d else build_tree([], 0)
        for t in (s, random_unfolding(s, rng, 3, cap=120)):
            off = [v for v in range(t.n) if v not in main_roots(t)]
            for tr in [reroot(t, r) for r in [t.root] + off[:1]]:
                assert _family_analysis(tr).family is Family.UNIFORM
                cert = recognize_family(tr).certificate
                sides = {side["root"]: side["piece"] for side in cert.get("sides", [])}
                for r in main_roots(tr):
                    assert _whole_piece_cert(tr, r) == reroot(tr, r)
                    whole = reference_piece(reroot(tr, r), r)
                    assert whole.uniform and whole.height == (d + 1) // 2
                    if d % 2 == 0:
                        assert whole.to_json() == cert["piece"]
                    else:
                        (other,) = whole.parts
                        assert whole.core.to_json() == sides[r]
                        assert other.to_json() == sides[other.root]


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
