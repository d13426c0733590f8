"""Rooted trees on contiguous integer ids, and the structural operations the
package is built on.

A tree is stored as a parent array plus a distinguished root.  On top of that
this module provides:

  * construction and validation from an edge list,
  * deterministic bottom-up (postorder) traversal,
  * diameter, per-vertex heights, and the central vertices shared by every
    maximum-length path,
  * ``join``: gluing rooted trees by adding root-to-root edges,
  * ``duplicate_branch``: appending extra copies of a branch at a vertex,
  * ``seed``: the recursively defined base trees of the three supported
    families, and
  * ``recognize_family``: a certificate-producing recognizer that decides
    which family (if any) an arbitrary tree belongs to.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Iterable, Sequence


class Family(Enum):
    """Structural families the realization engine supports.

    UNIFORM trees decompose at a central vertex into equal-height branches
    all the way down.  SHORT_CORE trees look the same except the central
    piece is one level shallower than the branches hanging off it.  MIXED
    trees (odd diameter only) have one uniform half and one short-core half.
    Anything else is UNSUPPORTED.
    """

    UNIFORM = "uniform"
    SHORT_CORE = "short-core"
    MIXED = "mixed"
    UNSUPPORTED = "unsupported"


@dataclass(frozen=True)
class RootedTree:
    """Immutable rooted tree on vertex ids 0..n-1.

    parent[i] is the parent id of vertex i, or -1 for the root.  Derived
    structure (children lists, traversal order, depths, heights, a longest
    path and the recognizer's analysis) is computed lazily and cached, so
    recognition, realization and verification of one tree object share it.
    """

    parent: tuple[int, ...]
    root: int

    def __post_init__(self) -> None:
        n = len(self.parent)
        if not (0 <= self.root < n):
            raise ValueError(f"root {self.root} out of range for {n} vertices")
        if self.parent[self.root] != -1:
            raise ValueError("root must have parent -1")

    @property
    def n(self) -> int:
        return len(self.parent)

    @cached_property
    def children(self) -> tuple[tuple[int, ...], ...]:
        kids: list[list[int]] = [[] for _ in range(self.n)]
        for v, p in enumerate(self.parent):
            if p >= 0:
                kids[p].append(v)
        return tuple(tuple(sorted(k)) for k in kids)

    @cached_property
    def order(self) -> tuple[int, ...]:
        """Bottom-up (postorder) vertex order; children visited in ascending
        id order, root last."""
        out: list[int] = []
        stack: list[tuple[int, bool]] = [(self.root, False)]
        while stack:
            v, done = stack.pop()
            if done:
                out.append(v)
                continue
            stack.append((v, True))
            for c in reversed(self.children[v]):
                stack.append((c, False))
        return tuple(out)

    @cached_property
    def depth(self) -> tuple[int, ...]:
        d = [0] * self.n
        for v in reversed(self.order):
            p = self.parent[v]
            if p >= 0:
                d[v] = d[p] + 1
        return tuple(d)

    @cached_property
    def height_below(self) -> tuple[int, ...]:
        """height_below[v] = number of edges from v down to its deepest
        descendant (0 for leaves)."""
        h = [0] * self.n
        for v in self.order:
            for c in self.children[v]:
                h[v] = max(h[v], h[c] + 1)
        return tuple(h)

    @cached_property
    def edges(self) -> tuple[tuple[int, int], ...]:
        es = [(min(v, p), max(v, p)) for v, p in enumerate(self.parent) if p >= 0]
        return tuple(sorted(es))

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        nb: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            nb[u].append(v)
            nb[v].append(u)
        return tuple(tuple(sorted(x)) for x in nb)

    @cached_property
    def _longest_path(self) -> tuple[int, ...]:
        """A maximum-length path, found with two BFS sweeps from the root."""
        a, _ = _farthest(self, self.root)
        b, prev = _farthest(self, a)
        path = [b]
        while prev[path[-1]] != -1:
            path.append(prev[path[-1]])
        return tuple(reversed(path))

    @cached_property
    def _analysis(self) -> "_FamilyAnalysis":
        return _analyze_family(self)

    def subtree(self, v: int) -> tuple[int, ...]:
        """All descendants of v (v included), sorted by id."""
        out = [v]
        i = 0
        while i < len(out):
            out.extend(self.children[out[i]])
            i += 1
        return tuple(sorted(out))

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])


def build_tree(edge_list: Iterable[tuple[int, int]], root: int) -> RootedTree:
    """Build a RootedTree from an undirected edge list.

    Vertex ids must cover 0..n-1 exactly, where n = len(edges) + 1.  Raises
    ValueError on self-loops, duplicate edges, out-of-range ids, cycles, or a
    disconnected input.
    """
    edges = [tuple(e) for e in edge_list]
    n = len(edges) + 1
    seen: set[tuple[int, int]] = set()
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) out of range for {n} vertices")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise ValueError(f"duplicate edge {key}")
        seen.add(key)
        adj[u].append(v)
        adj[v].append(u)
    if not (0 <= root < n):
        raise ValueError(f"root {root} out of range for {n} vertices")
    parent = [-2] * n
    parent[root] = -1
    stack = [root]
    visited = 1
    while stack:
        v = stack.pop()
        for u in adj[v]:
            if parent[u] == -2:
                parent[u] = v
                visited += 1
                stack.append(u)
    if visited != n:
        # n-1 edges and not connected means some component holds a cycle
        raise ValueError("edge list is disconnected or contains a cycle")
    return RootedTree(tuple(parent), root)


def reroot(t: RootedTree, new_root: int) -> RootedTree:
    """Same tree, same ids, rooted at new_root: the parent links on the path
    up to the old root reverse."""
    if new_root == t.root:
        return t
    if not (0 <= new_root < t.n):
        raise ValueError(f"root {new_root} out of range for {t.n} vertices")
    parent = list(t.parent)
    v, below = new_root, -1
    while v != -1:
        parent[v], below, v = below, v, parent[v]
    return RootedTree(tuple(parent), new_root)


def diameter(t: RootedTree) -> int:
    """Length (in edges) of a longest path in the tree."""
    return len(t._longest_path) - 1


def _farthest(t: RootedTree, start: int) -> tuple[int, dict[int, int]]:
    """BFS helper: (farthest vertex from start with smallest id, parent map)."""
    prev = {start: -1}
    frontier = [start]
    last = [start]
    while frontier:
        last = frontier
        nxt = []
        for v in frontier:
            for u in t.adjacency[v]:
                if u not in prev:
                    prev[u] = v
                    nxt.append(u)
        frontier = nxt
    return min(last), prev


def main_roots(t: RootedTree) -> tuple[int, ...]:
    """Central vertices shared by every maximum-length path.

    Even diameter: the unique middle vertex of any longest path, as a
    1-tuple.  Odd diameter: both endpoints of the central edge, smaller id
    first.  A single vertex tree yields (0,).
    """
    path = t._longest_path
    d = len(path) - 1
    if d % 2 == 0:
        return (path[d // 2],)
    u, v = path[d // 2], path[d // 2 + 1]
    return (min(u, v), max(u, v))


@dataclass(frozen=True)
class JoinResult:
    """Outcome of a join: the combined tree plus id translation maps.

    core_map[i] is the new id of vertex i of the core tree; part_maps[j][i]
    is the new id of vertex i of the j-th part.
    """

    tree: RootedTree
    core_map: tuple[int, ...]
    part_maps: tuple[tuple[int, ...], ...]


def join(core: RootedTree, parts: Sequence[RootedTree]) -> JoinResult:
    """Glue rooted trees by adding an edge from core's root to each part's
    root.  The result is rooted at core's root.

    Ids are relabeled into one contiguous range: core's vertices first, in
    core's bottom-up order, then each part's vertices in list order (again in
    bottom-up order within each part).
    """
    if not parts:
        raise ValueError("join needs at least one part")
    core_map = [0] * core.n
    for new_id, old in enumerate(core.order):
        core_map[old] = new_id
    offset = core.n
    part_maps: list[tuple[int, ...]] = []
    for p in parts:
        m = [0] * p.n
        for k, old in enumerate(p.order):
            m[old] = offset + k
        part_maps.append(tuple(m))
        offset += p.n
    edges: list[tuple[int, int]] = []
    for u, v in core.edges:
        edges.append((core_map[u], core_map[v]))
    for p, m in zip(parts, part_maps):
        for u, v in p.edges:
            edges.append((m[u], m[v]))
        edges.append((core_map[core.root], m[p.root]))
    tree = build_tree(edges, core_map[core.root])
    return JoinResult(tree, tuple(core_map), tuple(part_maps))


def duplicate_branch(t: RootedTree, v: int, branch_root: int, copies: int) -> RootedTree:
    """Append `copies` extra copies of the branch hanging at `branch_root`
    to vertex v.

    branch_root must be a child of v, and the branch may not contain a
    central vertex of the tree (otherwise duplication could move the
    diameter, which is exactly what this operation must never do).  New
    vertices of copy i get ids n + i*b + rank, where b is the branch size
    and rank is the position of the copied vertex among the branch's
    original ids in ascending order.
    """
    if copies < 1:
        raise ValueError("copies must be >= 1")
    if not 0 <= v < t.n:
        raise ValueError(f"vertex {v} out of range for {t.n} vertices")
    if branch_root not in t.children[v]:
        raise ValueError(f"{branch_root} is not a child of {v}")
    branch = t.subtree(branch_root)
    forbidden = set(main_roots(t))
    if forbidden & set(branch):
        raise ValueError("branch contains a central vertex; duplication would be ambiguous")
    rank = {old: i for i, old in enumerate(branch)}
    n, b = t.n, len(branch)
    edges = list(t.edges)
    branch_set = set(branch)
    internal = [(a, c) for a, c in t.edges if a in branch_set and c in branch_set]
    for i in range(copies):
        base = n + i * b
        for a, c in internal:
            edges.append((base + rank[a], base + rank[c]))
        edges.append((v, base + rank[branch_root]))
    out = build_tree(edges, t.root)
    if diameter(out) != diameter(t):
        raise RuntimeError("branch duplication changed the diameter")
    return out


# ---------------------------------------------------------------------------
# Seed trees
# ---------------------------------------------------------------------------

def _seed_uniform(d: int) -> RootedTree:
    """Base tree of the uniform family for diameter d, rooted centrally."""
    if d == 0:
        return build_tree([], 0)
    if d == 1:
        return join(_seed_uniform(0), [_seed_uniform(0)]).tree
    if d == 2:
        s0 = _seed_uniform(0)
        return join(s0, [s0, s0]).tree
    if d % 2 == 1:
        # d = 2k-1, k >= 2: two copies of the diameter d-2 seed
        prev = _seed_uniform(d - 2)
        return join(prev, [prev]).tree
    # d = 2k, k >= 2: three copies of the diameter 2k-3 = d-3 seed
    prev = _seed_uniform(d - 3)
    return join(prev, [prev, prev]).tree


def _seed_short_core(d: int) -> RootedTree:
    if d == 4:
        s1 = _seed_uniform(1)
        return join(_seed_uniform(0), [s1, s1]).tree
    if d == 5:
        half = join(_seed_uniform(0), [_seed_uniform(1)]).tree
        return join(half, [half]).tree
    if d % 2 == 0:
        # d = 2k+2, k >= 2: short core, two full-height branches
        k = (d - 2) // 2
        tall = _seed_uniform(2 * k - 1)
        return join(_seed_uniform(2 * k - 3), [tall, tall]).tree
    # d = 2k+3, k >= 2: two short-core halves joined root to root
    k = (d - 3) // 2
    half = join(_seed_uniform(2 * k - 3), [_seed_uniform(2 * k - 1)]).tree
    return join(half, [half]).tree


def _seed_mixed(d: int) -> RootedTree:
    if d == 5:
        short_half = join(_seed_uniform(0), [_seed_uniform(1)]).tree
        tall_half = join(_seed_uniform(1), [_seed_uniform(1)]).tree
        return join(short_half, [tall_half]).tree
    # d = 2k+3, k >= 2: one short-core half, one uniform half
    k = (d - 3) // 2
    short_half = join(_seed_uniform(2 * k - 3), [_seed_uniform(2 * k - 1)]).tree
    tall = _seed_uniform(2 * k - 1)
    tall_half = join(tall, [tall]).tree
    return join(short_half, [tall_half]).tree


def seed(family: Family, d: int) -> RootedTree:
    """Smallest member of `family` with diameter d, rooted at a central
    vertex (the smaller-id endpoint of the central edge when d is odd).

    Domains: UNIFORM needs d >= 1, SHORT_CORE d >= 4, MIXED odd d >= 5.
    """
    if family is Family.UNIFORM:
        if d < 1:
            raise ValueError("uniform seed needs diameter >= 1")
        return _seed_uniform(d)
    if family is Family.SHORT_CORE:
        if d < 4:
            raise ValueError("short-core seed needs diameter >= 4")
        return _seed_short_core(d)
    if family is Family.MIXED:
        if d < 5 or d % 2 == 0:
            raise ValueError("mixed seed needs odd diameter >= 5")
        return _seed_mixed(d)
    raise ValueError(f"no seed for family {family}")


# ---------------------------------------------------------------------------
# Recognition
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PieceCert:
    """Certificate that a piece of the tree decomposes uniformly.

    The piece consists of `root` plus the branches listed through `parts`
    and `core`: parts are the full-height branches (each itself certified),
    core is the piece formed by the root and all shorter branches, certified
    one level down.  Leaves of the recursion have height 0 and no core.
    """

    root: int
    height: int
    parts: tuple["PieceCert", ...]
    core: "PieceCert | None"

    def to_json(self) -> dict:
        return {
            "root": self.root,
            "height": self.height,
            "parts": [p.to_json() for p in self.parts],
            "core": None if self.core is None else self.core.to_json(),
        }


@dataclass(frozen=True)
class FamilyTag:
    """Result of recognize_family: the family, the diameter, and a nested
    certificate describing the decomposition that witnesses the tag."""

    family: Family
    diameter: int
    certificate: dict


class _Recognizer:
    """Uniform-piece checker over a fixed rooting of the tree.

    Every check goes through `split`, and each (vertex, cap) pair is asked
    for at most once per recognition, so nothing is cached."""

    def __init__(self, t: RootedTree):
        self.t = t

    def split(self, v: int, cap: int | None = None
              ) -> tuple[int, tuple[PieceCert, ...], PieceCert | None] | None:
        """Split the piece at v made of its branches of height <= cap (all
        branches when cap is None): the piece height h, certificates for
        the branches of height h - 1, and the certificate for v plus the
        shorter branches (None for a leaf).  Returns None when a full-height
        branch or the core does not decompose uniformly."""
        t = self.t
        kids = [c for c in t.children[v] if cap is None or t.height_below[c] <= cap]
        if not kids:
            return 0, (), None
        h = 1 + max(t.height_below[c] for c in kids)
        parts = []
        for c in kids:
            if t.height_below[c] == h - 1:
                pc = self.piece(c)
                if pc is None:
                    return None
                parts.append(pc)
        core = self.piece(v, h - 2)
        if core is None:
            return None
        return h, tuple(parts), core

    def classify(self, v: int, cap: int | None = None
                 ) -> tuple[str, PieceCert] | tuple[None, None]:
        """Kind and certificate of the piece at v (branches capped as in
        `split`): "uniform" when the core has height h - 1 or v is a leaf,
        "short_core" when it has height h - 2.  Short-core pieces are
        recorded with the same shape; the height gap between core and parts
        is what tells the kinds apart.  (None, None) for anything else."""
        s = self.split(v, cap)
        if s is None:
            return None, None
        h, parts, core = s
        if core is None or core.height == h - 1:
            return "uniform", PieceCert(v, h, parts, core)
        if core.height == h - 2:
            return "short_core", PieceCert(v, h, parts, core)
        return None, None

    def piece(self, v: int, cap: int | None = None) -> PieceCert | None:
        """Certify the piece at v made of branches of height <= cap (all
        branches when cap is None).  Returns None if the piece does not
        decompose uniformly."""
        kind, cert = self.classify(v, cap)
        return cert if kind == "uniform" else None


@dataclass(frozen=True)
class _FamilyAnalysis:
    """Structured recognizer output shared with the realization engine.

    `whole` certifies the split at `center` for every supported tree of
    even diameter (the core is one level short for SHORT_CORE) and, for
    uniform trees of odd diameter, the entire tree as one piece rooted at
    the smaller central-edge endpoint.  Odd diameter: `sides` holds the two
    halves as (endpoint, kind, certificate) with kind "uniform" or
    "short_core".
    """

    family: Family
    diameter: int
    center: int
    sides: tuple[tuple[int, str, PieceCert], ...] = ()
    whole: PieceCert | None = None


def _min_piece_size(height: int) -> int:
    """A lower bound on the vertex count of a uniform piece of `height`: a
    piece of height L is a core and at least one part, each a piece of
    height L - 1, so the size at least doubles per level."""
    return 1 << height


def _min_family_size(d: int) -> int:
    """A lower bound on the vertex count of a supported tree of diameter d.

    Even d = 2h: the split at the center has at least two parts of height
    h - 1.  Odd d = 2h + 1: each of the two sides has a part of height
    h - 1 and a core of height h - 1 or h - 2.  Either way at least
    _min_piece_size(h) vertices."""
    return _min_piece_size(d // 2)


def _family_analysis(t: RootedTree) -> _FamilyAnalysis:
    """The analysis of t, computed once per tree object and cached on it."""
    return t._analysis


def _analyze_family(t: RootedTree) -> _FamilyAnalysis:
    d = diameter(t)
    centers = main_roots(t)
    if t.n < _min_family_size(d):
        # also keeps the recognizer's recursion, which descends one level
        # per call, within log2(n) levels
        return _FamilyAnalysis(Family.UNSUPPORTED, d, centers[0])
    if d % 2 == 0:
        c = centers[0]
        kind, whole = _Recognizer(reroot(t, c)).classify(c)
        if kind is None:
            return _FamilyAnalysis(Family.UNSUPPORTED, d, c)
        fam = Family.UNIFORM if kind == "uniform" else Family.SHORT_CORE
        return _FamilyAnalysis(fam, d, c, whole=whole)
    u, v = centers
    rec = _Recognizer(reroot(t, u))
    kind_b, cert_b = rec.classify(v)
    # side A is everything except v's subtree; with the tree rooted at u the
    # branch toward v is the unique tallest one, so capping at the side
    # height picks out exactly side A
    h_side = (d - 1) // 2
    kind_a, cert_a = rec.classify(u, h_side - 1)
    if kind_a is None or kind_b is None:
        return _FamilyAnalysis(Family.UNSUPPORTED, d, u)
    sides = ((u, kind_a, cert_a), (v, kind_b, cert_b))
    if kind_a == "uniform" and kind_b == "uniform":
        # the whole tree is one uniform piece when rooted at either endpoint;
        # seen from u, side B is the unique tallest branch and side A is the
        # core formed by u and everything shorter
        whole = PieceCert(u, h_side + 1, (cert_b,), cert_a)
        return _FamilyAnalysis(Family.UNIFORM, d, u, sides=sides, whole=whole)
    if kind_a == "short_core" and kind_b == "short_core":
        return _FamilyAnalysis(Family.SHORT_CORE, d, u, sides=sides)
    return _FamilyAnalysis(Family.MIXED, d, u, sides=sides)


def recognize_family(t: RootedTree) -> FamilyTag:
    """Decide which supported family t belongs to and produce a certificate.

    Never raises: trees outside all three families come back tagged
    UNSUPPORTED with the diameter still filled in.
    """
    an = _family_analysis(t)
    d, fam = an.diameter, an.family
    if d % 2 == 0:
        cert: dict = {"family": fam.value, "diameter": d, "main_root": an.center}
        if fam is not Family.UNSUPPORTED:
            cert["piece"] = an.whole.to_json()
        return FamilyTag(fam, d, cert)
    u, v = main_roots(t)
    cert = {"family": fam.value, "diameter": d, "main_edge": [u, v]}
    if fam is not Family.UNSUPPORTED:
        cert["sides"] = [
            {"root": r, "kind": kind, "piece": pc.to_json()}
            for r, kind, pc in an.sides
        ]
    return FamilyTag(fam, d, cert)


def _whole_piece_cert(t: RootedTree, at_root: int) -> PieceCert | None:
    """Certificate that the whole tree, rooted at at_root, is one uniform
    piece.  Used by the variant builders, which accept any central rooting."""
    rt = reroot(t, at_root)
    if t.n < _min_piece_size(rt.height_below[at_root]):
        return None
    return _Recognizer(rt).piece(at_root, None)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def tree_to_json(t: RootedTree) -> dict:
    return {"n": t.n, "root": t.root, "edges": [[u, v] for u, v in t.edges]}


def json_int(value) -> int:
    """An int field of a JSON document; a float or bool is refused, not truncated."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"not an integer: {value!r}")
    return value


def tree_from_json(obj: dict) -> RootedTree:
    try:
        n = json_int(obj["n"])
        root = json_int(obj["root"])
        edges = [(json_int(u), json_int(v)) for u, v in obj["edges"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed tree object: {exc}") from exc
    if n != len(edges) + 1:
        raise ValueError(f"tree claims {n} vertices but has {len(edges)} edges")
    return build_tree(edges, root)


def tree_to_dot(t: RootedTree) -> str:
    lines = ["graph tree {"]
    for v in range(t.n):
        shape = ' [shape=box]' if v == t.root else ""
        lines.append(f"  {v}{shape};")
    for u, v in t.edges:
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"
