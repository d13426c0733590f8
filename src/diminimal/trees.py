"""Rooted trees on contiguous integer ids, and the structural operations the
package is built on.

A tree is stored as a parent array plus a distinguished root.  On top of that
this module provides:

  * construction and validation from an edge list,
  * deterministic bottom-up (postorder) traversal,
  * diameter, per-vertex heights, and the central vertices shared by every
    maximum-length path,
  * ``join``: gluing rooted trees by adding root-to-root edges, with the
    ids of the result read from the postorders,
  * ``duplicate_branch``: appending extra copies of a branch at a vertex,
  * ``seed``: the base trees of the three supported families, each one or
    two halves made of smallest uniform pieces, and
  * ``recognize_family``: a certificate-producing recognizer that decides
    which family (if any) an arbitrary tree belongs to by the pieces at its
    centre, which ``_whole_piece_cert`` joins into the builder's one piece.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import groupby
from operator import index
from typing import Iterable, Sequence

# `seed`, `duplicate_branch` and `tree_from_json` refuse larger trees
MAX_VERTICES = 2 ** 17


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

    parent[i] is the parent id of vertex i, or -1 for the root; an array
    that is not a tree on 0..n-1 raises ValueError.  Derived structure
    (children lists, the postorder, subtree sizes and positions in it,
    depths, heights, the diameter and centre, and the recognizer's analysis)
    is computed once and cached (the postorder on construction, by that
    check), so recognition, realization and verification share it.
    """

    parent: tuple[int, ...]
    root: int

    def __post_init__(self) -> None:
        n = len(self.parent)
        if not (0 <= self.root < n):
            raise ValueError(f"root {self.root} out of range for {n} vertices")
        if self.parent[self.root] != -1:
            raise ValueError("root must have parent -1")
        # the postorder from the root misses a second root, a cycle and an
        # id below -1, so it covers all n vertices only for a tree
        if max(self.parent) >= n or len(self.order) != n:
            raise ValueError("parent array is not a tree on its vertex ids")

    @property
    def n(self) -> int:
        return len(self.parent)

    @cached_property
    def children(self) -> tuple[tuple[int, ...], ...]:
        kids: list[list[int]] = [[] for _ in range(self.n)]
        for v, p in enumerate(self.parent):  # ascending v, so each list is sorted
            if p >= 0:
                kids[p].append(v)
        return tuple(map(tuple, kids))

    @cached_property
    def order(self) -> tuple[int, ...]:
        """Bottom-up (postorder) vertex order; children visited in ascending
        id order, root last.  It is the reverse of a preorder that takes the
        children in descending order."""
        out, stack, kids = [], [self.root], self.children
        while stack:
            v = stack.pop()
            out.append(v)
            stack.extend(kids[v])
        return tuple(reversed(out))

    @cached_property
    def size(self) -> tuple[int, ...]:
        """size[v] = vertex count of v's subtree, which is the block of
        `order` ending at v."""
        size, parent = [1] * self.n, self.parent
        for v in self.order[:-1]:
            size[parent[v]] += size[v]
        return tuple(size)

    @cached_property
    def pos(self) -> tuple[int, ...]:
        """pos[v] = index of v in `order`."""
        pos = [0] * self.n
        # the positions are the id ints of the order, so no int is made
        for i, v in zip(sorted(self.order), self.order):
            pos[v] = i
        return tuple(pos)

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
        h, parent = [0] * self.n, self.parent
        for v in self.order[:-1]:
            p = parent[v]
            if h[v] >= h[p]:
                h[p] = h[v] + 1
        return tuple(h)

    @cached_property
    def edges(self) -> tuple[tuple[int, int], ...]:
        es = [(min(v, p), max(v, p)) for v, p in enumerate(self.parent) if p >= 0]
        return tuple(sorted(es))

    @cached_property
    def _center(self) -> tuple[int, tuple[int, ...]]:
        return _find_center(self)

    @cached_property
    def _analysis(self) -> "_FamilyAnalysis":
        return _analyze_family(self)

    def block(self, v: int) -> tuple[int, ...]:
        """v's subtree in postorder: the slice of `order` ending at v."""
        end = self.pos[v] + 1
        return self.order[end - self.size[v]:end]

    def subtree(self, v: int) -> tuple[int, ...]:
        """All descendants of v (v included), sorted by id."""
        return tuple(sorted(self.block(v)))

    def degree(self, v: int) -> int:
        return len(self.children[v]) + (self.parent[v] != -1)


def build_tree(edge_list: Iterable[tuple[int, int]], root: int) -> RootedTree:
    """Build a RootedTree from an undirected edge list.

    Vertex ids must cover 0..n-1 exactly, where n = len(edges) + 1.  Raises
    ValueError on self-loops, duplicate edges, out-of-range ids, cycles, or a
    disconnected input.
    """
    edges = list(edge_list)
    n = len(edges) + 1
    seen: set[int] = set()  # min * n + max per edge
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) out of range for {n} vertices")
        key = u * n + v if u < v else v * n + u
        if key in seen:
            raise ValueError(f"duplicate edge {(min(u, v), max(u, v))}")
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
    new_root = index(new_root)
    if new_root == t.root:
        return t
    if not (0 <= new_root < t.n):
        raise ValueError(f"root {new_root} out of range for {t.n} vertices")
    parent = list(t.parent)
    v, below = new_root, -1
    while v != -1:
        parent[v], below, v = below, v, parent[v]
    return RootedTree(tuple(parent), new_root)


def _find_center(t: RootedTree) -> tuple[int, tuple[int, ...]]:
    """(diameter, central vertices) from the heights along `t.order`.

    A longest path bends at the vertex v maximising its tallest plus its
    second-tallest branch; every longest path passes the centre (Jordan), so
    walking down tallest children from v to the middle of that path finds
    it: one vertex for even d, the central edge for odd d."""
    h, parent = t.height_below, t.parent
    second, tallest = [0] * t.n, [-1] * t.n
    for v in t.order[:-1]:
        p = parent[v]
        if tallest[p] < 0 and h[v] + 1 == h[p]:
            tallest[p] = v
        elif h[v] >= second[p]:
            second[p] = h[v] + 1
    bends = [a + b for a, b in zip(h, second)]
    d = max(bends)
    v = bends.index(d)
    for _ in range(h[v] - (d + 1) // 2):
        v = tallest[v]
    if d % 2 == 0:
        return d, (v,)
    u = tallest[v]
    return d, (min(u, v), max(u, v))


def diameter(t: RootedTree) -> int:
    """Length (in edges) of a longest path in the tree."""
    return t._center[0]


def main_roots(t: RootedTree) -> tuple[int, ...]:
    """Central vertices shared by every maximum-length path.

    Even diameter: the unique middle vertex of any longest path, as a
    1-tuple.  Odd diameter: both endpoints of the central edge, smaller id
    first.  A single vertex tree yields (0,).
    """
    return t._center[1]


def join(core: RootedTree, parts: Sequence[RootedTree]) -> RootedTree:
    """Glue rooted trees by adding an edge from core's root to each part's
    root.  The result is rooted at core's root.

    Ids are read from the postorders: vertex v of the core becomes
    core.pos[v], and vertex v of a part becomes offset + part.pos[v], where
    offset counts the vertices of the core and of the parts listed before it.
    """
    if not parts:
        raise ValueError("join needs at least one part")
    parent = [-1] * (core.n + sum(p.n for p in parts))
    root, offset = core.pos[core.root], 0
    # the core's root stays the root; each part's root hangs from it
    for t, top in [(core, -1), *((p, root) for p in parts)]:
        pos = t.pos
        for v, u in enumerate(t.parent):
            parent[offset + pos[v]] = top if u < 0 else offset + pos[u]
        offset += t.n
    return RootedTree(tuple(parent), root)


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
    v, branch_root, copies = index(v), index(branch_root), index(copies)
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
    n, b = t.n, len(branch)
    if n + copies * b > MAX_VERTICES:
        raise ValueError(f"{copies} copies of a {b}-vertex branch give {n + copies * b} "
                         f"vertices, more than the supported {MAX_VERTICES}")
    # a copy's vertex of rank r hangs from v at the branch root, else from
    # the copy of its parent; RootedTree validates the array
    rank = {old: i for i, old in enumerate(branch)}
    up = [-1 if old == branch_root else rank[t.parent[old]] for old in branch]
    parent = list(t.parent)
    for base in range(n, n + copies * b, b):
        parent += [v if r < 0 else base + r for r in up]
    out = RootedTree(tuple(parent), t.root)
    if diameter(out) != diameter(t):
        raise RuntimeError("branch duplication changed the diameter")
    return out


# ---------------------------------------------------------------------------
# Seed trees
# ---------------------------------------------------------------------------

def _uniform_piece(h: int) -> RootedTree:
    """The smallest uniform piece of height h: one vertex for h = 0, else a
    core and one part, each the piece of height h - 1; 2**h vertices."""
    u = RootedTree((-1,), 0)
    for _ in range(h):
        u = join(u, [u])
    return u


def _seed_halves(family: Family, d: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """The halves of seed(family, d), each as (core height, part heights) of
    smallest uniform pieces: one half, or for odd short-core and mixed d two
    halves joined root to root."""
    h = d // 2
    if family is Family.UNIFORM:
        return ((h, (h,)),) if d % 2 else ((h - 1, (h - 1, h - 1)),)
    short = (h - 2, (h - 1,))
    if family is Family.MIXED:
        return short, (h - 1, (h - 1,))
    return (short, short) if d % 2 else ((h - 2, (h - 1, h - 1)),)


def seed(family: Family, d: int) -> RootedTree:
    """Smallest member of `family` with diameter d, rooted at a central
    vertex (the smaller-id endpoint of the central edge when d is odd).

    The seed is the halves of `_seed_halves` joined root to root, so it has
    2**c + sum(2**p for p in ps) vertices summed over its halves (c, ps).
    Domains: UNIFORM needs d >= 1, SHORT_CORE d >= 4, MIXED odd d >= 5, and
    the seed may have at most MAX_VERTICES vertices.
    """
    if family not in (Family.UNIFORM, Family.SHORT_CORE, Family.MIXED):
        raise ValueError(f"no seed for family {family}")
    d = index(d)
    if family is Family.UNIFORM and d < 1:
        raise ValueError("uniform seed needs diameter >= 1")
    if family is Family.SHORT_CORE and d < 4:
        raise ValueError("short-core seed needs diameter >= 4")
    if family is Family.MIXED and (d < 5 or d % 2 == 0):
        raise ValueError("mixed seed needs odd diameter >= 5")
    halves = _seed_halves(family, d)
    # a diameter-d tree has over d vertices, so a huge d skips the sum
    if d >= MAX_VERTICES or sum(2 ** c + sum(2 ** p for p in ps)
                                for c, ps in halves) > MAX_VERTICES:
        raise ValueError(f"the {family.value} seed of diameter {d} has more than "
                         f"the supported {MAX_VERTICES} vertices")
    piece = {h: _uniform_piece(h) for c, ps in halves for h in (c, *ps)}
    first, *rest = [join(piece[c], [piece[p] for p in ps]) for c, ps in halves]
    return join(first, rest) if rest else first


# ---------------------------------------------------------------------------
# Recognition
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PieceCert:
    """Certificate that a piece of the tree decomposes recursively.

    The piece consists of `root` plus the branches listed through `parts`
    and `core`: parts are the full-height branches (each itself certified),
    core is the piece formed by the root and all shorter branches, certified
    one level down (two in a short-core piece, which is how `_uniform` tells
    the kinds apart).  Leaves of the recursion have height 0 and no core.
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


def _uniform(pc: PieceCert) -> bool:
    """A piece is uniform when it is a leaf or its core is one level below
    it; the core of a short-core piece is two levels below."""
    return pc.core is None or pc.core.height == pc.height - 1


def _piece(t: RootedTree, v: int, cap: int | None = None) -> PieceCert | None:
    """Certify the piece at v made of its branches of height <= cap (all
    branches when cap is None): of height h, its branches of height h - 1
    uniform parts, and v plus the shorter branches a uniform core of height
    h - 1 (a uniform piece) or h - 2 (a short-core piece); else None.

    One pass over v's branch heights g, ascending: v with its branches below
    g is the core, certified before the parts of height g are entered.  A
    uniform core of height >= g - 1 has 2**(g - 1) vertices or more, so the
    calls nest at most log2(n) + 2 deep, and each vertex is entered once."""
    hb = t.height_below
    kids = sorted((hb[c], c) for c in t.children[v] if cap is None or hb[c] <= cap)
    pc = PieceCert(v, 0, (), None)
    for g, branches in groupby(kids, key=lambda k: k[0]):
        if not _uniform(pc) or pc.height < g - 1:
            return None
        parts = []
        for _, c in branches:
            part = _piece(t, c)
            if part is None or not _uniform(part):
                return None
            parts.append(part)
        pc = PieceCert(v, g + 1, tuple(parts), pc)
    return pc


@dataclass(frozen=True)
class _FamilyAnalysis:
    """Structured recognizer output shared with the realization engine.

    `pieces` holds the decomposition at the centre of every supported tree:
    for even diameter the piece at the central vertex (its core one level
    short for SHORT_CORE), for odd diameter the two halves rooted at the
    endpoints of the central edge, smaller id first.  `_whole_piece_cert`
    joins them into the one piece the builder takes.
    """

    family: Family
    pieces: tuple[PieceCert, ...] = ()


def _family_analysis(t: RootedTree) -> _FamilyAnalysis:
    """The analysis of t, computed once per tree object and cached on it."""
    return t._analysis


def _analyze_family(t: RootedTree) -> _FamilyAnalysis:
    d, (r, *other) = diameter(t), main_roots(t)
    rt = reroot(t, r)
    # for odd d the half at r is everything except the other end's subtree;
    # with the tree rooted at r the branch toward the other end is the
    # unique tallest one, so capping at the side height picks out that half
    cap = (d - 1) // 2 - 1 if other else None
    pieces = (_piece(rt, r, cap), *(_piece(rt, v) for v in other))
    if None in pieces:
        return _FamilyAnalysis(Family.UNSUPPORTED)
    uniform = [_uniform(pc) for pc in pieces]
    fam = (Family.UNIFORM if all(uniform) else Family.MIXED if any(uniform)
           else Family.SHORT_CORE)
    return _FamilyAnalysis(fam, pieces)


def recognize_family(t: RootedTree) -> FamilyTag:
    """Decide which supported family t belongs to and produce a certificate.

    Never raises: trees outside all three families come back tagged
    UNSUPPORTED with the diameter still filled in.
    """
    an, d, ends = _family_analysis(t), diameter(t), main_roots(t)
    cert: dict = {"family": an.family.value, "diameter": d}
    if d % 2 == 0:
        cert["main_root"] = ends[0]
        if an.pieces:
            cert["piece"] = an.pieces[0].to_json()
    else:
        cert["main_edge"] = list(ends)
        if an.pieces:
            cert["sides"] = [{"root": pc.root, "kind": "uniform" if _uniform(pc) else "short_core",
                              "piece": pc.to_json()} for pc in an.pieces]
    return FamilyTag(an.family, d, cert)


def _whole_piece_cert(t: RootedTree, r: int) -> PieceCert | None:
    """The whole tree as one piece rooted at its central vertex r, read
    from the cached analysis; None outside the families.  Even diameter:
    the piece at the centre.  Odd diameter: the central join, the half at
    r as core and the other half as its one part, which for a uniform tree
    is the piece the recognizer would certify from r."""
    pieces = _family_analysis(t).pieces
    if len(pieces) < 2:
        return pieces[0] if pieces else None
    own, other = pieces if pieces[0].root == r else pieces[::-1]
    return PieceCert(r, own.height + 1, (other,), own)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def tree_to_json(t: RootedTree) -> dict:
    return {"n": t.n, "root": t.root, "edges": list(map(list, t.edges))}


def json_int(value) -> int:
    """An int field of a JSON document; a float or bool is refused, not truncated."""
    if type(value) is not int and (isinstance(value, bool) or not isinstance(value, int)):
        raise ValueError(f"not an integer: {value!r}")
    return value


def tree_from_json(obj: dict) -> RootedTree:
    try:
        n = json_int(obj["n"])
        root = json_int(obj["root"])
        edges = [(u, v) if type(u) is type(v) is int else (json_int(u), json_int(v))
                 for u, v in obj["edges"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed tree object: {exc}") from exc
    if n > MAX_VERTICES:
        raise ValueError(f"tree claims {n} vertices, more than the supported {MAX_VERTICES}")
    if n != len(edges) + 1:
        raise ValueError(f"tree claims {n} vertices but has {len(edges)} edges")
    return build_tree(edges, root)
