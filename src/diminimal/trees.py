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
    centre, read from the branch heights in one pass (a bit mask per
    vertex); the builder reads the same pieces from the heights as
    (vertex, height) pairs, the tree rooted by ``_whole_piece_cert``.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
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
class FamilyTag:
    """Result of recognize_family: the family, the diameter, and a nested
    certificate describing the decomposition that witnesses the tag."""

    family: Family
    diameter: int
    certificate: dict


@dataclass(frozen=True)
class _FamilyAnalysis:
    """Structured recognizer output shared with the realization engine: the
    family and, for a supported tree, its central roots (`main_roots`) and
    whether the piece at each is uniform (else short-core).  For even
    diameter that piece is the whole tree at the central vertex, for odd
    diameter the half at that end of the central edge."""

    family: Family
    roots: tuple[int, ...] = ()
    uniform: tuple[bool, ...] = ()


def _family_analysis(t: RootedTree) -> _FamilyAnalysis:
    """The analysis of t, computed once per tree object and cached on it."""
    return t._analysis


def _analyze_family(t: RootedTree) -> _FamilyAnalysis:
    """One pass over the postorder of t rooted at its first central vertex.

    The piece at v of height h is v with its branches of height below h.
    It is uniform when its branches are uniform pieces of every height
    below h, and short-core when h >= 2 and they are of every height below
    h but h - 2.  So mask[v] sets bit g for each height g of v's branches,
    and -1 (which stays -1 under |) once one of them is not uniform.  Every
    central piece has height d // 2; for odd d the half at the first end
    leaves out its branch toward the other end."""
    d, roots = diameter(t), main_roots(t)
    rt = reroot(t, roots[0])
    # the other end for odd d; for even d the root, which the loop never meets
    hb, parent, skip = rt.height_below, rt.parent, roots[-1]
    mask = [0] * rt.n
    for v in rt.order[:-1]:
        if v != skip:
            # the piece at v, of height g = hb[v], is uniform when m is
            # 2**g - 1 (its top bit is g - 1); m >= 0 first, as -1 & 0 == 0,
            # and no int of g bits is made on a tall unsupported tree
            m = mask[v]
            mask[parent[v]] |= 1 << hb[v] if m >= 0 and m & (m + 1) == 0 else -1
    h = d // 2
    full = (1 << h) - 1
    kinds = [mask[v] for v in roots]
    if not all(m == full or h >= 2 and m == full - (1 << (h - 2)) for m in kinds):
        return _FamilyAnalysis(Family.UNSUPPORTED)
    uniform = tuple(m == full for m in kinds)
    fam = (Family.UNIFORM if all(uniform) else Family.MIXED if any(uniform)
           else Family.SHORT_CORE)
    return _FamilyAnalysis(fam, roots, uniform)


def _split(t: RootedTree, v: int, h: int) -> tuple[int, list[int]]:
    """The core height and the parts of the piece at v of height h >= 1 in
    a supported tree: the parts are v's branches of height h - 1, in
    ascending id, and the core is v with its shorter branches."""
    hb, kids = t.height_below, t.children[v]
    return (max((hb[c] + 1 for c in kids if hb[c] < h - 1), default=0),
            [c for c in kids if hb[c] == h - 1])


def _piece_json(t: RootedTree, v: int, h: int) -> dict:
    """The certificate of the piece at v of height h, nested down to leaves."""
    if h == 0:
        return {"root": v, "height": 0, "parts": [], "core": None}
    core, parts = _split(t, v, h)
    return {"root": v, "height": h, "parts": [_piece_json(t, c, h - 1) for c in parts],
            "core": _piece_json(t, v, core)}


def recognize_family(t: RootedTree) -> FamilyTag:
    """Decide which supported family t belongs to and produce a certificate.

    Never raises: trees outside all three families come back tagged
    UNSUPPORTED with the diameter still filled in.
    """
    an, d, ends = _family_analysis(t), diameter(t), main_roots(t)
    cert: dict = {"family": an.family.value, "diameter": d}
    # the central pieces of a supported tree, read with t rooted at ends[0]
    rt = reroot(t, ends[0]) if an.roots else None
    pieces = [_piece_json(rt, v, d // 2) for v in an.roots]
    if d % 2 == 0:
        cert["main_root"] = ends[0]
        if pieces:
            cert["piece"] = pieces[0]
    else:
        cert["main_edge"] = list(ends)
        if pieces:
            cert["sides"] = [{"root": v, "kind": "uniform" if u else "short_core", "piece": pc}
                             for v, u, pc in zip(an.roots, an.uniform, pieces)]
    return FamilyTag(an.family, d, cert)


def _whole_piece_cert(t: RootedTree, r: int) -> RootedTree | None:
    """t rooted at its central vertex r, which the builder reads as one
    piece of its height there, or None outside the families.  For odd d
    that piece is the central join: the half at r is its core and the
    other end, r's one tallest branch, its part."""
    return None if _family_analysis(t).family is Family.UNSUPPORTED else reroot(t, r)


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
