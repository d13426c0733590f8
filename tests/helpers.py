"""Shared test utilities: random trees, random matrices, branch unfoldings."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby

import numpy as np

from diminimal import (
    Family,
    RootedTree,
    WeightedTreeMatrix,
    build_tree,
    diameter,
    duplicate_branch,
    format_rational,
    main_roots,
    reroot,
    tree_to_json,
)


def subtree_ids(t: RootedTree, v: int) -> list[int]:
    out, stack = [], [v]
    while stack:
        u = stack.pop()
        out.append(u)
        stack.extend(t.children[u])
    return out


def random_tree(n: int, rng: random.Random) -> RootedTree:
    """Uniform random recursive tree on n vertices rooted at 0."""
    if n == 1:
        return build_tree([], 0)
    edges = [(rng.randrange(i), i) for i in range(1, n)]
    return build_tree(edges, 0)


def random_matrix(t: RootedTree, rng: random.Random) -> WeightedTreeMatrix:
    diag = tuple(
        Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(t.n)
    )
    sq = tuple(
        Fraction(rng.randint(1, 16), rng.randint(1, 4)) for _ in t.edges
    )
    return WeightedTreeMatrix(t, diag, sq)


def rooted_at(m: WeightedTreeMatrix, r: int) -> WeightedTreeMatrix:
    """The same matrix on its tree rerooted at r (tree.edges, which sq_edge
    follows, does not depend on the root)."""
    return WeightedTreeMatrix(reroot(m.tree, r), m.diag, m.sq_edge)


def random_unfolding(
    t: RootedTree,
    rng: random.Random,
    rounds: int,
    cap: int = 200,
) -> RootedTree:
    """Apply up to `rounds` random branch duplications that avoid the main
    roots and keep the vertex count at or below cap."""
    for _ in range(rounds):
        roots = set(main_roots(t))
        cands = [
            (v, c)
            for v in range(t.n)
            for c in t.children[v]
            if not roots.intersection(subtree_ids(t, c))
        ]
        if not cands:
            return t
        v, c = rng.choice(cands)
        copies = rng.choice((1, 1, 2))
        if t.n + copies * len(subtree_ids(t, c)) > cap:
            continue
        t = duplicate_branch(t, v, c, copies)
    return t


def reference_elimination(m: WeightedTreeMatrix, x: Fraction, root: int,
                          vertices=None):
    """Plain-Fraction bottom-up elimination of M + x*I rooted at `root`,
    optionally restricted to a vertex set that is closed toward the root:
    the reference the package's integer-pair kernel is checked against.
    Returns (final values, pivots, removed edges)."""
    t, w2 = reroot(m.tree, root), dict(zip(m.tree.edges, m.sq_edge))
    keep = set(range(m.n) if vertices is None else vertices)
    order = [v for v in t.order if v in keep]
    d = {v: m.diag[v] + x for v in order}
    pivots, removed = set(), set()
    for k in order:
        kids = [c for c in t.children[k]
                if c in keep and (min(c, k), max(c, k)) not in removed]
        zeros = [c for c in kids if d[c] == 0]
        if zeros:
            j = min(zeros)
            d[k] = -w2[(min(j, k), max(j, k))] / 2
            d[j] = Fraction(2)
            pivots.add(k)
            if k != root:
                removed.add((min(k, t.parent[k]), max(k, t.parent[k])))
        else:
            d[k] -= sum(w2[(min(c, k), max(c, k))] / d[c] for c in kids)
    return d, pivots, removed


def reference_isolate(m: WeightedTreeMatrix, width: Fraction) -> list:
    """Depth-first bisection with one exact counts_at per split point: the
    reference that isolate_eigenvalues must match interval for interval."""
    from diminimal import IsolatedInterval, counts_at

    bound = m.gershgorin_bound
    memo: dict = {}

    def cum(q):
        if q not in memo:
            c = counts_at(m, q)
            memo[q] = c.below + c.equal
        return memo[q]

    out, stack = [], [(-bound - 1, bound, m.n)]
    while stack:
        a, b, k = stack.pop()
        if k == 0:
            continue
        if b - a <= width:
            out.append(IsolatedInterval(a, b, k))
            continue
        mid = (a + b) / 2
        left = cum(mid) - cum(a)
        stack += [(a, mid, left), (mid, b, k - left)]
    return sorted(out, key=lambda iv: iv.lo)


def generic_d4(p: int, ts: tuple[int, ...]) -> RootedTree:
    """Diameter-4 tree: center 0 with ts[0] pendant leaves and p arms,
    arm i carrying ts[i] leaves.  Requires p >= 2 and every ts[i] >= 1."""
    if not (p >= 2 and len(ts) == p + 1 and all(x >= 1 for x in ts)):
        raise ValueError(f"no diameter-4 tree with p={p} and ts={ts}")
    edges = []
    nxt = 1
    for _ in range(ts[0]):
        edges.append((0, nxt))
        nxt += 1
    for i in range(1, p + 1):
        arm = nxt
        nxt += 1
        edges.append((0, arm))
        for _ in range(ts[i]):
            edges.append((arm, nxt))
            nxt += 1
    return build_tree(edges, 0)


def ahu(t: RootedTree, v: int | None = None) -> str:
    """AHU canonical string of the rooted tree (children order-insensitive)."""
    if v is None:
        v = t.root
    kids = sorted(ahu(t, c) for c in t.children[v])
    return "(" + "".join(kids) + ")"


def tree_canon(t: RootedTree) -> str:
    """Canonical form of the underlying unrooted tree."""
    return min(ahu(t) if t.root == r else ahu_rerooted(t, r) for r in main_roots(t))


def ahu_rerooted(t: RootedTree, r: int) -> str:
    from diminimal import reroot

    return ahu(reroot(t, r))


CORPUS_CELLS: tuple[tuple[Family, int], ...] = tuple(
    [(Family.UNIFORM, d) for d in range(1, 13) for _ in range(8)]
    + [(Family.SHORT_CORE, d) for d in range(6, 12) for _ in range(10)]
    + [(Family.MIXED, d) for d in (7, 9, 11) for _ in range(16)]
)

CORPUS_WEIGHTS: tuple[tuple[Fraction, Fraction], ...] = (
    (Fraction(0), Fraction(32)),
    (Fraction(-3), Fraction(29)),
    (Fraction(1, 2), Fraction(65, 2)),
    (Fraction(0), Fraction(7)),
    (Fraction(-5), Fraction(3)),
    (Fraction(-7, 3), Fraction(11, 3)),
)


# The matrix writers and the float expansion as they were written over the
# Fraction views: the references the int-pair versions must match byte for
# byte and bit for bit.

def reference_matrix_to_json(m: WeightedTreeMatrix) -> dict:
    return {
        "tree": tree_to_json(m.tree),
        "diag": [format_rational(q) for q in m.diag],
        "sq_edge": [{"u": u, "v": v, "w2": format_rational(w)}
                    for (u, v), w in zip(m.tree.edges, m.sq_edge)],
    }


def reference_matrix_to_dot(m: WeightedTreeMatrix) -> str:
    lines = ["graph matrix {"]
    for v in range(m.n):
        shape = ", shape=box" if v == m.tree.root else ""
        lines.append(f'  {v} [label="{v}: {format_rational(m.diag[v])}"{shape}];')
    for (u, v), w in zip(m.tree.edges, m.sq_edge):
        try:
            note = f"  // weight ~ {math.sqrt(float(w)):.6g}"
        except OverflowError:
            note = ""
        lines.append(f'  {u} -- {v} [label="w2={format_rational(w)}"];{note}')
    lines.append("}")
    return "\n".join(lines) + "\n"


def reference_to_dense_float(m: WeightedTreeMatrix) -> np.ndarray:
    a = np.zeros((m.n, m.n), dtype=float)
    for i, q in enumerate(m.diag):
        a[i, i] = float(q)
    for (u, v), w in zip(m.tree.edges, m.sq_edge):
        a[u, v] = a[v, u] = math.sqrt(float(w))
    return a


def reference_float_scale(m: WeightedTreeMatrix) -> float:
    """The scale of the oracle's band: max(1, n * the largest |entry|)."""
    top = max([abs(float(q)) for q in m.diag] + [math.sqrt(float(w)) for w in m.sq_edge])
    return max(1.0, top * m.n)


# The recursive piece certificate the recognizer built before its mask pass:
# the reference the pass and the certificate JSON are checked against.

@dataclass(frozen=True)
class RefPiece:
    """A piece: `root` with the full-height branches `parts` (uniform
    pieces) and the `core` of root and shorter branches, one level below a
    uniform piece and two below a short-core one; a leaf has no core."""

    root: int
    height: int
    parts: tuple
    core: "RefPiece | None"

    @property
    def uniform(self) -> bool:
        return self.core is None or self.core.height == self.height - 1

    def to_json(self) -> dict:
        return {"root": self.root, "height": self.height,
                "parts": [p.to_json() for p in self.parts],
                "core": None if self.core is None else self.core.to_json()}


def reference_piece(t: RootedTree, v: int, cap: int | None = None) -> RefPiece | None:
    """The piece at v made of its branches of height <= cap (all when cap
    is None), certified over its branch heights lowest first, or None."""
    hb = t.height_below
    kids = sorted((hb[c], c) for c in t.children[v] if cap is None or hb[c] <= cap)
    pc = RefPiece(v, 0, (), None)
    for g, branches in groupby(kids, key=lambda k: k[0]):
        if not pc.uniform or pc.height < g - 1:
            return None
        parts = []
        for _, c in branches:
            part = reference_piece(t, c)
            if part is None or not part.uniform:
                return None
            parts.append(part)
        pc = RefPiece(v, g + 1, tuple(parts), pc)
    return pc


def reference_pieces(t: RootedTree) -> tuple[RefPiece, ...] | None:
    """The central pieces of t by the reference, one per central vertex
    with t rooted at the first (for odd d the half there leaves out its
    branch toward the other end), or None when one fails."""
    d, (r, *other) = diameter(t), main_roots(t)
    rt = reroot(t, r)
    cap = (d - 1) // 2 - 1 if other else None
    pieces = (reference_piece(rt, r, cap), *(reference_piece(rt, v) for v in other))
    return None if None in pieces else pieces


def reference_family(t: RootedTree) -> Family:
    pieces = reference_pieces(t)
    if pieces is None:
        return Family.UNSUPPORTED
    uniform = [pc.uniform for pc in pieces]
    return (Family.UNIFORM if all(uniform) else Family.MIXED if any(uniform)
            else Family.SHORT_CORE)
