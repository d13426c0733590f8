"""Symmetric matrices whose graph is a tree, with exact rational entries.

Off-diagonal entries are stored squared: the algorithms downstream only ever
consume squared edge weights, and keeping them squared means every quantity
in the package stays inside the rationals.  The float expansion used by the
cross-checking oracle takes square roots at the last possible moment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import repeat
from operator import truediv
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .trees import RootedTree, build_tree, json_int, reroot, tree_from_json, tree_to_json


def parse_rational(text: str | int) -> Fraction:
    """Parse "p/q" or a bare integer (string or int) into a Fraction.

    Floats are rejected on purpose: every interface of this package is
    exact, and silently accepting 0.1 would poison that.
    """
    if isinstance(text, bool):
        raise ValueError("booleans are not rationals")
    if isinstance(text, Fraction):
        return text
    if isinstance(text, int):
        return Fraction(text)
    if isinstance(text, str):
        s = text.strip()
        if "/" in s:
            num, den = (int(part) for part in s.split("/", 1))
            if den == 0:
                raise ValueError(f"zero denominator in {text!r}")
            return Fraction(num, den)
        return Fraction(int(s))
    raise ValueError(f"not a rational: {text!r}")


def format_rational(q: Fraction) -> str:
    """Inverse of parse_rational: "p/q", or "p" when the denominator is 1."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


class ElimArrays(NamedTuple):
    """A matrix rooted at order[-1] as the elimination kernel reads it:
    postorder, parent ids (-1 at the root), diagonal numerators and
    denominators, and each vertex's squared weight to its parent."""

    order: tuple[int, ...]
    parent: tuple[int, ...]
    dn: list[int]
    dd: list[int]
    wn: list[int]
    wd: list[int]


class FloatBounds(NamedTuple):
    """Per-vertex float lower and upper bounds on the diagonal entries and the
    squared weights to the parent, indexed like `ElimArrays`."""

    dlo: list[float]
    dhi: list[float]
    wlo: list[float]
    whi: list[float]


def enclose(p: int, q: int) -> tuple[float, float]:
    """Floats around p/q (q > 0): int true division is correctly rounded,
    so one ulp either side of it encloses the exact value; -inf and inf
    when p/q is beyond the float range."""
    try:
        f = p / q
    except OverflowError:
        return -math.inf, math.inf
    return math.nextafter(f, -math.inf), math.nextafter(f, math.inf)


def _enclose_all(num: list[int], den: list[int]) -> list[list[float]]:
    """Lower and upper float bounds of each num[i]/den[i], as two lists; equal
    bounds share one float object, since the entries of a matrix repeat."""
    try:
        bounds = [list(map(math.nextafter, map(truediv, num, den), repeat(to)))
                  for to in (-math.inf, math.inf)]
    except OverflowError:
        bounds = list(zip(*map(enclose, num, den)))
    same: dict[float, float] = {}
    return [list(map(same.setdefault, b, b)) for b in bounds]


@dataclass(frozen=True)
class WeightedTreeMatrix:
    """Symmetric rational matrix supported on a tree.

    diag[i] is the diagonal entry of vertex i; sq_edge[j] is the squared
    off-diagonal entry of tree.edges[j].  All squared weights are required
    to be strictly positive, so the matrix graph really is the tree.
    """

    tree: RootedTree
    diag: tuple[Fraction, ...]
    sq_edge: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if len(self.diag) != self.tree.n:
            raise ValueError("diag length does not match vertex count")
        if len(self.sq_edge) != len(self.tree.edges):
            raise ValueError("sq_edge length does not match edge count")
        for w in self.sq_edge:
            if w <= 0:
                raise ValueError(f"squared edge weight must be positive, got {w}")

    @property
    def n(self) -> int:
        return self.tree.n

    @cached_property
    def sq_weight(self) -> dict[tuple[int, int], Fraction]:
        """Squared weight lookup keyed by normalized (min, max) vertex pair."""
        return dict(zip(self.tree.edges, self.sq_edge))

    @cached_property
    def arrays(self) -> ElimArrays:
        """Kernel arrays for the tree's own root, cached."""
        t, wn, wd = self.tree, [0] * self.n, [1] * self.n
        for (u, v), w in zip(t.edges, self.sq_edge):
            c = v if t.parent[v] == u else u
            wn[c], wd[c] = w.numerator, w.denominator
        return ElimArrays(t.order, t.parent, [q.numerator for q in self.diag],
                          [q.denominator for q in self.diag], wn, wd)

    @cached_property
    def gershgorin_bound(self) -> Fraction:
        """Rational B with every eigenvalue in [-B, B], cached: the largest row
        sum of |diag| and, per edge once, (isqrt(num*den) + 1)/den rounded up
        to 10**-6 steps."""
        grid, steps = 10 ** 6, [0] * self.n
        for (u, v), w in zip(self.tree.edges, self.sq_edge):
            r = -(-(math.isqrt(w.numerator * w.denominator) + 1) * grid // w.denominator)
            steps[u], steps[v] = steps[u] + r, steps[v] + r
        return max(Fraction(abs(q.numerator) * grid + r * q.denominator, q.denominator * grid)
                   for q, r in zip(self.diag, steps))

    @cached_property
    def float_bounds(self) -> FloatBounds:
        """Float bounds of `arrays`, cached for the float pass of
        `locate.counts_at`."""
        a = self.arrays
        return FloatBounds(*_enclose_all(a.dn, a.dd), *_enclose_all(a.wn, a.wd))

    @cached_property
    def float_spectrum(self):
        """`oracle.dense_eigenvalues(to_dense_float(self))`, cached; an error and
        the n*n floats are not.  Read by `compare_counts` and isolation."""
        from . import oracle  # oracle imports this module
        return oracle.dense_eigenvalues(oracle.to_dense_float(self))


def make_matrix(tree: RootedTree, diag: Sequence[Fraction | int | str],
                sq_edge: Mapping[tuple[int, int], Fraction | int | str]) -> WeightedTreeMatrix:
    """Convenience constructor taking a squared-weight mapping keyed by edge
    (either orientation) and any rational-like entry values."""
    d = tuple(q if isinstance(q, Fraction) else parse_rational(q) for q in diag)
    w: list[Fraction] = []
    for u, v in tree.edges:
        if (u, v) in sq_edge:
            raw = sq_edge[(u, v)]
        elif (v, u) in sq_edge:
            raw = sq_edge[(v, u)]
        else:
            raise ValueError(f"missing squared weight for edge ({u}, {v})")
        w.append(raw if isinstance(raw, Fraction) else parse_rational(raw))
    if len(sq_edge) != len(tree.edges):
        raise ValueError("squared-weight mapping mentions edges not in the tree")
    return WeightedTreeMatrix(tree, d, tuple(w))


def trace(m: WeightedTreeMatrix) -> Fraction:
    return sum(m.diag, Fraction(0))


def delete_vertex(m: WeightedTreeMatrix, v: int) -> list[WeightedTreeMatrix]:
    """Principal submatrix on T minus v, split into its connected components.

    Each component comes back as a standalone WeightedTreeMatrix whose tree
    is rooted at the former neighbor of v, with ids compacted to 0..m-1 in
    increasing order of the original ids.  Components come in ascending
    order of those neighbors.
    """
    if not (0 <= v < m.n):
        raise ValueError(f"vertex {v} out of range")
    t = reroot(m.tree, v)
    out: list[WeightedTreeMatrix] = []
    for nb in t.children[v]:
        comp = t.subtree(nb)
        # comp is sorted, so relabeling keeps every (min, max) edge normalized
        relabel = {old: new for new, old in enumerate(comp)}
        w: dict[tuple[int, int], Fraction] = {}
        for (a, b), x in zip(m.tree.edges, m.sq_edge):
            if a in relabel and b in relabel:
                w[relabel[a], relabel[b]] = x
        diag = tuple(m.diag[old] for old in comp)
        out.append(make_matrix(build_tree(w.keys(), relabel[nb]), diag, w))
    return out


def to_dense_float(m: WeightedTreeMatrix) -> np.ndarray:
    """Float expansion: diagonal as-is, off-diagonals +sqrt of the stored
    squared weights.  Its spectrum is a witness or an estimate, never a count."""
    a = np.zeros((m.n, m.n), dtype=float)
    for i, q in enumerate(m.diag):
        a[i, i] = float(q)
    for (u, v), w in zip(m.tree.edges, m.sq_edge):
        x = math.sqrt(float(w))
        a[u, v] = x
        a[v, u] = x
    return a


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def matrix_to_json(m: WeightedTreeMatrix) -> dict:
    return {
        "tree": tree_to_json(m.tree),
        "diag": [format_rational(q) for q in m.diag],
        "sq_edge": [
            {"u": u, "v": v, "w2": format_rational(w)}
            for (u, v), w in zip(m.tree.edges, m.sq_edge)
        ],
    }


def matrix_from_json(obj: dict) -> WeightedTreeMatrix:
    try:
        tree = tree_from_json(obj["tree"])
        if not isinstance(obj["diag"], list):
            raise TypeError(f"diag is not a JSON array: {obj['diag']!r}")
        diag = [parse_rational(q) for q in obj["diag"]]
        sq: dict[tuple[int, int], Fraction] = {}
        for e in obj["sq_edge"]:
            u, v = json_int(e["u"]), json_int(e["v"])
            if (u, v) in sq or (v, u) in sq:
                raise ValueError(f"edge ({u}, {v}) is listed twice in sq_edge")
            sq[(u, v)] = parse_rational(e["w2"])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed matrix object: {exc}") from exc
    return make_matrix(tree, diag, sq)


def matrix_to_dot(m: WeightedTreeMatrix) -> str:
    lines = ["graph matrix {"]
    for v in range(m.n):
        shape = ", shape=box" if v == m.tree.root else ""
        lines.append(f'  {v} [label="{v}: {format_rational(m.diag[v])}"{shape}];')
    for (u, v), w in zip(m.tree.edges, m.sq_edge):
        try:
            note = f"  // weight ~ {math.sqrt(float(w)):.6g}"
        except OverflowError:
            note = ""  # the exact label stands alone when w2 exceeds floats
        lines.append(f'  {u} -- {v} [label="w2={format_rational(w)}"];{note}')
    lines.append("}")
    return "\n".join(lines) + "\n"
