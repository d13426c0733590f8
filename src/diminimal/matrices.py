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

# bench/spans.py wraps build_tree as a matrices attribute, which nothing here calls
from .trees import RootedTree, build_tree, json_int, reroot, tree_from_json, tree_to_json


def _ratio(text: str | int | Fraction) -> tuple[int, int]:
    """`parse_rational` as a reduced (num, den) int pair, den > 0."""
    if isinstance(text, bool):
        raise ValueError("booleans are not rationals")
    if isinstance(text, (int, Fraction)):
        return text.numerator, text.denominator
    if not isinstance(text, str):
        raise ValueError(f"not a rational: {text!r}")
    num, slash, den = text.strip().partition("/")
    num, den = int(num), int(den) if slash else 1
    if den == 0:
        raise ValueError(f"zero denominator in {text!r}")
    g = math.gcd(num, den) if den > 0 else -math.gcd(num, den)
    return num // g, den // g


def parse_rational(text: str | int) -> Fraction:
    """Parse "p/q" or a bare integer (string or int) into a Fraction.

    Floats are rejected on purpose: every interface of this package is
    exact, and silently accepting 0.1 would poison that.
    """
    return text if isinstance(text, Fraction) else Fraction(*_ratio(text))


def format_rational(q: Fraction) -> str:
    """Inverse of parse_rational: "p/q", or "p" when the denominator is 1."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


class ElimArrays(NamedTuple):
    """A matrix rooted at order[-1] in ints: postorder, parent ids (-1 at the
    root), and reduced pairs for the diagonal entries and each vertex's
    squared weight to its parent (0/1 at the root).  The kernel's `Rows` are
    read from it."""

    order: tuple[int, ...]
    parent: tuple[int, ...]
    dn: tuple[int, ...]
    dd: tuple[int, ...]
    wn: tuple[int, ...]
    wd: tuple[int, ...]


class Rows(NamedTuple):
    """The elimination kernel's input: rows in postorder, the last one the
    root of the run.  Row k has diagonal dn[k]/dd[k] and squared weight
    wn[k]/wd[k] to its parent rows, occurs once under parent[k] (-1 at the
    root) and count more times under row r for each (r, count) of
    extra[k], and stands for copies[k] vertices of the tree.  A matrix's
    `rows` is its n-row form, a row per vertex id, and its `quotient` the
    minimal DAG, a row per class of equal branches."""

    order: Sequence[int]
    parent: Sequence[int]
    extra: Sequence[Sequence[tuple[int, int]]]
    dn: Sequence[int]
    dd: Sequence[int]
    wn: Sequence[int]
    wd: Sequence[int]
    copies: Sequence[int]


def vertex_rows(tree: RootedTree, dn: Sequence[int], dd: Sequence[int],
                wn: Sequence[int], wd: Sequence[int]) -> Rows:
    """The n-row form of the arrays on `tree`: its postorder and parents,
    no further parent rows, every copy 1."""
    return Rows(tree.order, tree.parent, ((),) * tree.n, dn, dd, wn, wd, (1,) * tree.n)


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


@dataclass(frozen=True, init=False)
class WeightedTreeMatrix:
    """Symmetric rational matrix supported on a tree, held as its int
    `arrays`, which `from_arrays` takes.  diag[i] is the diagonal entry of
    vertex i and sq_edge[j] the squared off-diagonal entry of tree.edges[j],
    tuples of Fractions built on first read.  All squared weights must be
    strictly positive, so the matrix graph really is the tree."""

    tree: RootedTree
    arrays: ElimArrays

    def __init__(self, tree: RootedTree, diag: Sequence[Fraction],
                 sq_edge: Sequence[Fraction]) -> None:
        if len(sq_edge) != len(tree.edges):
            raise ValueError("sq_edge length does not match edge count")
        self.__dict__.update(make_matrix(tree, diag, dict(zip(tree.edges, sq_edge))).__dict__)

    @classmethod
    def from_arrays(cls, tree: RootedTree, dn: Sequence[int], dd: Sequence[int],
                    wn: Sequence[int], wd: Sequence[int]) -> WeightedTreeMatrix:
        """The matrix with diagonal entries dn[i]/dd[i] and squared weights
        wn[c]/wd[c] from each c but the root to its parent: reduced pairs with
        dd, wd and wn > 0."""
        n, r = tree.n, tree.root
        if not len(dn) == len(dd) == len(wn) == len(wd) == n:
            raise ValueError(f"kernel arrays do not match the vertex count {n}")
        wn, wd = (*wn[:r], 0, *wn[r + 1:]), (*wd[:r], 1, *wd[r + 1:])
        if min(dd) <= 0 or min(wd) <= 0:
            raise ValueError("denominators must be positive")
        if min(wn[:r] + wn[r + 1:], default=1) <= 0:
            w = next(Fraction(wn[c], wd[c]) for c in (v if tree.parent[v] == u else u
                                                       for u, v in tree.edges) if wn[c] <= 0)
            raise ValueError(f"squared edge weight must be positive, got {w}")
        m = cls.__new__(cls)
        m.__dict__.update(tree=tree, arrays=ElimArrays(
            tree.order, tree.parent, tuple(dn), tuple(dd), wn, wd))
        return m

    @property
    def n(self) -> int:
        return self.tree.n

    @cached_property
    def diag(self) -> tuple[Fraction, ...]:
        return tuple(map(Fraction, self.arrays.dn, self.arrays.dd))

    @cached_property
    def sq_edge(self) -> tuple[Fraction, ...]:
        a, parent = self.arrays, self.tree.parent
        return tuple(Fraction(a.wn[c], a.wd[c]) for c in (v if parent[v] == u else u
                                                          for u, v in self.tree.edges))

    @cached_property
    def sq_weight(self) -> dict[tuple[int, int], Fraction]:
        """Squared weight lookup keyed by normalized (min, max) vertex pair."""
        return dict(zip(self.tree.edges, self.sq_edge))

    def rerooted(self, tree: RootedTree) -> WeightedTreeMatrix:
        """This matrix on `tree`, its tree rooted elsewhere: the weights on the
        path from the new root up move to the other end of their edge."""
        a = self.arrays
        wn, wd, carry, v = list(a.wn), list(a.wd), (0, 1), tree.root
        while v != -1:
            carry, (wn[v], wd[v]) = (wn[v], wd[v]), carry
            v = a.parent[v]
        return WeightedTreeMatrix.from_arrays(tree, a.dn, a.dd, wn, wd)

    @cached_property
    def rows(self) -> Rows:
        """The n-row form of `arrays`, cached."""
        return vertex_rows(self.tree, *self.arrays[2:])

    @cached_property
    def quotient(self) -> Rows:
        """The minimal DAG of the weighted tree (Downey, Sethi and Tarjan),
        cached: vertices with equal entries, equal squared weight to their
        parents and equal multisets of child classes form one class, found
        in one postorder pass.  Rows are the classes in postorder; each
        lists the classes it is a child of, with how often it occurs there,
        and how many vertices it holds.  Repeated branches factor out of the
        characteristic polynomial (Schwenk), so the kernel runs each class
        once and counts it once per copy."""
        a, children = self.arrays, self.tree.children
        entry = list(zip(a.dn, a.dd, a.wn, a.wd))
        # a leaf's key is its entries, another vertex's its entries and its
        # child classes sorted, a class once per child of it
        cls, copies, index = [0] * self.n, [0] * self.n, {}
        for v in a.order:
            ch = children[v]
            key = (entry[v], *sorted(map(cls.__getitem__, ch))) if ch else entry[v]
            cls[v] = k = index.setdefault(key, len(index))
            copies[k] += 1
        n = len(index)
        parent, extra, entries = [-1] * n, [()] * n, []
        for k, key in enumerate(index):
            if type(key[0]) is int:
                entries.append(key)
                continue
            entries.append(key[0])
            tally: dict[int, int] = {}
            for c in key[1:]:
                tally[c] = tally.get(c, 0) + 1
            for c, j in tally.items():
                if parent[c] == -1:
                    parent[c], j = k, j - 1
                if j:
                    extra[c] += ((k, j),)
        return Rows(range(n), parent, extra, *zip(*entries), copies[:n])

    @cached_property
    def gershgorin_bound(self) -> Fraction:
        """Rational B with every eigenvalue in [-B, B], cached: the largest row
        sum of |diag| and, per edge once, (isqrt(num*den) + 1)/den rounded up
        to 10**-6 steps."""
        a, grid, steps = self.arrays, 10 ** 6, [0] * self.n
        for c in a.order[:-1]:
            r, p = -(-(math.isqrt(a.wn[c] * a.wd[c]) + 1) * grid // a.wd[c]), a.parent[c]
            steps[c], steps[p] = steps[c] + r, steps[p] + r
        return max(Fraction(abs(x) * grid + r * y, y * grid) for x, y, r in zip(a.dn, a.dd, steps))

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
    return _from_ratios(tree, [_ratio(q) for q in diag],
                        {e: _ratio(w) for e, w in sq_edge.items()})


def _from_ratios(tree: RootedTree, diag: list[tuple[int, int]],
                 sq: Mapping[tuple[int, int], tuple[int, int]]) -> WeightedTreeMatrix:
    """`make_matrix` on reduced (num, den) pairs."""
    wn, wd, parent = [0] * tree.n, [1] * tree.n, tree.parent
    for u, v in tree.edges:
        w = sq.get((u, v)) or sq.get((v, u))
        if w is None:
            raise ValueError(f"missing squared weight for edge ({u}, {v})")
        c = v if parent[v] == u else u
        wn[c], wd[c] = w
    if len(sq) != len(tree.edges):
        raise ValueError("squared-weight mapping mentions edges not in the tree")
    if len(diag) != tree.n:
        raise ValueError("diag length does not match vertex count")
    return WeightedTreeMatrix.from_arrays(tree, [p for p, _ in diag], [q for _, q in diag], wn, wd)


def trace(m: WeightedTreeMatrix) -> Fraction:
    return sum(m.diag, Fraction(0))


def delete_vertex(m: WeightedTreeMatrix, v: int) -> list[WeightedTreeMatrix]:
    """Principal submatrix on T minus v, split into its connected components.

    Each component comes back as a standalone WeightedTreeMatrix whose tree
    is rooted at the former neighbor of v, with ids compacted to 0..m-1 in
    increasing order of the original ids.  Components come in ascending
    order of those neighbors.  Linear time: the entries are read from the
    arrays of m rerooted at v, where each vertex's weight is the one to its
    parent in its component (or to v, which the component root drops).
    """
    if not (0 <= v < m.n):
        raise ValueError(f"vertex {v} out of range")
    t = reroot(m.tree, v)
    a, nbs = m.rerooted(t).arrays, t.children[v]
    comp, new = [0] * m.n, [0] * m.n  # component index and new id by old id
    for i, nb in enumerate(nbs):
        for u in t.block(nb):
            comp[u] = i
    members: list[list[int]] = [[] for _ in nbs]
    for u in range(m.n):
        if u != v:
            ids = members[comp[u]]
            new[u] = len(ids)
            ids.append(u)
    return [WeightedTreeMatrix.from_arrays(
        RootedTree(tuple(-1 if u == nb else new[t.parent[u]] for u in ids), new[nb]),
        *([x[u] for u in ids] for x in a[2:])) for nb, ids in zip(nbs, members)]


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
        diag = [_ratio(q) for q in obj["diag"]]
        sq: dict[tuple[int, int], tuple[int, int]] = {}
        for e in obj["sq_edge"]:
            u, v = json_int(e["u"]), json_int(e["v"])
            if (u, v) in sq or (v, u) in sq:
                raise ValueError(f"edge ({u}, {v}) is listed twice in sq_edge")
            sq[(u, v)] = _ratio(e["w2"])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed matrix object: {exc}") from exc
    return _from_ratios(tree, diag, sq)


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
