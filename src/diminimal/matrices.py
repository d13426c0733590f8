"""Symmetric matrices whose graph is a tree, with exact rational entries.

Off-diagonal entries are stored squared: the algorithms downstream only ever
consume squared edge weights, and keeping them squared means every quantity
in the package stays inside the rationals.
`parse_rational` is the one reader of every rational a caller passes in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import repeat
from operator import index, truediv
from typing import Iterable, Mapping, NamedTuple, Sequence

# bench/spans.py wraps build_tree as a matrices attribute, which nothing here calls
from .trees import RootedTree, build_tree, json_int, reroot, tree_from_json, tree_to_json


def _ratio(text: str | int | Fraction) -> tuple[int, int]:
    """`parse_rational` as a reduced (num, den) int pair, den > 0."""
    if type(text) is not str:  # a str, as JSON gives, goes straight on
        if isinstance(text, bool):
            raise ValueError("booleans are not rationals")
        if isinstance(text, (int, Fraction)):
            return text.numerator, text.denominator
        if not isinstance(text, str):
            try:  # numpy ints; numpy floats and bools raise TypeError
                return index(text), 1
            except TypeError:
                raise ValueError(f"not a rational: {text!r}") from None
    num, slash, den = text.strip().partition("/")
    if not slash:
        return int(num), 1
    num, den = int(num), int(den)
    if den == 0:
        raise ValueError(f"zero denominator in {text!r}")
    g = math.gcd(num, den) if den > 0 else -math.gcd(num, den)
    return num // g, den // g


def parse_rational(text: str | int | Fraction) -> Fraction:
    """The package's one reader of a rational, for every entry point: an int,
    numpy int, Fraction (as it is) or "p/q" or integer string.  Floats, bools,
    numpy floats, Decimals and decimal strings are ValueErrors on purpose:
    every interface is exact, and silently accepting 0.1 would poison that."""
    return text if isinstance(text, Fraction) else Fraction(*_ratio(text))


def format_rational(q: Fraction) -> str:
    """Inverse of parse_rational: "p/q", or "p" when the denominator is 1."""
    return _pair_text(q.numerator, q.denominator)


def _pair_text(p: int, q: int) -> str:
    """`format_rational` of the reduced pair p/q, q > 0."""
    return str(p) if q == 1 else f"{p}/{q}"


class Rows(NamedTuple):
    """The elimination kernel's input: rows in postorder, the last one the
    root of the run.  Row k has diagonal dn[k]/dd[k] and squared weight
    wn[k]/wd[k] to its parent rows (0/1 at the root), occurs once under
    parent[k] (-1 at the root) and count more times under row r for each
    (r, count) of extra[k], and stands for copies[k] vertices of the tree.
    A matrix's `rows` is its n-row form, a row per vertex id, and its
    `quotient` the minimal DAG, a row per class of equal branches."""

    order: Sequence[int]
    parent: Sequence[int]
    dn: Sequence[int]
    dd: Sequence[int]
    wn: Sequence[int]
    wd: Sequence[int]
    extra: Sequence[Sequence[tuple[int, int]]]
    copies: Sequence[int]


class FloatBounds(NamedTuple):
    """Per-vertex float lower and upper bounds on the diagonal entries and the
    squared weights to the parent, indexed like `Rows`."""

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
    """Symmetric rational matrix supported on a tree, held as the kernel's
    `rows` in n-row form, whose entries `from_arrays` takes.  diag[i] is the
    diagonal entry of vertex i and sq_edge[j] the squared off-diagonal entry
    of tree.edges[j], tuples of Fractions built on first read.  All squared
    weights must be strictly positive, so the matrix graph really is the
    tree."""

    tree: RootedTree
    rows: Rows

    def __init__(self, tree: RootedTree, diag: Sequence[Fraction],
                 sq_edge: Sequence[Fraction]) -> None:
        if len(sq_edge) != len(tree.edges):
            raise ValueError("sq_edge length does not match edge count")
        self._hold(tree, *_read(tree, diag, zip(tree.edges, sq_edge)))

    @classmethod
    def from_arrays(cls, tree: RootedTree, dn: Sequence[int], dd: Sequence[int],
                    wn: Sequence[int], wd: Sequence[int]) -> WeightedTreeMatrix:
        """The matrix with diagonal entries dn[i]/dd[i] and squared weights
        wn[c]/wd[c] from each c but the root to its parent: reduced pairs with
        dd, wd and wn > 0."""
        m = cls.__new__(cls)
        m._hold(tree, dn, dd, wn, wd)
        return m

    def _hold(self, tree: RootedTree, dn: Sequence[int], dd: Sequence[int],
              wn: Sequence[int], wd: Sequence[int]) -> None:
        """Check the pairs of `from_arrays` and keep them as this matrix."""
        n, r = tree.n, tree.root
        if not len(dn) == len(dd) == len(wn) == len(wd) == n:
            raise ValueError(f"kernel arrays do not match the vertex count {n}")
        wn, wd = (*wn[:r], 0, *wn[r + 1:]), (*wd[:r], 1, *wd[r + 1:])
        if min(dd) <= 0 or min(wd) <= 0:
            raise ValueError("denominators must be positive")
        if min(wn[:r] + wn[r + 1:], default=1) <= 0:
            w = next(Fraction(wn[c], wd[c]) for c in _edge_children(tree) if wn[c] <= 0)
            raise ValueError(f"squared edge weight must be positive, got {w}")
        self.__dict__.update(tree=tree, rows=Rows(tree.order, tree.parent, tuple(dn), tuple(dd),
                                                  wn, wd, ((),) * n, (1,) * n))

    @property
    def n(self) -> int:
        return self.tree.n

    @cached_property
    def diag(self) -> tuple[Fraction, ...]:
        return tuple(map(Fraction, self.rows.dn, self.rows.dd))

    @cached_property
    def sq_edge(self) -> tuple[Fraction, ...]:
        a = self.rows
        return tuple(Fraction(a.wn[c], a.wd[c]) for c in _edge_children(self.tree))

    def rerooted(self, tree: RootedTree) -> WeightedTreeMatrix:
        """This matrix on `tree`, its tree rooted elsewhere: the weights on the
        path from the new root up move to the other end of their edge, whose
        parent link reverses as in `reroot`; self.tree gives self, any other is refused."""
        if tree is self.tree:
            return self
        a = self.rows
        if tree.n != self.n:
            raise ValueError("the tree is not this matrix's tree rooted elsewhere")
        parent, wn, wd = list(a.parent), list(a.wn), list(a.wd)
        carry, v, below = (0, 1), tree.root, -1
        while v != -1:
            carry, (wn[v], wd[v]) = (wn[v], wd[v]), carry
            parent[v], below, v = below, v, parent[v]
        if tuple(parent) != tree.parent:
            raise ValueError("the tree is not this matrix's tree rooted elsewhere")
        return WeightedTreeMatrix.from_arrays(tree, a.dn, a.dd, wn, wd)

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
        a, children = self.rows, self.tree.children
        entry = list(zip(a.dn, a.dd, a.wn, a.wd))
        # a vertex's key is its entries and its child classes sorted, a class
        # once per child of it (none at a leaf)
        cls, copies, index = [0] * self.n, [0] * self.n, {}
        for v in a.order:
            key = (entry[v], *sorted(map(cls.__getitem__, children[v])))
            cls[v] = k = index.setdefault(key, len(index))
            copies[k] += 1
        n = len(index)
        parent, extra, entries = [-1] * n, [()] * n, []
        for k, key in enumerate(index):
            entries.append(key[0])
            tally: dict[int, int] = {}
            for c in key[1:]:
                tally[c] = tally.get(c, 0) + 1
            for c, j in tally.items():
                if parent[c] == -1:
                    parent[c], j = k, j - 1
                if j:
                    extra[c] += ((k, j),)
        return Rows(range(n), parent, *zip(*entries), extra, copies[:n])

    @cached_property
    def gershgorin_bound(self) -> Fraction:
        """Rational B with every eigenvalue in [-B, B], cached: the largest row
        sum of |diag| and, per edge once, (isqrt(num*den) + 1)/den rounded up
        to 10**-6 steps."""
        a, grid, steps = self.rows, 10 ** 6, [0] * self.n
        for c in a.order[:-1]:
            r, p = -(-(math.isqrt(a.wn[c] * a.wd[c]) + 1) * grid // a.wd[c]), a.parent[c]
            steps[c], steps[p] = steps[c] + r, steps[p] + r
        return max(Fraction(abs(x) * grid + r * y, y * grid) for x, y, r in zip(a.dn, a.dd, steps))

    @cached_property
    def float_bounds(self) -> FloatBounds:
        """Float bounds of the entries of `rows`, cached for the float pass
        of `locate.counts_at`."""
        a = self.rows
        return FloatBounds(*_enclose_all(a.dn, a.dd), *_enclose_all(a.wn, a.wd))

    @cached_property
    def float_scale(self) -> float:
        """max(1, n times the largest |diagonal entry| or weight) in floats,
        cached: the scale of the band of `oracle.compare_counts`.  Int true
        division is correctly rounded, as float(Fraction) is, and raises
        OverflowError when an entry is beyond the float range."""
        a = self.rows
        top = max(max(map(abs, map(truediv, a.dn, a.dd))),
                  math.sqrt(max(map(truediv, a.wn, a.wd))))  # the root's 0/1 adds 0
        return max(1.0, top * self.n)

    @cached_property
    def float_spectrum(self):
        """`dense_eigenvalues(to_dense_float(self))` of `oracle`, cached; an
        error and the n*n floats are not.  Read by `compare_counts` and
        isolation."""
        from . import oracle  # oracle imports this module
        return oracle.dense_eigenvalues(oracle.to_dense_float(self))


def _edge_children(tree: RootedTree) -> list[int]:
    """The child end of each edge of tree.edges, where its weight is kept."""
    parent = tree.parent
    return [v if parent[v] == u else u for u, v in tree.edges]


def make_matrix(tree: RootedTree, diag: Sequence[Fraction | int | str],
                sq_edge: Mapping[tuple[int, int], Fraction | int | str]) -> WeightedTreeMatrix:
    """Convenience constructor taking a squared-weight mapping keyed by edge,
    in either orientation, with int or numpy int ends, and rational-like values."""
    try:  # index takes ints, numpy ints and bools (refused next), not floats or strs
        sq = [((index(u), index(v)), w) for (u, v), w in sq_edge.items()]
        if any(isinstance(x, bool) for key in sq_edge for x in key):
            raise TypeError("a bool is not a vertex id")
    except (TypeError, ValueError) as exc:
        raise ValueError(f"sq_edge keys must be pairs of ints: {exc}") from None
    return WeightedTreeMatrix.from_arrays(tree, *_read(tree, diag, sq))


def _read(tree: RootedTree, diag: Iterable, entries: Iterable) -> tuple[Sequence[int], ...]:
    """The `from_arrays` pairs of diag and of the weights w2 of entries
    ((u, v), w2), for every constructor from rationals.  An edge listed twice
    is refused as the entries are read, then an entry that is not a rational
    (diag first); an entry off the tree is reported after the missing edges."""
    n, parent = tree.n, tree.parent
    got, seen, other = [], [False] * n, set()
    for (u, v), w in entries:
        c = n  # the child end of a tree edge, else n, a slot past the arrays
        if 0 <= u < n and 0 <= v < n:
            c = v if parent[v] == u else u if parent[u] == v else n
        if c < n and not seen[c]:
            seen[c] = True
        elif c == n and (pair := (min(u, v), max(u, v))) not in other:
            other.add(pair)
        else:
            raise ValueError(f"edge ({u}, {v}) is listed twice in sq_edge")
        got.append((c, w))
    d, wn, wd = list(map(_ratio, diag)), [0] * (n + 1), [1] * (n + 1)
    for c, w in got:
        wn[c], wd[c] = _ratio(w)
    if seen.count(False) > 1:  # the root's is always False
        u, v = next(e for e, c in zip(tree.edges, _edge_children(tree)) if not seen[c])
        raise ValueError(f"missing squared weight for edge ({u}, {v})")
    if other:
        raise ValueError("squared-weight mapping mentions edges not in the tree")
    if len(d) != n:
        raise ValueError("diag length does not match vertex count")
    return (*zip(*d), wn[:n], wd[:n])


def trace(m: WeightedTreeMatrix) -> Fraction:
    return sum(m.diag, Fraction(0))


def delete_vertex(m: WeightedTreeMatrix, v: int) -> list[WeightedTreeMatrix]:
    """Principal submatrix on T minus v, split into its connected components.

    Each component comes back as a standalone WeightedTreeMatrix whose tree
    is rooted at the former neighbor of v, with ids compacted to 0..m-1 in
    increasing order of the original ids.  Components come in ascending
    order of those neighbors.  They are the subtrees of v's children in the
    tree rerooted at v, whose rows give the entries: each vertex's weight is
    the one to its parent in its component (or to v, which its root drops).
    """
    if not (0 <= v < m.n):
        raise ValueError(f"vertex {v} out of range")
    t = reroot(m.tree, v)
    a, nbs = m.rerooted(t).rows, t.children[v]
    comps = [t.subtree(nb) for nb in nbs]
    new = {u: i for ids in comps for i, u in enumerate(ids)}  # new id by old id
    return [WeightedTreeMatrix.from_arrays(
        RootedTree(tuple(-1 if u == nb else new[t.parent[u]] for u in ids), new[nb]),
        *([x[u] for u in ids] for x in a[2:6])) for nb, ids in zip(nbs, comps)]


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def matrix_to_json(m: WeightedTreeMatrix) -> dict:
    a = m.rows
    return {
        "tree": tree_to_json(m.tree),
        "diag": list(map(_pair_text, a.dn, a.dd)),
        "sq_edge": [
            {"u": u, "v": v, "w2": _pair_text(a.wn[c], a.wd[c])}
            for (u, v), c in zip(m.tree.edges, _edge_children(m.tree))
        ],
    }


def matrix_from_json(obj: dict) -> WeightedTreeMatrix:
    """The matrix of a `matrix_to_json` object, its sq_edge entries read as
    they come, so a malformed one is reported at its place in the list."""
    try:
        tree = tree_from_json(obj["tree"])
        diag = obj["diag"]
        if not isinstance(diag, list):
            raise TypeError(f"diag is not a JSON array: {diag!r}")
        return WeightedTreeMatrix.from_arrays(tree, *_read(tree, diag, (
            ((json_int(e["u"]), json_int(e["v"])), e["w2"]) for e in obj["sq_edge"])))
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed matrix object: {exc}") from exc


def matrix_to_dot(m: WeightedTreeMatrix) -> str:
    a = m.rows
    lines = ["graph matrix {"]
    for v in range(m.n):
        shape = ", shape=box" if v == m.tree.root else ""
        lines.append(f'  {v} [label="{v}: {_pair_text(a.dn[v], a.dd[v])}"{shape}];')
    for (u, v), c in zip(m.tree.edges, _edge_children(m.tree)):
        p, q = a.wn[c], a.wd[c]
        try:
            note = f"  // weight ~ {math.sqrt(p / q):.6g}"
        except OverflowError:
            note = ""  # the exact label stands alone when w2 exceeds floats
        lines.append(f'  {u} -- {v} [label="w2={_pair_text(p, q)}"];{note}')
    lines.append("}")
    return "\n".join(lines) + "\n"
