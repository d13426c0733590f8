"""Exact eigenvalue location for tree-structured symmetric matrices.

The engine performs a bottom-up congruence diagonalization of M + x*I over
the rationals.  By Sylvester's law of inertia the signs of the resulting
final values count the eigenvalues of M on either side of -x, and the zeros
count the multiplicity of -x itself.  Everything else in this module
(interval counts, Parter vertex search, and isolation, where LAPACK's float
eigenvalues only choose where to count) is built on that single primitive.

That primitive is one kernel, `_run`, over int rows instead of Fraction
objects: the classes of equal branches of the matrix's quotient, each run
once and counted once per copy, or in the n-row form one row per vertex.
Each value is a reduced (num, den) pair, added with Henrici's gcd split and
divided with cross-cancellation, so it stays exact without per-operation
object overhead.  One pass serves a batch of points, each with its own
Schur sums and zero-pairing, as in the multi-shift bisection of LAPACK's
dstebz (Demmel, Dhillon and Ren).

`counts_at`, the one counting routine, runs that elimination with adaptive
precision, after Shewchuk's adaptive predicates and the interval filters of
Bronnimann, Burnikel and Pion.  It works in float intervals whose every
bound is rounded outward by one ulp, so each interval encloses the exact
value.  Where a vertex interval meets 0 or is not finite, `_run` computes
that vertex's subtree afresh in exact arithmetic (n-row form), replacing
what the pass counted in it; the exact Schur term goes on up as an
interval, and an exact 0 pairs with the parent.  So every count is exact,
and exact work is spent only where floats cannot decide.  At a true
eigenvalue most vertices need it, so once repairs dominate the pass ends in
one exact run from the root.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, gcd, inf, nan, nextafter
from typing import Collection, Sequence

from .matrices import Rows, WeightedTreeMatrix, delete_vertex, enclose


@dataclass(frozen=True)
class DiagOutcome:
    """Result of one diagonalization run of M + x*I.

    final_values maps vertex id to its final diagonal value.  inertia is
    (negative, zero, positive) counts over those values.  removed_edges
    lists the parent edges deactivated by the zero-child rule, and pivots
    the vertices at which that rule fired.
    """

    final_values: dict[int, Fraction]
    inertia: tuple[int, int, int]
    removed_edges: tuple[tuple[int, int], ...]
    pivots: frozenset[int]


def _run(rows: Rows, points: Sequence[tuple[int, int]],
         values: list[dict] | None = None, pivots: list[list] | None = None) -> list[tuple]:
    """The elimination kernel: bottom-up congruence diagonalization of
    M + x*I over `rows` (see `Rows`), in postorder with the run's root
    last, at each point x = xn/xd of `points`, all in one pass.

    Values are reduced (num, den) int pairs, den > 0.  Row k is d + x plus
    the Schur terms -w/v of its child rows, a child row that occurs c times
    under it adding c times its term.  Each row pushes to one slot per
    parent row and point: its term onto the Schur sum there, or, if it is
    0, a mark that replaces the sum and that a later term leaves alone.  A
    marked row pairs at each copy with one zero child, the smallest such
    row j (j becomes 2, k becomes -w2(j)/2), and pushes nothing up; other
    zero children stay zeros.  The root is a row like any other: its push
    lands in a slot nothing reads, and its value is the last one computed.
    Negatives and zeros count copies[k] times, so a run over the quotient
    counts every vertex of the tree.  Sums use Henrici's split: with
    g = gcd(b, q), only a divisor of g can be common to the numerator and
    the denominator b*q/g of a/b + p/q, and quotients cross-cancel.  Returns
    (negatives, zeros, root value) per point; `values` and `pivots` hold a
    dict and a list per point, if given, for the final value of each row and
    the rows where the pairing rule fired (per vertex in the n-row form)."""
    order, parent, dn, dd, wn, wd, extra, copies = rows
    idx, blank = range(len(points)), [None] * len(points)
    neg, zero = [0] * len(points), [0] * len(points)
    tn, td = blank.copy(), blank.copy()  # the last row's value, at the end the root's
    # per parent row and point: None, the Schur sum (p, q) with q > 0 of
    # the terms pushed so far, or (j, 0) for the smallest zero child row j
    acc = {}
    for k in order:
        terms, more = acc.pop(k, blank), extra[k]
        if (up := acc.get(parent[k])) is None:
            up = acc[parent[k]] = blank.copy()
        if more:  # the quotient's further parents: k is j more times under r
            more = [(acc.setdefault(r, blank.copy()), j) for r, j in more]
        d, e, wk, vk, cp = dn[k], dd[k], wn[k], wd[k], copies[k]
        for i in idx:
            # a/b = d + x, then + the Schur sum, or k pairs at a zero mark;
            # the sums are inlined on purpose, the loop body runs once per
            # row and point
            xn, xd = points[i]
            if xd == 1:
                a, b = d + xn * e, e
            elif e == 1:
                a, b = d * xd + xn, xd
            else:
                g = gcd(e, xd)
                if g == 1:
                    a, b = d * xd + xn * e, e * xd
                else:
                    s = e // g
                    a = d * (xd // g) + xn * s
                    g = gcd(a, g)
                    a, b = (a, s * xd) if g == 1 else (a // g, s * (xd // g))
            if (t := terms[i]) is not None:
                p, q = t
                if not q:  # a zero mark: k pairs with its zero child row j
                    j = p
                    a, b = (-wn[j], 2 * wd[j]) if wn[j] & 1 else (-(wn[j] >> 1), wd[j])
                    zero[i], neg[i], tn[i], td[i] = zero[i] - cp, neg[i] + cp, a, b
                    if pivots is not None:
                        pivots[i].append(k)
                    if values is not None:
                        values[i][j], values[i][k] = (2, 1), (a, b)
                    continue
                g = gcd(b, q)
                if g == 1:
                    a, b = a * q + p * b, b * q
                else:
                    s = b // g
                    a = a * (q // g) + p * s
                    g = gcd(a, g)
                    a, b = (a, s * q) if g == 1 else (a // g, s * (q // g))
            tn[i], td[i] = a, b
            if values is not None:
                values[i][k] = (a, b)
            if not a:
                zero[i] += cp
                for t in (up, *(t for t, _ in more)) if more else (up,):
                    if (x := t[i]) is None or x[1] or x[0] > k:
                        t[i] = (k, 0)
                continue
            # the Schur term -w/(a/b) = -(w*b)/(v*a), cross-cancelled
            w, v = wk, vk
            g = gcd(w, a)
            if g != 1:
                w, a = w // g, a // g
            g = gcd(b, v)
            if g != 1:
                b, v = b // g, v // g
            if a > 0:
                p, q = -w * b, v * a
            else:
                neg[i] += cp
                p, q = w * b, -v * a
            if more:
                for t, j in more:
                    g = gcd(j, q)
                    pj, qj = p * (j // g), q // g
                    if (x := t[i]) is None:
                        t[i] = (pj, qj)
                    elif x[1]:  # a sum; a zero mark stays
                        u, s = x
                        g = gcd(s, qj)
                        u, s = u * (qj // g) + pj * (s // g), s // g * qj
                        g = gcd(u, g)
                        t[i] = (u // g, s // g)
            if (t := up[i]) is None:
                up[i] = (p, q)
            elif t[1]:  # a sum; a zero mark stays
                r, s = t
                g = gcd(s, q)
                if g == 1:
                    up[i] = (r * q + p * s, s * q)
                else:
                    s //= g
                    r = r * (q // g) + p * s
                    g = gcd(r, g)
                    up[i] = (r, s * q) if g == 1 else (r // g, s * (q // g))
    return list(zip(neg, zero, zip(tn, td)))


def _fraction(x) -> Fraction:  # Fraction() of a Fraction costs an ABC check
    return x if type(x) is Fraction else Fraction(x)


def diagonalize(m: WeightedTreeMatrix, x: Fraction) -> DiagOutcome:
    """Congruence-diagonalize M + x*I bottom-up from the tree's root.
    Exact; never touches floats."""
    x = _fraction(x)
    vals, pivots = {}, []
    (neg, zero, _), = _run(m.rows, ((x.numerator, x.denominator),), [vals], [pivots])
    parent = m.tree.parent
    removed = sorted((min(k, p), max(k, p)) for k in pivots if (p := parent[k]) != -1)
    return DiagOutcome({v: Fraction(*vals[v]) for v in m.tree.order},
                       (neg, zero, m.n - neg - zero), tuple(removed),
                       frozenset(pivots))


@dataclass(frozen=True)
class CountsAt:
    """Exact eigenvalue counts of a matrix relative to one query point."""

    below: int
    equal: int
    above: int


# counts_at ends its float pass in one exact run from the root once the
# subtrees it repaired hold over 1/_EXACT_SHARE of the vertices it passed,
# so its exact work stays within n + n/8 vertices.
_EXACT_SHARE = 8


def counts_at(m: WeightedTreeMatrix, point: Fraction) -> CountsAt:
    """How many eigenvalues of m are <, ==, > the query point: the inertia
    of M - point*I, by the adaptive pass of the module docstring, eliminating
    from the tree's root."""
    p = _fraction(point)
    xn, xd = -p.numerator, p.denominator
    order, parent, _, _, wn, wd, _, _ = m.rows
    fb = m.float_bounds
    nxt, up, down = nextafter, inf, -inf
    slo, shi = enclose(xn, xd)
    # Schur sums collect on top of the diagonal; the extra slot takes the
    # root's term (its parent is -1) and is never read
    alo, ahi = fb.dlo + [0.0], fb.dhi + [0.0]
    wlo, whi, size, pos = fb.wlo, fb.whi, m.tree.size, m.tree.pos
    # float negatives, (postorder position, negatives, zeros) of repairs and
    # pairings, and the parents of repaired children that are exactly 0
    negs, fixes, zero_kid = [], [], set()
    neg_float, spent = negs.append, 0
    for k in order:
        lo = nxt(alo[k] + slo, down)
        hi = nxt(ahi[k] + shi, up)
        p = parent[k]
        if 0.0 < lo and hi < up:
            # -w/v for v in [lo, hi], v > 0; the bounds hold for any w in
            # [wlo, whi] with w > 0, so a wlo below 0 from underflow is safe
            alo[p] = nxt(alo[p] - nxt(whi[k] / lo, up), down)
            ahi[p] = nxt(ahi[p] - nxt(wlo[k] / hi, down), up)
            continue
        if hi < 0.0 and down < lo:
            neg_float(k)
            # -w/v = w/|v| for |v| in [-hi, -lo]
            alo[p] = nxt(alo[p] + nxt(wlo[k] / -lo, down), down)
            ahi[p] = nxt(ahi[p] + nxt(whi[k] / -hi, up), up)
            continue
        i = pos[k]
        if k in zero_kid:
            # lo is nan: a repaired child of k is exactly 0, so k pairs with
            # it (the child turns positive, k negative) and cuts its edge up
            fixes.append((i, 1, -1))
            continue
        spent += size[k]
        if spent * _EXACT_SHARE > i:
            (neg, zero, _), = _run(m.rows, ((xn, xd),))
            return CountsAt(below=neg, equal=zero, above=len(order) - neg - zero)
        # k's subtree is the block of the postorder that ends at k; the
        # kernel runs all of it afresh, so what was counted in it is dropped
        start = i + 1 - size[k]
        while negs and pos[negs[-1]] >= start:
            negs.pop()
        while fixes and fixes[-1][0] >= start:
            fixes.pop()
        (neg, zero, (a, b)), = _run(Rows(order[start:i + 1], *m.rows[1:]), ((xn, xd),))
        fixes.append((i, neg, zero))
        if not a:
            zero_kid.add(p)
            alo[p] = nan
            continue
        t = Fraction(-wn[k] * b, wd[k] * a)
        lo, hi = enclose(t.numerator, t.denominator)
        alo[p], ahi[p] = nxt(alo[p] + lo, down), nxt(ahi[p] + hi, up)
    neg, zero = len(negs), 0
    for _, n, z in fixes:
        neg, zero = neg + n, zero + z
    return CountsAt(below=neg, equal=zero, above=len(order) - neg - zero)


def multiplicity(m: WeightedTreeMatrix, point: Fraction) -> int:
    return counts_at(m, point).equal


def count_in_interval(m: WeightedTreeMatrix, a: Fraction, b: Fraction) -> int:
    """Number of eigenvalues in the closed interval [a, b].  Raises
    ValueError when a > b."""
    a, b = _fraction(a), _fraction(b)
    if a > b:
        raise ValueError(f"empty interval: {a} > {b}")
    if a == b:
        return counts_at(m, a).equal
    at_a, at_b = counts_at(m, a), counts_at(m, b)
    return at_b.below + at_b.equal - at_a.below


def counts_within(m: WeightedTreeMatrix, point: Fraction,
                  vertices: Collection[int]) -> CountsAt:
    """Counts for the principal submatrix of m on `vertices`, which must be
    non-empty and induce a subtree, without building it: a public count that
    checks one block, such as an `AssemblyRecord`'s `pred`, from outside."""
    vs = set(vertices)
    # inertia does not depend on the root: run from the set's topmost vertex
    rows = m.rows
    order = [v for v in rows.order if v in vs]
    if (not order or len(order) != len(vs)
            or any(rows.parent[v] not in vs for v in order[:-1])):
        raise ValueError("vertex set does not induce a connected subtree")
    p = _fraction(point)
    (neg, zero, _), = _run(Rows(order, *rows[1:]), ((-p.numerator, p.denominator),))
    return CountsAt(below=neg, equal=zero, above=len(order) - neg - zero)


# ---------------------------------------------------------------------------
# Bounds and isolation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IsolatedInterval:
    """Half-open interval (lo, hi] holding `count` eigenvalues."""

    lo: Fraction
    hi: Fraction
    count: int


# an estimate e stands for an eigenvalue within _ESTIMATE_TOL * max(1, max|e|);
# estimates cost a dense eigensolve, which on a constructed uniform matrix of
# 1024 vertices took longer than the counts it saved at width 1/1000
_ESTIMATE_TOL, _ESTIMATE_MAX_N = 1e-9, 512


def isolate_eigenvalues(m: WeightedTreeMatrix, width: Fraction) -> list[IsolatedInterval]:
    """Cover the spectrum with disjoint half-open intervals of length at most
    `width`, each carrying the exact number of eigenvalues it contains: the
    nonempty cells (-B-1 + c*l, -B-1 + (c+1)*l], B = m.gershgorin_bound and
    l = (2B+1)/2**L <= width, L least.  The cuts around the cells near each
    estimate in `m.float_spectrum` (if n <= _ESTIMATE_MAX_N) are counted, and
    segments between counted cuts that hold eigenvalues are split at their
    most aligned cut.  Every count is a difference of exact counts, so a wrong
    estimate costs counts, never an interval; with none, this is bisection."""
    width = _fraction(width)
    if width <= 0:
        raise ValueError("width must be positive")
    bound = m.gershgorin_bound
    # cut c is (c*span - base)/den; 2**L is the least power of 2 >= (2B+1)/width
    p, q = bound.numerator, bound.denominator
    span = 2 * p + q
    cells = 1 << (-(-span * width.denominator // (width.numerator * q)) - 1).bit_length()
    base, den = (p + q) * cells, q * cells
    try:
        est = m.float_spectrum.values if m.n <= _ESTIMATE_MAX_N else ()
        tol = _ESTIMATE_TOL * max([1.0, *map(abs, est)])
        x0, per = float(-bound - 1), float(Fraction(den, span))  # cells per unit
        # the cut below the cell of e - tol and the cut above that of e + tol
        near = [ceil((e + t - x0) * per) - (t < 0) for e in est for t in (-tol, tol)]
    except (OverflowError, ValueError, RuntimeError, MemoryError):
        near = []  # overflow, LinAlgError, ceil(nan), OracleError, no memory
    marks = sorted({0, cells, *(min(max(c, 0), cells) for c in near)})
    # counted cut -> (its point, eigenvalues at or below it); segments are
    # taken in ascending order, so a segment's lower cut is already counted
    at = {0: (-bound - 1, 0), cells: (bound, m.n)}
    out, todo = [], list(zip(marks, marks[1:]))[::-1]
    while todo:
        a, b = todo.pop()
        if b not in at:
            got = counts_at(m, x := Fraction(b * span - base, den))
            at[b] = (x, got.below + got.equal)
        if k := at[b][1] - at[a][1]:
            if b - a == 1:
                out.append(IsolatedInterval(at[a][0], at[b][0], k))
            else:  # at the cut in (a, b) with most trailing zeros, whose
                j = (a ^ (b - 1)).bit_length() - 1  # point has fewest bits
                mid = (b - 1) >> j << j
                todo += [(mid, b), (a, mid)]
    return out


# ---------------------------------------------------------------------------
# Structure probes
# ---------------------------------------------------------------------------

def is_parter(m: WeightedTreeMatrix, v: int, point: Fraction) -> bool:
    """True when deleting vertex v raises the multiplicity of `point` by
    exactly one."""
    before = multiplicity(m, point)
    after = sum(multiplicity(c, point) for c in delete_vertex(m, v))
    return after == before + 1


def find_parter_vertex(m: WeightedTreeMatrix, point: Fraction) -> int:
    """For an eigenvalue of multiplicity >= 2, return a vertex v of degree
    >= 3 whose deletion raises the multiplicity and leaves the eigenvalue
    in at least three components.

    The multiplicity and the candidate come from one diagonalization run:
    its zero count, and the parent of the deepest surviving zero.  If that
    vertex fails the degree or component conditions the remaining vertices
    are scanned in id order; on trees such a vertex always exists, so the
    scan is a fallback, not the common path.
    """
    point = _fraction(point)
    out = diagonalize(m, -point)
    mult = out.inertia[1]
    if mult < 2:
        raise ValueError(f"multiplicity of {point} is {mult}; need at least 2")

    def strong(v: int) -> bool:
        if m.tree.degree(v) < 3:
            return False
        comps = delete_vertex(m, v)
        mults = [multiplicity(c, point) for c in comps]
        return sum(mults) == mult + 1 and sum(1 for q in mults if q > 0) >= 3

    depth = m.tree.depth
    zeros = [v for v, q in out.final_values.items() if q == 0]
    # multiplicity >= 2 leaves at least two zeros, so the deepest zero has a
    # parent on the path toward the root
    deepest = min(zeros, key=lambda v: (-depth[v], v))
    cand = m.tree.parent[deepest]
    if cand != -1 and strong(cand):
        return cand
    for v in range(m.n):
        if v != cand and strong(v):
            return v
    raise AssertionError(f"no strong vertex found for {point}; this contradicts "
                         "the multiplicity structure of trees")
