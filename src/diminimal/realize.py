"""Constructive realization of tree matrices with the minimum number of
distinct eigenvalues.

For a tree of diameter d at least d+1 distinct eigenvalues are unavoidable.
This module builds, for every tree in the three supported families, exact
rational matrices attaining that bound, and certifies the result.

The engine works bottom-up over the tree rooted at a central vertex.  It
reads each piece from the heights as a vertex v and a height h: the parts
are v's branches of height h - 1, the core is v with its shorter branches.
Each piece of height L is realized over the 2L+2 target values of the
level-L ladder with one of two anchors:

  * LOW   anchored at the bottom of the slice, pinned at values[2L],
  * HIGH  anchored at the top, pinned at values[1],

each optionally shifted: the LOW bottom value or the HIGH top value is
raised by a shift below step(L-1).  The public LOW_SHIFT and HIGH_SHIFT
variants are those shifted shapes.

A short-core or mixed tree is one or two halves, each a piece of height
L+1 over the level-L ladder with its children at their own heights: the LOW
half pinned at values[2L+1], and the HIGH half, its core raised by a step of
its height, at values[0].  Two halves are joined across the central edge
as one piece of height L+2, the LOW half its core and the HIGH half its
part, pinned one step(L-1) above the HIGH half's forced top.

Joining blocks is the single primitive: one shared squared weight attaches
every part root to the core root, chosen so the assembled block gains a
prescribed eigenvalue strictly beyond all block spectra.  The two extreme
block eigenvalues merge into the interior and a new extreme value appears on
the opposite side, with its position forced exactly by the trace.  The weight
is solved from the claims alone: a block's root value at the pin point y is
det(B - y)/det(B - root - y), a ratio of products over the claimed spectra,
so a join runs no kernel.  The returned certificate is proved by one run of
the finished matrix at all d+1 values in `verify_certificate`, so a wrong
claim or a construction bug cannot survive to it.  Its `audit()` then checks
every intermediate claim (`_audit`): each block a join took in, run at its
claims and y, and each piece built at its own level, probed at its root.

Every value the builder claims (ladder values, steps, shifts, pin points,
forced values and predicted spectra) is alpha plus an integer multiple of
(beta - alpha)/2**K, K the top ladder level, plus at most one user shift.  So
the builder fixes one common denominator q per construction and holds each
such value as the int numerator N of N/q: the multiset bookkeeping hashes,
compares and adds ints.  A Fraction is built only where a value leaves the
builder: a level-0 diagonal entry, a point handed to the kernel (once per
distinct N), the assembly records and the certificate.  Root values at pin
points and the solved join weights (not on that grid) stay int pairs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import cache, cached_property, partial
from itertools import chain
from math import gcd, lcm
from operator import index
from typing import Iterable, Sequence

# bench/spans.py wraps _run, counts_at, diagonalize, make_matrix, join and
# reroot as realize attributes, so all six are imported here; only _run is used
from .locate import _run, counts_at, diagonalize
from .matrices import Rows, WeightedTreeMatrix, format_rational, make_matrix, parse_rational
from .trees import (MAX_VERTICES, Family, RootedTree, _family_analysis, _split,
                    _whole_piece_cert, diameter, join, main_roots, reroot)


class Variant(Enum):
    LOW = "low"
    HIGH = "high"
    LOW_SHIFT = "low-shift"
    HIGH_SHIFT = "high-shift"


@dataclass(frozen=True)
class Ladder:
    """Level-k target spectrum: 2k+2 strictly increasing rationals built
    from the anchor pair (alpha, beta).

    Level 1 is (2a-b, a, b, 2b-a).  Each later level keeps all values but
    the largest, prepends a new bottom value step(k) below the old one, and
    appends two new top values step(k) apart starting step(k) above the
    discarded one, where step(j) = (beta-alpha)/2**j.  alpha and beta always
    sit at indices k and k+1.
    """

    alpha: Fraction
    beta: Fraction
    k: int
    values: tuple[Fraction, ...]

    def step(self, j: int) -> Fraction:
        return (self.beta - self.alpha) / 2 ** j


def ladder(alpha: Fraction, beta: Fraction, k: int) -> Ladder:
    alpha, beta, k = parse_rational(alpha), parse_rational(beta), index(k)
    if beta <= alpha:
        raise ValueError(f"need alpha < beta, got {alpha} >= {beta}")
    if not 1 <= k < MAX_VERTICES.bit_length():  # a level-k uniform tree has >= 2**k vertices
        raise ValueError(f"ladder level must be 1 to {MAX_VERTICES.bit_length() - 1}, got {k}")
    q = lcm(alpha.denominator, ((beta - alpha) / 2 ** (k - 1)).denominator)
    top = _ladder_levels(_grid(alpha, q), _grid(beta - alpha, q), k)[-1]
    return Ladder(alpha, beta, k, tuple(Fraction(v, q) for v in top))


def _grid(x: Fraction, q: int) -> int:
    """The numerator N of x = N/q."""
    n, r = divmod(x.numerator * q, x.denominator)
    if r:
        raise RuntimeError(f"{x} is not a multiple of 1/{q}")
    return n


def _ladder_levels(a: int, span: int, k: int) -> list[tuple[int, ...]]:
    """Ladder levels 1 to k as numerators over one denominator q, from
    alpha = a/q and beta - alpha = span/q; 2**(k-1) must divide span."""
    vals = [a - span, a, a + span, a + 2 * span]
    levels = []
    for j in range(1, k + 1):
        if j > 1:
            d = span >> (j - 1)
            vals = [vals[0] - d] + vals[:-1] + [vals[-1] + d, vals[-1] + 2 * d]
        if vals[j] != a or vals[j + 1] != a + span:
            raise RuntimeError(f"ladder level {j} lost its anchors")
        if any(x >= y for x, y in zip(vals, vals[1:])):
            raise RuntimeError(f"ladder level {j} is not strictly increasing")
        levels.append(tuple(vals))
    return levels


# ---------------------------------------------------------------------------
# Joining primitives
# ---------------------------------------------------------------------------

def _delta_squared(core_root_value: tuple[int, int],
                   part_root_values: Sequence[tuple[int, int]]) -> tuple[int, int]:
    """Shared squared weight that zeroes out the assembled root at the pin
    point, as a reduced pair: core value divided by the sum of part value
    reciprocals, each value a (num, den) int pair, den nonzero.  Parts of one
    shape share a value, so each distinct value is added once, times its count."""
    counts: dict[tuple[int, int], int] = {}
    for v in part_root_values:
        counts[v] = counts.get(v, 0) + 1
    sn, sd = 0, 1
    for (num, den), c in counts.items():
        sn, sd = sn * num + c * den * sd, sd * num
    num, den = core_root_value[0] * sd, core_root_value[1] * sn
    g = gcd(num, den) if den >= 0 else -gcd(num, den)
    return num // g, den // g


# ---------------------------------------------------------------------------
# Certified construction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AssemblyRecord:
    """Audit trail of one internal join: the blocks that went in, the pin
    point, the solved weight, and the multiset bookkeeping (a and b are the
    extreme block values that merged inward, forced = a + b - y).  `pred` is
    a claim, and `sq_delta` is solved from the claims of the blocks that went
    in: the last pred is the proved dspec, and the others, with the root
    values behind each weight, are proved only by the certificate's `audit()`
    (or independently, by counts_within on their vertices)."""

    core_root: int
    core_vertices: tuple[int, ...]
    core_pred: tuple[tuple[Fraction, int], ...]
    parts: tuple[tuple[int, tuple[int, ...], tuple[tuple[Fraction, int], ...]], ...]
    y: Fraction
    side: str
    sq_delta: Fraction
    a: Fraction
    b: Fraction
    forced: Fraction
    pred: tuple[tuple[Fraction, int], ...]


@dataclass(frozen=True)
class RealizationCertificate:
    """A constructed matrix together with its fully verified spectrum.

    dspec lists (eigenvalue, multiplicity) in increasing eigenvalue order;
    the distinct count always equals diameter + 1.  Every dspec claim was
    checked by exact congruence counts before the certificate was issued.
    """

    matrix: WeightedTreeMatrix
    dspec: tuple[tuple[Fraction, int], ...]
    family: Family
    variant: str
    alpha: Fraction
    beta: Fraction
    shift: Fraction | None
    construction_root: int
    _builder: _Builder = field(compare=False, repr=False)

    @cached_property
    def assemblies(self) -> tuple[AssemblyRecord, ...]:
        """The audit trail of every join in build order, built on first read."""
        return tuple(AssemblyRecord(
            core_root=blk.root, core_vertices=tuple(sorted(blk.core.order)),
            core_pred=blk.core.spec,
            parts=tuple((p.root, tuple(sorted(p.order)), p.spec) for p in blk.parts),
            y=Fraction(y, blk.q), side=side, sq_delta=Fraction(*d2), a=Fraction(a, blk.q),
            b=Fraction(b, blk.q), forced=Fraction(forced, blk.q), pred=blk.spec,
        ) for blk, y, side, d2, a, b, forced, *_ in self._builder.log)

    def audit(self) -> RealizationCertificate:
        """Check every claim the build made on the way (see `_audit`) and
        return the certificate; a failed check raises RuntimeError."""
        _audit(self._builder, self.matrix.rerooted(self._builder.rt))
        return self

    @property
    def distinct_values(self) -> int:
        return len(self.dspec)

    def to_json(self) -> dict:
        return {
            "family": self.family.value,
            "variant": self.variant,
            "alpha": format_rational(self.alpha),
            "beta": format_rational(self.beta),
            "shift": None if self.shift is None else format_rational(self.shift),
            "construction_root": self.construction_root,
            "dspec": [
                {"value": format_rational(v), "multiplicity": m}
                for v, m in self.dspec
            ],
        }


@dataclass(eq=False)
class _Block:
    """A vertex subset joined from a core and parts (None and () at a leaf)."""

    root: int
    size: int
    pred: dict[int, int]  # grid numerator -> multiplicity
    # pred less the preds of B - root, the parts along the core chain; None
    # once a join has consumed the block, as only that join reads it
    net: dict[int, int] | None
    q: int  # the grid's denominator
    core: _Block | None = None
    parts: tuple[_Block, ...] = ()

    # built on first read, which only the audit and the assembly records do
    @cached_property
    def order(self) -> tuple[int, ...]:  # postorder of the block, root last
        return (tuple(chain(*(p.order for p in self.parts), self.core.order))
                if self.core else (self.root,))

    @cached_property
    def spec(self) -> tuple[tuple[Fraction, int], ...]:  # pred as sorted Fractions
        return tuple((Fraction(lam, self.q), m) for lam, m in sorted(self.pred.items()))


class _Builder:
    """Bottom-up constructor over a fixed rooting of the target tree.

    Diagonal entries and squared weights (an edge's at its child in this
    rooting) accumulate in the kernel's flat arrays by vertex id; blocks are
    vertex subsets with their postorder, so no intermediate matrix is built.

    Claimed values are ints N standing for N/q (see the module docstring),
    where q is the least common denominator of alpha,
    (beta - alpha)/2**max_level and the user shift, if any.
    """

    def __init__(self, rt: RootedTree, alpha: Fraction, beta: Fraction,
                 max_level: int, shift: Fraction | None = None):
        self.rt = rt
        self.q = lcm(alpha.denominator, ((beta - alpha) / 2 ** max_level).denominator,
                     1 if shift is None else shift.denominator)
        self.frac = cache(partial(Fraction, denominator=self.q))  # N -> N/q, once per N
        self.alpha, self.beta = _grid(alpha, self.q), _grid(beta, self.q)
        self.ladders: list[tuple[int, ...] | None] = [None] + _ladder_levels(
            self.alpha, self.beta - self.alpha, max_level)
        n = rt.n
        self.dn, self.dd, self.wn, self.wd = [0] * n, [1] * n, [0] * n, [1] * n
        # per join (block, y, side, weight pair, a, b, forced, root values of core
        # and parts) as ints, per piece at its own level (block, anchor, forced,
        # level), and the claim {N: 1} all leaves of value N share (no join changes it)
        self.log, self.pieces, self.claims = [], [], {}

    def step(self, j: int) -> int:
        return (self.beta - self.alpha) >> j

    def _root_value(self, blk: _Block, y: int, side: str) -> tuple[int, int]:
        """The root's value at the pin point y of a block a join takes in, as
        a (num, den) int pair read from the claims: removing the root r of B
        leaves the parts joined along its core chain, so the value is
        det(B - y)/det(B - r - y) = prod((N - y)**e)/q over N, e in blk.net.
        That needs y strictly beyond every claimed value on `side`, and net's
        exponents each +-1 with sum 1, as Cauchy interlacing gives; then the
        value is nonzero, negative above the claims and positive below.
        `_audit` proves the claims, the side of y and the value."""
        pred, net = blk.pred, blk.net
        problems = []
        if not (max(pred) < y and max(net) < y if side == "max"
                else y < min(pred) and y < min(net)):
            problems.append(f"pin point {self.frac(y)} is not strictly "
                            f"{'above' if side == 'max' else 'below'} its spectrum")
        if sum(net.values()) != 1 or not {*net.values()} <= {1, -1}:
            problems.append("claimed spectra do not interlace")
        if problems:
            raise RuntimeError(f"block at {blk.root}: " + "; ".join(problems))
        num, den = 1, self.q
        for lam, e in net.items():
            if e > 0:
                num *= lam - y
            else:
                den *= lam - y
        return num, den

    # -- anchored recursion ---------------------------------------------------

    def _plan(self, v: int, h: int, anchor: Variant, shift: int, level: int):
        """The (anchor, shift) of the core and of the parts of the piece at v
        of height h over the level-L ladder, then its pin point, the side of
        the block spectra it lies beyond and the forced opposite extreme.  By
        h: L, a piece, pinned at values[2L] (LOW) or values[1] (HIGH); L + 1,
        a half, pinned one value further out, the HIGH half around a core
        raised a step of its height; L + 2, the LOW half joined as core to
        the HIGH half, v's one part, across the central edge, pinned step(L-1)
        above its forced top."""
        vals, s = self.ladders[level], self.step(level - 1)
        if h == level + 2:
            (other,) = _split(self.rt, v, h)[1]
            up = self.step(_split(self.rt, other, h - 1)[0])
            return (Variant.LOW, 0), (Variant.HIGH, 0), vals[-1] + up + s, "max", vals[0] - 2 * s
        if h == level + 1:
            if anchor is Variant.LOW:
                return (Variant.LOW, 0), (Variant.LOW, 0), vals[-1], "max", vals[0] - s
            c = _split(self.rt, v, h)[0]
            up = self.step(c)
            # a leaf core (level 1) is the LOW leaf, raised by the step to beta
            core = Variant.LOW if c in (0, h - 1) else Variant.HIGH
            return (core, up), (Variant.HIGH, 0), vals[0], "min", vals[-1] + up
        # at level 1 the children are leaves: LOW raised by s is the HIGH leaf
        if anchor is Variant.LOW:
            core = (Variant.HIGH if level > 1 else Variant.LOW, shift)
            return core, (Variant.LOW, 0), vals[-2], "max", vals[0] + shift
        part = (Variant.HIGH, s if level > 1 else 0)
        return (Variant.LOW, s + shift), part, vals[1], "min", vals[-1] + shift

    def build(self, v: int, h: int, anchor: Variant, shift: int, level: int) -> _Block:
        """The piece at v of height h over the level-`level` ladder with the
        given anchor (LOW or HIGH) and grid shift (0 for none): a piece of
        that height or, unshifted, a half or two joined halves above it (see
        _plan).  Its core and parts (`trees._split`) are built at their own
        heights, capped at `level`."""
        if not level <= h <= level + 2:
            raise ValueError(f"piece at {v} has height {h}, "
                             f"expected {level} to {level + 2}")
        if h == 0:
            val = (self.alpha if anchor is Variant.LOW else self.beta) + shift
            x, claim = self.frac(val), self.claims.setdefault(val, {val: 1})
            self.dn[v], self.dd[v] = x.numerator, x.denominator
            return _Block(v, 1, claim, claim, self.q)
        c, parts = _split(self.rt, v, h)
        (ca, cs), (pa, ps), y, side, forced = self._plan(v, h, anchor, shift, level)
        core = self.build(v, c, ca, cs, min(c, level))
        blocks = [self.build(p, h - 1, pa, ps, min(h - 1, level)) for p in parts]
        blk = self.join_blocks(core, blocks, y, side, expect_forced=forced)
        if h == level:
            self.pieces.append((blk, anchor, forced, level))
        return blk

    # -- assembly ------------------------------------------------------------

    def join_blocks(self, core: _Block, parts: list[_Block], y: int,
                    side: str, expect_forced: int) -> _Block:
        dc = self._root_value(core, y, side)
        dp = [self._root_value(p, y, side) for p in parts]
        d2 = _delta_squared(dc, dp)
        if min(d2) <= 0:
            raise RuntimeError(f"block at {core.root}: solved squared weight "
                               f"{d2[0]}/{d2[1]} is not positive")
        for p in parts:
            # wn is 0 until a part hangs, as d2 > 0
            if self.wn[p.root] or self.rt.parent[p.root] != core.root:
                raise RuntimeError(f"part root {p.root} cannot hang from {core.root}")
            self.wn[p.root], self.wd[p.root] = d2

        pred: dict[int, int] = dict(core.pred)
        for p in parts:
            for lam, m in p.pred.items():
                pred[lam] = pred.get(lam, 0) + m
        a, b = min(pred), max(pred)
        pred[a] -= 1
        pred[b] -= 1
        if pred[a] < 0 or pred[b] < 0:
            raise RuntimeError(f"block extremes {self.frac(a)}, {self.frac(b)} "
                               f"cannot both merge inward")
        pred = {lam: m for lam, m in pred.items() if m > 0}
        forced = a + b - y
        if forced != expect_forced:
            raise RuntimeError(f"forced value {self.frac(forced)}, "
                               f"expected {self.frac(expect_forced)}")
        lo, hi = (forced, y) if side == "max" else (y, forced)
        if pred and not (lo < min(pred) and max(pred) < hi):
            raise RuntimeError(f"merged block values escape "
                               f"({self.frac(lo)}, {self.frac(hi)})")
        pred[y] = 1
        pred[forced] = 1
        # net(core) + pred - pred(core) - the parts' preds, which is net(core)
        # with y and forced in and a and b out
        net = dict(core.net)
        for lam, e in ((y, 1), (forced, 1), (a, -1), (b, -1)):
            net[lam] = net.get(lam, 0) + e
        net = {lam: e for lam, e in net.items() if e}
        for consumed in (core, *parts):
            consumed.net = None

        blk = _Block(core.root, core.size + sum(p.size for p in parts), pred, net,
                     self.q, core, tuple(parts))
        self.log.append((blk, y, side, d2, a, b, forced, dc, dp))
        return blk


def _audit(builder: _Builder, m: WeightedTreeMatrix) -> None:
    """The checks of `audit()` on the finished, verified matrix m, as built at
    the construction root, where each block is a postorder slice, root last,
    with the entries it was built with (no later join changes them).  Each
    block a join took in is run at its claims and the pin point y: that
    proves them, the side of y and the root value there.  Each piece at its
    own level is probed: the forced extreme and every second ladder value
    inside the extremes, values[1:2L+1], from the pin point, are zeros at
    its root; at the others the root r pairs, so deleting r adds a zero: the
    run of the piece less r is the run of the piece less its last row, row
    for row (Jacobs and Trevisan), and r's own row changes the zero count by
    -1 where r pairs, +1 where r ends at 0, and 0 otherwise.

    The checks are collected first, then each block runs once at every
    point they ask of it.  Every block is made once, so it is its own key."""
    frac, tail = builder.frac, m.rows[1:]
    asked: dict[_Block, dict[Fraction, int]] = {}

    def ask(blk: _Block, values: Iterable[Fraction]) -> None:
        at = asked.setdefault(blk, {})
        for lam in values:
            at.setdefault(lam, len(at))

    joins = [(c, frac(y), side, value) for blk, y, side, *_, dc, dp in builder.log
             for c, value in zip((blk.core, *blk.parts), (dc, *dp))]
    for c, y, *_ in joins:
        ask(c, [*(lam for lam, _ in c.spec), y])
    pieces = []
    for blk, anchor, forced, level in builder.pieces:
        inner = builder.ladders[level][1:2 * level + 1]
        if anchor is Variant.LOW:
            zero_at, incr_at = [forced, *inner[1::2]], inner[::2]
        else:
            zero_at, incr_at = [*inner[::2], forced], inner[1::2]
        zero_at, incr_at = list(map(frac, zero_at)), list(map(frac, incr_at))
        ask(blk, zero_at + incr_at)
        pieces.append((blk, zero_at, incr_at))

    # per block and point: negatives, zeros, root value and pivots
    runs: dict[_Block, dict[Fraction, tuple]] = {}
    for blk, at in asked.items():
        pivots = [[] for _ in at]
        out = _run(Rows(blk.order, *tail), _points((lam, 1) for lam in at), pivots=pivots)
        runs[blk] = {lam: (*out[i], pivots[i]) for lam, i in at.items()}

    for c, y, side, value in joins:
        neg, zero, top, _ = runs[c][y]
        problems = _spectrum_problems(c.spec, [runs[c][lam] for lam, _ in c.spec], c.size)
        if zero or neg != (c.size if side == "max" else 0):
            problems.append(f"pin point {y} is not strictly "
                            f"{'above' if side == 'max' else 'below'} its spectrum")
        if not problems and Fraction(*top) != Fraction(*value):
            problems.append(f"root value {Fraction(*top)} at the pin point, "
                            f"{Fraction(*value)} from the claims")
        if problems:
            raise RuntimeError(f"block at {c.root}: " + "; ".join(problems))

    for blk, zero_at, incr_at in pieces:
        for lam in zero_at:
            if runs[blk][lam][2][0] != 0:
                raise RuntimeError(f"block at {blk.root}: no zero at the root at {lam}")
        for lam in incr_at:
            if blk.root not in runs[blk][lam][3]:
                raise RuntimeError(f"block at {blk.root}: no pairing at the root "
                                   f"at {lam}")


# ---------------------------------------------------------------------------
# Public constructors
# ---------------------------------------------------------------------------

def _finish(builder: _Builder, blk: _Block, tree: RootedTree, family: Family,
            variant: str, shift: Fraction | None) -> RealizationCertificate:
    # each part root hangs once, the construction root never: n vertices, n - 1 weights
    if blk.size != tree.n or builder.wn.count(0) != 1:
        raise RuntimeError("the final block does not cover the whole tree")
    m = WeightedTreeMatrix.from_arrays(builder.rt, builder.dn, builder.dd,
                                       builder.wn, builder.wd).rerooted(tree)
    # the proof of every claim the certificate makes
    problems = verify_certificate(m, blk.spec)
    if problems:
        raise RuntimeError("; ".join(problems))
    return RealizationCertificate(
        matrix=m, dspec=blk.spec, family=family, variant=variant,
        alpha=builder.frac(builder.alpha), beta=builder.frac(builder.beta),
        shift=shift, construction_root=builder.rt.root, _builder=builder)


def realize_variant(t: RootedTree, lad: Ladder, variant: Variant,
                    shift: Fraction | None = None) -> RealizationCertificate:
    """Realize a uniformly decomposable tree in one of the four spectral
    shapes over `lad`: LOW or HIGH, or LOW_SHIFT or HIGH_SHIFT with a
    shift 0 < shift < lad.step(lad.k - 1).  The tree must be rooted at a
    central vertex (either endpoint of the central edge when the diameter
    is odd) and its height from there must equal lad.k."""
    d = diameter(t)
    if d < 1:
        raise ValueError("need at least one edge to realize")
    if t.root not in main_roots(t):
        raise ValueError(f"tree root {t.root} is not a central vertex")
    k = (d + 1) // 2
    if lad.k != k:
        raise ValueError(f"ladder level {lad.k} does not match required level {k}")
    if variant in (Variant.LOW, Variant.HIGH):
        if shift is not None:
            raise ValueError(f"the {variant.value} variant takes no shift")
    else:
        shift = None if shift is None else parse_rational(shift)
        if shift is None or shift <= 0:
            raise ValueError("shift variants need a positive shift")
        if shift >= lad.step(k - 1):
            raise ValueError(f"shift {shift} too large at level {k}; "
                             f"must stay below {lad.step(k - 1)}")
    if _family_analysis(t).family is not Family.UNIFORM:
        raise ValueError("tree is not uniformly decomposable from its root")
    builder = _Builder(_whole_piece_cert(t, t.root), lad.alpha, lad.beta, k, shift)
    anchor = Variant.LOW if variant in (Variant.LOW, Variant.LOW_SHIFT) else Variant.HIGH
    blk = builder.build(t.root, k, anchor, 0 if shift is None else _grid(shift, builder.q), k)
    return _finish(builder, blk, t, Family.UNIFORM, variant.value, shift)


def realize_family(t: RootedTree, alpha: Fraction, beta: Fraction) -> RealizationCertificate:
    """Realize any tree of the three supported families with d+1 distinct
    eigenvalues anchored at (alpha, beta): a uniform tree as one LOW piece,
    a short-core or mixed one as one or two halves over the ladder a level
    below.  Raises ValueError for trees outside the families and for the
    single vertex."""
    alpha, beta = parse_rational(alpha), parse_rational(beta)
    if beta <= alpha:
        raise ValueError(f"need alpha < beta, got {alpha} >= {beta}")
    an, d = _family_analysis(t), diameter(t)
    if an.family is Family.UNSUPPORTED:
        raise ValueError(f"unsupported family (diameter {d}); no construction applies")
    if d < 1:
        raise ValueError("need at least one edge to realize")
    big_k = (d + 1) // 2
    if an.family is Family.UNIFORM:
        k, variant = big_k, Variant.LOW.value
    else:
        # the whole of an even short-core tree is one LOW half
        k = d // 2 - 1
        variant = ("mixed" if an.family is Family.MIXED
                   else "short-core-odd" if d % 2 else "short-core-even")
    builder = _Builder(an.rt, alpha, beta, big_k)
    blk = builder.build(an.rt.root, big_k, Variant.LOW, 0, k)
    return _finish(builder, blk, t, an.family, variant, None)


def realize_integral(t: RootedTree, alpha: Fraction,
                     beta: Fraction | None = None) -> RealizationCertificate:
    """Realize with an all-integer spectrum.

    alpha must be an integer.  The default beta = alpha + 2**(k-1), where k
    is the top ladder level, makes every ladder step an integer; an override
    is accepted when it satisfies the same divisibility."""
    alpha = parse_rational(alpha)
    if alpha.denominator != 1:
        raise ValueError(f"alpha must be an integer, got {alpha}")
    d = diameter(t)
    if d < 1:
        raise ValueError("need at least one edge to realize")
    grain = 2 ** ((d + 1) // 2 - 1)
    if beta is None:
        beta = alpha + grain
    else:
        beta = parse_rational(beta)
        if beta.denominator != 1:
            raise ValueError(f"beta must be an integer, got {beta}")
        if beta <= alpha:
            raise ValueError(f"need alpha < beta, got {alpha} >= {beta}")
        if (beta - alpha) % grain != 0:
            raise ValueError(f"beta - alpha must be divisible by {grain} "
                             f"for an integral spectrum at diameter {d}")
    cert = realize_family(t, alpha, beta)
    if any(v.denominator != 1 for v, _ in cert.dspec):
        raise RuntimeError("integral construction produced a fractional eigenvalue")
    return cert


def _points(spec: Iterable[tuple[Fraction, int]]) -> list[tuple[int, int]]:
    """Kernel points x = -v for the values v of (value, multiplicity) pairs:
    M + x*I is singular where v is an eigenvalue."""
    return [(-v.numerator, v.denominator) for v, _ in spec]


def _spectrum_problems(spec: Sequence[tuple[Fraction, int]], counts: list, n: int) -> list[str]:
    """Failures of the claim that `spec`, (value, multiplicity) pairs in
    increasing order, is the spectrum of an order-n matrix with the kernel
    `counts` at the values: each multiplicity, their sum, nothing below the
    first or above the last value."""
    problems = [f"claimed multiplicity {mult} at {lam}, measured {c[1]}"
                for (lam, mult), c in zip(spec, counts) if c[1] != mult]
    total = sum(mult for _, mult in spec)
    if total != n:
        problems.append(f"multiplicities sum to {total}, matrix order is {n}")
    if counts:
        if counts[0][0] != 0:
            problems.append(f"{counts[0][0]} eigenvalues below the claimed minimum")
        above = n - counts[-1][0] - counts[-1][1]
        if above != 0:
            problems.append(f"{above} eigenvalues above the claimed maximum")
    return problems


def verify_certificate(m: WeightedTreeMatrix,
                       dspec: Sequence[tuple[Fraction, int]]) -> list[str]:
    """Re-derive every spectral claim of a certificate from the matrix
    alone.  Returns a list of human-readable failures; empty means the
    certificate holds."""
    problems = _spectrum_problems(dspec, _run(m.quotient, _points(dspec)), m.n)
    values = [v for v, _ in dspec]
    if sorted(values) != values or len(set(values)) != len(values):
        problems.insert(0, "dspec values are not strictly increasing")
    d = diameter(m.tree)
    if len(dspec) != d + 1:
        problems.append(f"{len(dspec)} distinct values claimed, diameter {d} "
                        f"needs exactly {d + 1}")
    return problems
