"""Constructive realization of tree matrices with the minimum number of
distinct eigenvalues.

For a tree of diameter d at least d+1 distinct eigenvalues are unavoidable.
This module builds, for every tree in the three supported families, exact
rational matrices attaining that bound, and certifies the result.

The engine works bottom-up over the decomposition certificate produced by
the recognizer.  Each piece of height L is realized in one of four spectral
shapes over the 2L+2 target values of the level-L ladder:

  * LOW        anchored at the bottom of the slice, pinned at values[2L],
  * HIGH       anchored at the top, pinned at values[1],
  * LOW_SHIFT  a LOW shape whose bottom value is raised by a small shift,
  * HIGH_SHIFT a HIGH shape whose top value is raised by a small shift.

Joining blocks is the single primitive: one shared squared weight attaches
every part root to the core root, chosen so the assembled block gains a
prescribed eigenvalue strictly beyond all block spectra.  The two extreme
block eigenvalues merge into the interior and a new extreme value appears on
the opposite side, with its position forced exactly by the trace.  Every
assembled block is verified by exact counts before the next join uses it,
and the last one by `verify_certificate` on the finished matrix, so a
construction bug cannot survive to the returned certificate.

Every value the builder claims (ladder values, steps, shifts, pin points,
forced values and predicted spectra) is alpha plus an integer multiple of
(beta - alpha)/2**K, K the top ladder level, plus at most one user shift.  So
the builder fixes one common denominator q per construction and holds each
such value as the int numerator N of N/q: the multiset bookkeeping hashes,
compares and adds ints.  A Fraction is built only where a value leaves the
builder: a level-0 diagonal entry, the point handed to the kernel (once per
distinct N), the assembly records and the certificate.  The solved join
weights are not on that grid and stay Fractions.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import lcm
from typing import Sequence

# counts_at, diagonalize and join are unused here; bench/spans.py wraps
# them as realize attributes
from .locate import CountsAt, _counts, _run, counts_at, diagonalize
from .matrices import WeightedTreeMatrix, make_matrix
from .trees import (Family, PieceCert, RootedTree, _family_analysis,
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
    alpha, beta = Fraction(alpha), Fraction(beta)
    if beta <= alpha:
        raise ValueError(f"need alpha < beta, got {alpha} >= {beta}")
    if k < 1:
        raise ValueError("ladder level must be >= 1")
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

def _delta_squared(core_root_value: Fraction, part_root_values: Sequence[Fraction]) -> Fraction:
    """Shared squared weight that zeroes out the assembled root at the pin
    point: core value divided by the sum of part value reciprocals."""
    s = sum(Fraction(1) / q for q in part_root_values)
    return core_root_value / s


# ---------------------------------------------------------------------------
# Certified construction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AssemblyRecord:
    """Audit trail of one internal join: the blocks that went in, the pin
    point, the solved weight, and the multiset bookkeeping (a and b are the
    extreme block values that merged inward, forced = a + b - y)."""

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
    the distinct count always equals diameter + 1.  Every claim was checked
    by exact congruence counts before the certificate was issued.
    """

    matrix: WeightedTreeMatrix
    dspec: tuple[tuple[Fraction, int], ...]
    family: Family
    variant: str
    alpha: Fraction
    beta: Fraction
    shift: Fraction | None
    construction_root: int
    assemblies: tuple[AssemblyRecord, ...]

    @property
    def distinct_values(self) -> int:
        return len(self.dspec)

    def to_json(self) -> dict:
        from .matrices import format_rational
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


@dataclass
class _Block:
    root: int
    vertices: tuple[int, ...]
    pred: dict[int, int]  # grid numerator -> multiplicity
    order: tuple[int, ...]  # postorder of the block, root last
    spec: tuple[tuple[Fraction, int], ...]  # pred as sorted Fractions


class _Builder:
    """Bottom-up constructor over a fixed rooting of the target tree.

    Diagonal entries and squared weights accumulate in dicts keyed by the
    tree's own vertex ids and in the kernel's flat arrays; blocks are vertex
    subsets with their postorder, so no intermediate matrix is built.

    Claimed values are ints N standing for N/q (see the module docstring),
    where q is the least common denominator of alpha,
    (beta - alpha)/2**max_level and the user shift, if any.
    """

    def __init__(self, tree: RootedTree, root: int, alpha: Fraction,
                 beta: Fraction, max_level: int, deep: bool,
                 shift: Fraction | None = None):
        self.rt = reroot(tree, root)
        self.q = lcm(alpha.denominator, ((beta - alpha) / 2 ** max_level).denominator,
                     1 if shift is None else shift.denominator)
        self._fracs: dict[int, Fraction] = {}
        self.alpha, self.beta = _grid(alpha, self.q), _grid(beta, self.q)
        self.ladders: list[tuple[int, ...] | None] = [None] + _ladder_levels(
            self.alpha, self.beta - self.alpha, max_level)
        self.deep = deep
        self.diag: dict[int, Fraction] = {}
        self.w2: dict[tuple[int, int], Fraction] = {}
        n = tree.n
        self.dn, self.dd, self.wn, self.wd = [0] * n, [1] * n, [0] * n, [1] * n
        self.log: list[AssemblyRecord] = []

    def frac(self, n: int) -> Fraction:
        """N/q as a Fraction, built once per distinct N."""
        f = self._fracs.get(n)
        if f is None:
            f = self._fracs[n] = Fraction(n, self.q)
        return f

    def step(self, j: int) -> int:
        return (self.beta - self.alpha) >> j

    # -- restricted runs over the partially built matrix -------------------

    def _restricted(self, order: Sequence[int], lam: int):
        """Kernel run of (block - lam/q*I) over a block's postorder."""
        x = self.frac(lam)
        return _run(order, self.rt.parent, self.dn, self.dd, self.wn, self.wd,
                    -x.numerator, x.denominator)

    def _root_final(self, block: _Block, y: int, side: str) -> Fraction:
        signs, _, (a, b) = self._restricted(block.order, y)
        want = -1 if side == "max" else 1
        if any(q != want for q in signs.values()):
            beyond = "above" if side == "max" else "below"
            raise ValueError(f"pin point {self.frac(y)} is not strictly {beyond} "
                             f"a block spectrum")
        return Fraction(a, b)

    # -- variant recursion --------------------------------------------------

    def _base_value(self, variant: Variant, shift: int | None) -> int:
        if variant is Variant.LOW:
            return self.alpha
        if variant is Variant.HIGH:
            return self.beta
        if variant is Variant.LOW_SHIFT:
            return self.alpha + shift
        return self.beta + shift

    def _dispatch(self, variant: Variant, shift: int | None, level: int):
        """Sub-variants for the core and the parts, one level down."""
        if level == 1:
            if variant is Variant.LOW:
                return Variant.LOW, None, Variant.LOW, None
            if variant is Variant.HIGH:
                return Variant.HIGH, None, Variant.HIGH, None
            if variant is Variant.LOW_SHIFT:
                return Variant.LOW_SHIFT, shift, Variant.LOW, None
            return Variant.HIGH_SHIFT, shift, Variant.HIGH, None
        s = self.step(level - 1)
        if variant is Variant.LOW:
            return Variant.HIGH, None, Variant.LOW, None
        if variant is Variant.HIGH:
            return Variant.LOW_SHIFT, s, Variant.HIGH_SHIFT, s
        if variant is Variant.LOW_SHIFT:
            return Variant.HIGH_SHIFT, shift, Variant.LOW, None
        return Variant.LOW_SHIFT, s + shift, Variant.HIGH_SHIFT, s

    def _pin(self, variant: Variant, shift: int | None, level: int):
        """(pin point, side, forced opposite extreme) for a level assembly."""
        vals = self.ladders[level]
        if variant is Variant.LOW:
            return vals[2 * level], "max", vals[0]
        if variant is Variant.HIGH:
            return vals[1], "min", vals[2 * level + 1]
        if variant is Variant.LOW_SHIFT:
            return vals[2 * level], "max", vals[0] + shift
        return vals[1], "min", vals[2 * level + 1] + shift

    def build(self, cert: PieceCert, variant: Variant,
              shift: int | None, level: int) -> _Block:
        if cert.height != level:
            raise ValueError(f"piece at {cert.root} has height {cert.height}, "
                             f"expected {level}")
        if variant in (Variant.LOW_SHIFT, Variant.HIGH_SHIFT):
            if shift is None or shift <= 0:
                raise ValueError("shift variants need a positive shift")
            if level >= 1 and shift >= self.step(level - 1):
                raise ValueError(f"shift {self.frac(shift)} too large at level {level}; "
                                 f"must stay below {self.frac(self.step(level - 1))}")
        if level == 0:
            val = self._base_value(variant, shift)
            x = self.diag[cert.root] = self.frac(val)
            self.dn[cert.root], self.dd[cert.root] = x.numerator, x.denominator
            return _Block(cert.root, (cert.root,), {val: 1}, (cert.root,), ((x, 1),))
        cv, cs, pv, ps = self._dispatch(variant, shift, level)
        core = self.build(cert.core, cv, cs, level - 1)
        parts = [self.build(p, pv, ps, level - 1) for p in cert.parts]
        y, side, forced = self._pin(variant, shift, level)
        blk = self.join_blocks(core, parts, y, side, expect_forced=forced)
        if self.deep:
            self._deep_checks(blk, variant, shift, level)
        return blk

    # -- assembly ------------------------------------------------------------

    def join_blocks(self, core: _Block, parts: list[_Block], y: int,
                    side: str, expect_forced: int | None = None) -> _Block:
        for used in (core, *parts):
            if len(used.vertices) > 1:
                self._verify_block(used)
        dc = self._root_final(core, y, side)
        dp = [self._root_final(p, y, side) for p in parts]
        d2 = _delta_squared(dc, dp)
        if d2 <= 0:
            raise RuntimeError(f"solved squared weight {d2} is not positive")
        for p in parts:
            key = (min(core.root, p.root), max(core.root, p.root))
            if key in self.w2 or self.rt.parent[p.root] != core.root:
                raise RuntimeError(f"part root {p.root} cannot hang from {core.root}")
            self.w2[key] = d2
            self.wn[p.root], self.wd[p.root] = d2.numerator, d2.denominator

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
        if expect_forced is not None and forced != expect_forced:
            raise RuntimeError(f"forced value {self.frac(forced)}, "
                               f"expected {self.frac(expect_forced)}")
        lo, hi = (forced, y) if side == "max" else (y, forced)
        if not all(lo < lam < hi for lam in pred):
            raise RuntimeError(f"merged block values escape "
                               f"({self.frac(lo)}, {self.frac(hi)})")
        pred[y] = 1
        pred[forced] = 1

        order = tuple(v for p in parts for v in p.order) + core.order
        spec = tuple((self.frac(lam), m) for lam, m in sorted(pred.items()))
        blk = _Block(core.root, tuple(sorted(order)), pred, order, spec)
        self.log.append(AssemblyRecord(
            core_root=core.root, core_vertices=core.vertices, core_pred=core.spec,
            parts=tuple((p.root, p.vertices, p.spec) for p in parts),
            y=self.frac(y), side=side, sq_delta=d2, a=self.frac(a),
            b=self.frac(b), forced=self.frac(forced), pred=spec,
        ))
        return blk

    def _verify_block(self, blk: _Block) -> None:
        """Exact check that the block's spectrum is exactly the predicted
        multiset.  Runs one diagonalization per predicted value.

        `join_blocks` checks each joined block here before it joins it into
        the next one; the last block is checked instead by
        `verify_certificate` on the finished matrix, with the same claims."""
        if sum(blk.pred.values()) != len(blk.vertices):
            raise RuntimeError(f"block at {blk.root}: multiplicities miss its size")
        lo, hi = min(blk.pred), max(blk.pred)
        for lam, m in blk.pred.items():
            c = _counts(self._restricted(blk.order, lam)[0])
            if c.equal != m or (lam == lo and c.below) or (lam == hi and c.above):
                raise RuntimeError(f"block at {blk.root}: {c} at {self.frac(lam)}, "
                                   f"claimed {m}")

    # -- deep structural checks ----------------------------------------------

    def _deep_checks(self, blk: _Block, variant: Variant,
                     shift: int | None, level: int) -> None:
        """Strong-realizability probes on one finished block: the required
        eigenvalues put a zero at the block root, and deleting the root
        raises the multiplicity at the interlacing positions (with the run
        rooted there firing its zero-pairing rule at the root)."""
        vals = self.ladders[level]
        if variant is Variant.LOW:
            zero_at = [vals[2 * i] for i in range(level + 1)]
            incr_at = [vals[2 * i - 1] for i in range(1, level + 1)]
        elif variant is Variant.HIGH:
            zero_at = [vals[2 * i + 1] for i in range(level + 1)]
            incr_at = [vals[2 * i] for i in range(1, level + 1)]
        elif variant is Variant.LOW_SHIFT:
            zero_at = [vals[0] + shift] + [vals[2 * i] for i in range(1, level + 1)]
            incr_at = [vals[2 * i - 1] for i in range(1, level + 1)]
        else:
            zero_at = [vals[2 * i + 1] for i in range(level)] + [vals[2 * level + 1] + shift]
            incr_at = [vals[2 * i] for i in range(1, level + 1)]

        for lam in zero_at:
            if self._restricted(blk.order, lam)[2][0] != 0:
                raise RuntimeError(f"block at {blk.root}: no zero at the root "
                                   f"at {self.frac(lam)}")

        # components of the block minus its root, each in postorder
        top: dict[int, int] = {}
        for v in reversed(blk.order[:-1]):
            p = self.rt.parent[v]
            top[v] = v if p == blk.root else top[p]
        comps: dict[int, list[int]] = {}
        for v in blk.order[:-1]:
            comps.setdefault(top[v], []).append(v)
        for lam in incr_at:
            signs, pivots, _ = self._restricted(blk.order, lam)
            equal = _counts(signs).equal
            after = sum(_counts(self._restricted(comp, lam)[0]).equal
                        for comp in comps.values())
            if after != equal + 1:
                raise RuntimeError(f"block at {blk.root}: {equal} -> {after} zeros "
                                   f"at {self.frac(lam)}")
            if blk.root not in pivots:
                raise RuntimeError(f"block at {blk.root}: no pairing at the root "
                                   f"at {self.frac(lam)}")


# ---------------------------------------------------------------------------
# Public constructors
# ---------------------------------------------------------------------------

def _finish(builder: _Builder, blk: _Block, tree: RootedTree, family: Family,
            variant: str, shift: Fraction | None) -> RealizationCertificate:
    if blk.vertices != tuple(range(tree.n)) or len(builder.w2) != len(tree.edges):
        raise RuntimeError("the final block does not cover the whole tree")
    diag = tuple(builder.diag[v] for v in range(tree.n))
    w2 = {e: builder.w2[e] for e in tree.edges}
    m = make_matrix(tree, diag, w2)
    # the closing check on the finished matrix, and the only one of the
    # final block: join_blocks checks each block when it joins it
    problems = verify_certificate(m, blk.spec)
    if problems:
        raise RuntimeError("; ".join(problems))
    return RealizationCertificate(
        matrix=m, dspec=blk.spec, family=family, variant=variant,
        alpha=builder.frac(builder.alpha), beta=builder.frac(builder.beta),
        shift=shift, construction_root=builder.rt.root, assemblies=tuple(builder.log))


def realize_variant(t: RootedTree, lad: Ladder, variant: Variant,
                    shift: Fraction | None = None, deep: bool = False) -> RealizationCertificate:
    """Realize a uniformly decomposable tree in one of the four spectral
    shapes over `lad`.  The tree must be rooted at a central vertex (either
    endpoint of the central edge when the diameter is odd) and its height
    from there must equal lad.k."""
    d = diameter(t)
    if d < 1:
        raise ValueError("need at least one edge to realize")
    if t.root not in main_roots(t):
        raise ValueError(f"tree root {t.root} is not a central vertex")
    k = (d + 1) // 2
    if lad.k != k:
        raise ValueError(f"ladder level {lad.k} does not match required level {k}")
    if shift is not None:
        if variant in (Variant.LOW, Variant.HIGH):
            raise ValueError(f"the {variant.value} variant takes no shift")
        shift = Fraction(shift)
    cert = _whole_piece_cert(t, t.root)
    if cert is None or cert.height != k:
        raise ValueError("tree is not uniformly decomposable from its root")
    builder = _Builder(t, t.root, lad.alpha, lad.beta, k, deep, shift)
    blk = builder.build(cert, variant,
                        None if shift is None else _grid(shift, builder.q), k)
    return _finish(builder, blk, t, Family.UNIFORM, variant.value, shift)


def realize_low(t: RootedTree, lad: Ladder, deep: bool = False) -> RealizationCertificate:
    return realize_variant(t, lad, Variant.LOW, deep=deep)


def realize_high(t: RootedTree, lad: Ladder, deep: bool = False) -> RealizationCertificate:
    return realize_variant(t, lad, Variant.HIGH, deep=deep)


def realize_low_shifted(t: RootedTree, lad: Ladder, shift: Fraction,
                        deep: bool = False) -> RealizationCertificate:
    return realize_variant(t, lad, Variant.LOW_SHIFT, shift, deep)


def realize_high_shifted(t: RootedTree, lad: Ladder, shift: Fraction,
                         deep: bool = False) -> RealizationCertificate:
    return realize_variant(t, lad, Variant.HIGH_SHIFT, shift, deep)


def _build_low_side(builder: _Builder, side: PieceCert, k: int) -> _Block:
    """A short-core piece in its bottom-anchored shape (an odd-diameter
    half, or the whole of an even short-core tree): short core one level
    down, full-height branches at level k, pinned at the level-k top."""
    vals = builder.ladders[k]
    core = builder.build(side.core, Variant.LOW, None, k - 1)
    parts = [builder.build(p, Variant.LOW, None, k) for p in side.parts]
    return builder.join_blocks(core, parts, vals[2 * k + 1], "max",
                               expect_forced=vals[0] - builder.step(k - 1))


def realize_family(t: RootedTree, alpha: Fraction, beta: Fraction,
                   deep: bool = False) -> RealizationCertificate:
    """Realize any tree of the three supported families with d+1 distinct
    eigenvalues anchored at (alpha, beta).  Raises ValueError for trees
    outside the families, and for short-core or mixed trees of diameter
    less than 6, where no construction is defined."""
    alpha, beta = Fraction(alpha), Fraction(beta)
    if beta <= alpha:
        raise ValueError(f"need alpha < beta, got {alpha} >= {beta}")
    an = _family_analysis(t)
    d = an.diameter
    if an.family is Family.UNSUPPORTED:
        raise ValueError(f"unsupported family (diameter {d}); no construction applies")
    if d < 1:
        raise ValueError("need at least one edge to realize")
    big_k = (d + 1) // 2
    if an.family is Family.UNIFORM:
        builder = _Builder(t, an.center, alpha, beta, big_k, deep)
        blk = builder.build(an.whole, Variant.LOW, None, big_k)
        return _finish(builder, blk, t, Family.UNIFORM, Variant.LOW.value, None)
    if d < 6:
        raise ValueError(f"no construction is defined for {an.family.value} "
                         f"trees of diameter {d} (need >= 6)")
    if d % 2 == 0:
        # short core at the center, full-height branches around it
        builder = _Builder(t, an.center, alpha, beta, big_k, deep)
        blk = _build_low_side(builder, an.whole, (d - 2) // 2)
        return _finish(builder, blk, t, Family.SHORT_CORE, "short-core-even", None)
    # odd diameter: two halves joined across the central edge
    k = (d - 3) // 2
    if an.family is Family.SHORT_CORE:
        low_side, high_side = an.sides
        variant_name = "short-core-odd"
    else:
        # mixed: the short-core half takes the bottom-anchored shape
        if an.sides[0][1] == "short_core":
            low_side, high_side = an.sides
        else:
            high_side, low_side = an.sides
        variant_name = "mixed"
    builder = _Builder(t, low_side[0], alpha, beta, big_k, deep)
    vals = builder.ladders[k]
    low_blk = _build_low_side(builder, low_side[2], k)
    hs_cert = high_side[2]
    if an.family is Family.SHORT_CORE:
        core = builder.build(hs_cert.core, Variant.HIGH_SHIFT, builder.step(k - 1), k - 1)
        parts = [builder.build(p, Variant.HIGH, None, k) for p in hs_cert.parts]
        expect = vals[2 * k + 1] + builder.step(k - 1)
    else:
        core = builder.build(hs_cert.core, Variant.LOW_SHIFT, builder.step(k), k)
        parts = [builder.build(p, Variant.HIGH, None, k) for p in hs_cert.parts]
        expect = vals[2 * k + 1] + builder.step(k)
    high_blk = builder.join_blocks(core, parts, vals[0], "min", expect_forced=expect)
    top = max(max(low_blk.pred), max(high_blk.pred))
    y = top + builder.step(k - 1)
    blk = builder.join_blocks(low_blk, [high_blk], y, "max",
                              expect_forced=vals[0] - 2 * builder.step(k - 1))
    return _finish(builder, blk, t, an.family, variant_name, None)


def realize_integral(t: RootedTree, alpha: Fraction,
                     beta: Fraction | None = None, deep: bool = False) -> RealizationCertificate:
    """Realize with an all-integer spectrum.

    alpha must be an integer.  The default beta = alpha + 2**(k-1), where k
    is the top ladder level, makes every ladder step an integer; an override
    is accepted when it satisfies the same divisibility."""
    alpha = Fraction(alpha)
    if alpha.denominator != 1:
        raise ValueError(f"alpha must be an integer, got {alpha}")
    d = diameter(t)
    if d < 1:
        raise ValueError("need at least one edge to realize")
    k = (d + 1) // 2
    grain = 2 ** (k - 1)
    if beta is None:
        beta = alpha + grain
    else:
        beta = Fraction(beta)
        if beta.denominator != 1:
            raise ValueError(f"beta must be an integer, got {beta}")
        if beta <= alpha:
            raise ValueError(f"need alpha < beta, got {alpha} >= {beta}")
        if (beta - alpha) % grain != 0:
            raise ValueError(f"beta - alpha must be divisible by {grain} "
                             f"for an integral spectrum at diameter {d}")
    cert = realize_family(t, alpha, beta, deep)
    if any(v.denominator != 1 for v, _ in cert.dspec):
        raise RuntimeError("integral construction produced a fractional eigenvalue")
    return cert


def _exact_counts(m: WeightedTreeMatrix, point) -> CountsAt:
    """counts_at's answer from one exact kernel run over the whole tree.  At
    a claimed eigenvalue counts_at's float pass nearly always gives up late
    and ends in that same run, so it would only add its own cost."""
    p = Fraction(point)
    return _counts(_run(*m.arrays, -p.numerator, p.denominator)[0])


def verify_certificate(m: WeightedTreeMatrix,
                       dspec: Sequence[tuple[Fraction, int]]) -> list[str]:
    """Re-derive every spectral claim of a certificate from the matrix
    alone.  Returns a list of human-readable failures; empty means the
    certificate holds."""
    problems: list[str] = []
    values = [v for v, _ in dspec]
    if sorted(values) != values or len(set(values)) != len(values):
        problems.append("dspec values are not strictly increasing")
    counts = [_exact_counts(m, lam) for lam in values]
    for (lam, mult), c in zip(dspec, counts):
        if c.equal != mult:
            problems.append(f"claimed multiplicity {mult} at {lam}, measured {c.equal}")
    total = sum(mult for _, mult in dspec)
    if total != m.n:
        problems.append(f"multiplicities sum to {total}, matrix order is {m.n}")
    d = diameter(m.tree)
    if len(dspec) != d + 1:
        problems.append(f"{len(dspec)} distinct values claimed, diameter {d} "
                        f"needs exactly {d + 1}")
    if counts:
        if counts[0].below != 0:
            problems.append(f"{counts[0].below} eigenvalues below the claimed minimum")
        if counts[-1].above != 0:
            problems.append(f"{counts[-1].above} eigenvalues above the claimed maximum")
    return problems
