"""Independent floating-point cross-check for the exact locator.

The float expansion of a matrix takes square roots of its squared weights
at the last possible moment, and LAPACK's symmetric eigensolver
(`np.linalg.eigvalsh`) computes all of its eigenvalues.  compare_counts then
buckets those float eigenvalues against a rational query point and
reconciles the buckets with the exact inertia counts, refusing to issue a
verdict when a float eigenvalue sits too close to the decision boundary to
be trusted.  The float side shares no code with the exact locator, so an
agreement is an independent witness, never a proof.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .locate import CountsAt, counts_at
from .matrices import WeightedTreeMatrix, parse_rational

# relative float tolerance of compare_counts: its band is 10 * _TOL * scale
_TOL = 1e-12


class OracleError(RuntimeError):
    pass


@dataclass(frozen=True)
class FloatSpectrum:
    """All eigenvalues of a symmetric matrix, ascending.

    `sweeps` is always 0, as LAPACK reports no sweep count; it stays for
    its one reader, the benchmark tracer's `oracle.jacobi.sweeps`."""

    values: tuple[float, ...]
    sweeps: int


def to_dense_float(m: WeightedTreeMatrix) -> np.ndarray:
    """Float expansion: diagonal as-is, off-diagonals +sqrt of the stored
    squared weights, each entry rounded once from its int pair.  Its
    spectrum is a witness or an estimate, never a count."""
    import numpy as np  # imported on first use, so the exact core runs without it
    a, n = m.rows, m.n
    out = np.zeros((n, n), dtype=float)
    out.flat[::n + 1] = [p / q for p, q in zip(a.dn, a.dd)]
    kids = np.array(a.order[:-1], dtype=np.intp)
    ups = np.array([a.parent[c] for c in a.order[:-1]], dtype=np.intp)
    out[kids, ups] = out[ups, kids] = [math.sqrt(a.wn[c] / a.wd[c]) for c in a.order[:-1]]
    return out


def dense_eigenvalues(a: np.ndarray) -> FloatSpectrum:
    """All eigenvalues of a dense symmetric float matrix, by LAPACK.

    Raises OracleError on a non-square, asymmetric or non-finite matrix,
    and when the computed spectrum is not finite (entries near the float
    limit can overflow inside the solver).
    """
    import numpy as np
    a = np.array(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise OracleError(f"not square: {a.shape}")
    if not np.isfinite(a).all():
        raise OracleError("matrix has a non-finite entry")
    scale = max(1.0, float(np.max(np.abs(a))))
    if float(np.max(np.abs(a - a.T))) > 1e-12 * scale:
        raise OracleError("matrix is not symmetric")
    values = np.linalg.eigvalsh(a)
    if not np.isfinite(values).all():
        raise OracleError("float spectrum is not finite")
    return FloatSpectrum(tuple(values.tolist()), 0)


@dataclass(frozen=True)
class AgreementReport:
    """Outcome of reconciling exact counts with the float oracle at a point.

    When a float eigenvalue lies in the grey annulus around the query point
    (more than one band but at most ten away) the report is inconclusive
    and `agree` is None: the float data cannot distinguish which side the
    true eigenvalue is on, and pretending otherwise would make the
    cross-check flaky instead of trustworthy.
    """

    conclusive: bool
    agree: bool | None
    exact: tuple[int, int, int]
    approx: tuple[int, int, int]
    band: float


def compare_counts(m: WeightedTreeMatrix, point: Fraction,
                   exact: CountsAt | None = None) -> AgreementReport:
    """Compare exact below/equal/above counts at `point` with counts derived
    from the float oracle.  `exact` is the exact counts when the caller has
    already proved them (as a verified certificate does); else they are
    computed here by `counts_at`.

    Floats within `band` = 10*_TOL*scale of the point count as equal, where
    scale is `m.float_scale`; floats between one and ten bands away are
    deemed too close to call and the report comes back inconclusive.
    Raises OracleError when the matrix or the point does not fit in floats,
    the dense float copy does not fit in memory or numpy is missing, since
    no float verdict exists then.
    """
    point = parse_rational(point)
    try:
        scale = m.float_scale
        pf = float(point)
    except OverflowError as exc:
        raise OracleError(f"float expansion overflows: {exc}") from exc
    band = 10.0 * _TOL * scale
    if not math.isfinite(band):
        raise OracleError("float expansion overflows: the band is not finite")
    try:
        spectrum = m.float_spectrum
    except MemoryError as exc:
        raise OracleError(f"no memory for the dense float spectrum of {m.n} vertices") from exc
    except ImportError as exc:
        raise OracleError(f"the float spectrum needs numpy: {exc}") from exc
    below = equal = above = 0
    grey = False
    for e in spectrum.values:
        gap = abs(e - pf)
        if gap <= band:
            equal += 1
            continue
        if gap <= 10.0 * band:
            grey = True
        if e < pf:
            below += 1
        else:
            above += 1
    if exact is None:
        exact = counts_at(m, point)
    ex = (exact.below, exact.equal, exact.above)
    ap = (below, equal, above)
    if grey:
        return AgreementReport(False, None, ex, ap, band)
    return AgreementReport(True, ex == ap, ex, ap, band)
