import random
from fractions import Fraction as F

import numpy as np
import pytest

from helpers import random_matrix, random_tree

import diminimal.oracle
from diminimal import (
    Family,
    OracleError,
    build_tree,
    compare_counts,
    dense_eigenvalues,
    make_matrix,
    realize_family,
    seed,
    to_dense_float,
)


def test_jacobi_path2():
    a = np.array([[0.0, 1.0], [1.0, 0.0]])
    spectrum = dense_eigenvalues(a)
    assert np.allclose(spectrum.values, [-1.0, 1.0])


def test_jacobi_path3():
    a = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    spectrum = dense_eigenvalues(a)
    r2 = 2.0 ** 0.5
    assert np.allclose(spectrum.values, [-r2, 0.0, r2], atol=1e-12)


def test_jacobi_against_numpy():
    rng = random.Random(13)
    for _ in range(25):
        t = random_tree(rng.randint(1, 16), rng)
        a = to_dense_float(random_matrix(t, rng))
        spectrum = dense_eigenvalues(a)
        ref = np.linalg.eigvalsh(a)
        scale = max(1.0, np.abs(a).max())
        assert np.allclose(spectrum.values, ref, atol=1e-10 * scale)
        assert list(spectrum.values) == sorted(spectrum.values)


def test_jacobi_rejects_nonsquare():
    # a scalar, a vector and a stack of matrices are not square either
    for bad in (np.zeros((2, 3)), 5, np.zeros(3), [1.0], np.zeros((2, 2, 2))):
        with pytest.raises(OracleError, match=r"^not square: \("):
            dense_eigenvalues(bad)


def test_jacobi_rejects_asymmetric():
    with pytest.raises(OracleError):
        dense_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_dense_eigenvalues_rejects_non_finite_entries():
    for bad in (np.inf, -np.inf, np.nan):
        with pytest.raises(OracleError):
            dense_eigenvalues(np.array([[bad, 1.0], [1.0, 0.0]]))


def test_dense_eigenvalues_rejects_overflowing_spectrum():
    # finite entries whose largest eigenvalue, 2e308, is beyond the float range
    with pytest.raises(OracleError):
        dense_eigenvalues(np.full((2, 2), 1e308))


def test_compare_counts_at_exact_eigenvalue():
    t = build_tree([(0, 1)], 0)
    m = make_matrix(t, (F(0), F(0)), {(0, 1): F(1)})
    rep = compare_counts(m, F(1))
    assert rep.conclusive and rep.agree
    assert rep.exact == (1, 1, 0)


def test_compare_counts_far_point():
    t = build_tree([(0, 1)], 0)
    m = make_matrix(t, (F(0), F(0)), {(0, 1): F(1)})
    rep = compare_counts(m, F(7, 3))
    assert rep.conclusive and rep.agree
    assert rep.exact == (2, 0, 0)


def test_compare_counts_grey_annulus_is_inconclusive():
    # query a hair away from a true eigenvalue: the float side cannot
    # distinguish, so the report must refuse to call it
    t = build_tree([(0, 1)], 0)
    m = make_matrix(t, (F(0), F(0)), {(0, 1): F(1)})
    rep = compare_counts(m, F(1) + F(1, 10**10))
    assert not rep.conclusive


def test_compare_counts_random_agreement():
    rng = random.Random(14)
    tried = agreed = 0
    for _ in range(60):
        t = random_tree(rng.randint(2, 15), rng)
        m = random_matrix(t, rng)
        pt = F(rng.randint(-12, 12), rng.randint(1, 4))
        rep = compare_counts(m, pt)
        if rep.conclusive:
            tried += 1
            agreed += rep.agree
    assert tried >= 50
    assert agreed == tried


@pytest.mark.parametrize("diag0, w2, point", [
    (F(10**400), F(1), F(0)),   # an entry beyond the float range
    (F(0), F(10**700), F(0)),   # a weight beyond it
    (F(0), F(1), F(10**400)),   # the query point beyond it
    (F(10**308), F(1), F(0)),   # a float matrix whose band overflows
])
def test_compare_counts_overflow_is_an_oracle_error(diag0, w2, point):
    t = build_tree([(0, 1)], 0)
    m = make_matrix(t, (diag0, F(0)), {(0, 1): w2})
    with pytest.raises(OracleError):
        compare_counts(m, point)


def test_compare_counts_without_memory_is_an_oracle_error(monkeypatch):
    # the dense float copy of a matrix at the vertex bound would take 137 GB
    def no_memory(m):
        raise MemoryError

    monkeypatch.setattr(diminimal.oracle, "to_dense_float", no_memory)
    m = make_matrix(build_tree([(0, 1)], 0), (F(0), F(0)), {(0, 1): F(1)})
    with pytest.raises(OracleError, match="^no memory for the dense float spectrum of 2 vertices"):
        compare_counts(m, F(0))


@pytest.mark.parametrize("family, diameters", [
    (Family.UNIFORM, range(1, 16)),
    (Family.SHORT_CORE, range(6, 16)),
    (Family.MIXED, range(7, 16, 2)),
])
def test_compare_counts_agrees_at_every_constructed_eigenvalue(family, diameters):
    # constructed spectra have high multiplicities (a quarter of n at one
    # value) and reach n = 256 at uniform d = 15; every claimed eigenvalue
    # must be a conclusive agreement
    for d in diameters:
        cert = realize_family(seed(family, d), 0, 32)
        for lam, mult in cert.dspec:
            rep = compare_counts(cert.matrix, lam)
            assert rep.conclusive and rep.agree, (family, d, lam, rep)
            assert rep.exact[1] == mult
