from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import xorcert.linalg
from xorcert import (
    NormBound,
    bernstein_tail,
    bernstein_threshold,
    l1_norm_bound,
    min_eig_check,
    spectral_norm,
)
from xorcert.linalg import SparseMat


def _random_sparse(rng, rows, cols, density=0.4):
    a = rng.standard_normal((rows, cols))
    a[rng.random((rows, cols)) > density] = 0.0
    return a


def test_sparsemat_merges_duplicates_and_drops_zeros():
    m = SparseMat.from_arrays(2, 3, [0, 0, 1, 1, 0, 0], [1, 1, 2, 0, 2, 2],
                              [2.0, -1.0, 3.0, 0.0, 1.5, -1.5])
    assert m.nnz == 2
    np.testing.assert_array_equal(m.to_dense(), [[0.0, 1.0, 0.0], [0.0, 0.0, 3.0]])


def test_sparsemat_matvec_matches_dense(rng):
    a = _random_sparse(rng, 5, 7)
    m = SparseMat.from_dense(a)
    x = rng.standard_normal(7)
    y = rng.standard_normal(5)
    np.testing.assert_allclose(m.matvec(x), a @ x, atol=1e-12)
    np.testing.assert_allclose(m.rmatvec(y), a.T @ y, atol=1e-12)
    np.testing.assert_allclose(m.row_l1(), np.abs(a).sum(axis=1), atol=1e-12)
    np.testing.assert_allclose(m.col_l1(), np.abs(a).sum(axis=0), atol=1e-12)
    assert m.abs_max() == np.abs(a).max()


def test_sparsemat_validation():
    with pytest.raises(ValueError):
        SparseMat.from_arrays(2, 2, [2], [0], [1.0])  # row out of range
    with pytest.raises(ValueError):
        SparseMat.from_arrays(2, 2, [0], [-1], [1.0])
    with pytest.raises(ValueError):
        SparseMat.from_arrays(2, 2, [0], [0], [math.inf])
    with pytest.raises(ValueError):
        SparseMat(rows=-1, cols=2, r=np.array([], dtype=np.int64),
                  c=np.array([], dtype=np.int64), v=np.array([]))


def test_norm_bound_validation():
    with pytest.raises(ValueError):
        NormBound(lower=2.0, upper=1.0, method="x")
    with pytest.raises(ValueError):
        NormBound(lower=-0.1, upper=1.0, method="x")


def test_spectral_norm_sandwiches_svd(rng):
    for _ in range(40):
        rows = int(rng.integers(1, 9))
        cols = int(rng.integers(1, 9))
        a = _random_sparse(rng, rows, cols)
        m = SparseMat.from_dense(a)
        sigma = float(np.linalg.svd(a, compute_uv=False)[0])
        for nb in (spectral_norm(m), spectral_norm(a)):  # sparse, and the dense array as it is
            assert nb.lower <= sigma <= nb.upper
            assert nb.upper <= l1_norm_bound(m) * (1 + 1e-11) + 1e-12
            assert nb.upper - nb.lower <= 1e-6 * max(1.0, sigma)


def test_spectral_norm_negative_entry():
    nb = spectral_norm(SparseMat.from_dense([[-3.0]]))
    assert nb.lower == pytest.approx(3.0, rel=1e-11)
    assert nb.upper == pytest.approx(3.0, rel=1e-11)
    assert nb.lower <= 3.0 <= nb.upper


def test_spectral_norm_zero_and_empty():
    for zero in (np.zeros((2, 2)), SparseMat.from_dense(np.zeros((2, 2)))):
        nb = spectral_norm(zero)
        assert nb.lower == nb.upper == 0.0 and nb.method == "exact-small"
    empty = SparseMat.from_arrays(0, 4, [], [], [])
    assert spectral_norm(empty).upper == 0.0


def _near_degenerate_top(seed: int) -> np.ndarray:
    """40x40 (Q1 diag(s)) Q2^T with s_1 = 1 and s_2 = 1 - gap, gap in [1e-6, 1e-4]."""
    gen = np.random.default_rng(seed)
    gap = 10.0 ** gen.uniform(-6.0, -4.0)
    s = np.concatenate([[1.0, 1.0 - gap], gen.uniform(0.0, 0.9, 38)])
    q1, _ = np.linalg.qr(gen.standard_normal((40, 40)))
    q2, _ = np.linalg.qr(gen.standard_normal((40, 40)))
    return (q1 * s) @ q2.T


@pytest.mark.parametrize("seed", range(60))
def test_spectral_norm_near_degenerate_top(seed):
    # power iteration stalls between two nearly equal singular values, and
    # its residual bound then lands within reach of sigma_2, below sigma_1
    a = _near_degenerate_top(seed)
    sigma = float(np.linalg.svd(a, compute_uv=False)[0])
    nb = spectral_norm(SparseMat.from_dense(a))
    assert nb.lower <= sigma <= nb.upper
    assert nb.method == "dense-cholesky"


@pytest.mark.parametrize("shape", [(5051, 5051), (2526, 2525)], ids=["symmetric", "rectangular"])
def test_spectral_norm_above_the_cap_is_the_l1_bound(shape):
    # past the dense cap there is no sound u, so the upper is the l1 bound
    gen = np.random.default_rng(3)
    rows, cols = shape
    r, c, v = gen.integers(0, rows, 400), gen.integers(0, cols, 400), gen.standard_normal(400)
    if rows == cols:
        r, c, v = np.concatenate([r, c]), np.concatenate([c, r]), np.concatenate([v, v])
    m = SparseMat.from_arrays(rows, cols, r, c, v)
    nb = spectral_norm(m)
    assert nb.method == "schur-l1"
    assert nb.upper == l1_norm_bound(m) * (1.0 + xorcert.linalg._ROUND_GUARD)
    assert nb.lower <= m.abs_max() <= nb.upper  # every entry is below the norm


def test_spectral_norm_falls_back_to_l1_when_the_check_fails(monkeypatch):
    monkeypatch.setattr(xorcert.linalg, "_shifted_cholesky", lambda a, slack: False)
    for a in ([[1.0, 2.0], [2.0, -1.0]], [[1.0, 2.0, 0.5], [0.0, -1.0, 3.0]]):
        m = SparseMat.from_dense(a)
        nb = spectral_norm(m)
        sigma = float(np.linalg.svd(np.asarray(a), compute_uv=False)[0])
        assert nb.method == "schur-l1"
        assert nb.upper == l1_norm_bound(m) * (1.0 + xorcert.linalg._ROUND_GUARD)
        assert nb.lower <= sigma


def test_min_eig_check():
    eye = np.eye(3)
    assert min_eig_check(eye, slack=0.0)
    indef = np.array([[0.0, 2.0], [2.0, 0.0]])  # lambda_min = -2
    assert min_eig_check(indef, slack=2.001)
    assert not min_eig_check(indef, slack=1.0)
    with pytest.raises(ValueError):
        min_eig_check(eye, slack=-1.0)


@pytest.mark.parametrize("s", [
    np.ones((2, 3)),
    np.ones(3),
    [[0.0, 1.0], [0.0, 0.0]],
    [[1.0, 2.0], [np.nextafter(2.0, 3.0), 1.0]],  # one ulp off symmetric
    [[1.0, np.nan], [np.nan, 1.0]],
    [[np.inf, 0.0], [0.0, 1.0]],
], ids=["not-square", "vector", "asymmetric", "one-ulp-asymmetric", "nan", "inf"])
def test_min_eig_check_requires_finite_symmetric_square(s):
    with pytest.raises(ValueError):
        min_eig_check(s, slack=0.0)


def test_min_eig_check_per_row_slack():
    # [[a, 1], [1, b]] is PSD iff a, b >= 0 and a b >= 1
    off = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert min_eig_check(off, np.array([2.0, 0.6]))
    assert not min_eig_check(off, np.array([2.0, 0.4]))
    assert not min_eig_check(off, np.array([4.0, 0.0]))
    with pytest.raises(ValueError):
        min_eig_check(off, np.array([1.0, -1.0]))


def test_min_eig_check_leaves_its_input_alone():
    s = np.array([[2.0, 1.0], [1.0, 2.0]])
    before = s.copy()
    assert min_eig_check(s, slack=0.5)
    np.testing.assert_array_equal(s, before)


def _near_degenerate(seed: int) -> tuple[np.ndarray, float]:
    """40x40 symmetric S with lambda_min = -1 and lambda_2 = -1 + gap, gap in [1e-6, 1e-4]."""
    gen = np.random.default_rng(seed)
    gap = 10.0 ** gen.uniform(-6.0, -4.0)
    lam = np.concatenate([[-1.0, -1.0 + gap], gen.uniform(0.0, 1.0, 38)])
    q, _ = np.linalg.qr(gen.standard_normal((40, 40)))
    s = (q * lam) @ q.T
    s = (s + s.T) / 2.0
    return s, float(np.linalg.eigvalsh(s)[0])


@pytest.mark.parametrize("seed", range(60))
def test_min_eig_check_near_degenerate(seed):
    # a nearly repeated smallest eigenvalue stalls power iteration, whose
    # estimate then lies above lambda_min; the Cholesky check has no such gap
    s, lam = _near_degenerate(seed)
    assert not min_eig_check(s, (1.0 - 1e-6) * abs(lam))
    assert min_eig_check(s, (1.0 + 1e-6) * abs(lam))


def test_bernstein_tail_edges():
    assert bernstein_tail(1.0, 1.0, 2, 3, 0.0) == 1.0
    assert bernstein_tail(0.0, 0.0, 2, 3, 0.5) == 0.0  # zero variance, zero range
    assert bernstein_tail(1.0, 0.0, 1, 1, 2.0) == pytest.approx(2 * math.exp(-2.0))
    with pytest.raises(ValueError):
        bernstein_tail(-1.0, 0.0, 1, 1, 1.0)
    with pytest.raises(ValueError):
        bernstein_tail(1.0, 0.0, -1, 1, 1.0)


def test_bernstein_tail_monotone_in_t():
    ts = np.linspace(0.0, 10.0, 50)
    vals = [bernstein_tail(2.0, 0.5, 4, 4, float(t)) for t in ts]
    assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_bernstein_threshold_plugs_back():
    for sigma2 in (0.0, 0.3, 2.0):
        for r in (0.0, 0.1, 1.0):
            for d in ((1, 1), (5, 40)):
                for delta in (1.0, 0.5, 1e-3, 1e-9):
                    t = bernstein_threshold(sigma2, r, d[0], d[1], delta)
                    assert bernstein_tail(sigma2, r, d[0], d[1], t) <= delta + 1e-12


def test_bernstein_threshold_degenerate_corner():
    # zero variance and zero range with d1 + d2 > delta: any positive t works
    t = bernstein_threshold(0.0, 0.0, 2, 2, 0.5)
    assert t > 0.0
    assert bernstein_tail(0.0, 0.0, 2, 2, t) == 0.0


def test_bernstein_threshold_validation():
    assert bernstein_threshold(1.0, 1.0, 0, 0, 0.5) == 0.0  # tail is 0 <= delta already
    with pytest.raises(ValueError):
        bernstein_threshold(1.0, 1.0, 1, 1, 0.0)
    with pytest.raises(ValueError):
        bernstein_threshold(1.0, 1.0, 1, 1, 1.5)
    with pytest.raises(ValueError):
        bernstein_threshold(-1.0, 1.0, 1, 1, 0.5)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_spectral_norm_property(seed):
    rng = np.random.default_rng(seed)
    a = np.round(rng.standard_normal((int(rng.integers(1, 6)), int(rng.integers(1, 6)))), 2)
    m = SparseMat.from_dense(a)
    nb = spectral_norm(m)
    sigma = float(np.linalg.svd(a, compute_uv=False)[0])
    assert nb.lower <= sigma <= nb.upper
