from __future__ import annotations

import numpy as np
import pytest

import xorcert.sdp
from helpers import inf1_lower_round
from xorcert import (
    REFUTED,
    UNKNOWN,
    DualCert,
    GenSpec,
    KG_UPPER,
    PartitionedInstance,
    brute_force_inf1,
    gen_kxor,
    gen_random_partitioned,
    inf1_upper,
    min_eig_check,
    refute_kxor,
    refute_partitioned,
    verify_certificate_detailed,
    z_matrix,
)
from xorcert.sdp import _certify, _mixing_solve


def test_z_matrix_assembly():
    m = np.array([[1.0, -2.0], [0.0, 3.0]])
    d = np.array([4.0, 5.0, 6.0, 7.0])
    z = z_matrix(m, d)
    expect = np.array([
        [4.0, 0.0, -1.0, 2.0],
        [0.0, 5.0, 0.0, -3.0],
        [-1.0, 0.0, 6.0, 0.0],
        [2.0, -3.0, 0.0, 7.0],
    ])
    np.testing.assert_array_equal(z, expect)


def test_dual_cert_bound_and_json():
    cert = DualCert(d_left=(1.0, 2.0), d_right=(3.0,), slack=0.5)
    assert cert.bound() == pytest.approx((1 + 2 + 3) / 2 + 0.5 * 3 / 2)
    data = cert.to_json_dict()
    assert data["bound"] == pytest.approx(cert.bound())
    assert DualCert.from_json_dict(data) == cert


@pytest.mark.parametrize("field", ["d_left", "d_right", "slack"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_dual_cert_from_json_rejects_non_finite(field, value):
    data = DualCert(d_left=(1.0, 2.0), d_right=(3.0,), slack=0.5).to_json_dict()
    data[field] = value if field == "slack" else [value] + data[field][1:]
    with pytest.raises(ValueError, match="non-finite"):
        DualCert.from_json_dict(data)


def test_kg_constant():
    assert 1.78 < KG_UPPER < 1.8


@pytest.mark.parametrize("seed", range(8))
def test_inf1_upper_sandwich(seed):
    gen = np.random.default_rng(seed)
    rows = int(gen.integers(1, 7))
    cols = int(gen.integers(1, 7))
    m = gen.integers(-1, 2, size=(rows, cols)).astype(float)
    bound, cert = inf1_upper(m)
    truth = brute_force_inf1(m)
    assert bound >= truth - 1e-9
    assert bound == pytest.approx(cert.bound())
    # certificate must stand on its own: Z(d) >= -slack I re-checked here
    d = np.array(cert.d_left + cert.d_right)
    assert min_eig_check(z_matrix(m, d), cert.slack)
    lower, x, y = inf1_lower_round(m)
    assert lower <= truth + 1e-9
    assert set(np.unique(x)) <= {1.0, -1.0} and set(np.unique(y)) <= {1.0, -1.0}


def test_inf1_upper_zero_matrix():
    # d = 0 with a subnormal slack: the dual the verifier's PSD check accepts
    m = np.zeros((2, 3))
    bound, cert = inf1_upper(m)
    assert 0.0 < bound < 1e-300 and bound == cert.bound()
    d = np.array(cert.d_left + cert.d_right)
    assert min_eig_check(z_matrix(m, d), cert.slack)
    assert inf1_lower_round(m)[0] == 0.0


def test_inf1_upper_single_entry_is_tight():
    bound, _ = inf1_upper(np.array([[-3.0]]))
    assert bound == pytest.approx(3.0, rel=1e-6)


def test_inf1_upper_near_optimal_on_sign_matrices():
    # the dual SDP bound is within the Grothendieck constant of the truth
    ratios = []
    for seed in range(20):
        gen = np.random.default_rng(seed)
        m = (2 * gen.integers(0, 2, size=(5, 5)) - 1).astype(float)
        bound, _ = inf1_upper(m)
        ratios.append(bound / brute_force_inf1(m))
    assert all(r >= 1.0 - 1e-9 for r in ratios)
    assert sorted(ratios)[len(ratios) // 2] <= 1.8


def test_inf1_upper_non_square_certifies():
    gen = np.random.default_rng(0)
    m = gen.integers(-1, 2, size=(5, 6)).astype(float)
    bound, cert = inf1_upper(m)
    truth = brute_force_inf1(m)
    assert truth - 1e-9 <= bound
    d = np.array(cert.d_left + cert.d_right)
    assert min_eig_check(z_matrix(m, d), cert.slack)


def test_d0_certifies_at_2000_dims():
    # Z(d0) is diagonally dominant, so the Cholesky check passes it at any size
    gen = np.random.default_rng(0)
    rows, cols, per_row = 1200, 900, 5
    flat = gen.choice(rows * cols, size=rows * per_row, replace=False)
    m = np.zeros((rows, cols))
    m.flat[flat] = gen.choice([-1.0, 1.0], size=flat.size)
    d0 = np.concatenate([np.abs(m).sum(axis=1), np.abs(m).sum(axis=0)])
    cert = _certify(m, d0)
    assert cert is not None
    assert cert.d_left + cert.d_right == tuple(d0)  # integer d0 is already on the grid
    assert 0.0 < cert.slack <= 1e-10 * float(d0.sum())


def _sign_matrix(seed: int, rows: int, cols: int) -> np.ndarray:
    return np.random.default_rng(seed).choice([-1.0, 1.0], size=(rows, cols))


def test_inf1_upper_is_exact_on_a_hadamard_matrix():
    # H_16 has orthogonal rows of norm 4, so its SDP value is 16 * 4 = 64
    h = np.array([[1.0]])
    for _ in range(4):
        h = np.block([[h, h], [h, -h]])
    bound, cert = inf1_upper(h)
    assert bound == cert.bound()
    assert 64.0 - 1e-9 <= bound <= 64.0 * (1.0 + 1e-6)


@pytest.mark.parametrize("seed", range(4))
def test_inf1_upper_ignores_signs_and_order(seed):
    # flipping row and column signs and permuting them keeps the SDP value
    a = _sign_matrix(seed, 60, 12)
    gen = np.random.default_rng(100 + seed)
    flip_r = gen.choice([-1.0, 1.0], size=60)
    flip_c = gen.choice([-1.0, 1.0], size=12)
    moved = (flip_r[:, None] * a * flip_c)[np.ix_(gen.permutation(60), gen.permutation(12))]
    bound, _ = inf1_upper(a)
    moved_bound, _ = inf1_upper(moved)
    assert abs(moved_bound - bound) <= 1e-9 * bound


def test_inf1_upper_is_deterministic():
    m = _sign_matrix(0, 30, 9)
    first, second = inf1_upper(m), inf1_upper(m)
    assert first == second


def test_a_solve_cut_short_still_certifies(monkeypatch):
    # the Schur-complement shift puts unconverged multipliers onto the PSD
    # boundary, so a capped solve loses tightness, not the certificate
    m = _sign_matrix(0, 60, 12)
    converged, _ = inf1_upper(m)
    monkeypatch.setattr(xorcert.sdp, "_MIX_SWEEPS", 3)
    cert = _certify(m, _mixing_solve(m))
    d0 = np.concatenate([np.abs(m).sum(axis=1), np.abs(m).sum(axis=0)])
    assert cert is not None
    assert converged < cert.bound() < 0.5 * _certify(m, d0).bound()


def _failing_solve(m):
    return np.zeros(sum(m.shape))  # Z(0) = [[0, -M], [-M^T, 0]] is not PSD


@pytest.mark.parametrize("a, solve, checks", [
    (_sign_matrix(0, 60, 12), None, 1),  # the mixing d wins
    (np.zeros((4, 3)), None, 1),  # a tie at 0 goes to d0
    (np.eye(5), None, 1),  # d0 is optimal
    (_sign_matrix(1, 20, 8), _failing_solve, 2),  # the mixing d fails, then d0 passes
])
def test_inf1_upper_checks_the_smaller_bound_first(monkeypatch, a, solve, checks):
    # the choice and its bytes are those of checking both duals and taking
    # the smaller passing bound, d0 on a tie; the usual case runs one Cholesky
    if solve is not None:
        monkeypatch.setattr(xorcert.sdp, "_mixing_solve", solve)
    d0 = np.concatenate([np.abs(a).sum(axis=1), np.abs(a).sum(axis=0)])
    both = [_certify(a, d) for d in (d0, xorcert.sdp._mixing_solve(a))]
    expected = min((cert for cert in both if cert is not None), key=DualCert.bound)
    calls = []

    def counted(*args):
        calls.append(args)
        return min_eig_check(*args)

    monkeypatch.setattr(xorcert.sdp, "min_eig_check", counted)
    bound, cert = inf1_upper(a)
    assert len(calls) == checks
    assert cert.to_json_dict() == expected.to_json_dict() and bound == expected.bound()


def test_zero_rows_and_columns_get_zero_multipliers():
    m = _sign_matrix(1, 8, 6)
    m[3] = 0.0
    m[:, 4] = 0.0
    d = _mixing_solve(m)
    assert d[3] == 0.0 and d[8 + 4] == 0.0
    assert (np.delete(d, [3, 8 + 4]) > 0).all()
    _, cert = inf1_upper(m)
    assert cert.d_left[3] == 0.0 and cert.d_right[4] == 0.0


def test_mixing_bound_is_tight_on_a_516_by_40_heavy_side():
    # the barrier solver stopped at 4650.9 here; the SDP optimum is about 4164.7
    inst = gen_kxor(GenSpec(kind="random", n=40, m=30000, seed=1, k=3))
    cert = refute_kxor(inst, eps=0.4)
    report = cert.payload["heavy"]["report"]
    assert (report["rows"], report["cols"]) == (516, 40)
    assert report["bound"] < 4200.0
    assert verify_certificate_detailed(cert, inst) == (True, [])


def test_refute_2xor_random_succeeds():
    # one part: one dual on the whole pair matrix refutes, although nearly
    # every constraint would go heavy
    inst = gen_random_partitioned(30, 1, 4000, seed=1)
    cert = refute_partitioned(inst, eps=0.4)
    whole = cert.payload["whole"]
    assert cert.payload["heavy"]["m"] > 0.99 * inst.m and whole["status"] == "SUCCESS"
    assert whole["bound"] <= 2 * 0.4 * inst.m
    assert cert.outcome == REFUTED and cert.certified_val_upper <= 0.9
    assert verify_certificate_detailed(cert, inst) == (True, [])


def test_refute_2xor_satisfiable_stays_unknown():
    # a perfectly satisfiable instance can never be refuted below val 1
    inst = PartitionedInstance(n=2, ell=1, constraints=((0, 0, 1, 1),) * 200)
    cert = refute_partitioned(inst, eps=0.3)
    assert cert.payload["heavy"]["m"] == inst.m and cert.payload["whole"]["status"] == "UNKNOWN"
    assert cert.outcome == UNKNOWN and cert.certified_val_upper == 1.0
    assert verify_certificate_detailed(cert, inst) == (True, [])


def test_refute_2xor_validation():
    # the 2-XOR (ell = 1) entry to the heavy-side refutation rejects bad eps
    # and empty instances before building any matrix
    inst = gen_random_partitioned(6, 1, 10, seed=0)
    with pytest.raises(ValueError):
        refute_partitioned(inst, eps=0.0)
    with pytest.raises(ValueError):
        refute_partitioned(inst, eps=0.5)
    with pytest.raises(ValueError):
        refute_partitioned(PartitionedInstance(n=2, ell=1, constraints=()), eps=0.2)
