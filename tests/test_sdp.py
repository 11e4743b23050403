from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import xorcert.sdp
from helpers import inf1_lower_round, mixing_solve_reference
from xorcert import (
    DEFAULT_CONFIG,
    REFUTED,
    UNKNOWN,
    DualCert,
    GenSpec,
    KG_UPPER,
    PartitionedInstance,
    bipartite_matrix,
    brute_force_inf1,
    decompose,
    gen_kxor,
    gen_random_partitioned,
    inf1_upper,
    min_eig_check,
    refute_kxor,
    refute_partitioned,
    verify_certificate_detailed,
    z_matrix,
)
from xorcert.pipeline import _whole_matrix
from xorcert.reduce import kxor_to_partitioned
from xorcert.sdp import (_MIX_GAP, _MIX_OMEGA, _MIX_RAISE, _MIX_SWEEPS, _certify,
                         _mixing_solve, _sor_omega)


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


def test_whole_bound_ignores_a_gauge_and_vertex_order():
    # the ell = 1 twin of the test above, on light4's member: D A D for a
    # sign vector D, with the vertices permuted, has the same SDP value
    psi = kxor_to_partitioned(gen_kxor(GenSpec(kind="random", n=14, m=300, seed=1, k=4))).psi
    a = _whole_matrix(psi)
    bound, _ = inf1_upper(a)
    for seed in range(4):
        gen = np.random.default_rng(200 + seed)
        sign = gen.choice([-1.0, 1.0], size=len(a))
        order = gen.permutation(len(a))
        moved, _ = inf1_upper((sign[:, None] * a * sign)[np.ix_(order, order)])
        assert abs(moved - bound) <= 1e-9 * bound


def _hadamard_16() -> np.ndarray:
    h = np.array([[1.0]])
    for _ in range(4):
        h = np.block([[h, h], [h, -h]])
    return h


@pytest.mark.parametrize("m, value", [
    (_hadamard_16(), 64.0),
    # a rank-one sign matrix u v^T has SDP value |u|_1 |v|_1
    (np.outer(_sign_matrix(3, 30, 1)[:, 0], _sign_matrix(4, 7, 1)[:, 0]), 30.0 * 7.0),
], ids=["hadamard-16", "rank-one"])
def test_mixing_solve_stops_within_its_gap(m, value):
    # the solve stops only once its dual sum(d)/2, before the final raise, is
    # within a relative _MIX_GAP of a primal value, so of the SDP optimum
    dual = float(_mixing_solve(m).sum()) / 2.0 / _MIX_RAISE
    noise = 1e-14 * value
    assert value - noise <= dual <= value * (1.0 + _MIX_GAP) + noise


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
    # (39 columns: vertex 0 is only ever a part, so psi has no vertex for it)
    inst = gen_kxor(GenSpec(kind="random", n=40, m=30000, seed=1, k=3))
    cert = refute_kxor(inst, eps=0.4)
    report = cert.payload["heavy"]["report"]
    assert (report["rows"], report["cols"]) == (516, 39)
    assert report["bound"] < 4200.0
    assert verify_certificate_detailed(cert, inst) == (True, [])


def _sor_rate(b: np.ndarray, omega: float) -> float:
    """Spectral radius of one SOR sweep at omega on [[I, -B], [-B^T, I]] x = 0.

    The Jacobi sweep of that system is [[0, B], [B^T, 0]], whose spectral
    radius is the largest singular value of B.
    """
    p, q = b.shape
    sweep = np.empty((p + q, p + q))
    for j, x in enumerate(np.eye(p + q)):
        top = (1.0 - omega) * x[:p] + omega * (b @ x[p:])
        sweep[:, j] = np.concatenate([top, (1.0 - omega) * x[p:] + omega * (b.T @ top)])
    return float(np.abs(np.linalg.eigvals(sweep)).max())


@pytest.mark.parametrize("mu", [0.5, 0.9, 0.99, 0.999])
@pytest.mark.parametrize("omega", [1.0, 1.3, 1.6])
def test_sor_omega_is_youngs_factor_on_a_two_cyclic_model(mu, omega):
    # below the best factor the sweep's rate gives the Jacobi radius mu back,
    # and so Young's 2 / (1 + sqrt(1 - mu^2)); above it the rate is omega - 1,
    # which keeps omega
    b = np.random.default_rng(0).standard_normal((5, 3))
    b *= mu / np.linalg.norm(b, 2)
    best = 2.0 / (1.0 + math.sqrt(1.0 - mu * mu))
    assert _sor_omega(_sor_rate(b, omega), omega) == pytest.approx(max(omega, best), rel=1e-9)


@pytest.mark.parametrize("rate", [1.0, 1.5, math.inf, 0.0, -0.25, -math.inf, math.nan])
@pytest.mark.parametrize("omega", [1.0, 1.6])
def test_sor_omega_keeps_omega_without_a_contraction(rate, omega):
    assert _sor_omega(rate, omega) == omega


@settings(max_examples=300, deadline=None)
@given(st.floats(allow_nan=True, allow_infinity=True),
       st.floats(min_value=1.0, max_value=2.0, exclude_max=True))
def test_sor_omega_stays_in_omega_to_2(rate, omega):
    # so SOR converges, and _relaxed's |v + omega(u - v)| >= 1 holds
    assert omega <= _sor_omega(rate, omega) < 2.0


def _light4_whole() -> np.ndarray:
    psi = kxor_to_partitioned(gen_kxor(GenSpec(kind="random", n=14, m=300, seed=1, k=4))).psi
    return _whole_matrix(psi)


def _heavy_side(n: int, m: int) -> np.ndarray:
    psi = kxor_to_partitioned(gen_kxor(GenSpec(kind="random", n=n, m=m, seed=1, k=3))).psi
    return bipartite_matrix(decompose(psi, 0.4, DEFAULT_CONFIG.c_split).heavy)


def _moved_sign_matrix(seed: int) -> np.ndarray:
    # the signed and permuted copy of test_inf1_upper_ignores_signs_and_order
    a = _sign_matrix(seed, 60, 12)
    gen = np.random.default_rng(100 + seed)
    flip_r = gen.choice([-1.0, 1.0], size=60)
    flip_c = gen.choice([-1.0, 1.0], size=12)
    return (flip_r[:, None] * a * flip_c)[np.ix_(gen.permutation(60), gen.permutation(12))]


_REFERENCE_MATRICES = {
    "light4-whole-79x79": _light4_whole,
    "heavy3-random-111x19": lambda: _heavy_side(20, 6000),
    "heavy-516x39": lambda: _heavy_side(40, 30000),
    "hadamard-16": _hadamard_16,
    **{f"sign-60x12-{seed}": (lambda seed=seed: _sign_matrix(seed, 60, 12)) for seed in range(4)},
    **{f"sign-60x12-{seed}-moved": (lambda seed=seed: _moved_sign_matrix(seed))
       for seed in range(4)},
}


@pytest.mark.parametrize("build", _REFERENCE_MATRICES.values(), ids=_REFERENCE_MATRICES.keys())
def test_mixing_solve_certifies_as_the_fixed_omega_solve(build):
    # both stop within _MIX_GAP of the SDP optimum, far inside the grid of _rounded
    m = build()
    cert = _certify(m, _mixing_solve(m))
    assert cert is not None and cert == _certify(m, mixing_solve_reference(m))


def _count_calls(monkeypatch, name: str) -> list:
    calls = []
    inner = getattr(xorcert.sdp, name)

    def counted(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(xorcert.sdp, name, counted)
    return calls


def test_mixing_solve_sets_omega_from_its_rate_on_light4(monkeypatch):
    # omega fixed at 1.6 takes 420 sweeps and 10 gap checks on light4's A
    a = _light4_whole()
    relaxed = _count_calls(monkeypatch, "_relaxed")  # two per sweep
    checks = _count_calls(monkeypatch, "_on_boundary")  # one per check: A is square
    _mixing_solve(a)
    assert len(relaxed) <= 2 * 250 and len(checks) <= 6
    assert max(args[3] for args in relaxed) > _MIX_OMEGA


def test_an_omega_that_slows_the_gap_is_undone(monkeypatch):
    # 1.99 is far above the best factor: the gap falls more slowly than at
    # 1.6, so the solve goes back to 1.6 and still stops on its gap
    a = _light4_whole()
    monkeypatch.setattr(xorcert.sdp, "_sor_omega", lambda rate, omega: 1.99)
    relaxed = _count_calls(monkeypatch, "_relaxed")
    d = _mixing_solve(a)
    omegas = [args[3] for args in relaxed]
    assert 1.99 in omegas and omegas[-1] == _MIX_OMEGA
    assert len(omegas) // 2 < _MIX_SWEEPS
    reference = mixing_solve_reference(a)
    assert abs(d.sum() - reference.sum()) <= 2.0 * _MIX_GAP * reference.sum()
    assert _certify(a, d) == _certify(a, reference)


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
