from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import xorcert.spectral
from conftest import dupfree_partitioned
from helpers import (block_dense, build_block, build_part_block, empirical_variance_norm,
                     phi1_direct, phi1_from_blocks, phi_direct)
from xorcert import (
    ButterflyTable,
    PartitionedInstance,
    RefuteConfig,
    WeightClassPartition,
    block_r_bound,
    block_variance_bound,
    brute_force_val,
    build_blocks,
    butterfly,
    certify_dbounded,
    degree_profile,
    dup_correction,
    gen_random_partitioned,
    phi2_term,
    spectral_norm,
    weight_classes,
)
from xorcert.linalg import _DENSE_CAP, SparseMat
from xorcert.spectral import _accumulate_blocks, _kept_mu


def _signs(rng, n):
    return (2.0 * rng.integers(0, 2, size=n) - 1.0).astype(float)


def test_butterfly_hand_example():
    # one part, t = 2, edges {0,1} and {0,2}: deg = (2, 1, 1)
    inst = PartitionedInstance(n=3, ell=1, constraints=((0, 0, 1, 1), (0, 0, 2, -1)))
    table = butterfly(degree_profile(inst))
    assert table.value(0, 0) == pytest.approx(2.0)
    assert table.value(0, 1) == pytest.approx(1.0)
    assert table.value(1, 2) == pytest.approx(0.5)
    assert table.value(1, 1) == pytest.approx(0.5)
    assert table.total == pytest.approx(4 * inst.m)


@pytest.mark.parametrize("seed", range(5))
def test_butterfly_total_is_4m(seed):
    inst = gen_random_partitioned(9, 3, 70, seed=seed)
    table = butterfly(degree_profile(inst))
    assert table.total == pytest.approx(4 * inst.m, rel=1e-12)


def test_weight_class_boundaries():
    # n = 4, d = 1, ell = 1, eps = 0.4, m = 2500: alpha ~ 1, beta ~ 100, levels = 2
    gamma = {(0, 1): 0.5, (0, 2): 50.0, (1, 2): 5000.0, (1, 3): 1e8}
    table = ButterflyTable(n=4, gamma=gamma, total=sum(gamma.values()))
    partition = weight_classes(table, d=1, eps=0.4, m=2500, ell=1)
    assert partition.levels == 2
    assert partition.alpha == pytest.approx(1.0)
    assert partition.beta == pytest.approx(100.0)
    assert not partition.clamped
    assert partition.class_of((0, 1)) == 0
    assert partition.class_of((0, 2)) == 1
    assert partition.class_of((1, 2)) == 2
    assert partition.class_of((1, 3)) == 2  # above the top boundary: capped at levels
    assert partition.class_of((3, 3)) == 0  # absent pairs have gamma = 0
    assert sum(partition.sizes) == 16
    assert partition.sizes == (13, 1, 2)


def test_weight_class_clamping():
    table = ButterflyTable(n=4, gamma={(0, 1): 3.0}, total=4.0)
    partition = weight_classes(table, d=10, eps=0.1, m=1, ell=2)
    assert partition.clamped and partition.beta == 1.0
    assert partition.heavy == {}
    assert partition.sizes[0] == 16 and sum(partition.sizes) == 16


def test_weight_class_validation():
    table = ButterflyTable(n=4, gamma={}, total=0.0)
    with pytest.raises(ValueError):
        weight_classes(table, d=0, eps=0.2, m=10, ell=1)
    with pytest.raises(ValueError):
        weight_classes(table, d=1, eps=0.6, m=10, ell=1)
    with pytest.raises(ValueError):
        weight_classes(ButterflyTable(n=1, gamma={}, total=0.0), d=1, eps=0.2, m=10, ell=1)


def _all_s0(n):
    levels = math.ceil(math.log2(n))
    sizes = (n * n,) + (0,) * levels
    return WeightClassPartition(n=n, alpha=1e9, beta=1.0, levels=levels,
                                clamped=True, heavy={}, sizes=sizes)


def test_block_entries_hand_example():
    # edges {0,1} (+1) and {0,2} (-1) in one part of size 2:
    # entry at row pair (0,0), column pair (1,2) equals -1/sqrt(2)
    inst = PartitionedInstance(n=3, ell=1, constraints=((0, 0, 1, 1), (0, 0, 2, -1)))
    partition = _all_s0(3)
    block = build_blocks(inst, partition)[(0, 0)]
    n = 3
    dense = block_dense(block)
    row = int(np.flatnonzero(block.row_pairs == 0 * n + 0)[0])
    col = int(np.flatnonzero(block.col_pairs == 1 * n + 2)[0])
    assert dense[row, col] == pytest.approx(-1.0 / math.sqrt(2.0))
    # two edge orders x four orientations = 8 entries, all -1/sqrt(2)
    assert block.nnz == 8
    np.testing.assert_allclose(dense[dense != 0.0], -1.0 / math.sqrt(2.0))


def test_single_constraint_has_no_blocks():
    inst = PartitionedInstance(n=4, ell=2, constraints=((1, 2, 3, -1),))
    assert build_blocks(inst, _all_s0(4)) == {}
    mat = build_block(inst, _all_s0(4), 0, 0)
    assert mat.rows == 0 and mat.nnz == 0


@pytest.mark.parametrize("seed", range(4))
def test_phi_identities(seed):
    gen = np.random.default_rng(seed)
    inst = dupfree_partitioned(gen, n=8, ell=2, m=30)
    profile = degree_profile(inst)
    partition = _all_s0(8)
    blocks = build_blocks(inst, partition)
    c0 = dup_correction(inst, profile)
    assert c0 == pytest.approx(0.0, abs=1e-12)  # duplicate-free
    for _ in range(10):
        x = _signs(gen, 8)
        phi = phi_direct(inst, x)
        assert phi == pytest.approx(phi1_direct(inst, x) + phi2_term(profile), rel=1e-12)
        assert phi1_from_blocks(blocks, x, c0, 8) == pytest.approx(
            phi1_direct(inst, x), rel=1e-9, abs=1e-9)


@st.composite
def _small_partitioned(draw):
    # few vertices and parts, so duplicates, cancelling pairs (mu = 0) and
    # parts with a single edge all come up
    n = draw(st.integers(2, 6))
    ell = draw(st.integers(1, 3))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] != p[1])
    rows = draw(st.lists(st.tuples(st.integers(0, ell - 1), pair, st.sampled_from([-1, 1])),
                         min_size=1, max_size=40))
    return PartitionedInstance.make(n, ell, [(p, u, v, s) for p, (u, v), s in rows])


# two parts of size 5: {1, 3} cancels to mu = 0 in part 0, {2, 3} doubles in
# part 1, and the entries of row pair (0, 0) cancel across the two parts
_CANCELLING = PartitionedInstance(n=4, ell=2, constraints=(
    (0, 0, 1, 1), (0, 0, 2, 1), (0, 2, 3, 1), (0, 1, 3, 1), (0, 1, 3, -1),
    (1, 0, 1, 1), (1, 0, 2, -1), (1, 2, 3, 1), (1, 2, 3, 1), (1, 1, 2, 1),
))
_ONE_EDGE_PART = PartitionedInstance(n=5, ell=3, constraints=(
    (0, 0, 1, 1), (0, 1, 2, -1), (0, 2, 4, 1), (1, 3, 4, -1), (2, 0, 4, 1), (2, 1, 3, 1),
))


@settings(max_examples=200, deadline=None)
@given(_small_partitioned(), st.sampled_from([None, 1e-4, 1e-5, 1e-6]),
       st.integers(0, 2 ** 32 - 1))
@example(_CANCELLING, None, 0)
@example(_ONE_EDGE_PART, None, 1)
@example(gen_random_partitioned(6, 1, 20, seed=2), 1e-5, 2)  # ell = 1: blocks (0,1), (1,0), (1,1)
@example(gen_random_partitioned(8, 2, 30, seed=1), 1e-5, 3)  # four blocks, 36 x 26 off-diagonal
def test_block_apply_matches_explicit_block(inst, alpha_c, seed):
    # alpha_c None: one clamped (0, 0) block; else unclamped heavy classes,
    # whose off-diagonal blocks have different row and column supports
    profile = degree_profile(inst)
    if alpha_c is None:
        partition = _all_s0(inst.n)
    else:
        partition = weight_classes(butterfly(profile), d=profile.max_degree(), eps=0.3,
                                   m=inst.m, ell=len(profile.t), alpha_c=alpha_c)
    gen = np.random.default_rng(seed)
    for block in build_blocks(inst, partition, profile).values():
        dense = block_dense(block)
        absmat = np.abs(dense)
        x = gen.uniform(-1.0, 1.0, len(block.col_pairs))
        y = gen.uniform(-1.0, 1.0, len(block.row_pairs))
        # each row within 1e-12 of its abs-sum; entries that cancel across
        # parts leave rounding the abs-sum does not see, covered by the floor
        floor = 1e-14 * max(absmat.sum(axis=1).max(), absmat.sum(axis=0).max())
        assert np.all(np.abs(block.matvec(x) - dense @ x)
                      <= 1e-12 * absmat.sum(axis=1) + floor)
        assert np.all(np.abs(block.rmatvec(y) - dense.T @ y)
                      <= 1e-12 * absmat.sum(axis=0) + floor)


def _on_all_pairs(blocks, n):
    """Each block's entries placed at their (row pair, column pair) in an n^2 x n^2 array."""
    out = {}
    for key, block in blocks.items():
        full = np.zeros((n * n, n * n))
        full[np.ix_(block.row_pairs, block.col_pairs)] = block_dense(block)
        out[key] = full
    return out


@settings(max_examples=200, deadline=None)
@given(_small_partitioned(), st.sampled_from([None, 1e-4, 1e-5, 1e-6]))
@example(_CANCELLING, None)
@example(_CANCELLING, 1e-5)
@example(_ONE_EDGE_PART, None)
@example(_ONE_EDGE_PART, 1e-5)
@example(gen_random_partitioned(8, 2, 30, seed=1), 1e-5)
def test_dense_and_coo_builders_agree(inst, alpha_c):
    # the dense build, which every side with n^2 <= _DENSE_CAP takes, and the
    # sparse merge of larger sides give the same blocks on the same supports:
    # a row or column whose entries all cancel is in neither
    profile = degree_profile(inst)
    if alpha_c is None:
        partition = _all_s0(inst.n)
    else:
        partition = weight_classes(butterfly(profile), d=profile.max_degree(), eps=0.3,
                                   m=inst.m, ell=len(profile.t), alpha_c=alpha_c)
    mu = _kept_mu(inst, profile)
    dense_blocks = _accumulate_blocks(profile, mu, partition)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(xorcert.spectral, "_DENSE_CAP", 0)
        coo_blocks = _accumulate_blocks(profile, mu, partition)
    assert sorted(dense_blocks) == sorted(coo_blocks)
    assert all(isinstance(b.mat, np.ndarray) for b in dense_blocks.values())
    assert all(isinstance(b.mat, SparseMat) for b in coo_blocks.values())
    for key in dense_blocks:
        np.testing.assert_array_equal(dense_blocks[key].row_pairs, coo_blocks[key].row_pairs)
        np.testing.assert_array_equal(dense_blocks[key].col_pairs, coo_blocks[key].col_pairs)
    dense_full = _on_all_pairs(dense_blocks, inst.n)
    coo_full = _on_all_pairs(coo_blocks, inst.n)
    for key in dense_blocks:
        d, c = dense_full[key], coo_full[key]
        np.testing.assert_array_equal(d != 0.0, c != 0.0)
        assert dense_blocks[key].nnz == coo_blocks[key].nnz
        absmat = np.abs(c)
        floor = 1e-14 * max(absmat.sum(axis=1).max(), absmat.sum(axis=0).max())
        assert np.all(np.abs(d - c) <= 1e-12 * absmat.sum(axis=1)[:, None] + floor)


def test_dup_correction_signs():
    doubled = PartitionedInstance(n=2, ell=1, constraints=((0, 0, 1, 1), (0, 0, 1, 1)))
    assert dup_correction(doubled) == pytest.approx(4 / math.sqrt(2) - math.sqrt(2))
    cancelled = PartitionedInstance(n=2, ell=1, constraints=((0, 0, 1, 1), (0, 0, 1, -1)))
    assert dup_correction(cancelled) == pytest.approx(-math.sqrt(2))


def test_potential_lemma_at_optimum():
    for seed in range(5):
        gen = np.random.default_rng(seed + 100)
        inst = dupfree_partitioned(gen, n=7, ell=2, m=25)
        val, asg = brute_force_val(inst)
        x = np.array(asg.x, dtype=float)
        eps_star = float(val) - 0.5
        ell_eff = len(degree_profile(inst).t)
        lemma = 4.0 * eps_star**2 * inst.m**1.5 / math.sqrt(ell_eff)
        assert phi_direct(inst, x) >= lemma - 1e-9 * max(1.0, lemma)


def test_analytic_bounds_dominate_empirical():
    gen = np.random.default_rng(7)
    inst = dupfree_partitioned(gen, n=8, ell=2, m=40)
    profile = degree_profile(inst)
    d = profile.max_degree()
    partition = weight_classes(butterfly(profile), d=d, eps=0.3, m=inst.m,
                               ell=len(profile.t))
    blocks = build_blocks(inst, partition)
    for (j, k), block in blocks.items():
        sigma2 = block_variance_bound(partition, j, k)
        assert empirical_variance_norm(inst, partition, j, k) <= sigma2 * (1 + 1e-9)
        r = block_r_bound(partition, j, k, d)
        for slot in range(len(profile.t)):
            part_mat = build_part_block(inst, partition, slot, j, k)
            if part_mat.nnz:
                assert spectral_norm(part_mat).upper <= r * (1 + 1e-9)


def test_empirical_variance_cap():
    inst = gen_random_partitioned(17, 1, 10, seed=0)
    with pytest.raises(ValueError):
        empirical_variance_norm(inst, _all_s0(17), 0, 0)


def test_certify_dbounded_report_fields():
    inst = gen_random_partitioned(10, 2, 300, seed=3)
    rep = certify_dbounded(inst, eps=0.45)
    assert rep.m == 300 and rep.n == 10 and rep.ell_eff == 2
    assert rep.phi_total_bound == pytest.approx(rep.phi1_bound + rep.phi2_term)
    assert rep.threshold == pytest.approx(4 * 0.45**2 * 300**1.5 / math.sqrt(2))
    assert (rep.status == "SUCCESS") == (rep.phi_total_bound <= rep.threshold)
    assert rep.implied_eps == pytest.approx(
        math.sqrt(rep.phi_total_bound * math.sqrt(2) / (4 * 300**1.5)))
    assert rep.val_upper <= 1.0
    assert sum(rep.class_sizes) == 100
    data = rep.to_json_dict()
    assert data["status"] == rep.status and len(data["blocks"]) == len(rep.blocks)


def test_certify_dbounded_bound_dominates_enumerated_phi():
    inst = gen_random_partitioned(8, 2, 60, seed=5)
    rep = certify_dbounded(inst, eps=0.3)
    worst = max(
        phi_direct(inst, np.array([1 - 2 * ((i >> j) & 1) for j in range(8)], dtype=float))
        for i in range(1 << 8)
    )
    assert rep.phi_total_bound >= worst - 1e-9 * max(1.0, worst)


def test_certify_dbounded_single_constraint():
    inst = PartitionedInstance(n=3, ell=1, constraints=((0, 1, 2, 1),))
    rep = certify_dbounded(inst, eps=0.45)
    assert rep.blocks == ()
    assert rep.phi_total_bound == pytest.approx(1.0)  # just Phi_2 = sqrt(1)
    assert rep.status == "UNKNOWN"  # a single constraint is always satisfiable


def test_certify_dbounded_degree_precondition():
    inst = gen_random_partitioned(6, 1, 40, seed=0)
    measured = degree_profile(inst).max_degree()
    with pytest.raises(ValueError):
        certify_dbounded(inst, eps=0.3, d_bound=measured - 1)
    rep = certify_dbounded(inst, eps=0.3, d_bound=measured + 5)
    assert rep.d_used == measured + 5


def test_certify_dbounded_validation():
    inst = gen_random_partitioned(6, 1, 10, seed=0)
    with pytest.raises(ValueError):
        certify_dbounded(inst, eps=0.0)
    with pytest.raises(ValueError):
        certify_dbounded(PartitionedInstance(n=3, ell=1, constraints=()), eps=0.3)


def _no_coo(*args, **kwargs):
    raise AssertionError("COO block build")


@pytest.mark.parametrize("inst, alpha_c, count", [
    (gen_random_partitioned(20, 20, 1200, seed=1), 1.0, 1),  # one clamped 400-pair class
    (gen_random_partitioned(8, 2, 30, seed=1), 1e-5, 4),
])
def test_small_side_never_builds_coo_blocks(monkeypatch, inst, alpha_c, count):
    monkeypatch.setattr(SparseMat, "from_arrays", classmethod(_no_coo))
    rep = certify_dbounded(inst, eps=0.3, config=RefuteConfig(alpha_c=alpha_c))
    assert len(rep.blocks) == count


@pytest.mark.parametrize("n", [32, 33])
def test_dense_build_up_to_the_cap(monkeypatch, n):
    # n^2 = 1024 pairs is the last side built dense
    inst = gen_random_partitioned(n, 3, 200, seed=1)
    if n * n > _DENSE_CAP:
        monkeypatch.setattr(SparseMat, "from_arrays", classmethod(_no_coo))
        with pytest.raises(AssertionError, match="COO block build"):
            build_blocks(inst, _all_s0(n))
    else:
        (block,) = build_blocks(inst, _all_s0(n)).values()
        assert isinstance(block.mat, np.ndarray)
