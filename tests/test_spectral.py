from __future__ import annotations

import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import xorcert.spectral
from conftest import dupfree_partitioned
from helpers import (build_blocks, build_part_block, butterfly_reference,
                     empirical_variance_norm, folded_pair_reference, mu_tables, ordered_block,
                     phi1_direct, phi1_from_blocks, phi_direct, symmetric_block_norm)
from xorcert import (
    DEFAULT_CONFIG,
    ButterflyTable,
    GenSpec,
    PartitionedInstance,
    RefuteConfig,
    WeightClassPartition,
    block_r_bound,
    block_variance_bound,
    brute_force_val,
    butterfly,
    certify_dbounded,
    decompose,
    degree_profile,
    dup_correction,
    gen_kxor,
    gen_random_partitioned,
    kxor_to_partitioned,
    min_eig_check,
    phi2_term,
    spectral_norm,
    weight_classes,
)
from xorcert.linalg import SparseMat, _grid
from xorcert.reduce import on_touched_vertices


def _signs(rng, n):
    return (2.0 * rng.integers(0, 2, size=n) - 1.0).astype(float)


def test_butterfly_hand_example():
    # one part, t = 2, edges {0,1} and {0,2}: deg = (2, 1, 1)
    inst = PartitionedInstance(n=3, ell=1, constraints=((0, 0, 1, 1), (0, 0, 2, -1)))
    table = butterfly(degree_profile(inst))
    assert table.gamma[0, 0] == pytest.approx(2.0)
    assert table.gamma[0, 1] == pytest.approx(1.0)
    assert table.gamma[1, 2] == pytest.approx(0.5)
    assert table.gamma[1, 1] == pytest.approx(0.5)
    assert table.total == pytest.approx(4 * inst.m)


@pytest.mark.parametrize("seed", range(5))
def test_butterfly_total_is_4m(seed):
    inst = gen_random_partitioned(9, 3, 70, seed=seed)
    table = butterfly(degree_profile(inst))
    assert table.total == pytest.approx(4 * inst.m, rel=1e-12)


def test_weight_class_boundaries():
    # n = 4, d = 1, ell = 1, eps = 0.4, m = 2500: alpha ~ 1, beta ~ 100, levels = 2
    gamma = np.zeros((4, 4))
    gamma[0, 1], gamma[0, 2], gamma[1, 2], gamma[1, 3] = 0.5, 50.0, 5000.0, 1e8
    table = ButterflyTable(n=4, gamma=gamma, total=float(gamma.sum()))
    partition = weight_classes(table, d=1, eps=0.4, m=2500, ell=1)
    assert partition.levels == 2
    assert partition.alpha == pytest.approx(1.0)
    assert partition.beta == pytest.approx(100.0)
    assert not partition.clamped
    assert partition.classes[0, 1] == 0
    assert partition.classes[0, 2] == 1
    assert partition.classes[1, 2] == 2
    assert partition.classes[1, 3] == 2  # above the top boundary: capped at levels
    assert partition.classes[3, 3] == 0  # absent pairs have gamma = 0
    assert sum(partition.sizes) == 16
    assert partition.sizes == (13, 1, 2)


def test_weight_class_clamping():
    gamma = np.zeros((4, 4))
    gamma[0, 1] = 3.0
    table = ButterflyTable(n=4, gamma=gamma, total=4.0)
    partition = weight_classes(table, d=10, eps=0.1, m=1, ell=2)
    assert partition.clamped and partition.beta == 1.0
    assert not partition.classes.any()
    assert partition.sizes[0] == 16 and sum(partition.sizes) == 16


def test_weight_class_validation():
    table = ButterflyTable(n=4, gamma=np.zeros((4, 4)), total=0.0)
    with pytest.raises(ValueError):
        weight_classes(table, d=0, eps=0.2, m=10, ell=1)
    with pytest.raises(ValueError):
        weight_classes(table, d=1, eps=0.6, m=10, ell=1)
    with pytest.raises(ValueError):
        weight_classes(ButterflyTable(n=1, gamma=np.zeros((1, 1)), total=0.0), d=1, eps=0.2,
                       m=10, ell=1)


def _all_s0(n):
    levels = math.ceil(math.log2(n))
    sizes = (n * n,) + (0,) * levels
    return WeightClassPartition(n=n, alpha=1e9, beta=1.0, levels=levels, clamped=True,
                                classes=np.zeros((n, n), dtype=np.int64), sizes=sizes)


def test_block_entries_hand_example():
    # edges {0,1} (+1) and {0,2} (-1) in one part of size 2: the ordered pair
    # matrix holds -1/sqrt(2) at row pair (0,0) and column pairs (1,2), (2,1),
    # which fold onto one entry -2/sqrt(2) at rows {0,0} x {1,2}
    inst = PartitionedInstance(n=3, ell=1, constraints=((0, 0, 1, 1), (0, 0, 2, -1)))
    partition = _all_s0(3)
    block = build_blocks(inst, partition)[(0, 0)]
    n = 3
    row = int(np.flatnonzero(block.row_pairs == 0 * n + 0)[0])
    col = int(np.flatnonzero(block.col_pairs == 1 * n + 2)[0])
    assert block.mat[row, col] == pytest.approx(-2.0 / math.sqrt(2.0))
    # the 8 ordered entries (two edge orders x four orientations) fold onto 4
    ordered = ordered_block(inst, partition, 0, 0)
    assert np.count_nonzero(ordered) == 8 and block.nnz == 4
    np.testing.assert_allclose(block.mat[block.mat != 0.0], -2.0 / math.sqrt(2.0))
    np.testing.assert_array_equal(block.row_pairs, [0, 1, 2, 5])  # {0,0} {0,1} {0,2} {1,2}
    np.testing.assert_array_equal(block.row_w, [1.0, 2.0, 2.0, 2.0])


def test_single_constraint_has_no_blocks():
    inst = PartitionedInstance(n=4, ell=2, constraints=((1, 2, 3, -1),))
    assert build_blocks(inst, _all_s0(4)) == {}
    mat = ordered_block(inst, _all_s0(4), 0, 0)
    assert mat.shape[0] == 0 and not mat.any()


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
@given(_small_partitioned())
@example(_CANCELLING)
@example(_ONE_EDGE_PART)
def test_tables_match_loop_references(inst):
    # mu keeps the nonzero multiplicities in (part, u, v) order, and gamma
    # makes the reference's additions in the same order, so it matches bit for bit
    expected = [[p, u, v, w] for p, table in mu_tables(inst).items()
                for (u, v), w in sorted(table.items()) if w != 0]
    assert inst.mu_rows().tolist() == expected
    gamma = butterfly(degree_profile(inst)).gamma
    reference = butterfly_reference(inst)
    assert np.count_nonzero(gamma) == len(reference)
    assert all(gamma[pair] == g for pair, g in reference.items())


def _light3_side() -> tuple[PartitionedInstance, WeightClassPartition]:
    """The light side of the light3 benchmark's first member as drawn, as refute_kxor builds it.

    Random 3-XOR, n = 20, m = 1200, seed 1, refuted at eps 0.3: the side is
    certified at eps / 2 with d the decomposition's degree cap.
    """
    inst = gen_kxor(GenSpec(kind="random", n=20, m=1200, seed=1, k=3))
    dec = decompose(kxor_to_partitioned(inst).psi, 0.3, DEFAULT_CONFIG.c_split)
    side = on_touched_vertices(dec.light)
    profile = degree_profile(side)
    return side, weight_classes(butterfly(profile), d=dec.d_cap, eps=0.15, m=side.m,
                                ell=len(profile.t), alpha_c=DEFAULT_CONFIG.alpha_c)


def _check_fold(inst: PartitionedInstance, partition: WeightClassPartition) -> None:
    # C put back together from its blocks, over the unordered pairs in
    # np.triu_indices order; a pair no block names is an all-zero row
    u, v = np.triu_indices(inst.n)
    row_of = np.full(inst.n * inst.n, -1)
    row_of[u * inst.n + v] = np.arange(len(u))
    folded = np.zeros((len(u), len(u)))
    for block in build_blocks(inst, partition).values():
        folded[np.ix_(row_of[block.row_pairs], row_of[block.col_pairs])] = block.mat
    assert np.array_equal(folded, folded_pair_reference(inst))
    assert np.array_equal(folded, folded.T)
    assert not folded.diagonal().any()


@settings(max_examples=200, deadline=None)
@given(_small_partitioned(), st.sampled_from([1.0, 1e-5]))
@example(_CANCELLING, 1e-5)
@example(_ONE_EDGE_PART, 1e-5)
def test_fold_matches_loop_reference_bit_for_bit(inst, alpha_c):
    # per-part integer sums, one 1/sqrt(t_i) scale each, parts added in
    # order: the reference makes the same roundings, so C matches exactly;
    # alpha_c 1e-5 splits the side into several blocks
    profile = degree_profile(inst)
    _check_fold(inst, weight_classes(butterfly(profile), d=profile.max_degree(), eps=0.3,
                                     m=inst.m, ell=len(profile.t), alpha_c=alpha_c))


def test_light3_fold_matches_loop_reference_bit_for_bit():
    _check_fold(*_light3_side())


# SHA-256 of the light3 side's block bytes: mat, row_pairs and col_pairs of
# each block in key order.  A rewrite of the fold that moves any byte of C
# moves this digest.
LIGHT3_BLOCK_SHA = "a3ff62bb3be9a8467b7dad9501787a269d835adf9958e6c9c9249952639c7b36"


def test_light3_block_bytes_are_pinned():
    blocks = build_blocks(*_light3_side())
    digest = hashlib.sha256()
    for key in sorted(blocks):
        for array in (blocks[key].mat, blocks[key].row_pairs, blocks[key].col_pairs):
            digest.update(array.tobytes())
    assert digest.hexdigest() == LIGHT3_BLOCK_SHA


def _weighted_check(block, u: float) -> bool:
    """Whether min_eig_check proves ||W_j^-1/2 C W_k^-1/2|| <= u for a folded block."""
    if block.j == block.k:
        w = u * block.row_w
        return min_eig_check(-block.mat, w) and min_eig_check(block.mat, w)
    rows = block.rows
    dilation = np.zeros((rows + len(block.col_pairs),) * 2)
    dilation[:rows, rows:] = -block.mat
    dilation[rows:, :rows] = -block.mat.T
    return min_eig_check(dilation, u * np.concatenate([block.row_w, block.col_w]))


@settings(max_examples=100, deadline=None)
@given(_small_partitioned(), st.sampled_from([1e-4, 1e-5, 1e-6]))
@example(_CANCELLING, 1e-5)
@example(gen_random_partitioned(6, 1, 20, seed=2), 1e-5)  # blocks (0,1), (1,0), (1,1)
@example(gen_random_partitioned(8, 2, 30, seed=1), 1e-5)  # four blocks, 36 x 26 off-diagonal
@example(gen_random_partitioned(5, 2, 30, seed=1), 1e-4)  # the ordered norm is larger
def test_folded_upper_bounds_the_explicit_block(inst, alpha_c):
    # unclamped classes: off-diagonal blocks have different row and column
    # supports.  Each certified upper lies between the explicit ordered
    # block's norm on swap-symmetric vectors, which is what Phi_1 needs, and
    # a grid step above it; the block's norm on all ordered pairs can be
    # larger, as the antisymmetric part carries the e = f exclusion with the
    # opposite sign.  u one grid step lower fails the weighted check.
    profile = degree_profile(inst)
    partition = weight_classes(butterfly(profile), d=profile.max_degree(), eps=0.3,
                               m=inst.m, ell=len(profile.t), alpha_c=alpha_c)
    for (j, k), block in build_blocks(inst, partition, profile).items():
        nb = spectral_norm(block.mat, block.row_w, block.col_w)
        sym = symmetric_block_norm(inst, partition, j, k)
        assert nb.lower <= sym * (1.0 + 1e-9)
        assert sym <= nb.upper <= sym * (1.0 + 1e-6)
        ordered = float(np.linalg.svd(ordered_block(inst, partition, j, k),
                                      compute_uv=False)[0])
        assert nb.upper <= ordered * (1.0 + 1e-6)
        if nb.method == "dense-cholesky":
            assert _weighted_check(block, nb.upper)
            assert not _weighted_check(block, nb.upper - _grid(nb.upper))


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
            if part_mat.any():
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


def _no_sparse(*args, **kwargs):
    raise AssertionError("a SparseMat was built")


@pytest.mark.parametrize("inst, alpha_c, count", [
    (gen_random_partitioned(20, 20, 1200, seed=1), 1.0, 1),  # one clamped 400-pair class
    (gen_random_partitioned(8, 2, 30, seed=1), 1e-5, 4),
])
def test_small_side_never_builds_a_sparsemat(monkeypatch, inst, alpha_c, count):
    monkeypatch.setattr(SparseMat, "__init__", _no_sparse)
    with pytest.raises(AssertionError, match="SparseMat"):
        SparseMat.from_dense(np.eye(2))  # the patch catches every construction
    rep = certify_dbounded(inst, eps=0.3, config=RefuteConfig(alpha_c=alpha_c))
    assert len(rep.blocks) == count


@pytest.mark.parametrize("n", [32, 33])
def test_dense_build_up_to_the_cap(monkeypatch, n):
    # with the cap at 32 * 33 / 2 = 528, n = 32 is the last side built
    monkeypatch.setattr(xorcert.spectral, "_DENSE_CAP", 528)
    inst = gen_random_partitioned(n, 3, 200, seed=1)
    if n * (n + 1) // 2 > 528:
        assert not xorcert.spectral.side_fits(n)
        with pytest.raises(ValueError, match="dense cap"):
            build_blocks(inst, _all_s0(n))
    else:
        (block,) = build_blocks(inst, _all_s0(n)).values()
        assert isinstance(block.mat, np.ndarray) and block.rows <= 528
