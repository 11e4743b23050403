from __future__ import annotations

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import decompose_reference, heavy_sub_instance, heavy_value_dominates
from xorcert import (
    FAMILIES,
    GenSpec,
    BipartiteInstance,
    KXorInstance,
    PartitionedInstance,
    SubsetDictionary,
    bipartite_matrix,
    brute_force_val,
    decompose,
    gen_kxor,
    gen_random_partitioned,
    kxor_to_partitioned,
)


def test_reduce_k3_singles_out_min_vertex():
    inst = KXorInstance(n=4, k=3, clauses=((0, 1, 2), (1, 2, 3)), signs=(1, -1))
    red = kxor_to_partitioned(inst)
    assert red.psi.ell == 4 and red.psi.n == 4
    assert red.psi.constraints.tolist() == [[0, 1, 2, 1], [1, 2, 3, -1]]
    # identity dictionary on singletons
    assert red.dictionary.subset_size == 1
    assert red.dictionary.subsets[2].tolist() == [2]


def test_reduce_k2_is_identity_embedding():
    inst = KXorInstance(n=5, k=2, clauses=((0, 3), (1, 4)), signs=(-1, 1))
    red = kxor_to_partitioned(inst)
    assert red.psi.ell == 1 and red.psi.n == 5
    assert red.psi.constraints.tolist() == [[0, 0, 3, -1], [0, 1, 4, 1]]


def test_reduce_k4_splits_into_pairs():
    inst = KXorInstance(n=6, k=4, clauses=((0, 1, 2, 3), (0, 1, 4, 5)), signs=(1, 1))
    red = kxor_to_partitioned(inst)
    assert red.psi.ell == 1
    # halves registered in first-seen order; {0,1} shared by both clauses
    assert red.dictionary.subsets.tolist() == [[0, 1], [2, 3], [4, 5]]
    assert red.psi.constraints.tolist() == [[0, 0, 1, 1], [0, 0, 2, 1]]
    assert red.psi.n == 3


def test_reduce_rejects_empty():
    with pytest.raises(ValueError):
        kxor_to_partitioned(KXorInstance(n=4, k=2, clauses=(), signs=()))


@pytest.mark.parametrize("k,seed", [(2, 0), (3, 1), (4, 2), (5, 3)])
def test_reduce_never_loses_value(k, seed):
    inst = gen_kxor(GenSpec(kind="random", n=6, m=20, seed=seed, k=k))
    red = kxor_to_partitioned(inst)
    val_phi, _ = brute_force_val(inst)
    val_psi, _ = brute_force_val(red.psi, cap=20)
    assert val_psi >= val_phi


def test_subset_dictionary_validation():
    with pytest.raises(ValueError):
        SubsetDictionary(subset_size=0, subsets=())
    with pytest.raises(ValueError):
        SubsetDictionary(subset_size=2, subsets=((0,),))
    with pytest.raises(ValueError):
        SubsetDictionary(subset_size=2, subsets=((1, 0),))
    with pytest.raises(ValueError):
        SubsetDictionary(subset_size=2, subsets=((0, 1), (0, 1)))
    d = SubsetDictionary(subset_size=2, subsets=((0, 1), (2, 3)))
    assert [0, 2] not in d.subsets.tolist()


def test_bipartite_matrix_sums_signs():
    # repeated rows add up, and opposite signs cancel to a zero entry
    bip = BipartiteInstance(left_labels=((0, 0), (1, 2)), n_right=4, constraints=(
        (0, 1, 1), (0, 1, 1), (1, 3, -1), (1, 2, 1), (1, 2, -1)))
    mat = bipartite_matrix(bip)
    assert (*mat.shape, np.count_nonzero(mat)) == (2, 4, 2)
    np.testing.assert_array_equal(mat, [[0, 2, 0, 0], [0, 0, 0, -1]])
    empty = bipartite_matrix(BipartiteInstance(left_labels=(), n_right=3, constraints=()))
    assert (*empty.shape, np.count_nonzero(empty)) == (0, 3, 0)


def _heavy_multiset(dec):
    rows = []
    for left, right, s in dec.heavy.constraints:
        part, vertex = dec.heavy.left_labels[left]
        rows.append((part, min(vertex, right), max(vertex, right), s))
    return Counter(rows)


@pytest.mark.parametrize("seed", range(6))
def test_decompose_accounting(seed):
    inst = gen_random_partitioned(8, 2, 120, seed=seed)
    eps = 0.3
    dec = decompose(inst, eps)
    assert dec.d_cap == 45  # ceil(4 / 0.09)
    assert dec.m_light + dec.m_heavy == inst.m
    # light side: every (part, vertex) group strictly below the cap
    counts: dict[tuple[int, int], int] = {}
    for p, u, v, _ in dec.light.constraints:
        counts[(p, u)] = counts.get((p, u), 0) + 1
        counts[(p, v)] = counts.get((p, v), 0) + 1
    assert all(c < dec.d_cap for c in counts.values())
    # each removed group carried >= d_cap constraints when removed
    assert len(dec.heavy.left_labels) * dec.d_cap <= dec.m_heavy or dec.m_heavy == 0
    # provenance partitions the constraint list, preserving multiplicity
    rows = [tuple(row) for row in inst.constraints.tolist()]
    light_rows = [rows[j] for j, tag in enumerate(dec.provenance) if tag == -1]
    assert Counter(light_rows) == Counter(map(tuple, dec.light.constraints.tolist()))
    heavy_rows = [rows[j] for j, tag in enumerate(dec.provenance) if tag >= 0]
    assert Counter(heavy_rows) == _heavy_multiset(dec)


def test_decompose_star_goes_all_heavy():
    phi = gen_kxor(GenSpec(kind="star", n=12, m=80, seed=4, k=2))
    psi = kxor_to_partitioned(phi).psi
    dec = decompose(psi, eps=0.3)  # d_cap = 45 < 80 = deg(0)
    assert dec.m_light == 0 and dec.m_heavy == 80
    assert dec.heavy.left_labels[0].tolist() == [0, 0]
    assert all(tag >= 0 for tag in dec.provenance)


def test_decompose_is_deterministic():
    inst = gen_random_partitioned(8, 2, 120, seed=9)
    assert decompose(inst, 0.3) == decompose(inst, 0.3)


def test_decompose_validation():
    inst = gen_random_partitioned(6, 1, 10, seed=0)
    with pytest.raises(ValueError):
        decompose(inst, eps=0.0)
    with pytest.raises(ValueError):
        decompose(inst, eps=0.2, c_split=-1.0)


def test_heavy_sub_instance_round_trip():
    phi = gen_kxor(GenSpec(kind="star", n=10, m=50, seed=2, k=2))
    dec = decompose(kxor_to_partitioned(phi).psi, eps=0.4)
    sub = heavy_sub_instance(dec)
    assert sub is not None and sub.m == dec.m_heavy
    assert Counter(map(tuple, sub.constraints.tolist())) == _heavy_multiset(dec)
    mat = bipartite_matrix(dec.heavy)
    assert mat.shape == (len(dec.heavy.left_labels), dec.heavy.n_right)


def test_heavy_sub_instance_none_when_all_light():
    inst = gen_random_partitioned(12, 3, 20, seed=1)
    dec = decompose(inst, eps=0.3)  # d_cap = 45 >> any degree here
    assert dec.m_heavy == 0 and heavy_sub_instance(dec) is None
    assert heavy_value_dominates(dec)


@pytest.mark.parametrize("family,seed", [("star", 0), ("heavy-group", 1), ("random", 2)])
def test_heavy_value_dominates(family, seed):
    phi = gen_kxor(GenSpec(kind=family, n=10, m=60, seed=seed, k=2))
    dec = decompose(kxor_to_partitioned(phi).psi, eps=0.4)
    assert heavy_value_dominates(dec)


def _drops_a_group(inst, dec) -> bool:
    """True when some group starts at or above the cap but ends up light."""
    counts: dict[tuple[int, int], int] = {}
    for p, u, v, _ in inst.constraints:
        counts[(p, u)] = counts.get((p, u), 0) + 1
        counts[(p, v)] = counts.get((p, v), 0) + 1
    over = {key for key, cnt in counts.items() if cnt >= dec.d_cap}
    return not over <= set(map(tuple, dec.heavy.left_labels.tolist()))


def test_decompose_matches_repeated_stripping():
    cases = []
    for family in FAMILIES:
        for k in (2, 3, 4):
            for seed in (0, 1):
                phi = gen_kxor(GenSpec(kind=family, n=10, m=120, seed=seed, k=k))
                cases.append(kxor_to_partitioned(phi).psi)
    for seed in range(3):
        cases.append(gen_random_partitioned(8, 2, 120, seed=seed))
        cases.append(gen_random_partitioned(12, 3, 300, seed=seed))
    heavy = dropped = 0
    for psi in cases:
        for eps in (0.3, 0.5, 0.8, 1.5):
            dec = decompose(psi, eps)
            assert dec == decompose_reference(psi, eps)
            heavy += dec.m_heavy > 0
            dropped += _drops_a_group(psi, dec)
    # the grid must exercise both heavy groups and groups pushed back under the cap
    assert heavy > 0 and dropped > 0


@st.composite
def _planted_groups(draw):
    """Small instances with a few high-degree groups that share pairs."""
    n = draw(st.integers(3, 8))
    ell = draw(st.integers(1, 3))
    hubs = draw(st.lists(st.tuples(st.integers(0, ell - 1), st.integers(0, n - 1)),
                         min_size=1, max_size=4, unique=True))
    near = list(range(min(n, 4)))  # partners drawn mostly among the hubs' vertices
    rows = []
    for part, hub in hubs:
        for _ in range(draw(st.integers(1, 12))):
            other = draw(st.sampled_from(near) | st.integers(0, n - 1))
            if other != hub:
                rows.append((part, hub, other, draw(st.sampled_from([-1, 1]))))
    for _ in range(draw(st.integers(0, 10))):
        u, v = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        rows.append((draw(st.integers(0, ell - 1)), u, v, draw(st.sampled_from([-1, 1]))))
    rows = draw(st.permutations(rows))
    return PartitionedInstance.make(n=n, ell=ell, constraints=rows)


@settings(max_examples=300, deadline=None)
@given(_planted_groups(), st.integers(1, 10))
def test_decompose_matches_repeated_stripping_planted(inst, d_cap):
    dec = decompose(inst, 1.0, c_split=float(d_cap))
    assert dec.d_cap == d_cap
    assert dec == decompose_reference(inst, 1.0, c_split=float(d_cap))


@pytest.mark.parametrize("extra,labels,heavy,light", [
    ([], ((0, 0),), ((0, 1, 1), (0, 2, 1), (0, 3, -1)), ((0, 1, 4, 1), (0, 1, 5, -1))),
    ([(0, 1, 6, 1)], ((0, 0), (0, 1)),
     ((0, 1, 1), (0, 2, 1), (0, 3, -1), (1, 4, 1), (1, 5, -1), (1, 6, 1)), ()),
])
def test_decompose_shared_constraint_at_cap(extra, labels, heavy, light):
    # (0, 0) and (0, 1) each hold exactly d_cap = 3 constraints and share (0, 0, 1);
    # moving (0, 0) heavy leaves (0, 1) with 2 + len(extra)
    rows = [(0, 0, 1, 1), (0, 0, 2, 1), (0, 0, 3, -1), (0, 1, 4, 1), (0, 1, 5, -1)] + extra
    inst = PartitionedInstance.make(n=7, ell=1, constraints=rows)
    dec = decompose(inst, 1.0, c_split=3.0)
    assert dec.d_cap == 3
    assert tuple(map(tuple, dec.heavy.left_labels.tolist())) == labels
    assert tuple(map(tuple, dec.heavy.constraints.tolist())) == heavy
    assert tuple(map(tuple, dec.light.constraints.tolist())) == light
    assert dec == decompose_reference(inst, 1.0, c_split=3.0)
