from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import draw_sorted_reference
from xorcert import (FAMILIES, GenSpec, gen_adversarial_hypergraph, gen_kxor,
                     gen_random_partitioned, instance_digest, kxor_to_partitioned,
                     refute_kxor)
from xorcert.generate import _draw_sorted, _rng


def test_random_kxor_deterministic():
    spec = GenSpec(kind="random", n=12, m=40, seed=7, k=3)
    a = gen_kxor(spec)
    b = gen_kxor(spec)
    assert a == b
    c = gen_kxor(GenSpec(kind="random", n=12, m=40, seed=8, k=3))
    assert a != c


def test_random_kxor_shape():
    inst = gen_kxor(GenSpec(kind="random", n=9, m=25, seed=1, k=4))
    assert inst.m == 25 and inst.k == 4
    for cl in inst.clauses:
        assert len(set(cl)) == 4 and list(cl) == sorted(cl)


@pytest.mark.parametrize("family", ["star", "heavy-group", "clustered"])
def test_adversarial_hypergraph_is_seed_independent(family):
    # semi-random model: the hypergraph is adversarial, only signs vary with the seed
    a = gen_kxor(GenSpec(kind=family, n=10, m=30, seed=1, k=3))
    b = gen_kxor(GenSpec(kind=family, n=10, m=30, seed=2, k=3))
    assert a.clauses.tolist() == b.clauses.tolist()
    assert a.signs.tolist() != b.signs.tolist()


def test_star_family_shares_a_vertex():
    inst = gen_kxor(GenSpec(kind="star", n=8, m=20, seed=0, k=3))
    assert all(0 in cl for cl in inst.clauses)


def test_heavy_group_concentrates():
    inst = gen_adversarial_hypergraph(
        GenSpec(kind="heavy-group", n=10, m=30, seed=0, k=3, params={"group_size": 12}))
    base = inst.clauses[0][:2].tolist()
    assert sum(1 for cl in inst.clauses.tolist() if cl[:2] == base) >= 12


def test_clustered_stays_inside_cluster():
    inst = gen_kxor(GenSpec(kind="clustered", n=20, m=15, seed=0, k=3,
                            params={"cluster_size": 5}))
    assert all(max(cl) < 5 for cl in inst.clauses)


def test_gen_kxor_rejects_unknown_family():
    with pytest.raises(ValueError):
        gen_kxor(GenSpec(kind="planted", n=8, m=10, seed=0, k=3))
    with pytest.raises(ValueError):
        gen_kxor(GenSpec(kind="random", n=8, m=10, seed=0))  # k missing
    with pytest.raises(ValueError):
        gen_kxor(GenSpec(kind="random", n=3, m=10, seed=0, k=5))  # k > n


def test_gen_random_partitioned():
    inst = gen_random_partitioned(7, 3, 50, seed=5)
    assert inst.n == 7 and inst.ell == 3 and inst.m == 50
    for p, u, v, s in inst.constraints:
        assert 0 <= p < 3 and 0 <= u < v < 7 and s in (-1, 1)
    assert inst == gen_random_partitioned(7, 3, 50, seed=5)
    assert inst != gen_random_partitioned(7, 3, 50, seed=6)


def test_families_constant():
    assert set(FAMILIES) == {"random", "star", "heavy-group", "clustered"}


# instance_digest of seeded draws, recorded with numpy 2.4.6: a change to how
# instances are generated or stored must keep every seeded stream byte-identical
KXOR_DIGESTS = {
    ("random", 3): "9e399bbc8de7f304fbd5cc829c83e11bbfc133590f9c3f97e07b3ec4aaa0debc",
    ("random", 4): "c43e4806c28a04e32241ddab3f4008896af25df260b67ab9504aba23a79ea302",
    ("star", 3): "d6d28757ed4895455056926f96e29f94a47894424a825dec5530f52b41abba29",
    ("star", 4): "0c2560bfe6600842d4cebdcb7631a742017668c61a9ef8a39bbc36feec1a682b",
    ("heavy-group", 3): "602b37805e8e97b353edd9bcd6c66300e5ad391cd9823e229478a2a23674e058",
    ("heavy-group", 4): "cd8418ef6830bd53b620c26718c4719d1fab0fd8ba78b9888284e8db4d4141e3",
    ("clustered", 3): "0484ac4d2e9cb63e20da5ac5794f5cb879ce284322c6f5adff54a25562090343",
    ("clustered", 4): "b71634bc16b3d462926aba6f0d479fb764a625bf92106434b7eaf1c3c4071661",
}
PSI_DIGESTS = {
    3: "53b7c09588b1b0963ac67b8a2dc76ac5a94191241c07f072f6a5311b2086db86",
    4: "31f39380dd6fb7efa18e61f6ab68f85a2ab1aa7ac64b44282cf7df5fd1da7b56",
}


@pytest.mark.parametrize("family,k", sorted(KXOR_DIGESTS))
def test_seeded_kxor_digest_is_pinned(family, k):
    inst = gen_kxor(GenSpec(kind=family, n=12, m=200, seed=5, k=k))
    assert instance_digest(inst) == KXOR_DIGESTS[(family, k)]


def test_seeded_partitioned_digest_is_pinned():
    inst = gen_random_partitioned(10, 3, 200, 5)
    assert instance_digest(inst) == (
        "dc368be00272b6f509c932e196c4d018c923fa5381774d4fa8817c337e64ec94")


@pytest.mark.parametrize("k", [3, 4])
def test_reduced_digest_is_pinned(k):
    psi = kxor_to_partitioned(gen_kxor(GenSpec(kind="random", n=12, m=200, seed=5, k=k))).psi
    assert instance_digest(psi) == PSI_DIGESTS[k]


# reduction.dictionary_digest of the same draws, recorded with numpy 2.4.6
DICTIONARY_DIGESTS = {
    3: "df7ca5ea18771748b538bb18d07b37ba5c6115462dd4ed2eaa426305759db687",
    4: "87af6c23bf6d73bc5dbc87aef404c092906072647d52715126d02c5cc6cf9714",
}


@pytest.mark.parametrize("k", [3, 4])
def test_dictionary_digest_is_pinned(k):
    inst = gen_kxor(GenSpec(kind="random", n=12, m=200, seed=5, k=k))
    assert refute_kxor(inst, 0.3).payload["reduction"]["dictionary_digest"] == (
        DICTIONARY_DIGESTS[k])


# instance_digest (the sha256sum of the file xorcert writes) of the benchmark's
# own sizes, recorded with numpy 2.4.6 from the per-row choice loop
@pytest.mark.parametrize("make,digest", [
    (lambda: gen_kxor(GenSpec(kind="random", n=20, m=6000, seed=1, k=3)),
     "b064b787066b0952548bad9ec709b413356d5b8c4789e4065865ad803a4149a6"),
    (lambda: gen_random_partitioned(30, 5, 3000, 1),
     "dc7fe8bd05493f50918cd196a49d676cd9deec1a03d947ae68bf62eef4c59bd0"),
    (lambda: gen_kxor(GenSpec(kind="heavy-group", n=20, m=1000, seed=1, k=3,
                              params={"group_size": 350})),
     "cd1054fec63dc8e3d1a24070076bcd6a5ae7d821587f7c5a66f3ecb7f3fdc56a"),
], ids=["random3-n20-m6000", "p2xor-n30-m3000", "heavy-group3-n20-m1000"])
def test_benchmark_sized_digest_is_pinned(make, digest):
    assert instance_digest(make()) == digest


def _philox_state(rng: np.random.Generator) -> tuple:
    state = rng.bit_generator.state
    return (state["state"]["counter"].tolist(), state["state"]["key"].tolist(),
            state["buffer"].tolist(), state["buffer_pos"], state["has_uint32"],
            state["uinteger"])


def _assert_draws_like_choice(n: int, k: int, m: int, seed: int) -> None:
    fast, slow = _rng(seed), _rng(seed)
    rows = _draw_sorted(fast, n, k, m)
    expected = draw_sorted_reference(slow, n, k, m)
    assert rows.dtype == np.int64 and rows.shape == (m, k)
    assert np.array_equal(rows, expected)
    # the same state, so the sign draw that follows is the same too
    assert _philox_state(fast) == _philox_state(slow)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_draw_sorted_replays_per_row_choice(data):
    n = data.draw(st.integers(2, 40))
    k = data.draw(st.integers(2, min(n, 7)))
    m = data.draw(st.integers(0, 60))
    _assert_draws_like_choice(n, k, m, data.draw(st.integers(0, 2 ** 64 - 1)))


@pytest.mark.parametrize("n,k,m", [
    (6, 6, 40),            # k = n: the first pick has no choice
    (12, 3, 0),            # the heavy-group background when group_size == m
    (2 ** 40, 4, 50),      # bounds past 2^32 take 64-bit draws
    (10001, 200, 4),       # largest k at n = 10001 that choice draws by Floyd's algorithm
    (10001, 201, 3),       # one more, and choice shuffles a tail of range(n) instead
])
def test_draw_sorted_replays_per_row_choice_at_the_edges(n, k, m):
    _assert_draws_like_choice(n, k, m, 1)


def test_heavy_group_of_every_clause_has_no_background():
    inst = gen_kxor(GenSpec(kind="heavy-group", n=10, m=30, seed=0, k=3,
                            params={"group_size": 30}))
    assert inst.m == 30 and all(cl[:2] == [0, 1] for cl in inst.clauses.tolist())


@pytest.mark.parametrize("spec", [
    dict(k=3.0),
    dict(k=True),
    dict(seed=True),
    dict(seed=1.0),
    dict(kind="heavy-group", params={"group_size": 3.7}),
    dict(kind="heavy-group", params={"group_size": True}),
    dict(kind="heavy-group", params={"group_size": "5"}),
    dict(kind="clustered", params={"cluster_size": 4.9}),
], ids=["float-k", "bool-k", "bool-seed", "float-seed", "float-group", "bool-group",
        "str-group", "float-cluster"])
def test_genspec_rejects_non_integers(spec):
    # a float or a boolean is bad input, never rounded
    fields = dict(kind="random", n=10, m=30, seed=1, k=3) | spec
    with pytest.raises(ValueError, match="must be an int64 integer"):
        gen_kxor(GenSpec(**fields))


def test_random_partitioned_rejects_a_boolean_seed():
    with pytest.raises(ValueError, match="seed must be an int64 integer"):
        gen_random_partitioned(7, 3, 50, seed=True)
