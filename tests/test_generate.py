from __future__ import annotations

import pytest

from xorcert import (FAMILIES, GenSpec, gen_adversarial_hypergraph, gen_kxor,
                     gen_random_partitioned, instance_digest, kxor_to_partitioned)


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
    3: "59e6444c424d480c3f874d2d16bfb961c24dc4c37de5f63cacd7108e121750b2",
    4: "b66158c9c6dfbd4d7d83778577943b6e252d61d2546f22697f7772a9faffb4aa",
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
