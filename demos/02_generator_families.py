"""Tour the instance generators: the semi-random families and their exact values."""
from __future__ import annotations

from xorcert import FAMILIES, GenSpec, brute_force_val, gen_kxor, gen_random_partitioned

print("k-XOR families:", sorted(FAMILIES))

# The adversarial families fix a hypergraph pattern and only draw the signs:
# the clause sets depend on (kind, n, m, k, params) alone, the seed moves the
# signs.  The random family redraws the hypergraph too.
for kind in sorted(FAMILIES):
    a = gen_kxor(GenSpec(kind=kind, n=12, m=300, seed=0, k=3))
    b = gen_kxor(GenSpec(kind=kind, n=12, m=300, seed=1, k=3))
    if kind != "random":
        assert a.clauses.tolist() == b.clauses.tolist()
    assert a.signs.tolist() != b.signs.tolist()
    vals = [float(brute_force_val(gen_kxor(GenSpec(kind=kind, n=12, m=300,
                                                   seed=s, k=3)))[0])
            for s in range(5)]
    print(f"{kind:12s} exact value over seeds 0..4:",
          [round(v, 4) for v in vals])

# star: every clause contains vertex 0 -- one variable sees all constraints
star = gen_kxor(GenSpec(kind="star", n=12, m=300, seed=0, k=3))
assert all(0 in cl for cl in star.clauses)

# heavy-group: a block of clauses shares its first two vertices
grouped = gen_kxor(GenSpec(kind="heavy-group", n=12, m=300, seed=0, k=3,
                           params={"group_size": 40}))
shared = [cl for cl in grouped.clauses.tolist() if cl[:2] == grouped.clauses[0][:2].tolist()]
print("heavy-group: clauses sharing a pair:", len(shared))
assert len(shared) >= 40

# clustered: all clauses land inside a small vertex cluster
tight = gen_kxor(GenSpec(kind="clustered", n=12, m=300, seed=0, k=3,
                         params={"cluster_size": 5}))
assert all(max(cl) < 5 for cl in tight.clauses)
print("clustered: support fits in 5 vertices")

# Random partitioned 2-XOR instances are generated directly.
psi = gen_random_partitioned(n=14, ell=4, m=500, seed=0)
val, _ = brute_force_val(psi)
print("random partitioned: n =", psi.n, "ell =", psi.ell, "m =", psi.m,
      "exact value =", round(float(val), 4))
