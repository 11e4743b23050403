"""Reduce k-XOR to partitioned 2-XOR, then split the result into light and heavy."""
from __future__ import annotations

from xorcert import (
    GenSpec,
    brute_force_val,
    decompose,
    gen_kxor,
    kxor_to_partitioned,
)

# Odd k: the first (smallest) vertex of each clause becomes the part, the rest
# splits in half into two subset-variables.  For k = 3 the halves are single
# vertices, so the dictionary lists the vertices that some half names, in
# ascending order, and no new variables appear; vertex 0 is only ever a part.
phi = gen_kxor(GenSpec(kind="random", n=8, m=60, seed=0, k=3))
red = kxor_to_partitioned(phi)
print("k=3:", phi.n, "vars ->", red.psi.n, "pair-vars,", red.psi.ell, "parts,",
      "subset size", red.dictionary.subset_size)

# The reduction never loses value: val(psi) >= val(phi), so any upper bound
# certified for psi transfers back to phi.
v_phi, _ = brute_force_val(phi)
v_psi, _ = brute_force_val(red.psi)
print("val(phi) =", float(v_phi), " val(psi) =", float(v_psi))
assert v_psi >= v_phi

# Even k: no part variable is needed (ell = 1) and each clause splits into two
# k/2-subsets, which the dictionary maps to fresh variable indices.
phi4 = gen_kxor(GenSpec(kind="random", n=8, m=60, seed=0, k=4))
red4 = kxor_to_partitioned(phi4)
print("k=4:", phi4.n, "vars ->", red4.psi.n, "pair-vars,", red4.psi.ell, "parts,",
      "subset size", red4.dictionary.subset_size)
assert red4.psi.ell == 1
v_phi4, _ = brute_force_val(phi4)
v_psi4, _ = brute_force_val(red4.psi)
assert v_psi4 >= v_phi4

# Decomposition: repeatedly remove every constraint touching a (part, vertex)
# slot once the slot holds d_cap = ceil(c_split / eps^2) live constraints.
# What remains is the light side (all slots < d_cap); the removed constraints
# form heavy groups, one per removed slot.
eps = 0.3
dec = decompose(red.psi, eps)
print(f"eps = {eps}: d_cap = {dec.d_cap},",
      f"m_light = {dec.m_light}, m_heavy = {dec.m_heavy},",
      f"heavy groups = {len(dec.heavy.left_labels)}")
assert dec.m_light + dec.m_heavy == red.psi.m

# The group count is where the heavy side's matrix width comes from: each
# removed slot carried at least d_cap constraints, so |X| <= m_heavy / d_cap.
assert len(dec.heavy.left_labels) * dec.d_cap <= dec.m_heavy or dec.m_heavy == 0

# A star instance concentrates everything on one slot: at modest eps the whole
# instance is heavy and the decomposition collapses to a single group.
star = kxor_to_partitioned(gen_kxor(GenSpec(kind="star", n=12, m=200, seed=0, k=2)))
dstar = decompose(star.psi, 0.3)
print("star k=2: m_light =", dstar.m_light, "m_heavy =", dstar.m_heavy,
      "groups =", len(dstar.heavy.left_labels))
