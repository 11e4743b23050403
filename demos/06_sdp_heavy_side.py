"""Certify infinity-to-one norms by SDP duality and refute dense 2-XOR with them."""
from __future__ import annotations

import numpy as np

from xorcert import (
    KG_UPPER,
    REFUTED,
    UNKNOWN,
    PartitionedInstance,
    brute_force_inf1,
    gen_random_partitioned,
    inf1_upper,
    min_eig_check,
    refute_partitioned,
    verify_certificate,
    z_matrix,
)

rng = np.random.default_rng(0)

# The heavy side of the pipeline bounds max_{x,y in +/-1} y^T M x -- the
# infinity-to-one norm.  inf1_upper certifies an upper bound through the dual:
# diagonal d with Z(d) = [[Diag(d_L), -M], [-M^T, Diag(d_R)]] PSD up to slack.
# M is a dense array, as the pipeline's heavy side is.
m = np.sign(rng.standard_normal((5, 6)))
truth = brute_force_inf1(m)
upper, cert = inf1_upper(m)
print(f"brute inf1 = {truth:.1f}, certified upper = {upper:.4f}",
      f"(ratio {upper / truth:.3f}, Grothendieck gap < {KG_UPPER:.3f})")
assert truth <= upper

# The certificate is checkable without rerunning the solver: rebuild Z(d) as
# a dense array, confirm PSD-ness within the recorded slack with one
# Cholesky, recompute the bound arithmetic.
z = z_matrix(m, np.array(cert.d_left + cert.d_right))
assert isinstance(z, np.ndarray) and z.shape == (11, 11)
assert min_eig_check(z, cert.slack)
assert cert.bound() == upper
print("dual certificate re-checked")

# The pipeline puts it together.  In a dense single-part instance most
# (part, vertex) groups reach the degree cap, so most constraints go to the
# heavy side, whose bias is at most inf1 / m: a small certified inf1 means a
# small value.
psi = gen_random_partitioned(n=30, ell=1, m=4000, seed=1)
cert = refute_partitioned(psi, eps=0.2)
heavy = cert.payload["heavy"]
print(f"dense random 2-XOR: {cert.outcome}, val <= {cert.certified_val_upper:.4f}",
      f"({heavy['m']} of {psi.m} constraints heavy, status {heavy['report']['status']})")
assert cert.outcome == REFUTED and cert.certified_val_upper <= 0.7
assert heavy["report"]["status"] == "SUCCESS"
assert verify_certificate(cert, psi)

# A satisfiable instance can never be refuted: the dual bound stays at m.
sat = PartitionedInstance(n=30, ell=1, constraints=((0, 0, 1, 1),) * 200)
cert = refute_partitioned(sat, eps=0.2)
heavy = cert.payload["heavy"]
print(f"satisfiable 2-XOR: {cert.outcome}, val <= {cert.certified_val_upper:.4f}",
      f"(heavy status {heavy['report']['status']})")
assert heavy["mode"] == "sdp" and heavy["report"]["status"] == "UNKNOWN"
assert cert.outcome == UNKNOWN and cert.certified_val_upper == 1.0
