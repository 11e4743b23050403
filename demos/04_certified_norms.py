"""Certified spectral bounds: sandwich the norm, then check the certificate."""
from __future__ import annotations

import numpy as np

from xorcert import l1_norm_bound, min_eig_check, spectral_norm

rng = np.random.default_rng(0)

# A sparse rectangular matrix with mixed signs, held as a dense array.
m = rng.standard_normal((40, 25))
m[rng.random((40, 25)) > 0.15] = 0.0
print("matrix:", m.shape[0], "x", m.shape[1], "with", np.count_nonzero(m), "entries")

# spectral_norm returns a sandwich [lower, upper] around sigma_max.  The lower
# bound is a Rayleigh quotient at an explicit vector.  This matrix's dilation
# [[0, M], [M^T, 0]] has 65 rows, under the dense cap of 5050, so the upper
# bound u comes from one dense SVD, padded and rounded up, and stands only
# because min_eig_check (below) proves uI - [[0, M], [M^T, 0]] PSD.  Above
# the cap there is no such check, and the upper is the l1 bound below.
nb = spectral_norm(m)
assert nb.method == "dense-cholesky"
sigma = float(np.linalg.svd(m, compute_uv=False)[0])
print(f"certified: [{nb.lower:.6f}, {nb.upper:.6f}]  ({nb.method})")
print(f"LAPACK svd: {sigma:.6f}")
assert nb.lower <= sigma <= nb.upper
assert nb.upper - nb.lower <= 1e-5 * max(1.0, sigma)

# The l1 bound max(max row sum, max col sum) needs no solve at all and is
# what the upper bound falls back to when the Cholesky check fails.
print("l1 bound:", round(l1_norm_bound(m), 6))
assert l1_norm_bound(m) >= sigma

# min_eig_check(s, slack) decides "lambda_min(s) >= -slack" for a dense
# symmetric array -- the form the dual certificates need -- with one Cholesky
# of s + slack*I - c*I, where the shift c covers every rounding of the
# factorization.  Prover and verifier both call it on the heavy side's Z(d).
sym = m[:25, :25] + m[:25, :25].T + 10.0 * np.eye(25)
true_min = float(np.linalg.eigvalsh(sym)[0])
print(f"min eigenvalue (eigh): {true_min:.6f}")
assert min_eig_check(sym, 0.0)  # positive definite

# A matrix with min eigenvalue -0.5 needs slack 0.5; the rounding shift is
# tiny, so the check is decided within a hair of the true eigenvalue.
shifted = sym - (true_min + 0.5) * np.eye(25)
assert not min_eig_check(shifted, 0.0)
assert not min_eig_check(shifted, 0.4999)
assert min_eig_check(shifted, 0.5001)
print("PSD slack check behaves")
