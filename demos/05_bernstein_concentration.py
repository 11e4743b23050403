"""Matrix-Bernstein tail bounds and the thresholds the light side certifies against."""
from __future__ import annotations

import numpy as np

from xorcert import bernstein_tail, bernstein_threshold, spectral_norm

# bernstein_tail(sigma2, R, d1, d2, t) bounds P(||sum of independent, centered
# d1 x d2 summands|| >= t) given a variance proxy sigma2 and a per-summand
# norm cap R.  bernstein_threshold inverts it: the smallest t with tail <= delta.
sigma2, r, d1, d2 = 30.0, 2.0, 50, 50
for delta in (0.5, 1e-2, 1e-6):
    t = bernstein_threshold(sigma2, r, d1, d2, delta)
    back = bernstein_tail(sigma2, r, d1, d2, t)
    print(f"delta = {delta:8.0e}: threshold t = {t:8.3f}, tail(t) = {back:.3e}")
    assert back <= delta + 1e-12  # plugging the threshold back never overshoots

# Empirical sanity check: sums of random sign matrices stay under the threshold
# at the predicted rate.  Each summand is a single +/-1 entry, so R = 1 and
# sigma2 = number of summands (in either product order).
trials, terms, dim = 300, 60, 12
delta = 0.1
t = bernstein_threshold(float(terms), 1.0, dim, dim, delta)
misses = 0
rng = np.random.default_rng(0)
for _ in range(trials):
    acc = np.zeros((dim, dim))
    for _ in range(terms):
        i, j = rng.integers(0, dim, size=2)
        acc[i, j] += 2.0 * rng.integers(0, 2) - 1.0
    if spectral_norm(acc).lower > t:
        misses += 1
print(f"empirical: {misses}/{trials} sums exceeded t = {t:.2f}",
      f"(bound allows {delta:.0%})")
assert misses / trials <= delta

# Degenerate corners are handled exactly: zero variance and zero cap means the
# sum is deterministically zero, so any positive t has tail 0.
assert bernstein_tail(0.0, 0.0, 3, 3, 1e-300) == 0.0
assert bernstein_threshold(0.0, 0.0, 3, 3, 0.5) > 0.0
print("degenerate corner ok")
