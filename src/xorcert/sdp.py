"""Dual diagonal certificates for the infinity-to-one norm of the heavy side.

For M of shape (a, b) and d = (d_left, d_right) with
Z(d) = [[Diag(d_left), -M], [-M^T, Diag(d_right)]] >= -slack * I, every
x in {+/-1}^a, y in {+/-1}^b satisfies
    x^T M y <= (sum d)/2 + slack * (a+b)/2,
so a certified PSD check of Z(d) (``min_eig_check``, one Cholesky) yields a
sound upper bound on the infinity-to-one norm.  Minimizing sum(d) subject to
Z(d) PSD is the dual of the standard SDP relaxation, whose value exceeds the
true norm by at most the Grothendieck constant.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import SparseMat, min_eig_check, psd_shift

# Grothendieck's constant is below pi / (2 ln(1 + sqrt(2))) < 1.8
KG_UPPER = math.pi / (2.0 * math.log(1.0 + math.sqrt(2.0)))


@dataclass(frozen=True)
class DualCert:
    """Diagonal dual certificate for an infinity-to-one norm bound."""

    d_left: tuple[float, ...]
    d_right: tuple[float, ...]
    slack: float

    def bound(self) -> float:
        # fsum is correctly rounded, so the bound is bit-identical on every
        # Python version and the verifier can compare it exactly
        a = len(self.d_left)
        b = len(self.d_right)
        return ((math.fsum(self.d_left) + math.fsum(self.d_right)) / 2.0
                + self.slack * (a + b) / 2.0)

    def to_json_dict(self) -> dict:
        return {
            "d_left": list(self.d_left),
            "d_right": list(self.d_right),
            "slack": self.slack,
            "bound": self.bound(),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "DualCert":
        """Parse a recorded dual; NaN or infinite entries raise ValueError.

        An infinite slack makes every PSD check pass and a NaN makes every
        comparison fail open, so neither can back a bound.
        """
        cert = cls(
            d_left=tuple(float(x) for x in data["d_left"]),
            d_right=tuple(float(x) for x in data["d_right"]),
            slack=float(data["slack"]),
        )
        if not all(math.isfinite(x) for x in (*cert.d_left, *cert.d_right, cert.slack)):
            raise ValueError("dual certificate has a non-finite entry")
        return cert


def z_matrix(m: SparseMat, d: np.ndarray) -> np.ndarray:
    """Assemble Z(d) = [[Diag(dL), -M], [-M^T, Diag(dR)]] as a dense array."""
    a = m.rows
    z = np.diag(np.asarray(d, dtype=np.float64))
    z[m.r, m.c + a] = -m.v  # SparseMat entries are merged, so no index repeats
    z[m.c + a, m.r] = -m.v
    return z


def _logdet(z: np.ndarray) -> float:
    """log det z from one Cholesky; -inf unless z is strictly inside the PSD cone."""
    # strict-interior test: Cholesky can succeed on exactly singular matrices
    try:
        piv = np.diag(np.linalg.cholesky(z))
    except np.linalg.LinAlgError:
        return -math.inf
    low = float(piv.min())
    if low * low <= 1e-14 * max(1.0, float(np.abs(z).max())):
        return -math.inf
    return 2.0 * float(np.log(piv).sum())


def _barrier_solve(w: np.ndarray, d0: np.ndarray, gap_rel: float = 1e-7) -> np.ndarray:
    """Interior-point minimization of sum(d) s.t. Diag(d) - W PSD (dense, small)."""
    n = w.shape[0]
    d = d0.astype(np.float64).copy()
    while (logdet := _logdet(np.diag(d) - w)) == -math.inf:  # d0 is diagonally dominant
        d = 1.5 * d + 1e-9
    t = n / max(float(d.sum()), 1e-300)
    for _ in range(80):  # outer barrier rounds
        for _ in range(60):  # Newton steps
            z = np.diag(d) - w
            try:
                zinv = np.linalg.inv(z)
            except np.linalg.LinAlgError:
                return d
            grad = t - np.diag(zinv)
            hess = zinv * zinv
            try:
                delta = np.linalg.solve(hess + 1e-14 * np.eye(n), -grad)
            except np.linalg.LinAlgError:
                return d
            dec2 = float(-grad @ delta)
            if not math.isfinite(dec2) or dec2 <= 1e-16:
                break
            merit = t * float(d.sum()) - logdet
            step = 1.0
            for _ in range(60):
                cand = d + step * delta
                cand_logdet = _logdet(np.diag(cand) - w)
                if t * float(cand.sum()) - cand_logdet <= merit - 0.25 * step * dec2:
                    break
                step *= 0.5
            else:
                break
            d, logdet = cand, cand_logdet
        if n / t <= gap_rel * max(1.0, float(d.sum())):
            break
        t *= 8.0
    return d


def _scale_to_boundary(w: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Shrink d along its ray onto the PSD boundary: d <- d * lambda_max(D^-1/2 W D^-1/2)."""
    support = d > 0
    if not support.any():
        return d
    root = np.where(support, np.sqrt(np.where(support, d, 1.0)), 1.0)
    scaled = w / np.outer(root, root)
    lam = float(np.linalg.eigvalsh(scaled)[-1])
    if lam <= 0.0:
        return np.zeros_like(d)
    s = min(lam * (1.0 + 1e-9), 1.0)  # never scale past the incumbent
    return d * s


def _certify(m: SparseMat, d: np.ndarray) -> DualCert | None:
    """The dual certificate for d, or None if Z(d) fails the PSD check.

    d is clamped at 0 and rounded up onto a grid 2^-24 below its largest
    entry, which keeps PSD-ness and drops the last digits that the BLAS
    thread count changes.  The slack, 4x the check's shift, lets a PSD Z(d) pass.
    """
    a = m.rows
    d = np.maximum(np.asarray(d, dtype=np.float64), 0.0)
    q = 2.0 ** (math.frexp(float(d.max()))[1] - 24)
    d = np.ceil(d / q) * q
    slack = 4.0 * psd_shift(d)
    if not min_eig_check(z_matrix(m, d), slack):
        return None
    return DualCert(d_left=tuple(float(x) for x in d[:a]),
                    d_right=tuple(float(x) for x in d[a:]),
                    slack=slack)


def inf1_upper(m: SparseMat) -> tuple[float, DualCert]:
    """Certified upper bound on the infinity-to-one norm with its dual certificate.

    The candidates are d0 (the l1 row and column sums) and the barrier
    optimum on d0's support scaled onto the PSD boundary; the smaller bound
    of those that pass the PSD check wins.  d0 makes Z(d0) diagonally
    dominant, so it always passes, also when M is zero.
    """
    a, b = m.rows, m.cols
    d0 = np.concatenate([m.row_l1(), m.col_l1()])
    w = np.zeros((a + b, a + b))  # the dense dilation [[0, M], [M^T, 0]]
    w[:a, a:] = m.to_dense()
    w[a:, :a] = w[:a, a:].T
    idx = np.flatnonzero(d0 > 0)
    d_opt = np.zeros(a + b)
    if idx.size:
        d_opt[idx] = _barrier_solve(w[np.ix_(idx, idx)], d0[idx])
    certs = [_certify(m, d) for d in (d0, _scale_to_boundary(w, d_opt))]
    best = min((cert for cert in certs if cert is not None), key=DualCert.bound)
    return best.bound(), best


def inf1_lower_round(m: SparseMat, trials: int = 32, seed: int = 0):
    """Heuristic lower bound max x^T M y over sign vectors, via rounding + ascent."""
    a, b = m.rows, m.cols
    if m.nnz == 0 or a == 0 or b == 0:
        return 0.0, np.ones(a), np.ones(b)

    def ascent(y: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
        x = np.where(m.matvec(y) >= 0, 1.0, -1.0)
        val = float(x @ m.matvec(y))
        for _ in range(100):
            y2 = np.where(m.rmatvec(x) >= 0, 1.0, -1.0)
            x2 = np.where(m.matvec(y2) >= 0, 1.0, -1.0)
            v2 = float(x2 @ m.matvec(y2))
            if v2 <= val + 1e-12:
                break
            val, x, y = v2, x2, y2
        return val, x, y

    best = ascent(np.ones(b))
    rng = np.random.Generator(np.random.Philox(key=seed))
    for _ in range(max(trials - 1, 0)):
        y0 = np.where(rng.standard_normal(b) >= 0, 1.0, -1.0)
        cand = ascent(y0)
        if cand[0] > best[0]:
            best = cand
    return best


def two_xor_value(bound: float, eps: float, m: int) -> tuple[float, str]:
    """Value bound and status implied by an infinity-to-one bound on m constraints.

    Prover and verifier both call this, so the verifier can compare exactly.
    """
    val_upper = min(1.0, 0.5 + bound / (2.0 * m) + 1e-12)
    status = "SUCCESS" if bound <= 2.0 * eps * m else "UNKNOWN"
    return val_upper, status
