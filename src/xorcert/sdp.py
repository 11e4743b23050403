"""Dual diagonal certificates for the infinity-to-one norm of the heavy side.

M is the heavy side's bipartite matrix, a dense array.  For M of shape
(a, b) and d = (d_left, d_right) with
Z(d) = [[Diag(d_left), -M], [-M^T, Diag(d_right)]] >= -slack * I, every
x in {+/-1}^a, y in {+/-1}^b satisfies
    x^T M y <= (sum d)/2 + slack * (a+b)/2,
so a certified PSD check of Z(d) (``min_eig_check``, one Cholesky) yields a
sound upper bound on the infinity-to-one norm.  Minimizing sum(d) subject to
Z(d) PSD is the dual of the standard SDP relaxation, whose value exceeds the
true norm by at most the Grothendieck constant.

The multipliers come from the low-rank mixing method on the primal SDP,
whose sweeps are two dense products with M.  The solver is not trusted:
its d is shifted onto the PSD boundary, rounded onto a grid and kept only
if the Cholesky check passes, and the l1 multipliers d0 stand otherwise.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import _grid, min_eig_check, psd_shift, z_matrix

# Grothendieck's constant is below pi / (2 ln(1 + sqrt(2))) < 1.8
KG_UPPER = math.pi / (2.0 * math.log(1.0 + math.sqrt(2.0)))

# the mixing method stops once a sweep moves no entry of V_R by more than
# _MIX_TOL, or after _MIX_SWEEPS sweeps; it starts from a fixed Philox draw,
# so refute stays deterministic
_MIX_TOL = 1e-10
_MIX_SWEEPS = 20000
_MIX_KEY = 0


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


def _rownorm(g: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The rows of g scaled in place to unit length; a zero row takes v's row."""
    norms = np.sqrt(np.einsum("ij,ij->i", g, g))[:, None]
    np.divide(g, norms, out=g, where=norms > 0.0)
    np.copyto(g, v, where=norms == 0.0)
    return g


def _mixing_solve(m: np.ndarray) -> np.ndarray:
    """Multipliers d that nearly minimize sum(d) subject to Z(d) PSD.

    The mixing method (Wang, Chang & Kolter, arXiv 1706.00476; Burer &
    Monteiro, Math. Prog. 2003) maximizes <M, V_L V_R^T> over unit rows
    of rank r = ceil(sqrt(2(a+b))) + 1, high enough that, for almost every
    M, its local optima are global.  The dilation is bipartite, so an
    exact Gauss-Seidel sweep is two products.  The stopping rule watches
    the vectors, not the value: the value is flat near the optimum, so it
    stalls while d still moves in its eighth digit.  The multipliers
    d = (|(M V_R)_i|, |(M^T V_L)_j|) are then moved onto the PSD boundary:
    with d_L > 0, Z(d) is PSD iff the Schur complement
    Diag(d_R) - M^T Diag(d_L)^-1 M is, so d_R is shifted by minus its
    least eigenvalue.  A zero row or column of M gets d = 0.  Nothing here
    is trusted; ``_certify`` decides.
    """
    a, b = m.shape
    rank = math.ceil(math.sqrt(2 * (a + b))) + 1
    v = np.random.Generator(np.random.Philox(key=_MIX_KEY)).standard_normal((a + b, rank))
    v /= np.linalg.norm(v, axis=1)[:, None]
    v_left, v_right = v[:a], v[a:]
    for _ in range(_MIX_SWEEPS):
        v_left = _rownorm(m @ v_right, v_left)
        moved, v_right = v_right, _rownorm(m.T @ v_left, v_right)
        if float(np.abs(v_right - moved).max(initial=0.0)) <= _MIX_TOL:
            break
    d_left = np.linalg.norm(m @ v_right, axis=1)
    d_right = np.linalg.norm(m.T @ v_left, axis=1)
    rows, cols = d_left > 0.0, d_right > 0.0
    if rows.any() and cols.any():
        sub = m[np.ix_(rows, cols)]
        schur = np.diag(d_right[cols]) - sub.T @ (sub / d_left[rows, None])
        d_right[cols] -= float(np.linalg.eigvalsh(schur)[0])
    return np.concatenate([d_left, d_right])


def _rounded(m: np.ndarray, d: np.ndarray) -> DualCert:
    """The dual certificate for d, before its PSD check.

    d is clamped at 0 and rounded up onto a grid 2^-24 below its largest
    entry, which keeps PSD-ness and drops the last digits that the BLAS
    thread count changes.  The slack, 4x the check's shift, lets a PSD Z(d) pass.
    """
    a = m.shape[0]
    d = np.maximum(np.asarray(d, dtype=np.float64), 0.0)
    q = _grid(float(d.max()))
    d = np.ceil(d / q) * q
    return DualCert(d_left=tuple(float(x) for x in d[:a]),
                    d_right=tuple(float(x) for x in d[a:]),
                    slack=4.0 * psd_shift(d))


def _certify(m: np.ndarray, d: np.ndarray) -> DualCert | None:
    """The dual certificate for d (see ``_rounded``), or None if Z(d) fails the PSD check."""
    cert = _rounded(m, d)
    if not min_eig_check(z_matrix(m, np.array(cert.d_left + cert.d_right)), cert.slack):
        return None
    return cert


def inf1_upper(m: np.ndarray) -> tuple[float, DualCert]:
    """Certified upper bound on the infinity-to-one norm with its dual certificate.

    The candidates are d0 (the l1 row and column sums) and the mixing
    method's multipliers shifted onto the PSD boundary; the smaller bound
    of those that pass the PSD check wins, and d0 on a tie.  d0 makes Z(d0)
    diagonally dominant, so it always passes, also when M is zero.  Both
    bounds are known before their checks, so the usual case runs one
    Cholesky: the mixing d's alone when its bound is strictly below d0's,
    else d0's alone.
    """
    d0 = np.concatenate([np.abs(m).sum(axis=1), np.abs(m).sum(axis=0)])
    # sorted is stable, so d0 comes first on a tie
    for d in sorted((d0, _mixing_solve(m)), key=lambda d: _rounded(m, d).bound()):
        cert = _certify(m, d)
        if cert is not None:
            return cert.bound(), cert
    raise ValueError("neither dual passes the PSD check")


def two_xor_value(bound: float, eps: float, m: int) -> tuple[float, str]:
    """Value bound and status implied by an infinity-to-one bound on m constraints.

    Prover and verifier both call this, so the verifier can compare exactly.
    """
    val_upper = min(1.0, 0.5 + bound / (2.0 * m) + 1e-12)
    status = "SUCCESS" if bound <= 2.0 * eps * m else "UNKNOWN"
    return val_upper, status
