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
whose sweeps are two dense products with M.  It stops on a duality gap:
any unit vectors give a primal value <M, V_L V_R^T> at most the SDP
optimum, and any d shifted onto the PSD boundary gives a dual sum(d)/2 at
least that optimum, so once the two are within a relative _MIX_GAP of
each other, sum(d)/2 is within _MIX_GAP of the optimum, however the rows
and columns are ordered.  The solver is not trusted: its d is
rounded onto a grid and kept only if the Cholesky check passes, and the
l1 multipliers d0 stand otherwise.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import _grid, min_eig_check, psd_shift, z_matrix

# Grothendieck's constant is below pi / (2 ln(1 + sqrt(2))) < 1.8
KG_UPPER = math.pi / (2.0 * math.log(1.0 + math.sqrt(2.0)))

# the mixing method starts from a fixed Philox draw, so refute stays
# deterministic.  Its first _MIX_PLAIN sweeps are plain and the next are
# over-relaxed by _MIX_OMEGA, until two gap checks have measured the gap's
# rate at _MIX_OMEGA; ``_sor_omega`` then sets the factor from that rate.  It
# stops once the dual is within a relative _MIX_GAP of the primal, far below
# the 2^-24 grid of ``_rounded``, or after _MIX_SWEEPS sweeps.  A gap check
# (one eigvalsh of order s = min(a, b)) costs about 2s/r sweeps of rank r;
# until a rate is known one check comes every ceil(_MIX_CHECK * s / r)
# sweeps, about a fifth of the sweeps' time, and after that where the rate
# predicts the gap reaches _MIX_GAP, at most four such intervals on.
_MIX_OMEGA = 1.6
_MIX_GAP = 1e-12
_MIX_PLAIN = 16
_MIX_CHECK = 10
_MIX_SWEEPS = 20000
_MIX_KEY = 0
# the solved d is raised by a relative 2^-36 (which keeps Z(d) PSD): a
# multiplier that is exactly a grid point of ``_rounded``, such as 1/2 for a
# vertex in one constraint of A, then rounds up whatever its last bits, which
# depend on how the rows and columns are ordered and signed
_MIX_RAISE = 1.0 + 2.0 ** -36


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


def _norms(g: np.ndarray) -> np.ndarray:
    return np.sqrt(np.einsum("ij,ij->i", g, g))


def _relaxed(g: np.ndarray, norms: np.ndarray, v: np.ndarray, omega: float) -> np.ndarray:
    """v moved omega of the way to g's rows scaled to unit length, then rescaled.

    g, whose row norms are ``norms``, is overwritten.  A zero row of g takes
    v's row.  For unit rows u and v and omega >= 1, |v + omega(u - v)| >= 1,
    so the rescaling never divides by zero.
    """
    norms = norms[:, None]
    np.divide(g, norms, out=g, where=norms > 0.0)
    np.copyto(g, v, where=norms == 0.0)
    if omega != 1.0:
        g -= v
        g *= omega
        g += v
        g /= _norms(g)[:, None]
    return g


def _on_boundary(m: np.ndarray, d_left: np.ndarray, d_right: np.ndarray) -> np.ndarray:
    """(d_left, d_right) with the shorter side shifted so that Z(d) is on the PSD boundary.

    With d_L > 0, Z(d) is PSD iff the Schur complement
    Diag(d_R) - M^T Diag(d_L)^-1 M is, so d_R is shifted by minus its least
    eigenvalue; when M has more columns than rows the same is done on M^T.
    A zero row or column of M has d = 0 and stays out of the complement.
    """
    a, b = m.shape
    if b > a:
        d = _on_boundary(m.T, d_right, d_left)
        return np.concatenate([d[b:], d[:b]])
    rows, cols = d_left > 0.0, d_right > 0.0
    d_right = d_right.copy()
    if rows.any() and cols.any():
        sub = m[np.ix_(rows, cols)]
        schur = np.diag(d_right[cols]) - sub.T @ (sub / d_left[rows, None])
        d_right[cols] -= float(np.linalg.eigvalsh(schur)[0])
    return np.concatenate([d_left, d_right])


def _sor_omega(rate: float, omega: float) -> float:
    """Young's over-relaxation factor for a sweep whose error falls by rate at omega.

    The bipartite Gauss-Seidel sweep is the consistently ordered two-cyclic
    case of successive over-relaxation, where an eigenvalue lam of the
    sweep at omega and mu of the Jacobi sweep satisfy
    (lam + omega - 1)^2 = lam omega^2 mu^2, and the fastest factor is
    2 / (1 + sqrt(1 - mu^2)) (D. M. Young, Iterative Solution of Large
    Linear Systems, 1971, ch. 6).  This is that factor for the mu^2 implied
    by rate, and never below omega; a rate outside (0, 1), NaN, or a
    mu^2 >= 1 gives omega back.  For omega in [1, 2) the result lies in
    [omega, 2), so SOR converges and ``_relaxed`` keeps its premise.
    """
    if not 0.0 < rate < 1.0:
        return omega
    mu2 = (rate + omega - 1.0) ** 2 / (rate * omega * omega)
    if not mu2 < 1.0:
        return omega
    return max(omega, 2.0 / (1.0 + math.sqrt(1.0 - mu2)))


def _mixing_solve(m: np.ndarray) -> np.ndarray:
    """Multipliers d within a relative _MIX_GAP of the least sum(d) with Z(d) PSD.

    The mixing method (Wang, Chang & Kolter, arXiv 1706.00476; Burer &
    Monteiro, Math. Prog. 2003) maximizes <M, V_L V_R^T> over unit rows
    of rank r = ceil(sqrt(2(a+b))) + 1, high enough that, for almost every
    M, its local optima are global.  The dilation is bipartite, so an
    exact Gauss-Seidel sweep is two products.  After _MIX_PLAIN plain
    sweeps, each row moves omega of the way to its Gauss-Seidel target
    (successive over-relaxation), omega = _MIX_OMEGA at first.  The plain
    sweeps let a fast M finish at the pace of plain Gauss-Seidel, since
    over-relaxation shrinks the error by no more than omega - 1 per sweep.

    The multipliers d = (|(M V_R)_i|, |(M^T V_L)_j|), moved onto the PSD
    boundary by ``_on_boundary``, make a dual: Z(d) PSD gives
    <M, X> <= sum(d)/2 for every feasible X of the SDP, so sum(d)/2 is at
    least the SDP optimum, while the primal <M, V_L V_R^T> is at most it.
    Once sum(d)/2 - primal <= _MIX_GAP * sum(d)/2, that d is within
    _MIX_GAP of the optimum, whatever the sweeps' order or start; it is
    returned times _MIX_RAISE.  Nothing here is trusted; ``_certify`` decides.

    The schedule adapts to the relative gap g measured at each check.  A
    rate is g's per-sweep ratio between two checks with one omega between
    them.  The gap is second order in the error of V, so the error's rate
    is the square root of g's.  The first rate at _MIX_OMEGA sets omega to
    ``_sor_omega`` of that square root.  If g then falls less than half as
    fast, in log terms, as it did at _MIX_OMEGA, omega goes back to
    _MIX_OMEGA for good; the rate at _MIX_OMEGA comes from the fast start of
    the solve and the rate at any omega slows as the fast error components
    die out, so a strict comparison would undo good factors.  Once a rate
    is known (after a change of omega, the rate (omega - 1)^2 that Young's
    factor predicts), the next check is where it predicts g <= _MIX_GAP,
    and at most 4 * ceil(_MIX_CHECK * min(a, b) / r) sweeps on.
    """
    a, b = m.shape
    rank = math.ceil(math.sqrt(2 * (a + b))) + 1
    every = max(1, math.ceil(_MIX_CHECK * min(a, b) / rank))
    v = np.random.Generator(np.random.Philox(key=_MIX_KEY)).standard_normal((a + b, rank))
    v /= np.linalg.norm(v, axis=1)[:, None]
    v_left, v_right = v[:a], v[a:]
    g = m @ v_right
    d_left = _norms(g)
    omega, start = 1.0, 0  # every sweep after sweep start ran at omega
    base = None  # g's rate at _MIX_OMEGA, once measured
    last, check = None, every  # the last check's (sweep, g), and the next check's sweep
    for sweep in range(1, _MIX_SWEEPS + 1):
        if sweep == _MIX_PLAIN + 1:
            omega, start = _MIX_OMEGA, _MIX_PLAIN
        v_left = _relaxed(g, d_left, v_left, omega)
        h = m.T @ v_left
        d_right = _norms(h)
        v_right = _relaxed(h, d_right, v_right, omega)
        g = m @ v_right
        d_left = _norms(g)
        if sweep < check and sweep < _MIX_SWEEPS:
            continue
        d = _on_boundary(m, d_left, d_right)
        dual = math.fsum(d) / 2.0
        gap = dual - float(np.einsum("ij,ij->", v_left, g))
        if gap <= _MIX_GAP * dual:
            break
        gap = gap / dual if dual > 0.0 else math.nan
        rate = math.nan
        if last is not None and last[0] >= start and gap > 0.0 < last[1]:
            rate = (gap / last[1]) ** (1.0 / (sweep - last[0]))
        if base is None:
            if start == _MIX_PLAIN and rate > 0.0:
                base = rate
                omega = _sor_omega(math.sqrt(rate), _MIX_OMEGA)
                if omega > _MIX_OMEGA:
                    start, rate = sweep, (omega - 1.0) ** 2
        elif omega != _MIX_OMEGA and start == last[0] and not rate * rate <= base:
            # the first rate at the new omega fails the guard
            omega, start, rate = _MIX_OMEGA, sweep, base
        last = (sweep, gap)
        step = every
        if 0.0 < rate < 1.0 and gap > 0.0:
            step = max(1, min(4 * every, math.ceil(math.log(_MIX_GAP / gap) / math.log(rate))))
        check = sweep + step
    return d * _MIX_RAISE


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
