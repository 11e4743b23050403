"""Certified spectral bounds, PSD checks and matrix Bernstein tails.

PSD-ness is decided by one floating-point Cholesky with an a-priori rounding
shift (``min_eig_check``).  The same check certifies spectral norm uppers:
a matrix whose factored form has at most ``_DENSE_CAP`` rows is a dense
array, which gets u from one dense eigen or singular value solve, and u
stands only if ``uI -+ M`` pass the check, so that upper is sound with
rounding accounted for.  The row and column l1 bound (Gershgorin applied to
the symmetric dilation) is sound at every size.  Above the cap the matrix
is a ``SparseMat``, the COO form that only the light side's large blocks
use, and the upper is a power-iteration Rayleigh quotient plus its residual
norm, which bounds the distance to *some* eigenvalue, not to the largest,
so it is not yet sound when the top singular values nearly coincide.  The
iteration needs only the products M x and M^T y, which a caller may supply
in factored form (the light side's blocks apply them through the Kronecker
factors of the pair matrix).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# float-rounding guard on certified inequalities that hold in exact arithmetic
_ROUND_GUARD = 1e-12
# a norm is certified dense when the matrix factored (M itself when exactly
# symmetric, else its dilation) has at most this many rows: eigh plus two
# Cholesky take 0.03 s at 361 rows, 0.5 s at 1000 and 3 s at 2000 (one thread)
_DENSE_CAP = 1024
# power iteration above the cap: relative gap to stop at, step limit, and the
# Philox key of the random restart
_POWER_TOL = 1e-8
_POWER_MAX_ITER = 1500
_RESTART_SEED = 0x5EED


@dataclass(frozen=True, eq=False)
class SparseMat:
    """Immutable COO sparse matrix with duplicate entries pre-merged."""

    rows: int
    cols: int
    r: np.ndarray
    c: np.ndarray
    v: np.ndarray

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if not (len(self.r) == len(self.c) == len(self.v)):
            raise ValueError("coordinate arrays must have equal length")
        if len(self.r) and (self.r.min() < 0 or self.r.max() >= self.rows):
            raise ValueError("row index out of range")
        if len(self.c) and (self.c.min() < 0 or self.c.max() >= self.cols):
            raise ValueError("column index out of range")
        if len(self.v) and not np.all(np.isfinite(self.v)):
            raise ValueError("matrix entries must be finite")

    @classmethod
    def from_arrays(cls, rows: int, cols: int, r, c, v) -> "SparseMat":
        """Build from coordinate arrays, summing duplicates and dropping zeros."""
        r = np.asarray(r, dtype=np.int64)
        c = np.asarray(c, dtype=np.int64)
        v = np.asarray(v, dtype=np.float64)
        if len(r):
            order = np.argsort(r * cols + c, kind="stable")  # by row, then column
            r, c, v = r[order], c[order], v[order]
            new_group = np.empty(len(r), dtype=bool)
            new_group[0] = True
            new_group[1:] = (r[1:] != r[:-1]) | (c[1:] != c[:-1])
            starts = np.flatnonzero(new_group)
            v = np.add.reduceat(v, starts)
            r, c = r[starts], c[starts]
            keep = v != 0.0
            r, c, v = r[keep], c[keep], v[keep]
        for arr in (r, c, v):
            arr.setflags(write=False)
        return cls(rows=rows, cols=cols, r=r, c=c, v=v)

    @classmethod
    def from_dense(cls, a) -> "SparseMat":
        a = np.asarray(a, dtype=np.float64)
        r, c = np.nonzero(a)
        return cls.from_arrays(a.shape[0], a.shape[1], r, c, a[r, c])

    @property
    def nnz(self) -> int:
        return len(self.v)

    def matvec(self, x: np.ndarray) -> np.ndarray:
        return np.bincount(self.r, weights=self.v * x[self.c], minlength=self.rows)

    def rmatvec(self, x: np.ndarray) -> np.ndarray:
        return np.bincount(self.c, weights=self.v * x[self.r], minlength=self.cols)

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.rows, self.cols))
        np.add.at(out, (self.r, self.c), self.v)
        return out

    def row_l1(self) -> np.ndarray:
        return np.bincount(self.r, weights=np.abs(self.v), minlength=self.rows)

    def col_l1(self) -> np.ndarray:
        return np.bincount(self.c, weights=np.abs(self.v), minlength=self.cols)

    def abs_max(self) -> float:
        return float(np.abs(self.v).max()) if self.nnz else 0.0


@dataclass(frozen=True)
class NormBound:
    """Sandwich lower <= ||M||_2 <= upper; see ``spectral_norm`` for which uppers are sound."""

    lower: float
    upper: float
    method: str

    def __post_init__(self) -> None:
        if not (0.0 <= self.lower <= self.upper):
            raise ValueError(f"invalid norm bound [{self.lower}, {self.upper}]")


def l1_norm_bound(m: SparseMat | np.ndarray) -> float:
    """max(max row l1, max col l1): a Gershgorin bound on the spectral norm."""
    if isinstance(m, np.ndarray):
        absm = np.abs(m)
        return float(max(absm.sum(axis=1).max(initial=0.0),
                         absm.sum(axis=0).max(initial=0.0)))
    if m.nnz == 0:
        return 0.0
    return float(max(m.row_l1().max(), m.col_l1().max()))


def _dilation_apply(op, w: np.ndarray) -> np.ndarray:
    # symmetric dilation [[0, M], [M^T, 0]] applied to [top; bottom]
    return np.concatenate([op.matvec(w[op.rows:]), op.rmatvec(w[: op.rows])])


def _aligned_candidate(op, w: np.ndarray) -> tuple[float, float]:
    """(|rho|, residual) of the dilation at w after sign alignment.

    The dilation spectrum is symmetric (+/- each singular value), so a power
    iterate of the squared dilation mixes the two signed top eigenvectors;
    w <- s*w + Dw projects onto the + branch.  There is an eigenvalue within
    residual of +|rho|, so |rho| + residual upper-bounds the norm whenever w
    overlaps the top eigenspace.
    """
    u = _dilation_apply(op, w)
    s = float(np.linalg.norm(u))
    aligned = s * w + u
    norm = float(np.linalg.norm(aligned))
    if norm <= 1e-12 * max(1.0, s):
        aligned = s * w - u
        norm = float(np.linalg.norm(aligned))
    if norm == 0.0:
        return 0.0, 0.0
    aligned /= norm
    u2 = _dilation_apply(op, aligned)
    rho = float(aligned @ u2)
    res = float(np.linalg.norm(u2 - rho * aligned))
    return abs(rho), res


def _power_squared_run(op, w0: np.ndarray):
    """Iterate w <- D^2 w / ||.||; returns (s_best, w) or None if w hit the kernel.

    Iterating the squared dilation avoids the sign oscillation of the
    indefinite dilation spectrum; s_best = sqrt(max ||D^2 w||) is a sound
    lower bound for the spectral norm at every step.  Stops once the certified
    gap (|rho| + res) - s_best closes to ``_POWER_TOL``, or the iteration
    fixes, or it has run ``_POWER_MAX_ITER`` steps.
    """
    w = w0 / np.linalg.norm(w0)
    s_best = 0.0
    prev = -1.0
    for it in range(1, _POWER_MAX_ITER + 1):
        u = _dilation_apply(op, _dilation_apply(op, w))
        q = float(np.linalg.norm(u))
        if q == 0.0:
            return None
        s_best = max(s_best, math.sqrt(q))
        w = u / q
        if prev >= 0.0 and abs(q - prev) <= 1e-13 * max(1.0, q):
            break
        prev = q
        if it % 25 == 0:
            rho_abs, res = _aligned_candidate(op, w)
            if rho_abs + res - s_best <= _POWER_TOL * max(1.0, s_best):
                break
    return s_best, w


def _dense_norm(a: np.ndarray, symmetric: bool) -> tuple[float, float | None]:
    """(Rayleigh quotient, certified upper or None) from one dense solve of a.

    s1 is the top |eigenvalue| of a symmetric a, else its top singular value.
    u = s1 + 4c, with c the check's shift for a diagonal of 2 s1 (it grows as
    n^2 u s1, past the solve's O(n u s1) backward error), rounded up onto a
    grid 2^-24 below s1 so that its bytes do not follow the last digits of
    the solve.  Then ||a|| <= u holds once ``min_eig_check`` proves
    lambda_min(+-a) >= -u; for a rectangular or asymmetric a the dilation
    W = [[0, a], [a^T, 0]] has spectrum +-sigma_i, so lambda_min(-W) >= -u
    alone suffices.
    """
    if symmetric:
        lam, vecs = np.linalg.eigh(a)
        top = int(np.argmax(np.abs(lam)))
        s1, v = float(abs(lam[top])), vecs[:, top]
        rayleigh = abs(float(v @ (a @ v))) / float(v @ v)
        w, signs = a, (1.0, -1.0)
    else:
        left, sig, right = np.linalg.svd(a, full_matrices=False)
        s1, x, y = float(sig[0]), left[:, 0], right[0]
        rayleigh = abs(float(x @ (a @ y))) / math.sqrt(float(x @ x) * float(y @ y))
        rows = a.shape[0]
        w = np.zeros((rows + a.shape[1],) * 2)
        w[:rows, rows:] = a
        w[rows:, :rows] = a.T
        signs = (-1.0,)
    q = _grid(s1)
    u = math.ceil((s1 + 4.0 * psd_shift(np.full(len(w), 2.0 * s1))) / q) * q
    if all(min_eig_check(sign * w, u) for sign in signs):
        return rayleigh, u
    return rayleigh, None


def spectral_norm(m: SparseMat | np.ndarray, op=None) -> NormBound:
    """Two-sided spectral norm bound, upper = min(l1 bound, u).

    m is a ``SparseMat`` or a dense array, and one rule (``_fits_dense``)
    picks the path.  If M is exactly symmetric with at most ``_DENSE_CAP``
    rows, or its dilation has at most that many, M goes dense: a
    ``SparseMat`` is turned into an array, and u comes from ``_dense_norm``,
    which is sound ("dense-cholesky"); when its check fails the upper is the
    l1 bound ("schur-l1"), with no retry.  A larger M, an array turned into
    a ``SparseMat``, runs power iteration on the squared dilation from a
    deterministic all-ones start plus one seeded random restart, and
    u = |rho| + residual at the aligned final iterate, which is not yet
    sound when the top singular values nearly coincide; this path rounds u
    up onto a grid 2^-24 below the lower bound.  The iteration takes its
    products M x and M^T y from op (default m itself): any object with
    ``rows``, ``matvec`` and ``rmatvec`` that agree with m, such as a
    light-side ``Block``, which applies them through Kronecker factors.  The
    lower bound is the largest |entry| or the Rayleigh quotient of the top
    vector, less a rounding guard; on both paths it is rounded down onto the
    grid, so that its bytes do not follow the last digits of the eigen solve
    or of the BLAS calls, whose order of summation follows the thread count.
    """
    if isinstance(m, SparseMat) and _fits_dense(m.rows, m.cols, m.rows == m.cols):
        m = m.to_dense()  # a square one may be symmetric; its array decides
    if isinstance(m, np.ndarray):
        symmetric = np.array_equal(m, m.T)
        if _fits_dense(*m.shape, symmetric):
            return _dense_bound(m, symmetric)
        m = SparseMat.from_dense(m)
    if m.nnz == 0:
        return NormBound(0.0, 0.0, "exact-small")
    op = m if op is None else op
    l1 = l1_norm_bound(m) * (1.0 + _ROUND_GUARD)
    lower = m.abs_max()  # every entry is a lower bound on the norm
    dim = m.rows + m.cols
    starts = [np.ones(dim)]
    rng = np.random.Generator(np.random.Philox(key=_RESTART_SEED))
    starts.append(rng.standard_normal(dim))

    best = None  # (s, w)
    for w0 in starts:
        out = _power_squared_run(op, w0)
        if out is None:
            continue
        s, w = out
        lower = max(lower, s)
        if best is None or s > best[0]:
            best = (s, w)
    if best is None:
        # both starts landed exactly in the kernel; fall back to the l1 bound
        return _sandwich(lower, None, l1, "schur-l1")

    rho_abs, res = _aligned_candidate(op, best[1])
    lower = max(lower, rho_abs)
    cand = (rho_abs + res) * (1.0 + _ROUND_GUARD)
    if cand < lower:
        cand = None  # alignment failed
    else:
        # round up onto the lower bound's grid: the iterates' norms, dot
        # products and factored products are BLAS calls
        q = _grid(lower)
        cand = math.ceil(cand / q) * q
    return _sandwich(lower, cand, l1, "power-iteration-residual")


def _fits_dense(rows: int, cols: int, symmetric: bool) -> bool:
    """Whether the matrix that ``_dense_norm`` factors has at most ``_DENSE_CAP`` rows."""
    return rows + cols <= _DENSE_CAP or (symmetric and rows <= _DENSE_CAP)


def _dense_bound(a: np.ndarray, symmetric: bool) -> NormBound:
    """The dense path of ``spectral_norm``, with the largest |entry| as a lower bound."""
    if not a.any():
        return NormBound(0.0, 0.0, "exact-small")
    rayleigh, u = _dense_norm(a, symmetric)
    return _sandwich(max(float(np.abs(a).max()), rayleigh), u,
                     l1_norm_bound(a) * (1.0 + _ROUND_GUARD), "dense-cholesky")


def _grid(x: float) -> float:
    """The spacing of a binary grid 2^-24 below x."""
    return 2.0 ** (math.frexp(x)[1] - 24)


def _sandwich(lower: float, u: float | None, l1: float, method: str) -> NormBound:
    """NormBound with upper = min(u, l1), "schur-l1" when l1 wins or u is None.

    The lower bound is rounded down onto a grid 2^-24 below itself.
    """
    if u is None or u >= l1:
        u, method = l1, "schur-l1"
    q = _grid(lower)
    lower = math.floor(lower / q) * q
    return NormBound(min(lower * (1.0 - _ROUND_GUARD), u), u, method)


# unit roundoff and the smallest subnormal of IEEE double precision
_U = 2.0 ** -53
_ETA = 2.0 ** -1074


def psd_shift(diag: np.ndarray) -> float:
    """Rump's a-priori shift c for the n x n symmetric matrix with this diagonal (>= 0).

    c = gamma/(1 - 2 gamma) * tr + 3u * max + 4(n+1)^2 (1 + max) eta, with
    u = 2^-53, gamma = (n+1)u / (1 - (n+1)u), eta = 2^-1074, raised by 16u
    relative to cover its own evaluation; ``min_eig_check`` gives the argument.
    """
    n = len(diag)
    gamma = (n + 1) * _U / (1.0 - (n + 1) * _U)
    top = float(np.max(diag, initial=0.0))
    c = (gamma / (1.0 - 2.0 * gamma) * math.fsum(diag) + 3.0 * _U * top
         + 4.0 * (n + 1) ** 2 * (1.0 + top) * _ETA)
    return c * (1.0 + 16.0 * _U)


def min_eig_check(s: np.ndarray, slack: float) -> bool:
    """True only if lambda_min(S) >= -slack: one Cholesky of B = S + slack*I - c*I.

    With t = fl(diag(S) + slack) >= 0 and c = psd_shift(t), the check passes
    when LAPACK's Cholesky of B runs to completion (Rump, "Verification of
    positive definiteness", BIT 46 (2006); Higham, *Accuracy and Stability*,
    10.1).  Demmel: then B + dB = R^T R with |dB| <= gamma_{n+1} |R^T||R| for
    any order of the inner products, so ||dB||_2 <= gamma ||R||_F^2 =
    gamma tr(B + dB), i.e. ||dB||_2 <= gamma/(1 - gamma) tr(B), and
    tr(B) <= sum t since every pivot was positive.  Forming b_ii = fl(t_i - c)
    rounds twice, an error of at most 2u t_i + u c.  So lambda_min(S + slack*I)
    >= c(1 - u) - 2u max t - gamma/(1 - gamma) sum t >= 0, as
    (1 - u)/(1 - 2 gamma) >= 1/(1 - gamma).  Gradual underflow adds at most
    eta/2 per product or quotient, n(n+1)(1 + max t) eta in norm, which the
    last term of c covers.  A negative t_i fails at once: e_i is a witness.
    S is a dense array; it must be square, finite and exactly symmetric, or
    ValueError is raised.
    """
    if slack < 0:
        raise ValueError("slack must be nonnegative")
    a = np.array(s, dtype=np.float64)  # a copy: its diagonal is overwritten below
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    if not np.array_equal(a, a.T):
        raise ValueError("matrix must be symmetric")
    i = np.arange(a.shape[0])
    t = a[i, i] + slack
    if not (np.all(np.isfinite(t)) and np.all(t >= 0.0)):
        return False
    c = psd_shift(t)
    a[i, i] = t - c
    try:
        # OpenBLAS lets a NaN pivot through, and a NaN or inf reaches the pivots
        return bool(np.all(np.isfinite(np.linalg.cholesky(a))))
    except np.linalg.LinAlgError:
        return False


def bernstein_tail(sigma2: float, r_bound: float, d1: int, d2: int, t: float) -> float:
    """Rectangular matrix Bernstein tail (d1+d2) exp(-(t^2/2)/(sigma2 + R t/3)), clamped to [0, 1]."""
    if min(sigma2, r_bound, t) < 0 or d1 < 0 or d2 < 0:
        raise ValueError("bernstein_tail arguments must be nonnegative")
    if t == 0.0:
        return min(1.0, float(d1 + d2))
    denom = sigma2 + r_bound * t / 3.0
    if denom == 0.0:
        return 0.0
    return min(1.0, (d1 + d2) * math.exp(-(t * t / 2.0) / denom))


def bernstein_threshold(sigma2: float, r_bound: float, d1: int, d2: int, delta: float) -> float:
    """Smallest t with bernstein_tail(...) <= delta, in closed form."""
    if not 0.0 < delta <= 1.0:
        raise ValueError("delta must lie in (0, 1]")
    if min(sigma2, r_bound) < 0 or d1 < 0 or d2 < 0:
        raise ValueError("bernstein_threshold arguments must be nonnegative")
    if min(1.0, float(d1 + d2)) <= delta:
        return 0.0  # the clamped tail at t = 0 already meets delta
    big_l = math.log((d1 + d2) / delta)
    if big_l <= 0.0:
        return 0.0
    half = big_l * r_bound / 3.0
    t = half + math.sqrt(half * half + 2.0 * sigma2 * big_l)
    if t == 0.0:
        return math.ulp(0.0)  # sigma2 = R = 0: the sum vanishes a.s., any t > 0 works
    return t * (1.0 + 1e-12)  # guard the closed form against rounding
