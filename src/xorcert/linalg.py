"""Certified spectral bounds, PSD checks and matrix Bernstein tails.

PSD-ness is decided by one floating-point Cholesky with an a-priori rounding
shift (``min_eig_check``), and the same check certifies every spectral norm
upper.  A matrix whose factored form has at most ``_DENSE_CAP`` rows is a
dense array; one dense eigen or singular value solve proposes u, and u
stands only if the check passes on u W -+ M (W the identity for a plain
norm, the pair counts of the light side's folded blocks), so that upper is
sound with rounding accounted for.  The row and column l1 bound (Gershgorin
applied to the symmetric dilation) is sound at every size, and it is the
whole upper above the cap.  ``SparseMat`` is an input format: a COO matrix
that ``spectral_norm`` turns dense when it fits.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# float-rounding guard on certified inequalities that hold in exact arithmetic
_ROUND_GUARD = 1e-12
# a norm is certified dense when the matrix factored (M itself when exactly
# symmetric, else its dilation) has at most this many rows, the swap-symmetric
# pairs of 100 vertices: eigvalsh takes 15 s there and each Cholesky 2.0 s
# (one thread of a 2-core VM), against 0.96 s and 0.21 s at 2000 rows
_DENSE_CAP = 5050


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


def weighted_norm(c: np.ndarray, row_w: np.ndarray, col_w: np.ndarray) -> NormBound:
    """Two-sided bound on ||W_r^-1/2 C W_c^-1/2|| for diagonal weights W >= 1.

    The light side bounds its folded blocks with this: C sums the pair
    matrix over swap-symmetric rows, and W counts the ordered pairs behind
    each row.  One dense solve proposes s1: the top |eigenvalue| of the
    scaled C when C = C^T and W_r = W_c, else its top singular value, both
    taken without vectors.  u = s1 + 4c, with c the check's shift for a
    diagonal of 2 s1 W (it grows as n^2 u s1, past the solve's O(n u s1)
    backward error), rounded up onto a grid 2^-24 below s1 so that its
    bytes do not follow the last digits of the solve.  u stands
    ("dense-cholesky") once the Cholesky check proves u W -+ C >= 0, with
    u W passed as a per-row slack, so the square roots of the scaling never
    reach it.  For any other C, the dilation D = [[0, C], [C^T, 0]] with
    W = Diag(W_r, W_c) needs one check: u W - D >= 0 at (y, -z) gives
    y^T C z <= u sqrt(y^T W_r y z^T W_c z) after scaling y and z, and
    (y, z) gives the other sign.  When the check fails, or the l1 bound of
    C is smaller, the upper is that l1 bound ("schur-l1"): it holds for the
    scaled matrix too, as W >= 1 only shrinks entries.  The lower bound is
    s1, rounded down onto a grid 2^-24 below it and less a rounding guard;
    the grid step dwarfs the solve's error, but no bound rests on it.
    """
    if not c.any():
        return NormBound(0.0, 0.0, "exact-small")
    symmetric = np.array_equal(row_w, col_w) and np.array_equal(c, c.T)
    scaled = c / np.sqrt(row_w)[:, None]
    scaled /= np.sqrt(col_w)
    if symmetric:
        s1 = float(np.abs(np.linalg.eigvalsh(scaled)).max())
        w = row_w
    else:
        s1 = float(np.linalg.svd(scaled, compute_uv=False)[0])
        w = np.concatenate([row_w, col_w])
    del scaled
    q = _grid(s1)
    u = math.ceil((s1 + 4.0 * psd_shift(2.0 * s1 * w)) / q) * q
    if symmetric:
        # one check at a time, so that a large block has one copy alive
        passed = _shifted_cholesky(np.negative(c), u * w) and _shifted_cholesky(c.copy(), u * w)
    else:
        rows = c.shape[0]
        dilation = np.zeros((len(w), len(w)))
        dilation[:rows, rows:] = -c
        dilation[rows:, :rows] = -c.T
        passed = _shifted_cholesky(dilation, u * w)
    return _sandwich(s1, u if passed else None, l1_norm_bound(c) * (1.0 + _ROUND_GUARD),
                     "dense-cholesky")


def spectral_norm(m: SparseMat | np.ndarray) -> NormBound:
    """Two-sided spectral norm bound, upper = min(l1 bound, u).

    m is a ``SparseMat`` or a dense array.  If M is exactly symmetric with
    at most ``_DENSE_CAP`` rows, or its dilation has at most that many, M
    goes dense (a ``SparseMat`` is turned into an array) and gets
    ``weighted_norm`` with unit weights: a sound u, or the l1 bound when its
    check fails.  A larger M gets the l1 bound ("schur-l1"), with its
    largest |entry| as the lower bound.
    """
    if isinstance(m, SparseMat) and _fits_dense(m.rows, m.cols, m.rows == m.cols):
        m = m.to_dense()  # a square one may be symmetric; its array decides
    if isinstance(m, np.ndarray):
        if _fits_dense(*m.shape, np.array_equal(m, m.T)):
            return weighted_norm(m, np.ones(m.shape[0]), np.ones(m.shape[1]))
        m = SparseMat.from_dense(m)
    if m.nnz == 0:
        return NormBound(0.0, 0.0, "exact-small")
    return _sandwich(m.abs_max(), None, l1_norm_bound(m) * (1.0 + _ROUND_GUARD), "schur-l1")


def _fits_dense(rows: int, cols: int, symmetric: bool) -> bool:
    """Whether the matrix that ``weighted_norm`` factors has at most ``_DENSE_CAP`` rows."""
    return rows + cols <= _DENSE_CAP or (symmetric and rows <= _DENSE_CAP)


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


def min_eig_check(s: np.ndarray, slack) -> bool:
    """True only if S + Diag(slack) >= 0: one Cholesky of B = S + Diag(slack) - c*I.

    slack is one number for every row or one per row (the light side passes
    u W).  With t = fl(diag(S) + slack) >= 0 and c = psd_shift(t), the check
    passes when LAPACK's Cholesky of B runs to completion (Rump,
    "Verification of positive definiteness", BIT 46 (2006); Higham,
    *Accuracy and Stability*, 10.1).  Demmel: then B + dB = R^T R with
    |dB| <= gamma_{n+1} |R^T||R| for any order of the inner products, so
    ||dB||_2 <= gamma ||R||_F^2 = gamma tr(B + dB), i.e.
    ||dB||_2 <= gamma/(1 - gamma) tr(B), and tr(B) <= sum t since every
    pivot was positive.  Forming b_ii = fl(t_i - c) rounds twice, an error
    of at most 2u t_i + u c.  So lambda_min(S + Diag(slack))
    >= c(1 - u) - 2u max t - gamma/(1 - gamma) sum t >= 0, as
    (1 - u)/(1 - 2 gamma) >= 1/(1 - gamma).  Gradual underflow adds at most
    eta/2 per product or quotient, n(n+1)(1 + max t) eta in norm, which the
    last term of c covers.  A negative t_i fails at once: e_i is a witness.
    S is a dense array; it must be square, finite and exactly symmetric, or
    ValueError is raised.
    """
    return _shifted_cholesky(np.array(s, dtype=np.float64), slack)


def _shifted_cholesky(a: np.ndarray, slack) -> bool:
    """``min_eig_check`` on a float64 array that it overwrites, which spares a large block a copy."""
    if np.any(np.asarray(slack) < 0):
        raise ValueError("slack must be nonnegative")
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
