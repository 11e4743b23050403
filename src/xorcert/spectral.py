"""Spectral certification for degree-bounded partitioned 2-XOR instances.

The potential Phi(x) = sum_i (1/sqrt(t_i)) (sum_e mu_i(e) x^e)^2 must reach
4 eps^2 m^{3/2} / sqrt(ell) whenever the instance value exceeds 1/2 + eps, so
any certified upper bound on max_x Phi(x) below that threshold refutes.

Phi splits as Phi = Phi_1 + Phi_2 with Phi_2 = sum_i sqrt(t_i) constant, and
Phi_1 is controlled through the canonical-pair block matrix M over ordered
vertex pairs: with Q = sum_i sum_e mu_i(e)^2 / sqrt(t_i),

    Phi_1(x) = (1/4) (x@x)^T M (x@x) + (Q - Phi_2),

an exact identity: an entry of M pairs two distinct edges e != f of one
part, each in either orientation, and the e = f terms, which Q accounts
for, reach entries that no e != f term does.  Weight classes split M into
blocks by butterfly degree, and each block norm is certified separately.
x@x is swap-symmetric, so every block is built folded onto unordered pairs
(``_accumulate_blocks``), as a dense array of at most n(n+1)/2 rows: both
orders of e and f fold onto one entry, and reversing both orientations
transposes it, so a part with s edges adds s (s - 1) terms to the upper
triangle, the diagonal stays 0, and the lower triangle is its mirror.
Each block is bounded by ``linalg.spectral_norm``: one ``eigvalsh`` of the
block, or of its dilation when it is off the diagonal, proposes the norm,
and the Cholesky check on u W -+ C certifies it, with W the number of
ordered pairs behind each row.  A side with more than ``_DENSE_CAP``
unordered pairs is not built; the pipeline bounds it by its size.

Every table is an array built from the instance's constraint rows: mu as
rows (part, u, v, mu) sorted by part, u and v (``mu_rows``), the degree
profile from bincounts, the butterfly degrees gamma as an n x n array
summed part by part in part order, and the weight classes as an n x n
array of class indices.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .config import DEFAULT_CONFIG, RefuteConfig
from .instances import DegreeProfile, PartitionedInstance, ValueEq, degree_profile
from .linalg import _DENSE_CAP, bernstein_threshold, spectral_norm


@dataclass(frozen=True, eq=False)
class ButterflyTable(ValueEq):
    """Butterfly degrees gamma[v, v'] = sum_i deg_i(v) deg_i(v') / t_i over ordered pairs."""

    n: int
    gamma: np.ndarray  # (n, n)
    total: float


def butterfly(profile: DegreeProfile) -> ButterflyTable:
    """Butterfly degree table, summed part by part in part order; the total is 4m."""
    gamma = np.zeros((profile.n, profile.n))
    for t, deg in zip(profile.t.tolist(), profile.deg):
        support = np.flatnonzero(deg)
        gamma[np.ix_(support, support)] += np.multiply.outer(deg[support], deg[support]) / t
    return ButterflyTable(n=profile.n, gamma=gamma, total=float(gamma.sum()))


@dataclass(frozen=True, eq=False)
class WeightClassPartition(ValueEq):
    """Partition of all n^2 ordered vertex pairs into butterfly-weight classes.

    Class S_0 holds pairs with gamma <= alpha; class S_j (1 <= j <= levels)
    holds gamma in (alpha beta^{j-1}, alpha beta^j].  ``classes[v, v']`` is
    the class of pair (v, v'), and ``sizes[j]`` is |S_j|.
    """

    n: int
    alpha: float
    beta: float
    levels: int
    clamped: bool
    classes: np.ndarray  # (n, n) int64
    sizes: tuple[int, ...]


def weight_classes(table: ButterflyTable, *, d: int, eps: float, m: int, ell: int,
                   alpha_c: float = DEFAULT_CONFIG.alpha_c) -> WeightClassPartition:
    """Geometric weight classes with alpha = C d^2 ell log2(n)^6 / (eps^4 m)."""
    n = table.n
    if n < 2:
        raise ValueError("need n >= 2")
    if m < 1 or ell < 1 or d < 1:
        raise ValueError("m, ell, d must be positive")
    if not 0.0 < eps < 0.5:
        raise ValueError("eps must lie in (0, 1/2)")
    lg = math.log2(n)
    levels = math.ceil(lg)
    scale = eps ** 4 * m
    alpha = alpha_c * d * d * ell * lg ** 6 / scale if scale > 0 else math.inf
    if not 0.0 < alpha < math.inf:
        raise ValueError(f"weight-class alpha {alpha} is not a positive finite number")
    ratio = 4.0 * m / alpha
    clamped = ratio < 1.0  # then every gamma <= 4m <= alpha lands in S_0
    beta = 1.0 if clamped else max(ratio ** (1.0 / lg), 1.0)
    classes = np.zeros((n, n), dtype=np.int64)
    if not clamped and beta > 1.0:
        log_beta = math.log(beta)
        heavy = np.flatnonzero(table.gamma > alpha)
        # math.log, not np.log, so that no class boundary moves by an ulp
        classes.flat[heavy] = [max(min(levels, math.ceil(math.log(g / alpha) / log_beta)), 1)
                               for g in table.gamma.flat[heavy].tolist()]
    sizes = np.bincount(classes.ravel(), minlength=levels + 1)
    return WeightClassPartition(
        n=n, alpha=alpha, beta=beta, levels=levels, clamped=clamped,
        classes=classes, sizes=tuple(sizes.tolist()),
    )


@dataclass(frozen=True, eq=False)
class Block:
    """One weight-class block of the folded pair matrix, on its support.

    ``mat`` is dense, with one row per unordered pair {u, v} (u <= v) of
    class j and one column per pair of class k where the block has an
    entry; ``row_pairs`` and ``col_pairs`` encode them as u * n + v.  An
    entry sums M over the ordered pairs behind its row and column, and
    ``row_w`` and ``col_w`` count those pairs: 2 for u != v, 1 for u = v.
    """

    j: int
    k: int
    mat: np.ndarray
    row_pairs: np.ndarray
    col_pairs: np.ndarray
    row_w: np.ndarray
    col_w: np.ndarray

    @property
    def rows(self) -> int:
        return len(self.row_pairs)

    @property
    def nnz(self) -> int:
        return int(np.count_nonzero(self.mat))


_MIRROR_STRIP = 256  # rows of C mirrored at a time, so a temporary is at most 256 x 256


def side_fits(n: int) -> bool:
    """Whether a light side on n vertices has at most ``_DENSE_CAP`` unordered pairs."""
    return n * (n + 1) // 2 <= _DENSE_CAP


def _accumulate_blocks(profile: DegreeProfile, mu: np.ndarray,
                       partition: WeightClassPartition) -> dict[tuple[int, int], Block]:
    """Every nonzero block of the pair matrix M, folded onto unordered pairs.

    M commutes with the swap (v, v') <-> (v', v), the weight classes are
    swap-closed (gamma is exactly symmetric) and x (x) x is swap-symmetric,
    so (x (x) x)^T M (x (x) x) = z^T C z with z_{uv} = x_u x_v over the
    N = n(n+1)/2 unordered pairs and C = F M F^T, where F sums the ordered
    pairs behind each unordered one.

    mu holds the rows (part, u, v, mu), sorted by part, with u < v.  Every
    ordered pair of distinct edges e, f of part i, each taken in both
    orientations (p1, q1) and (p2, q2), adds mu_i(e) mu_i(f) s_i to M, with
    s_i = 1/sqrt(t_i), at row pair p1 n + p2 and column pair q1 n + q2.  The
    e = f terms sit at pairs (u, u) x (v, v) and (u, v) x (v, u), which no
    e != f term reaches, so leaving them out leaves those entries 0.

    Two symmetries fold the 4 s (s - 1) terms of a part with s edges onto
    s (s - 1).  The orders (e, f) and (f, e) land on one entry of C, so each
    pair e < f is taken once, at weight 2 mu_i(e) mu_i(f).  Reversing both
    orientations transposes the entry, so only the pairings FF (row
    {u_e, u_f}, column {v_e, v_f}) and FR (row {u_e, v_f}, column
    {v_e, u_f}) are taken, each keyed on the upper triangle.  A diagonal
    entry would need {p1, p2} = {q1, q2}, which with u < v on every edge
    means e = f, so the diagonal stays exactly 0.  Each part's terms are
    summed per entry as integers, then scaled by s_i once and added in part
    order, with elementwise operations only: no BLAS call, whose bytes would
    follow the thread count.  The strict upper triangle is then mirrored
    into the lower one a strip of rows at a time, with no N x N temporary,
    so C comes out exactly symmetric.  Each block is cut from C with its
    all-zero rows and columns dropped, so its rows and columns are the pairs
    where it has an entry.
    """
    n = profile.n
    if not side_fits(n):
        raise ValueError(f"{n * (n + 1) // 2} unordered pairs exceed the dense cap {_DENSE_CAP}")
    u, v = np.triu_indices(n)
    size = len(u)
    fold = np.empty((n, n), dtype=np.int64)  # the row of C behind each ordered pair
    fold[u, v] = fold[v, u] = np.arange(size)
    folded = np.zeros(size * size)
    lo = np.searchsorted(mu[:, 0], profile.part_ids, side="left")
    hi = np.searchsorted(mu[:, 0], profile.part_ids, side="right")
    # every pair e < f ordered by f, so those of a part's s edges come first
    f_all, e_all = np.tril_indices(int((hi - lo).max(initial=0)), -1)
    for t, a, b in zip(profile.t.tolist(), lo.tolist(), hi.tolist()):
        if b - a < 2:
            continue
        _, eu, ev, ew = mu[a:b].T
        first = slice((b - a) * (b - a - 1) // 2)
        e, f = e_all[first], f_all[first]
        ue, ve = np.concatenate([eu[e], eu[e]]), np.concatenate([ev[e], ev[e]])
        rows = fold[ue, np.concatenate([eu[f], ev[f]])]  # FF, then FR
        cols = fold[ve, np.concatenate([ev[f], eu[f]])]
        keys = np.minimum(rows, cols) * size + np.maximum(rows, cols)  # upper triangle
        at, slot = np.unique(keys, return_inverse=True)
        products = 2 * ew[e] * ew[f]
        sums = np.bincount(slot, weights=np.concatenate([products, products]))
        folded[at] += sums * (1.0 / math.sqrt(t))
    folded = folded.reshape(size, size)
    for r0 in range(0, size, _MIRROR_STRIP):
        r1 = min(r0 + _MIRROR_STRIP, size)
        folded[r0:r1, :r0] = folded[:r0, r0:r1].T
        square = folded[r0:r1, r0:r1]
        square += square.T  # its lower half is still 0
    pairs, weights = u * n + v, np.where(u == v, 1.0, 2.0)
    nonzero, classes = folded != 0.0, partition.classes[u, v]
    live = nonzero.any(axis=1)
    members = [np.flatnonzero(live & (classes == j)) for j in range(partition.levels + 1)]
    blocks: dict[tuple[int, int], Block] = {}
    for j, in_j in enumerate(members):
        for k, in_k in enumerate(members):
            hit = nonzero[np.ix_(in_j, in_k)]
            live_rows, live_cols = hit.any(axis=1), hit.any(axis=0)
            if live_rows.any():
                rows, cols = in_j[live_rows], in_k[live_cols]
                blocks[(j, k)] = Block(j=j, k=k, mat=folded[np.ix_(rows, cols)],
                                       row_pairs=pairs[rows], col_pairs=pairs[cols],
                                       row_w=weights[rows], col_w=weights[cols])
    return blocks


# ---------------------------------------------------------------------------
# The potential's constant terms.
# ---------------------------------------------------------------------------

def phi2_term(profile: DegreeProfile) -> float:
    """Phi_2 = sum_i sqrt(t_i), correctly rounded so the verifier compares it exactly."""
    return math.fsum(math.sqrt(t) for t in profile.t)


def dup_correction(inst: PartitionedInstance, profile: DegreeProfile | None = None,
                   mu: np.ndarray | None = None) -> float:
    """c_0 = Q - Phi_2 with Q = sum_i sum_e mu_i(e)^2 / sqrt(t_i); zero when duplicate-free.

    mu, if given, is ``inst.mu_rows()``.  Each part's sum of squares is an
    exact integer, and the outer sums are fsums, so the verifier compares
    c_0 exactly.
    """
    profile = profile or degree_profile(inst)
    mu = inst.mu_rows() if mu is None else mu
    squares = np.bincount(np.searchsorted(profile.part_ids, mu[:, 0]),
                          weights=mu[:, 3] ** 2, minlength=len(profile.t))
    return math.fsum((squares / np.sqrt(profile.t)).tolist()) - phi2_term(profile)


# ---------------------------------------------------------------------------
# Analytic per-block bounds.
# ---------------------------------------------------------------------------

def block_variance_bound(partition: WeightClassPartition, j: int, k: int) -> float:
    """Analytic bound 2 alpha beta^{max(j,k)} on the block variance norm."""
    return 2.0 * partition.alpha * partition.beta ** max(j, k)


def block_r_bound(partition: WeightClassPartition, j: int, k: int, d: int) -> float:
    """Analytic bound d sqrt(alpha beta^{max(j,k)}) on each summand's norm."""
    return d * math.sqrt(partition.alpha * partition.beta ** max(j, k))


# ---------------------------------------------------------------------------
# The d-bounded certification procedure.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BlockRecord:
    """Certified data for one weight-class block."""

    j: int
    k: int
    size_j: int
    size_k: int
    nnz: int
    norm_lower: float
    norm_upper: float
    contribution: float  # sqrt(size_j * size_k) * norm_upper
    sigma2: float
    r_bound: float
    bernstein_t: float


@dataclass(frozen=True)
class DBoundedReport:
    """Certified Phi upper bound and refutation outcome for a d-bounded instance."""

    status: str  # "SUCCESS" | "UNKNOWN"
    m: int
    n: int
    ell_eff: int
    eps: float
    d_used: int
    alpha: float
    beta: float
    beta_clamped: bool
    levels: int
    class_sizes: tuple[int, ...]
    phi2_term: float
    dup_correction: float
    phi1_bound: float
    phi_total_bound: float
    threshold: float
    implied_eps: float
    val_upper: float
    blocks: tuple[BlockRecord, ...]

    def to_json_dict(self) -> dict:
        data = asdict(self)  # JSON has lists, not tuples
        return {**data, "class_sizes": list(data["class_sizes"]), "blocks": list(data["blocks"])}


def block_contribution(size_j: int, size_k: int, norm_upper: float) -> float:
    """A block's share sqrt(|S_j| |S_k|) ||M_{j,k}|| of the Phi_1 bound."""
    return math.sqrt(size_j * size_k) * norm_upper


def assemble_phi_bound(contributions, c0: float, phi2: float, eps: float,
                       m: int, ell_eff: int) -> dict:
    """Pure arithmetic from block contributions to the light-side value bound.

    Returns the report fields phi1_bound, phi_total_bound, threshold,
    implied_eps, val_upper and status.  The verifier recomputes the
    contributions from the instance, calls this through the same payload
    builder as the prover, and compares its output with the recorded fields
    exactly; fsum and m * sqrt(m) are correctly rounded, so the result does
    not depend on the Python version or the platform's pow.
    """
    phi1 = math.fsum(contributions) / 4.0 + c0
    phi_total = phi1 + phi2
    m_32 = m * math.sqrt(m)
    threshold = 4.0 * eps * eps * m_32 / math.sqrt(ell_eff)
    implied = math.sqrt(max(phi_total, 0.0) * math.sqrt(ell_eff) / (4.0 * m_32))
    return {
        "phi1_bound": phi1, "phi_total_bound": phi_total, "threshold": threshold,
        "implied_eps": implied, "val_upper": min(1.0, 0.5 + implied + 1e-12),
        "status": "SUCCESS" if phi_total <= threshold else "UNKNOWN",
    }


def certify_dbounded(inst: PartitionedInstance, eps: float,
                     config: RefuteConfig | None = None,
                     d_bound: int | None = None) -> DBoundedReport:
    """Certify max_x Phi(x) <= phi_total_bound; SUCCESS iff it beats the threshold.

    The certified bound is (1/4) sum_{j,k} sqrt(|S_j| |S_k|) ||M_{j,k}|| + Q,
    assembled from per-block certified norm uppers, where ||M_{j,k}|| is
    the norm on swap-symmetric vectors: the folded block's
    ||W_j^-1/2 C_{j,k} W_k^-1/2||, as ||z_j||_W^2 = ||(x@x)_{S_j}||^2 <= |S_j|.
    A side with more than ``_DENSE_CAP`` unordered pairs raises ValueError
    (``side_fits``).  The threshold
    4 eps^2 m^{3/2} / sqrt(ell) comes from the potential lower bound at any
    assignment of value >= 1/2 + eps.
    """
    config = config or DEFAULT_CONFIG
    if not 0.0 < eps < 0.5:
        raise ValueError("eps must lie in (0, 1/2)")
    if inst.m == 0:
        raise ValueError("empty instance")
    profile = degree_profile(inst)
    measured = profile.max_degree()
    d_used = measured if d_bound is None else d_bound
    if measured > d_used:
        raise ValueError(f"degree precondition violated: max group size {measured} > d={d_used}")
    m = inst.m
    ell_eff = len(profile.t)
    table = butterfly(profile)
    partition = weight_classes(table, d=d_used, eps=eps, m=m, ell=ell_eff,
                               alpha_c=config.alpha_c)
    mu = inst.mu_rows()
    blocks = _accumulate_blocks(profile, mu, partition)
    delta_block = config.block_delta / (partition.levels + 1) ** 2
    records = []
    for key in sorted(blocks):
        block = blocks[key]
        j, k = key
        size_j = partition.sizes[j]
        size_k = partition.sizes[k]
        nb = spectral_norm(block.mat, block.row_w, block.col_w)
        contribution = block_contribution(size_j, size_k, nb.upper)
        sigma2 = block_variance_bound(partition, j, k)
        r_bound = block_r_bound(partition, j, k, d_used)
        t_jk = bernstein_threshold(sigma2, r_bound, size_j, size_k, delta_block)
        records.append(BlockRecord(
            j=j, k=k, size_j=size_j, size_k=size_k, nnz=block.nnz,
            norm_lower=nb.lower, norm_upper=nb.upper, contribution=contribution,
            sigma2=sigma2, r_bound=r_bound, bernstein_t=t_jk,
        ))
    phi2 = phi2_term(profile)
    c0 = dup_correction(inst, profile, mu)
    return DBoundedReport(
        m=m, n=inst.n, ell_eff=ell_eff, eps=eps, d_used=d_used,
        alpha=partition.alpha, beta=partition.beta, beta_clamped=partition.clamped,
        levels=partition.levels, class_sizes=partition.sizes,
        phi2_term=phi2, dup_correction=c0, blocks=tuple(records),
        **assemble_phi_bound([r.contribution for r in records], c0, phi2, eps, m, ell_eff),
    )
