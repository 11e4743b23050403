"""Spectral certification for degree-bounded partitioned 2-XOR instances.

The potential Phi(x) = sum_i (1/sqrt(t_i)) (sum_e mu_i(e) x^e)^2 must reach
4 eps^2 m^{3/2} / sqrt(ell) whenever the instance value exceeds 1/2 + eps, so
any certified upper bound on max_x Phi(x) below that threshold refutes.

Phi splits as Phi = Phi_1 + Phi_2 with Phi_2 = sum_i sqrt(t_i) constant, and
Phi_1 is controlled through the canonical-pair block matrix M over ordered
vertex pairs: with Q = sum_i sum_e mu_i(e)^2 / sqrt(t_i),

    Phi_1(x) = (1/4) (x@x)^T M (x@x) + (Q - Phi_2),

an exact identity (entries of M pair distinct constraint pairs only; the
diagonal exclusion is on unordered pairs).  Weight classes split M into
blocks by butterfly degree, and each block norm is certified separately.
Each block is built explicitly, which gives its nnz and l1 bound, from one
list of M's terms.  A side with n^2 <= _DENSE_CAP pairs sums them into M
as a dense array and cuts every block from it, and all of them take the
dense norm path; a larger side merges them once into a ``SparseMat`` and
cuts every block from its entries.  Power iteration on a block above the
dense cap takes its products from M's Kronecker factors (``PairFactors``)
when they cost less than the block's entries, which holds for few parts
with many edges each (4 sum_i t_i^2 >> ell n^3), and from the explicit
block otherwise.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .config import DEFAULT_CONFIG, RefuteConfig
from .instances import DegreeProfile, PartitionedInstance, degree_profile
from .linalg import _DENSE_CAP, SparseMat, bernstein_threshold, spectral_norm

# power iteration takes a block's products from the factors when one product
# there costs at most this many multiply-adds per entry of the explicit
# block.  On one thread of a 2-core VM a COO entry costs 8-12 ns per product
# and a gemm multiply-add 0.08-0.16 ns, so the two break even near 80.
# light4's block needs 4 per entry (0.16 ms against 2.0 ms per product);
# 3-XOR n = 100, m = 1000 needs 1900 (12 ms against 0.5 ms).  Within the
# rule the factors' arrays, ell n^2 floats each with n^2 > 512 above the
# cap, also hold fewer numbers than the block.
_FACTOR_MADDS_PER_NNZ = 32


@dataclass(frozen=True)
class ButterflyTable:
    """Butterfly degrees gamma(v, v') = sum_i deg_i(v) deg_i(v') / t_i over ordered pairs."""

    n: int
    gamma: dict[tuple[int, int], float]
    total: float

    def value(self, v: int, vp: int) -> float:
        return self.gamma.get((v, vp), 0.0)


def butterfly(profile: DegreeProfile) -> ButterflyTable:
    """Butterfly degree table; the total always equals 4m exactly."""
    gamma: dict[tuple[int, int], float] = {}
    for t, deg in zip(profile.t, profile.deg):
        support = sorted(deg)
        for v in support:
            for vp in support:
                key = (v, vp)
                gamma[key] = gamma.get(key, 0.0) + deg[v] * deg[vp] / t
    return ButterflyTable(n=profile.n, gamma=gamma, total=float(sum(gamma.values())))


@dataclass(frozen=True)
class WeightClassPartition:
    """Partition of all n^2 ordered vertex pairs into butterfly-weight classes.

    Class S_0 holds pairs with gamma <= alpha; class S_j (1 <= j <= levels)
    holds gamma in (alpha beta^{j-1}, alpha beta^j].  Pairs outside the table
    have gamma = 0 and belong to S_0, so only heavier classes are stored.
    """

    n: int
    alpha: float
    beta: float
    levels: int
    clamped: bool
    heavy: dict[tuple[int, int], int]
    sizes: tuple[int, ...]

    def class_of(self, pair: tuple[int, int]) -> int:
        return self.heavy.get(pair, 0)

    def class_matrix(self) -> np.ndarray:
        out = np.zeros((self.n, self.n), dtype=np.int64)
        for (v, vp), j in self.heavy.items():
            out[v, vp] = j
        return out


def weight_classes(table: ButterflyTable, *, d: int, eps: float, m: int, ell: int,
                   alpha_c: float = 1.0) -> WeightClassPartition:
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
    heavy: dict[tuple[int, int], int] = {}
    if not clamped and beta > 1.0:
        log_beta = math.log(beta)
        for pair, g in table.gamma.items():
            if g > alpha:
                j = min(levels, math.ceil(math.log(g / alpha) / log_beta))
                heavy[pair] = max(j, 1)
    sizes = [0] * (levels + 1)
    for j in heavy.values():
        sizes[j] += 1
    sizes[0] = n * n - len(heavy)
    return WeightClassPartition(
        n=n, alpha=alpha, beta=beta, levels=levels, clamped=clamped,
        heavy=heavy, sizes=tuple(sizes),
    )


class PairFactors:
    """The canonical pair matrix in Kronecker form, for products with its blocks.

    With A_i the symmetric n x n table of part i's mu (A_i[u, v] = A_i[v, u]
    = mu_i({u, v})), s_i = 1/sqrt(t_i) and A2 = sum_i s_i A_i o A_i,

        M = sum_i s_i (A_i (x) A_i - D_i),

    where D_i holds the e = f terms: edge {u, v} sends X[v, u] to pair (u, v)
    and X[v, v] to pair (u, u).  So for x = vec(X) on pairs v * n + v',

        M x = vec(sum_i s_i A_i X A_i - A2 o X^T - Diag(A2 diag(X))),

    with no diagonal in A_i.  A product costs ``madds`` = 2 ell n^3
    multiply-adds, whatever the block, against the 4 sum_i t_i^2 entries of
    the explicit matrix.  Parts with fewer than two edges contribute nothing
    and are left out; ``parts`` holds the others as (s_i, eu, ev, ew), which
    ``_pair_terms`` also reads.  The dense factors are built on the first
    product, so light sides whose blocks all take the dense norm path or
    the explicit product never build them.
    """

    def __init__(self, n: int, parts: list[tuple[float, np.ndarray, np.ndarray, np.ndarray]]):
        self.n = n
        self.parts = parts  # (s_i, eu, ev, ew) per part with at least two edges

    @property
    def madds(self) -> int:
        """Multiply-adds of one product: two n x n by n x (ell n) matrix products."""
        return 2 * len(self.parts) * self.n ** 3

    @cached_property
    def _factors(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        n, ell = self.n, len(self.parts)
        tables = np.zeros((ell, n, n))
        scales = np.empty(ell)
        for i, (scale, eu, ev, ew) in enumerate(self.parts):
            tables[i, eu, ev] = ew
            tables[i, ev, eu] = ew
            scales[i] = scale
        # [A_1 ... A_ell] and [s_1 A_1 ... s_ell A_ell], n x (ell n) each
        wide = tables.transpose(1, 0, 2).reshape(n, ell * n)
        scaled = (tables * scales[:, None, None]).transpose(1, 0, 2).reshape(n, ell * n)
        a2 = np.einsum("i,ipq->pq", scales, tables * tables)
        return wide, scaled, a2

    def apply(self, x: np.ndarray, in_pairs: np.ndarray, out_pairs: np.ndarray) -> np.ndarray:
        """(M z)[out_pairs], where z is x on the pairs in_pairs and zero elsewhere."""
        n, ell = self.n, len(self.parts)
        wide, scaled, a2 = self._factors
        flat = np.zeros(n * n)
        flat[in_pairs] = x
        xm = flat.reshape(n, n)
        # rows i*n .. i*n+n-1 of the stack hold X A_i
        stack = (xm @ wide).reshape(n, ell, n).transpose(1, 0, 2).reshape(ell * n, n)
        y = scaled @ stack
        y -= a2 * xm.T
        y[np.diag_indices(n)] -= a2 @ np.diagonal(xm)
        return y.ravel()[out_pairs]


@dataclass(frozen=True, eq=False)
class Block:
    """One weight-class block of the canonical pair matrix, on its support.

    ``mat`` holds the block explicitly: a dense array when the light side
    has at most ``_DENSE_CAP`` pairs, where every block takes the dense norm
    path, and a ``SparseMat`` otherwise.  ``matvec`` and ``rmatvec`` give
    the same products through the light side's shared ``factors`` (the pair
    matrix is symmetric, so the transpose swaps the supports).
    ``power_op`` is whichever of the two costs less per product.
    """

    j: int
    k: int
    mat: SparseMat | np.ndarray
    row_pairs: np.ndarray  # flat encodings v * n + v' of the ordered row pairs
    col_pairs: np.ndarray
    factors: PairFactors

    @property
    def rows(self) -> int:
        return len(self.row_pairs)

    @property
    def nnz(self) -> int:
        if isinstance(self.mat, SparseMat):
            return self.mat.nnz
        return int(np.count_nonzero(self.mat))

    @property
    def power_op(self) -> "Block | SparseMat | np.ndarray":
        """The block itself (factored products) if they are cheaper, else ``mat``."""
        if self.factors.madds <= _FACTOR_MADDS_PER_NNZ * self.nnz:
            return self
        return self.mat

    def matvec(self, x: np.ndarray) -> np.ndarray:
        return self.factors.apply(x, self.col_pairs, self.row_pairs)

    def rmatvec(self, y: np.ndarray) -> np.ndarray:
        return self.factors.apply(y, self.row_pairs, self.col_pairs)


def _kept_mu(inst: PartitionedInstance, profile: DegreeProfile) -> list[dict]:
    tables = inst.mu_tables()
    return [tables[orig] for orig in profile.part_ids]


def _part_edge_arrays(table: dict) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    edges = sorted((e, w) for e, w in table.items() if w != 0)
    eu = np.array([e[0] for e, _ in edges], dtype=np.int64)
    ev = np.array([e[1] for e, _ in edges], dtype=np.int64)
    ew = np.array([w for _, w in edges], dtype=np.float64)
    return eu, ev, ew


def _pair_factors(profile: DegreeProfile, mu: list[dict]) -> PairFactors:
    parts = []
    for t, table in zip(profile.t, mu):
        eu, ev, ew = _part_edge_arrays(table)
        if len(ew) >= 2:  # entries need two distinct edges in the part
            parts.append((1.0 / math.sqrt(t), eu, ev, ew))
    return PairFactors(profile.n, parts)


def _pair_terms(factors: PairFactors):
    """Each part's e != f terms of M in part order, as (row pairs, column pairs, values).

    Every ordered pair of distinct edges e, f of part i, each taken in both
    orientations (p1, q1) and (p2, q2), adds mu_i(e) mu_i(f) s_i at row pair
    p1 n + p2 and column pair q1 n + q2, a position that no other term of
    the part reaches.  A part yields its 4 t_i (t_i - 1) terms at once.
    The e = f terms, D_i, sit at pairs (u, u) x (v, v) and (u, v) x (v, u),
    which no e != f term reaches, so leaving them out leaves those entries 0.
    """
    n = factors.n
    for scale, eu, ev, ew in factors.parts:
        edge = np.arange(2 * len(ew)) % len(ew)  # the edge of each orientation
        distinct = edge[:, None] != edge[None, :]
        p, q, w = np.concatenate([eu, ev]), np.concatenate([ev, eu]), np.concatenate([ew, ew])
        yield (np.add.outer(p * n, p)[distinct], np.add.outer(q * n, q)[distinct],
               (np.multiply.outer(w, w) * scale)[distinct])


def _accumulate_blocks(profile: DegreeProfile, mu: list[dict],
                       partition: WeightClassPartition) -> dict[tuple[int, int], Block]:
    """Every nonzero block of the pair matrix M, from the terms of ``_pair_terms``.

    A side with n^2 <= ``_DENSE_CAP`` pairs adds the terms into a dense M
    part by part with ``np.add.at``, so each entry sums its terms in part
    order with elementwise operations only: no BLAS call, whose bytes would
    follow the thread count.  M takes n^4 <= 2^20 floats (8 MB), and each
    block is cut from it with its all-zero rows and columns dropped.  Every
    block of such a side takes the dense norm path: a diagonal block is
    symmetric with at most |S_j| <= n^2 rows, and an off-diagonal block has
    rows + cols <= |S_j| + |S_k| <= n^2.  A larger side merges the terms
    once into a ``SparseMat``, which drops entries that cancel, and cuts
    every block from the merged entries.  Either way a block's rows and
    columns are the pairs where it has an entry.
    """
    factors = _pair_factors(profile, mu)
    if not factors.parts:
        return {}
    pairs = profile.n ** 2
    classes = partition.class_matrix().ravel()
    blocks: dict[tuple[int, int], Block] = {}
    if pairs <= _DENSE_CAP:
        pair_matrix = np.zeros(pairs * pairs)
        for rows, cols, vals in _pair_terms(factors):
            np.add.at(pair_matrix, rows * pairs + cols, vals)
        pair_matrix = pair_matrix.reshape(pairs, pairs)
        members = [np.flatnonzero(classes == j) for j in range(partition.levels + 1)]
        for j, in_j in enumerate(members):
            for k, in_k in enumerate(members):
                sub = pair_matrix[np.ix_(in_j, in_k)]
                live_rows, live_cols = sub.any(axis=1), sub.any(axis=0)
                if live_rows.any():
                    blocks[(j, k)] = Block(j=j, k=k, mat=sub[np.ix_(live_rows, live_cols)],
                                           row_pairs=in_j[live_rows],
                                           col_pairs=in_k[live_cols], factors=factors)
        return blocks
    terms = (np.concatenate(arrays) for arrays in zip(*_pair_terms(factors)))
    merged = SparseMat.from_arrays(pairs, pairs, *terms)
    side = partition.levels + 1
    codes = classes[merged.r] * side + classes[merged.c]
    order = np.argsort(codes, kind="stable")  # keeps each block's entries in (row, col) order
    ends = np.searchsorted(codes[order], np.arange(side * side + 1))
    for code in range(side * side):
        at = order[ends[code]:ends[code + 1]]
        if len(at):
            row_pairs, r = np.unique(merged.r[at], return_inverse=True)
            col_pairs, c = np.unique(merged.c[at], return_inverse=True)
            j, k = divmod(code, side)
            mat = SparseMat.from_arrays(len(row_pairs), len(col_pairs), r, c, merged.v[at])
            blocks[(j, k)] = Block(j=j, k=k, mat=mat, row_pairs=row_pairs,
                                   col_pairs=col_pairs, factors=factors)
    return blocks


def build_blocks(inst: PartitionedInstance, partition: WeightClassPartition,
                 profile: DegreeProfile | None = None) -> dict[tuple[int, int], Block]:
    """All nonzero weight-class blocks of the canonical pair matrix."""
    profile = profile or degree_profile(inst)
    return _accumulate_blocks(profile, _kept_mu(inst, profile), partition)


# ---------------------------------------------------------------------------
# The potential's constant terms.
# ---------------------------------------------------------------------------

def phi2_term(profile: DegreeProfile) -> float:
    """Phi_2 = sum_i sqrt(t_i), correctly rounded so the verifier compares it exactly."""
    return math.fsum(math.sqrt(t) for t in profile.t)


def dup_correction(inst: PartitionedInstance, profile: DegreeProfile | None = None) -> float:
    """c_0 = Q - Phi_2 with Q = sum_i sum_e mu_i(e)^2 / sqrt(t_i); zero when duplicate-free.

    Both sums are fsums, so the verifier compares c_0 exactly.
    """
    profile = profile or degree_profile(inst)
    q = math.fsum(math.fsum(w * w for w in table.values()) / math.sqrt(t)
                  for t, table in zip(profile.t, _kept_mu(inst, profile)))
    return q - phi2_term(profile)


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

    def to_json_dict(self) -> dict:
        return {
            "j": self.j, "k": self.k, "size_j": self.size_j, "size_k": self.size_k,
            "nnz": self.nnz, "norm_lower": self.norm_lower, "norm_upper": self.norm_upper,
            "contribution": self.contribution, "sigma2": self.sigma2,
            "r_bound": self.r_bound, "bernstein_t": self.bernstein_t,
        }


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
        return {
            "status": self.status, "m": self.m, "n": self.n, "ell_eff": self.ell_eff,
            "eps": self.eps, "d_used": self.d_used, "alpha": self.alpha, "beta": self.beta,
            "beta_clamped": self.beta_clamped, "levels": self.levels,
            "class_sizes": list(self.class_sizes), "phi2_term": self.phi2_term,
            "dup_correction": self.dup_correction, "phi1_bound": self.phi1_bound,
            "phi_total_bound": self.phi_total_bound, "threshold": self.threshold,
            "implied_eps": self.implied_eps, "val_upper": self.val_upper,
            "blocks": [b.to_json_dict() for b in self.blocks],
        }


def block_contribution(size_j: int, size_k: int, norm_upper: float) -> float:
    """A block's share sqrt(|S_j| |S_k|) ||M_{j,k}|| of the Phi_1 bound."""
    return math.sqrt(size_j * size_k) * norm_upper


def assemble_phi_bound(contributions, c0: float, phi2: float, eps: float,
                       m: int, ell_eff: int) -> dict:
    """Pure arithmetic from block contributions to the light-side value bound.

    Returns the report fields phi1_bound, phi_total_bound, threshold,
    implied_eps, val_upper and status.  Prover and verifier both call this
    on the same recorded numbers, so the verifier compares its output
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
    assembled from per-block certified norm uppers; the threshold
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
    blocks = _accumulate_blocks(profile, _kept_mu(inst, profile), partition)
    delta_block = config.block_delta / (partition.levels + 1) ** 2
    records = []
    for key in sorted(blocks):
        block = blocks[key]
        j, k = key
        size_j = partition.sizes[j]
        size_k = partition.sizes[k]
        nb = spectral_norm(block.mat, op=block.power_op)
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
    c0 = dup_correction(inst, profile)
    return DBoundedReport(
        m=m, n=inst.n, ell_eff=ell_eff, eps=eps, d_used=d_used,
        alpha=partition.alpha, beta=partition.beta, beta_clamped=partition.clamped,
        levels=partition.levels, class_sizes=partition.sizes,
        phi2_term=phi2, dup_correction=c0, blocks=tuple(records),
        **assemble_phi_bound([r.contribution for r in records], c0, phi2, eps, m, ell_eff),
    )
