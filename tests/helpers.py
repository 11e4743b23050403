"""Test-only reference computations: brute force and direct evaluations.

Each one recomputes, the slow and obvious way, something the library derives
cleverly: the heavy/light split by repeated stripping, the signed pair
multiplicities mu_i and the butterfly degrees by loops over the constraints,
the canonical pair matrix over ordered pairs, its fold onto unordered
pairs, its single blocks and single-part blocks, the
potential Phi evaluated directly and through the blocks, the exact block
variance norm, the heavy side pulled back to partitioned constraints, the
heavy side's bipartite relaxation optimum, a rounding lower bound on the
infinity-to-one norm, the mixing solve with one fixed over-relaxation factor
and a gap check at a fixed interval, the digests of instances and subset dictionaries
through json.dumps, and generated clauses drawn by one rng.choice call per row.
"""
from __future__ import annotations

import hashlib
import math
from fractions import Fraction

import numpy as np

from xorcert import (BipartiteInstance, Decomposition, DegreeProfile, PartitionedInstance,
                     WeightClassPartition, bipartite_matrix, brute_force_inf1,
                     brute_force_val, canonical_json, degree_profile, phi2_term)
from xorcert.sdp import (_MIX_CHECK, _MIX_GAP, _MIX_KEY, _MIX_OMEGA, _MIX_PLAIN, _MIX_RAISE,
                         _MIX_SWEEPS, _norms, _on_boundary, _relaxed)
from xorcert.spectral import Block, _accumulate_blocks


def decompose_reference(inst: PartitionedInstance, eps: float, c_split: float = 4.0) -> Decomposition:
    """Repeatedly move every group S(i, v) of size >= ceil(c_split/eps^2) heavy.

    The scan over (part, vertex) keys is lexicographic and restarts after each
    removal batch, so the output is deterministic.  On exit every group in the
    light side has size < d_cap.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if c_split <= 0:
        raise ValueError("c_split must be positive")
    cap = c_split / (eps * eps) if eps * eps > 0 else math.inf
    if not math.isfinite(cap):
        raise ValueError(f"degree cap c_split / eps^2 is not finite "
                         f"(c_split={c_split}, eps={eps})")
    d_cap = math.ceil(cap)
    live = [(p, u, v, s, j) for j, (p, u, v, s) in enumerate(inst.constraints.tolist())]
    provenance: list[int] = [-1] * inst.m  # heavy group index, or -1 for light
    left_labels: list[tuple[int, int]] = []
    heavy_rows: list[tuple[int, int, int]] = []
    while True:
        counts: dict[tuple[int, int], int] = {}
        for p, u, v, _, _ in live:
            counts[(p, u)] = counts.get((p, u), 0) + 1
            counts[(p, v)] = counts.get((p, v), 0) + 1
        target = min((key for key, cnt in counts.items() if cnt >= d_cap), default=None)
        if target is None:
            break
        ti, tv = target
        left_idx = len(left_labels)
        left_labels.append(target)
        stay = []
        for row in live:
            p, u, v, s, j = row
            if p == ti and tv in (u, v):
                heavy_rows.append((left_idx, v if u == tv else u, s))
                provenance[j] = left_idx
            else:
                stay.append(row)
        live = stay
    light = PartitionedInstance(
        n=inst.n, ell=inst.ell, constraints=tuple((p, u, v, s) for p, u, v, s, _ in live)
    )
    heavy = BipartiteInstance(
        left_labels=tuple(left_labels), n_right=inst.n, constraints=tuple(heavy_rows)
    )
    return Decomposition(light=light, heavy=heavy, d_cap=d_cap, provenance=tuple(provenance))


def build_blocks(inst: PartitionedInstance, partition: WeightClassPartition,
                 profile: DegreeProfile | None = None) -> dict[tuple[int, int], Block]:
    """All nonzero weight-class blocks of the canonical pair matrix."""
    profile = profile or degree_profile(inst)
    return _accumulate_blocks(profile, inst.mu_rows(), partition)


def pair_matrix_reference(inst: PartitionedInstance) -> np.ndarray:
    """The canonical pair matrix M over ordered pairs v * n + v', summed term by term.

    Every ordered pair of distinct nonzero edges e, f of a part, each in both
    orientations (p1, q1) and (p2, q2), adds mu(e) mu(f) / sqrt(t) at row
    pair (p1, p2) and column pair (q1, q2).
    """
    n = inst.n
    sizes: dict[int, int] = {}
    for part in inst.constraints[:, 0].tolist():
        sizes[part] = sizes.get(part, 0) + 1
    out = np.zeros((n * n, n * n))
    for part, table in mu_tables(inst).items():
        scale = 1.0 / math.sqrt(sizes[part])
        edges = [(e, w) for e, w in table.items() if w != 0]
        for i, (e, we) in enumerate(edges):
            for j, (f, wf) in enumerate(edges):
                if i != j:
                    for p1, q1 in (e, e[::-1]):
                        for p2, q2 in (f, f[::-1]):
                            out[p1 * n + p2, q1 * n + q2] += we * wf * scale
    return out


def folded_pair_reference(inst: PartitionedInstance) -> np.ndarray:
    """The folded pair matrix C over unordered pairs, in ``np.triu_indices(n)`` order.

    Each part's e != f terms of M, over both edge orders and both
    orientations of each edge, are summed per unordered (row, column)
    position as integers; each sum is scaled once by 1/sqrt(t_i), and the
    parts are added in part order, so C matches the library bit for bit.
    """
    n = inst.n
    index = {pair: i for i, pair in enumerate((u, v) for u in range(n) for v in range(u, n))}
    sizes: dict[int, int] = {}
    for part in inst.constraints[:, 0].tolist():
        sizes[part] = sizes.get(part, 0) + 1
    out = np.zeros((len(index), len(index)))
    for part, table in mu_tables(inst).items():
        edges = [(e, w) for e, w in table.items() if w != 0]
        sums: dict[tuple[int, int], int] = {}
        for i, (e, we) in enumerate(edges):
            for j, (f, wf) in enumerate(edges):
                if i != j:
                    for p1, q1 in (e, e[::-1]):
                        for p2, q2 in (f, f[::-1]):
                            at = (index[min(p1, p2), max(p1, p2)],
                                  index[min(q1, q2), max(q1, q2)])
                            sums[at] = sums.get(at, 0) + we * wf
        scale = 1.0 / math.sqrt(sizes[part])
        for at, total in sums.items():
            out[at] += total * scale
    return out


def ordered_block(inst: PartitionedInstance, partition: WeightClassPartition,
                  j: int, k: int) -> np.ndarray:
    """The explicit (j, k) block of M over ordered pairs, all-zero rows and columns dropped."""
    classes = partition.classes.ravel()
    sub = pair_matrix_reference(inst)[np.ix_(classes == j, classes == k)]
    return sub[np.ix_(sub.any(axis=1), sub.any(axis=0))]


def symmetric_block_norm(inst: PartitionedInstance, partition: WeightClassPartition,
                         j: int, k: int) -> float:
    """Top singular value of the ordered (j, k) block on swap-symmetric vectors.

    The basis is orthonormal: (e_(u,v) + e_(v,u)) / sqrt(2) for u < v and
    e_(u,u), over the unordered pairs of each class.
    """
    n = inst.n

    def basis(cls: int) -> np.ndarray:
        columns = []
        for u in range(n):
            for v in range(u, n):
                if partition.classes[u, v] == cls:
                    e = np.zeros(n * n)
                    e[u * n + v] = e[v * n + u] = 1.0 if u == v else 1.0 / math.sqrt(2.0)
                    columns.append(e)
        return np.array(columns).reshape(-1, n * n).T

    sub = basis(j).T @ pair_matrix_reference(inst) @ basis(k)
    return float(np.linalg.svd(sub, compute_uv=False)[0]) if sub.size else 0.0


def build_part_block(inst: PartitionedInstance, partition: WeightClassPartition,
                     slot: int, j: int, k: int) -> np.ndarray:
    """Single-part contribution B_{i,j,k} over ordered pairs (for bound cross-checks)."""
    part = degree_profile(inst).part_ids[slot]
    rows = inst.constraints[inst.constraints[:, 0] == part]
    one = PartitionedInstance(n=inst.n, ell=inst.ell, constraints=rows)
    return ordered_block(one, partition, j, k)


def mu_tables(inst: PartitionedInstance) -> dict[int, dict[tuple[int, int], int]]:
    """Per nonempty part, in part order, the signed multiplicity mu_i(e) of each pair e."""
    mu: dict[int, dict[tuple[int, int], int]] = {}
    for part, u, v, s in sorted(inst.constraints.tolist()):
        table = mu.setdefault(part, {})
        table[(u, v)] = table.get((u, v), 0) + s
    return mu


def butterfly_reference(inst: PartitionedInstance) -> dict[tuple[int, int], float]:
    """gamma(v, v') = sum_i deg_i(v) deg_i(v') / t_i over the pairs some part supports.

    Each part adds its terms in part order, as ``butterfly`` does.
    """
    t: dict[int, int] = {}
    deg: dict[int, dict[int, int]] = {}
    for part, u, v, _ in inst.constraints.tolist():
        t[part] = t.get(part, 0) + 1
        table = deg.setdefault(part, {})
        table[u] = table.get(u, 0) + 1
        table[v] = table.get(v, 0) + 1
    gamma: dict[tuple[int, int], float] = {}
    for part in sorted(t):
        for v in sorted(deg[part]):
            for vp in sorted(deg[part]):
                gamma[(v, vp)] = gamma.get((v, vp), 0.0) + deg[part][v] * deg[part][vp] / t[part]
    return gamma


def phi_direct(inst: PartitionedInstance, x: np.ndarray) -> float:
    """Phi(x) = sum_i b_i(x)^2 / sqrt(t_i), evaluated directly."""
    profile = degree_profile(inst)
    out = 0.0
    for t, table in zip(profile.t, mu_tables(inst).values()):
        b = sum(w * x[u] * x[v] for (u, v), w in table.items())
        out += b * b / math.sqrt(t)
    return float(out)


def phi1_direct(inst: PartitionedInstance, x: np.ndarray) -> float:
    """Phi_1(x) = sum_i (b_i(x)^2 - t_i) / sqrt(t_i)."""
    profile = degree_profile(inst)
    return phi_direct(inst, x) - phi2_term(profile)


def phi1_from_blocks(blocks: dict[tuple[int, int], Block], x: np.ndarray,
                     c0: float, n: int) -> float:
    """Evaluate Phi_1 through the folded blocks' quadratic form; exact identity check."""
    form = 0.0
    for block in blocks.values():
        zr = x[block.row_pairs // n] * x[block.row_pairs % n]
        zc = x[block.col_pairs // n] * x[block.col_pairs % n]
        form += float(zr @ (block.mat @ zc))
    return form / 4.0 + c0


def _fourth_moment(groups: dict[tuple[int, int], int], dup: dict) -> float:
    # E[prod mu(e_i)] over independent signed multiplicities: odd powers vanish,
    # E[mu^2] = D, E[mu^4] = 3D^2 - 2D
    out = 1.0
    for pair, count in groups.items():
        d_val = dup.get(pair, 0)
        if count % 2 == 1:
            return 0.0
        if count == 2:
            out *= d_val
        elif count == 4:
            out *= 3.0 * d_val * d_val - 2.0 * d_val
        else:
            raise AssertionError("pair group count must be in {1, 2, 3, 4}")
    return out


def empirical_variance_norm(inst: PartitionedInstance, partition: WeightClassPartition,
                            j: int, k: int) -> float:
    """Exact ||sum_i E[B_i B_i^T]|| over random signs, from pair multiplicities.

    Small instances only: enumerates the class pairs directly.
    """
    n = inst.n
    if n > 16:
        raise ValueError("empirical variance check is for small instances")
    pairs_j = [(v, vp) for v in range(n) for vp in range(n)
               if partition.classes[v, vp] == j]
    pairs_k = [(w, wp) for w in range(n) for wp in range(n)
               if partition.classes[w, wp] == k]
    if not pairs_j or not pairs_k:
        return 0.0
    dups: dict[int, dict[tuple[int, int], int]] = {}  # per part: pair -> multiplicity
    for part, u, v, _ in inst.constraints:
        table = dups.setdefault(part, {})
        table[(u, v)] = table.get((u, v), 0) + 1
    idx = {p: i for i, p in enumerate(pairs_j)}
    x = np.zeros((len(pairs_j), len(pairs_j)))
    for _, dup in sorted(dups.items()):
        t = sum(dup.values())
        for p_row in pairs_j:
            for p_col in pairs_j:
                total = 0.0
                for q in pairs_k:
                    e1 = tuple(sorted((p_row[0], q[0])))
                    e2 = tuple(sorted((p_row[1], q[1])))
                    e3 = tuple(sorted((p_col[0], q[0])))
                    e4 = tuple(sorted((p_col[1], q[1])))
                    if e1 == e2 or e3 == e4:  # excluded from the block matrix
                        continue
                    groups: dict[tuple[int, int], int] = {}
                    for e in (e1, e2, e3, e4):
                        groups[e] = groups.get(e, 0) + 1
                    total += _fourth_moment(groups, dup)
                x[idx[p_row], idx[p_col]] += total / t
    return float(np.abs(np.linalg.eigvalsh(x)).max())


def heavy_sub_instance(dec: Decomposition) -> PartitionedInstance | None:
    """Pull the heavy side back to original (part, pair, sign) constraints."""
    if dec.heavy.m == 0:
        return None
    rows = []
    ell = 1
    n = dec.heavy.n_right
    for left_idx, right, s in dec.heavy.constraints:
        part, vertex = dec.heavy.left_labels[left_idx]
        u, v = min(vertex, right), max(vertex, right)
        rows.append((part, u, v, s))
        ell = max(ell, part + 1)
    return PartitionedInstance.make(n=n, ell=ell, constraints=rows)


def heavy_value_dominates(dec: Decomposition, cap: int = 24) -> bool:
    """Brute-check that the bipartite relaxation's optimum dominates.

    The relaxation frees each (part, vertex) group into its own left variable,
    so its optimum can only rise relative to the heavy partitioned constraints.
    """
    if dec.heavy.m == 0:
        return True
    sub = heavy_sub_instance(dec)
    val_heavy, _ = brute_force_val(sub, cap=cap)
    mat = bipartite_matrix(dec.heavy)
    if mat.shape[0] > mat.shape[1]:
        mat = mat.T
    pmn = brute_force_inf1(mat)
    m2 = dec.heavy.m
    val_bip = Fraction(m2 + round(pmn), 2 * m2)  # integer matrix, so pmn is integral
    return val_bip >= val_heavy


def inf1_lower_round(m: np.ndarray, trials: int = 32, seed: int = 0):
    """Heuristic lower bound max x^T M y over sign vectors, via rounding + ascent."""
    a, b = m.shape
    if not m.any():
        return 0.0, np.ones(a), np.ones(b)

    def ascent(y: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
        x = np.where(m @ y >= 0, 1.0, -1.0)
        val = float(x @ (m @ y))
        for _ in range(100):
            y2 = np.where(m.T @ x >= 0, 1.0, -1.0)
            x2 = np.where(m @ y2 >= 0, 1.0, -1.0)
            v2 = float(x2 @ (m @ y2))
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


def mixing_solve_reference(m: np.ndarray) -> np.ndarray:
    """``sdp._mixing_solve`` with omega fixed at _MIX_OMEGA and a check every fixed interval.

    _MIX_PLAIN plain sweeps, then every sweep over-relaxed by _MIX_OMEGA,
    and a gap check every ceil(_MIX_CHECK * min(a, b) / r) sweeps; the same
    start, sweeps, stop and raise as the library's solve, so both stop
    within _MIX_GAP of the SDP optimum and round onto one certificate.
    """
    a, b = m.shape
    rank = math.ceil(math.sqrt(2 * (a + b))) + 1
    every = max(1, math.ceil(_MIX_CHECK * min(a, b) / rank))
    v = np.random.Generator(np.random.Philox(key=_MIX_KEY)).standard_normal((a + b, rank))
    v /= np.linalg.norm(v, axis=1)[:, None]
    v_left, v_right = v[:a], v[a:]
    g = m @ v_right
    d_left = _norms(g)
    for sweep in range(1, _MIX_SWEEPS + 1):
        omega = 1.0 if sweep <= _MIX_PLAIN else _MIX_OMEGA
        v_left = _relaxed(g, d_left, v_left, omega)
        h = m.T @ v_left
        d_right = _norms(h)
        v_right = _relaxed(h, d_right, v_right, omega)
        g = m @ v_right
        d_left = _norms(g)
        if sweep % every and sweep < _MIX_SWEEPS:
            continue
        d = _on_boundary(m, d_left, d_right)
        dual = math.fsum(d) / 2.0
        if dual - float(np.einsum("ij,ij->", v_left, g)) <= _MIX_GAP * dual:
            break
    return d * _MIX_RAISE


def json_digest(data: dict) -> str:
    """SHA-256 hex digest of canonical_json(data), rows and all through json.dumps.

    The reference for instance_digest(inst), which must equal
    json_digest(to_json_dict(inst)), and for SubsetDictionary.digest.
    """
    return hashlib.sha256(canonical_json(data).encode("utf-8")).hexdigest()


def draw_sorted_reference(rng: np.random.Generator, n: int, k: int, m: int) -> np.ndarray:
    """m rows of k distinct vertices from range(n), one rng.choice call per row, each sorted.

    The reference for generate._draw_sorted, which must return the same rows
    and leave rng in the same state.
    """
    rows = np.array([rng.choice(n, size=k, replace=False) for _ in range(m)], dtype=np.int64)
    return np.sort(rows.reshape(m, k), axis=1)
