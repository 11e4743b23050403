"""Brute-force ground truth for small instances and matrices.

Enumeration is over x only: for a fixed x the best part variable is
y_i = sign(b_i(x)), so each part contributes (t_i + |b_i(x)|)/2 satisfied
constraints.  Counts stay integral throughout, so values are exact.
"""
from __future__ import annotations

from fractions import Fraction

import numpy as np

from .instances import Assignment, KXorInstance, PartitionedInstance


def _clause_mask(vertices) -> np.uint64:
    mask = 0
    for v in vertices:
        mask |= 1 << v
    return np.uint64(mask)


def _parity_signs(idx: np.ndarray, mask: np.uint64) -> np.ndarray:
    # x_j = 1 - 2*bit_j, so prod over the clause is (-1)^popcount(idx & mask)
    par = (np.bitwise_count(idx & mask) & np.uint64(1)).astype(np.int64)
    return 1 - 2 * par


def _assignment_from_index(idx: int, n: int) -> tuple[int, ...]:
    return tuple(1 - 2 * ((idx >> j) & 1) for j in range(n))


def brute_force_val(inst, cap: int = 24) -> tuple[Fraction, Assignment]:
    """Exact optimum value and a maximizing assignment (smallest index on ties)."""
    if isinstance(inst, KXorInstance):
        dims = inst.n
    elif isinstance(inst, PartitionedInstance):
        dims = inst.n + inst.ell
    else:
        raise TypeError(f"unsupported instance type {type(inst).__name__}")
    if dims > cap:
        raise ValueError(f"instance enumerates {dims} variables, cap is {cap}")
    if inst.m == 0:
        raise ValueError("empty instance")

    idx = np.arange(1 << inst.n, dtype=np.uint64)
    if isinstance(inst, KXorInstance):
        # aggregate duplicate clauses into signed multiplicities first
        mu: dict[tuple[int, ...], int] = {}
        for cl, s in zip(inst.clauses, inst.signs):
            mu[cl] = mu.get(cl, 0) + s
        total = np.zeros(len(idx), dtype=np.int64)
        for cl, weight in sorted(mu.items()):
            if weight != 0:
                total += weight * _parity_signs(idx, _clause_mask(cl))
        sat = (inst.m + total) // 2
        best = int(np.argmax(sat))
        x = _assignment_from_index(best, inst.n)
        return Fraction(int(sat[best]), inst.m), Assignment(x=x)

    # partitioned: sum |b_i(x)| over nonempty parts
    score = np.zeros(len(idx), dtype=np.int64)
    tables = inst.mu_tables()
    for table in tables:
        if not table:
            continue
        b = np.zeros(len(idx), dtype=np.int64)
        for (u, v), weight in sorted(table.items()):
            if weight != 0:
                b += weight * _parity_signs(idx, _clause_mask((u, v)))
        score += np.abs(b)
    sat = (inst.m + score) // 2
    best = int(np.argmax(sat))
    x = _assignment_from_index(best, inst.n)
    y = []
    for table in inst.mu_tables():
        b = 0
        for (u, v), weight in table.items():
            b += weight * x[u] * x[v]
        y.append(1 if b >= 0 else -1)
    return Fraction(int(sat[best]), inst.m), Assignment(x=x, y=tuple(y))


def brute_force_inf1(m: np.ndarray, cap: int = 14) -> float:
    """Exact max_{x,y in +/-1} x^T M y of the dense array m by enumerating the row side."""
    rows, cols = m.shape
    if max(rows, cols) > cap:
        raise ValueError(f"matrix side {max(rows, cols)} exceeds cap {cap}")
    if not m.any():
        return 0.0
    idx = np.arange(1 << rows, dtype=np.uint64)
    bits = (idx[:, None] >> np.arange(rows, dtype=np.uint64)[None, :]) & np.uint64(1)
    signs = 1.0 - 2.0 * bits.astype(np.float64)
    # for fixed x the best y is sign(M^T x), giving sum_j |(M^T x)_j|
    return float(np.abs(signs @ m).sum(axis=1).max())
