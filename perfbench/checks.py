"""Correctness checks that do not trust xorcert's own evaluators.

An instance is handled here as two arrays: ``clauses`` of shape (m, k)
holding variable indices, and ``signs`` of shape (m,) holding +1 or -1.
Clause c reads prod_{v in c} x[v] == signs[c] for x in {-1, +1}^n.  Nothing
here imports ``xorcert``: the values it computes are the independent
reference the benchmark holds every certified upper bound against.
"""
from __future__ import annotations

import math

import numpy as np


def clause_arrays(clauses, signs) -> tuple[np.ndarray, np.ndarray]:
    """(m, k) int64 clause array and (m,) int64 sign array."""
    return (np.asarray(clauses, dtype=np.int64).reshape(len(signs), -1),
            np.asarray(signs, dtype=np.int64))


def satisfied(clauses: np.ndarray, signs: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Number of satisfied clauses under each row of xs (shape (r, n) or (n,))."""
    xs = np.atleast_2d(xs)
    prods = xs[:, clauses].prod(axis=2)  # (r, m)
    return (prods == signs).sum(axis=1)


def exhaustive_best(clauses: np.ndarray, signs: np.ndarray, n: int) -> int:
    """Largest number of clauses any assignment satisfies, by enumerating all 2^n.

    The signed sum f(x) = sum_c signs[c] * prod_{v in c} x[v] has one Fourier
    coefficient per clause, so a Walsh-Hadamard transform of the coefficient
    vector gives f at every x at once; clause count satisfied = (m + f) / 2.
    Bit i of an index b set means x[i] = -1.
    """
    if n > 24:
        raise ValueError(f"exhaustive enumeration needs n <= 24, got {n}")
    masks = (np.int64(1) << clauses).sum(axis=1)
    coeff = np.zeros(1 << n, dtype=np.int64)
    np.add.at(coeff, masks, signs)
    for i in range(n):  # in place, so the check adds little to the run's peak RSS
        pairs = coeff.reshape(-1, 2, 1 << i)
        low = pairs[:, 0].copy()
        pairs[:, 0] += pairs[:, 1]
        pairs[:, 1] = low - pairs[:, 1]
    return (len(signs) + int(coeff.max())) // 2


def local_search_best(clauses: np.ndarray, signs: np.ndarray, n: int,
                      rng: np.random.Generator, restarts: int = 4) -> int:
    """Best clause count over seeded greedy single-flip ascents from random starts."""
    k = clauses.shape[1]
    flat = clauses.reshape(-1)
    best = 0
    for _ in range(restarts):
        x = rng.choice(np.array([-1, 1]), size=n)
        while True:
            sat = signs * x[clauses].prod(axis=1)  # +1 satisfied, -1 not
            # flipping v negates every clause through v: change = -2 * sum sat
            gain = -2.0 * np.bincount(flat, weights=np.repeat(sat, k), minlength=n)
            v = int(np.argmax(gain))
            if gain[v] <= 0:
                break
            x[v] = -x[v]
        best = max(best, int((sat == 1).sum()))
    return best


def shave(payload: dict) -> dict:
    """A copy of a certificate payload whose certified_val_upper is one ulp lower."""
    out = dict(payload)
    out["certified_val_upper"] = math.nextafter(payload["certified_val_upper"], -math.inf)
    return out
