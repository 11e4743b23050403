"""Instance generators: fully random k-XOR and adversarial sign-random families.

All randomness flows through numpy's Philox counter-based generator keyed by
the GenSpec seed, so instances are reproducible across platforms.  Adversarial
families fix the clause hypergraph as a deterministic function of the family
parameters; re-seeding changes only the sign vector.  Random clauses are
drawn for all rows at once by one bounded-integer call that consumes exactly
the draws of numpy's per-row rng.choice (see _draw_sorted), so the seeded
streams, and the instances drawn from them, are those of the per-row loop.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .instances import KXorInstance, PartitionedInstance, _count

# constant key for seed-independent background clauses in adversarial families
_BACKGROUND_KEY = 0x9E3779B97F4A7C15

FAMILIES = ("random", "star", "heavy-group", "clustered")


@dataclass(frozen=True)
class GenSpec:
    """Parameters of a generated instance family."""

    kind: str
    n: int
    m: int
    seed: int
    k: int | None = None
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if _count(self.n, "n") < 1:
            raise ValueError("n must be positive")
        if _count(self.m, "m") < 1:
            raise ValueError("m must be positive")
        _count(self.seed, "seed")
        if self.k is not None:
            _count(self.k, "k")


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed))


def _draw_sorted(rng: np.random.Generator, n: int, k: int, m: int) -> np.ndarray:
    """m rows of k distinct vertices from range(n), each sorted, drawn from the
    same Philox stream as m calls of rng.choice(n, size=k, replace=False).

    For n <= 10000 or k <= n // 50, choice runs Floyd's algorithm: k bounded
    draws on [0, j] for j = n-k .. n-1, a draw that repeats an earlier pick
    replaced by j, then a shuffle of the picks that draws on [0, i] for
    i = k-1 .. 1.  integers with an array of bounds uses the same bounded
    draw, so one call on the tiled bounds consumes the loop's Philox stream;
    the repeats are resolved column by column, and the shuffle's draws are
    dropped since each row is sorted.  numpy's other branch, a tail shuffle
    of range(n), keeps the per-row call.  tests/helpers.py keeps the loop,
    and a test compares the rows and the generator state after them, so a
    numpy release that changes choice's draws fails there.
    """
    if n > 10000 and k > n // 50:
        rows = [rng.choice(n, size=k, replace=False) for _ in range(m)]
        return np.sort(np.array(rows, dtype=np.int64).reshape(m, k), axis=1)
    highs = np.concatenate([np.arange(n - k + 1, n + 1), np.arange(k, 1, -1)])
    draws = rng.integers(0, np.tile(highs, m)).reshape(m, 2 * k - 1)
    rows = draws[:, :k].copy()
    for c in range(1, k):
        repeat = (rows[:, :c] == rows[:, c:c + 1]).any(axis=1)
        rows[repeat, c] = n - k + c
    return np.sort(rows, axis=1)


def _require_k(spec: GenSpec) -> int:
    if spec.k is None:
        raise ValueError(f"family {spec.kind!r} requires k")
    if spec.k < 2:
        raise ValueError("arity k must be >= 2")
    if spec.k > spec.n:
        raise ValueError(f"cannot draw {spec.k} distinct vertices from n={spec.n}")
    return spec.k


def gen_random_kxor(spec: GenSpec) -> KXorInstance:
    """Fully random k-XOR: uniform k-subsets and uniform signs."""
    k = _require_k(spec)
    rng = _rng(spec.seed)
    clauses = _draw_sorted(rng, spec.n, k, spec.m)
    signs = 2 * rng.integers(0, 2, size=spec.m) - 1
    return KXorInstance(n=spec.n, k=k, clauses=clauses, signs=signs)


def _star_clauses(n: int, k: int, m: int) -> np.ndarray:
    # every clause contains vertex 0; the rest walk a fixed cycle over [1, n)
    rest = 1 + (np.arange(m)[:, None] * (k - 1) + np.arange(k - 1)) % (n - 1)
    return np.sort(np.column_stack([np.zeros(m, dtype=np.int64), rest]), axis=1)


def _heavy_group_clauses(n: int, k: int, m: int, group_size: int) -> np.ndarray:
    # group clauses share their first k-1 vertices, so after reduction they all
    # meet one subset group; remaining clauses are a seed-independent background
    if group_size < 1 or group_size > m:
        raise ValueError("group_size must lie in [1, m]")
    if n < k + 1:
        raise ValueError("heavy-group family needs n >= k + 1")
    last = k - 1 + np.arange(group_size) % (n - k + 1)
    group = np.column_stack([np.broadcast_to(np.arange(k - 1), (group_size, k - 1)), last])
    return np.concatenate([group, _draw_sorted(_rng(_BACKGROUND_KEY), n, k, m - group_size)])


def _clustered_clauses(n: int, k: int, m: int, cluster_size: int) -> np.ndarray:
    # all clauses inside a small vertex cluster, cycling its k-subsets
    if cluster_size < k or cluster_size > n:
        raise ValueError("cluster_size must lie in [k, n]")
    subsets = np.array(list(itertools.islice(itertools.combinations(range(cluster_size), k), m)))
    return subsets[np.arange(m) % len(subsets)]


def gen_adversarial_hypergraph(spec: GenSpec) -> KXorInstance:
    """Adversarial clause hypergraph fixed by family parameters; signs from seed."""
    k = _require_k(spec)
    if spec.kind == "star":
        if spec.n < 2:
            raise ValueError("star family needs n >= 2")
        clauses = _star_clauses(spec.n, k, spec.m)
    elif spec.kind == "heavy-group":
        group_size = _count(spec.params.get("group_size", min(8, spec.m)), "group_size")
        clauses = _heavy_group_clauses(spec.n, k, spec.m, group_size)
    elif spec.kind == "clustered":
        cluster_size = _count(spec.params.get("cluster_size", min(spec.n, max(k + 1, 2 * k))),
                              "cluster_size")
        clauses = _clustered_clauses(spec.n, k, spec.m, cluster_size)
    else:
        raise ValueError(f"unknown adversarial family {spec.kind!r}")
    signs = 2 * _rng(spec.seed).integers(0, 2, size=spec.m) - 1
    return KXorInstance(n=spec.n, k=k, clauses=clauses, signs=signs)


def gen_kxor(spec: GenSpec) -> KXorInstance:
    """Dispatch on spec.kind over all supported k-XOR families."""
    if spec.kind == "random":
        return gen_random_kxor(spec)
    if spec.kind in FAMILIES:
        return gen_adversarial_hypergraph(spec)
    raise ValueError(f"unknown family {spec.kind!r}")


def gen_random_partitioned(n: int, ell: int, m: int, seed: int) -> PartitionedInstance:
    """Uniform partitioned 2-XOR: random parts, random pairs, random signs."""
    if _count(n, "n") < 2:
        raise ValueError("n must be >= 2")
    if _count(ell, "ell") < 1 or _count(m, "m") < 1:
        raise ValueError("ell and m must be positive")
    _count(seed, "seed")
    rng = _rng(seed)
    parts = rng.integers(0, ell, size=m)
    pairs = _draw_sorted(rng, n, 2, m)
    signs = 2 * rng.integers(0, 2, size=m) - 1
    return PartitionedInstance(n=n, ell=ell, constraints=np.column_stack([parts, pairs, signs]))
