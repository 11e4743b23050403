"""Reduction from k-XOR to partitioned 2-XOR, and heavy/light decomposition.

The reduction splits each clause into two disjoint half-subsets indexed
through a subset dictionary (identity when the halves are singletons); odd
arities single out the minimum vertex as the part index.  Any assignment of
the original instance extends to the reduced one with the same satisfied
fraction, so reduced-value upper bounds transfer back.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .instances import KXorInstance, PartitionedInstance
from .linalg import SparseMat


@dataclass(frozen=True)
class SubsetDictionary:
    """Bijection between the subset vertices of a reduced instance and k/2-subsets."""

    subset_size: int
    subsets: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.subset_size < 1:
            raise ValueError("subset_size must be positive")
        seen = set()
        for sub in self.subsets:
            if len(sub) != self.subset_size:
                raise ValueError(f"subset {sub} has wrong size")
            if tuple(sorted(sub)) != sub:
                raise ValueError(f"subset {sub} must be sorted")
            if sub in seen:
                raise ValueError(f"duplicate subset {sub}")
            seen.add(sub)

    def index_of(self, subset: tuple[int, ...]) -> int:
        try:
            return self.subsets.index(subset)
        except ValueError:
            raise KeyError(f"subset {subset} not in dictionary") from None

    def to_json_dict(self) -> dict:
        return {"subset_size": self.subset_size, "subsets": [list(s) for s in self.subsets]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "SubsetDictionary":
        return cls(
            subset_size=int(data["subset_size"]),
            subsets=tuple(tuple(int(v) for v in s) for s in data["subsets"]),
        )


@dataclass(frozen=True)
class ReducedKXor:
    """Result of the k-XOR -> partitioned 2-XOR reduction."""

    psi: PartitionedInstance
    dictionary: SubsetDictionary


class _DictBuilder:
    def __init__(self, size: int, n: int):
        self.size = size
        if size == 1:
            # identity dictionary: subset {v} gets index v
            self.order = [(v,) for v in range(n)]
            self.index = {(v,): v for v in range(n)}
        else:
            self.order: list[tuple[int, ...]] = []
            self.index: dict[tuple[int, ...], int] = {}

    def get(self, subset: tuple[int, ...]) -> int:
        if subset not in self.index:
            self.index[subset] = len(self.order)
            self.order.append(subset)
        return self.index[subset]


def kxor_to_partitioned(inst: KXorInstance) -> ReducedKXor:
    """Split every clause into two half-subsets; odd k parts on the min vertex."""
    if inst.m == 0:
        raise ValueError("empty instance")
    k = inst.k
    if k % 2 == 0:
        half = k // 2
        ell = 1
    else:
        half = (k - 1) // 2
        ell = inst.n
    builder = _DictBuilder(half, inst.n)
    rows = []
    for cl, s in zip(inst.clauses, inst.signs):
        if k % 2 == 0:
            part = 0
            rest = cl
        else:
            part = cl[0]  # clauses are sorted, so cl[0] is the min vertex
            rest = cl[1:]
        e1 = rest[:half]
        e2 = rest[half:]
        a = builder.get(e1)
        b = builder.get(e2)
        rows.append((part, min(a, b), max(a, b), s))
    dictionary = SubsetDictionary(subset_size=half, subsets=tuple(builder.order))
    n_psi = len(builder.order) if half > 1 else inst.n
    psi = PartitionedInstance(n=n_psi, ell=ell, constraints=tuple(rows))
    return ReducedKXor(psi=psi, dictionary=dictionary)


@dataclass(frozen=True)
class BipartiteInstance:
    """2-XOR over a bipartition: left variables are relabeled (part, vertex) groups."""

    left_labels: tuple[tuple[int, int], ...]
    n_right: int
    constraints: tuple[tuple[int, int, int], ...]  # (left index, right vertex, sign)

    def __post_init__(self) -> None:
        if len(set(self.left_labels)) != len(self.left_labels):
            raise ValueError("left labels must be distinct")
        for left, right, s in self.constraints:
            if not 0 <= left < len(self.left_labels):
                raise ValueError(f"left index {left} out of range")
            if not 0 <= right < self.n_right:
                raise ValueError(f"right vertex {right} out of range")
            if s not in (-1, 1):
                raise ValueError(f"sign must be +1 or -1, got {s!r}")

    @property
    def m(self) -> int:
        return len(self.constraints)


@dataclass(frozen=True)
class Decomposition:
    """Heavy/light split of a partitioned instance at group-size cap d_cap."""

    light: PartitionedInstance
    heavy: BipartiteInstance
    d_cap: int
    provenance: tuple[tuple, ...]  # per original constraint: ("light",) or ("heavy", part, vertex)

    @property
    def m_light(self) -> int:
        return self.light.m

    @property
    def m_heavy(self) -> int:
        return self.heavy.m


def decompose(inst: PartitionedInstance, eps: float, c_split: float = 4.0) -> Decomposition:
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
    live = [(p, u, v, s, j) for j, (p, u, v, s) in enumerate(inst.constraints)]
    provenance: list[tuple] = [("light",)] * inst.m
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
                provenance[j] = ("heavy", ti, tv)
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


def bipartite_matrix(bip: BipartiteInstance) -> SparseMat:
    """Signed biadjacency matrix: entry (left, right) sums constraint signs."""
    return SparseMat.from_entries(
        len(bip.left_labels), bip.n_right,
        ((left, right, float(s)) for left, right, s in bip.constraints),
    )
