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

import numpy as np

from .instances import KXorInstance, PartitionedInstance


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
    """Move every group S(i, v) of size >= ceil(c_split/eps^2) heavy.

    One pass visits the (part, vertex) keys in ascending order and moves a
    group heavy when its live count is still at least d_cap, in original
    constraint order.  Moving a group only lowers other groups' counts, so a
    key below the cap stays below it: the pass picks the same groups, in the
    same order, as repeatedly stripping the smallest over-cap key until none
    is left.  On exit every group in the light side has size < d_cap.
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
    groups: dict[tuple[int, int], list[int]] = {}
    for j, (p, u, v, _) in enumerate(inst.constraints):
        groups.setdefault((p, u), []).append(j)
        groups.setdefault((p, v), []).append(j)
    counts = {key: len(js) for key, js in groups.items()}
    provenance: list[tuple] = [("light",)] * inst.m
    left_labels: list[tuple[int, int]] = []
    heavy_rows: list[tuple[int, int, int]] = []
    for ti, tv in sorted(groups):
        if counts[(ti, tv)] < d_cap:
            continue
        left_labels.append((ti, tv))
        for j in groups[(ti, tv)]:
            if provenance[j] == ("light",):
                _, u, v, s = inst.constraints[j]
                other = v if u == tv else u
                heavy_rows.append((len(left_labels) - 1, other, s))
                provenance[j] = ("heavy", ti, tv)
                counts[(ti, other)] -= 1
    light = PartitionedInstance(n=inst.n, ell=inst.ell, constraints=tuple(
        c for c, tag in zip(inst.constraints, provenance) if tag == ("light",)))
    heavy = BipartiteInstance(
        left_labels=tuple(left_labels), n_right=inst.n, constraints=tuple(heavy_rows)
    )
    return Decomposition(light=light, heavy=heavy, d_cap=d_cap, provenance=tuple(provenance))


def bipartite_matrix(bip: BipartiteInstance) -> np.ndarray:
    """Signed biadjacency matrix, dense: entry (left, right) sums constraint signs."""
    rows = np.array(bip.constraints, dtype=np.int64).reshape(-1, 3)
    out = np.zeros((len(bip.left_labels), bip.n_right))
    np.add.at(out, (rows[:, 0], rows[:, 1]), rows[:, 2])
    return out
