"""Reduction from k-XOR to partitioned 2-XOR, and heavy/light decomposition.

The reduction splits each clause into two disjoint half-subsets indexed
through a subset dictionary (identity when the halves are singletons); odd
arities single out the minimum vertex as the part index.  Any assignment of
the original instance extends to the reduced one with the same satisfied
fraction, so reduced-value upper bounds transfer back.

Both steps read and write read-only int64 arrays with one row per
constraint or per subset: the dictionary lists its subsets in the order the
clauses first use them, and the decomposition's ``provenance`` holds, per
original constraint, its heavy group's index or -1 for a light constraint.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .instances import KXorInstance, PartitionedInstance, ValueEq, int_rows, reject_rows


@dataclass(frozen=True, eq=False)
class SubsetDictionary(ValueEq):
    """Bijection between the subset vertices of a reduced instance and k/2-subsets.

    Row i of ``subsets`` is the sorted subset behind vertex i.
    """

    subset_size: int
    subsets: np.ndarray  # (n_psi, subset_size) int64

    def __post_init__(self) -> None:
        if self.subset_size < 1:
            raise ValueError("subset_size must be positive")
        subsets = int_rows(self.subsets, self.subset_size, "subsets")
        reject_rows((np.diff(subsets, axis=1) <= 0).any(axis=1), subsets,
                    "subset must be sorted and distinct")
        if len(np.unique(subsets, axis=0)) != len(subsets):
            raise ValueError("duplicate subset")
        object.__setattr__(self, "subsets", subsets)

    def to_json_dict(self) -> dict:
        return {"subset_size": self.subset_size, "subsets": self.subsets.tolist()}


@dataclass(frozen=True)
class ReducedKXor:
    """Result of the k-XOR -> partitioned 2-XOR reduction."""

    psi: PartitionedInstance
    dictionary: SubsetDictionary


def kxor_to_partitioned(inst: KXorInstance) -> ReducedKXor:
    """Split every clause into two half-subsets; odd k parts on the min vertex."""
    if inst.m == 0:
        raise ValueError("empty instance")
    m, k = inst.m, inst.k
    half = k // 2
    if k % 2 == 0:
        ell, part, rest = 1, np.zeros(m, dtype=np.int64), inst.clauses
    else:  # clauses are sorted, so column 0 holds the min vertex
        ell, part, rest = inst.n, inst.clauses[:, 0], inst.clauses[:, 1:]
    halves = rest.reshape(2 * m, half)  # each clause's two halves, in clause order
    if half == 1:  # identity dictionary: subset {v} gets index v
        subsets, ids = np.arange(inst.n).reshape(-1, 1), halves[:, 0]
    else:  # index the distinct halves in first-seen order
        unique, first, inverse = np.unique(halves, axis=0, return_index=True,
                                           return_inverse=True)
        seen = np.argsort(first)
        subsets, ids = unique[seen], np.argsort(seen)[inverse.reshape(-1)]
    a, b = ids.reshape(m, 2).T
    rows = np.column_stack([part, np.minimum(a, b), np.maximum(a, b), inst.signs])
    psi = PartitionedInstance(n=len(subsets), ell=ell, constraints=rows)
    return ReducedKXor(psi=psi, dictionary=SubsetDictionary(subset_size=half, subsets=subsets))


@dataclass(frozen=True, eq=False)
class BipartiteInstance(ValueEq):
    """2-XOR over a bipartition: left variables are relabeled (part, vertex) groups."""

    left_labels: np.ndarray  # (groups, 2) int64 rows (part, vertex)
    n_right: int
    constraints: np.ndarray  # (m, 3) int64 rows (left index, right vertex, sign)

    def __post_init__(self) -> None:
        labels = int_rows(self.left_labels, 2, "left labels")
        rows = int_rows(self.constraints, 3, "constraints")
        if len(np.unique(labels, axis=0)) != len(labels):
            raise ValueError("left labels must be distinct")
        left, right, s = rows.T
        reject_rows((left < 0) | (left >= len(labels)), rows, "left index out of range")
        reject_rows((right < 0) | (right >= self.n_right), rows, "right vertex out of range")
        reject_rows(np.abs(s) != 1, rows, "sign must be +1 or -1")
        object.__setattr__(self, "left_labels", labels)
        object.__setattr__(self, "constraints", rows)

    @property
    def m(self) -> int:
        return len(self.constraints)


@dataclass(frozen=True, eq=False)
class Decomposition(ValueEq):
    """Heavy/light split of a partitioned instance at group-size cap d_cap."""

    light: PartitionedInstance
    heavy: BipartiteInstance
    d_cap: int
    provenance: np.ndarray  # per original constraint: its heavy group's index, or -1

    def __post_init__(self) -> None:
        object.__setattr__(self, "provenance", int_rows(self.provenance, None, "provenance"))

    @property
    def m_light(self) -> int:
        return self.light.m

    @property
    def m_heavy(self) -> int:
        return self.heavy.m


def decompose(inst: PartitionedInstance, eps: float, c_split: float = 4.0) -> Decomposition:
    """Move every group S(i, v) of size >= ceil(c_split/eps^2) heavy.

    One pass visits the (part, vertex) keys whose initial count reaches
    d_cap in ascending order, and moves a group's live members heavy when
    its live count is still at least d_cap.  Moving a group only lowers
    other groups' counts, so a key below the cap stays below it: the pass
    picks the same groups, in the same order, as repeatedly stripping the
    smallest over-cap key until none is left.  The heavy side lists the
    groups in that order, each group's constraints in original order.  On
    exit every group in the light side has size < d_cap.
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
    m, n = inst.m, inst.n
    part, u, v, s = inst.constraints.T
    # constraint j is a member of groups (part, u) and (part, v): entries j and m + j
    keys = np.concatenate([part * n + u, part * n + v])
    order = np.argsort(keys, kind="stable")
    starts = np.flatnonzero(np.diff(keys[order], prepend=-1))
    ends = np.append(starts[1:], 2 * m)
    counts = ends - starts  # live count of each group, in ascending key order
    group = np.empty(2 * m, dtype=np.int64)
    group[order] = np.repeat(np.arange(len(starts)), counts)
    group_u, group_v = group[:m], group[m:]
    provenance = np.full(m, -1, dtype=np.int64)
    heavy_groups = []
    for g in np.flatnonzero(counts >= d_cap).tolist():
        if counts[g] < d_cap:
            continue
        members = order[starts[g]:ends[g]] % m
        members = members[provenance[members] < 0]
        provenance[members] = len(heavy_groups)
        heavy_groups.append(g)
        np.subtract.at(counts, np.where(group_u[members] == g, group_v[members],
                                        group_u[members]), 1)
    label_keys = keys[order[starts[heavy_groups]]]
    heavy = np.flatnonzero(provenance >= 0)
    heavy = heavy[np.argsort(provenance[heavy], kind="stable")]  # by group, then index
    left = provenance[heavy]
    other = np.where(u[heavy] == label_keys[left] % n, v[heavy], u[heavy])
    return Decomposition(
        light=PartitionedInstance(n=n, ell=inst.ell, constraints=inst.constraints[provenance < 0]),
        heavy=BipartiteInstance(left_labels=np.column_stack([label_keys // n, label_keys % n]),
                                n_right=n, constraints=np.column_stack([left, other, s[heavy]])),
        d_cap=d_cap, provenance=provenance)


def bipartite_matrix(bip: BipartiteInstance) -> np.ndarray:
    """Signed biadjacency matrix, dense: entry (left, right) sums constraint signs."""
    out = np.zeros((len(bip.left_labels), bip.n_right))
    left, right, s = bip.constraints.T
    np.add.at(out, (left, right), s)
    return out
