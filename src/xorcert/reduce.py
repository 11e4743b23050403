"""Reduction from k-XOR to partitioned 2-XOR, and heavy/light decomposition.

The reduction splits each clause into two disjoint half-subsets indexed
through a subset dictionary; odd arities single out the minimum vertex as
the part index.  Any assignment of the original instance extends to the
reduced one with the same satisfied fraction, so reduced-value upper bounds
transfer back.  Every partitioned instance the pipeline certifies has a
vertex for each vertex or half-subset its own constraints name, in
ascending order: a reduced instance one for each half its clauses name,
and ``on_touched_vertices`` renumbers a partitioned instance onto the
parts and vertices its constraints name.  So no table is sized by a
declared n, ell counts the parts in use, and clause order moves no vertex.

Both steps read and write read-only int64 arrays with one row per
constraint or per subset: the dictionary lists the distinct halves in
ascending order, and the decomposition's ``provenance`` holds, per
original constraint, its heavy group's index or -1 for a light constraint.
"""
from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_CONFIG
from .instances import (KXorInstance, PartitionedInstance, ValueEq, canonical_bytes, int_rows,
                        reject_rows)


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

    def canonical_bytes(self) -> bytes:
        """{"subset_size": s, "subsets": rows} as canonical JSON: the reduce sidecar's bytes."""
        return canonical_bytes({"subset_size": self.subset_size}, self.subsets, "subsets")

    def digest(self) -> str:
        """SHA-256 hex digest of canonical_bytes()."""
        return hashlib.sha256(self.canonical_bytes()).hexdigest()


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
        ell, part = 1, np.zeros(m, dtype=np.int64)
    else:  # clauses are sorted, so column 0 holds the min vertex
        ell, part = inst.n, inst.clauses[:, 0]
    halves = inst.clauses[:, k % 2:].reshape(2 * m, half)  # each clause's two halves
    if half == 1:  # a 1-D unique is far faster than one along axis 0
        named, ids = np.unique(halves, return_inverse=True)
        subsets = named.reshape(-1, 1)
    else:
        subsets, ids = np.unique(halves, axis=0, return_inverse=True)
    # a sorted clause's first half precedes its second, so the pair is (u, v) with u < v
    rows = np.column_stack([part, ids.reshape(m, 2), inst.signs])
    psi = PartitionedInstance(n=len(subsets), ell=ell, constraints=rows)
    return ReducedKXor(psi=psi, dictionary=SubsetDictionary(subset_size=half, subsets=subsets))


def on_touched_vertices(inst: PartitionedInstance) -> PartitionedInstance:
    """inst with its parts and vertices renumbered by rank among those its constraints name.

    Ranking keeps every pair's u < v and the order of parts and vertices, so
    the result, whose ell counts the parts in use, has the same groups.
    """
    parts, part = np.unique(inst.constraints[:, 0], return_inverse=True)
    touched, ids = np.unique(inst.constraints[:, 1:3], return_inverse=True)
    rows = np.column_stack([part, ids.reshape(-1, 2), inst.constraints[:, 3]])
    return PartitionedInstance(n=len(touched), ell=len(parts), constraints=rows)


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


def decompose(inst: PartitionedInstance, eps: float,
              c_split: float = DEFAULT_CONFIG.c_split) -> Decomposition:
    """Move every group S(i, v) of size >= ceil(c_split/eps^2) heavy.

    One pass visits the (part, vertex) keys whose initial count reaches
    d_cap in ascending order, and moves a group's live members heavy when
    its live count is still at least d_cap.  Moving a group only lowers
    other groups' counts, so a key below the cap stays below it: the pass
    picks the same groups, in the same order, as repeatedly stripping the
    smallest over-cap key until none is left.  The heavy side lists the
    groups in that order, each group's constraints in original order.  On
    exit every group in the light side has size < d_cap.  A key counts its
    part by rank among the parts in use, so the keys stay below
    parts * n, however large the part indices, and that must fit in int64.
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
    part_ids, rank = np.unique(part, return_inverse=True)
    if len(part_ids) * n > 2 ** 63:
        raise ValueError(f"{len(part_ids)} parts of {n} vertices overflow the int64 group keys")
    # constraint j is a member of groups (part, u) and (part, v): entries j and m + j
    keys = np.concatenate([rank * n + u, rank * n + v])
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
        heavy=BipartiteInstance(left_labels=np.column_stack([part_ids[label_keys // n],
                                                             label_keys % n]),
                                n_right=n, constraints=np.column_stack([left, other, s[heavy]])),
        d_cap=d_cap, provenance=provenance)


def bipartite_matrix(bip: BipartiteInstance) -> np.ndarray:
    """Signed biadjacency matrix, dense: entry (left, right) sums constraint signs."""
    out = np.zeros((len(bip.left_labels), bip.n_right))
    left, right, s = bip.constraints.T
    np.add.at(out, (left, right), s)
    return out
