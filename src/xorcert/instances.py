"""Instance types and exact evaluation for k-XOR and partitioned 2-XOR.

Variables are 0-indexed and assignments live in {+1, -1}.  Constraint
containers are multisets: duplicates are legal and every copy counts
toward the satisfied fraction.  Values are exact rationals.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

Clause = tuple[int, ...]


def _check_sign(s: int) -> None:
    if s not in (-1, 1):
        raise ValueError(f"sign must be +1 or -1, got {s!r}")


def _check_vertex(v: int, n: int) -> None:
    if not isinstance(v, int) or not 0 <= v < n:
        raise ValueError(f"vertex {v!r} out of range [0, {n})")


@dataclass(frozen=True)
class KXorInstance:
    """A k-XOR instance: each clause is a sorted k-tuple of distinct variables."""

    n: int
    k: int
    clauses: tuple[Clause, ...]
    signs: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("n must be positive")
        if self.k < 2:
            raise ValueError("arity k must be >= 2")
        if len(self.clauses) != len(self.signs):
            raise ValueError("clauses and signs must have equal length")
        for cl in self.clauses:
            if len(cl) != self.k:
                raise ValueError(f"clause {cl} does not have arity {self.k}")
            for v in cl:
                _check_vertex(v, self.n)
            if any(cl[i] >= cl[i + 1] for i in range(self.k - 1)):
                raise ValueError(f"clause {cl} must be sorted and distinct")
        for s in self.signs:
            _check_sign(s)

    @property
    def m(self) -> int:
        return len(self.clauses)

    @classmethod
    def make(cls, n: int, k: int, constraints) -> "KXorInstance":
        """Build from (clause, sign) pairs, sorting each clause into canonical form."""
        clauses = []
        signs = []
        for cl, s in constraints:
            clauses.append(tuple(sorted(cl)))
            signs.append(int(s))
        return cls(n=n, k=k, clauses=tuple(clauses), signs=tuple(signs))


@dataclass(frozen=True)
class PartitionedInstance:
    """Partitioned 2-XOR: constraints (i, {u, v}, sign) grouped into ell parts.

    Each constraint reads y_i * x_u * x_v = sign; a part's variable y_i is
    shared by all constraints carrying part index i.
    """

    n: int
    ell: int
    constraints: tuple[tuple[int, int, int, int], ...]  # (part, u, v, sign), u < v

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError("n must be >= 2 for pair constraints")
        if self.ell < 1:
            raise ValueError("ell must be positive")
        for part, u, v, s in self.constraints:
            if not 0 <= part < self.ell:
                raise ValueError(f"part index {part} out of range [0, {self.ell})")
            _check_vertex(u, self.n)
            _check_vertex(v, self.n)
            if u >= v:
                raise ValueError(f"pair ({u}, {v}) must satisfy u < v")
            _check_sign(s)

    @property
    def m(self) -> int:
        return len(self.constraints)

    @classmethod
    def make(cls, n: int, ell: int, constraints) -> "PartitionedInstance":
        """Build from (part, u, v, sign) tuples, normalizing each pair to u < v."""
        canon = []
        for part, u, v, s in constraints:
            if u > v:
                u, v = v, u
            canon.append((int(part), int(u), int(v), int(s)))
        return cls(n=n, ell=ell, constraints=tuple(canon))

    def mu_tables(self) -> list[dict[tuple[int, int], int]]:
        """Per part, the signed multiplicity mu_i(e) of each distinct pair e."""
        mu: list[dict[tuple[int, int], int]] = [dict() for _ in range(self.ell)]
        for part, u, v, s in self.constraints:
            e = (u, v)
            mu[part][e] = mu[part].get(e, 0) + s
        return mu


@dataclass(frozen=True)
class Assignment:
    """A +/-1 assignment; y is the part-variable vector for partitioned instances."""

    x: tuple[int, ...]
    y: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        for v in self.x:
            _check_sign(v)
        if self.y is not None:
            for v in self.y:
                _check_sign(v)

    @classmethod
    def from_arrays(cls, x, y=None) -> "Assignment":
        return cls(x=tuple(int(v) for v in x), y=None if y is None else tuple(int(v) for v in y))


def eval_kxor(inst: KXorInstance, assignment: Assignment) -> Fraction:
    """Exact satisfied fraction of a k-XOR instance under an assignment."""
    if inst.m == 0:
        raise ValueError("empty instance")
    x = assignment.x
    if len(x) != inst.n:
        raise ValueError(f"assignment has {len(x)} variables, instance has {inst.n}")
    sat = 0
    for cl, s in zip(inst.clauses, inst.signs):
        p = s
        for v in cl:
            p *= x[v]
        if p == 1:
            sat += 1
    return Fraction(sat, inst.m)


def eval_partitioned(inst: PartitionedInstance, assignment: Assignment) -> Fraction:
    """Exact satisfied fraction of a partitioned 2-XOR instance under (x, y)."""
    if inst.m == 0:
        raise ValueError("empty instance")
    x = assignment.x
    y = assignment.y
    if len(x) != inst.n:
        raise ValueError(f"assignment has {len(x)} variables, instance has {inst.n}")
    if y is None:
        raise ValueError("partitioned instance requires a part-variable vector y")
    if len(y) != inst.ell:
        raise ValueError(f"y has {len(y)} entries, instance has {inst.ell} parts")
    sat = 0
    for part, u, v, s in inst.constraints:
        if y[part] * x[u] * x[v] == s:
            sat += 1
    return Fraction(sat, inst.m)


def bias(inst, assignment: Assignment) -> Fraction:
    """Exact bias 2*val - 1 of an instance under an assignment."""
    if isinstance(inst, KXorInstance):
        return 2 * eval_kxor(inst, assignment) - 1
    if isinstance(inst, PartitionedInstance):
        return 2 * eval_partitioned(inst, assignment) - 1
    raise TypeError(f"unsupported instance type {type(inst).__name__}")


@dataclass(frozen=True)
class DegreeProfile:
    """Degree data of a partitioned instance, with empty parts dropped.

    Slot j corresponds to original part index part_ids[j]; t[j] is the number
    of constraints in that part and deg[j] maps vertex -> occurrence count.
    """

    n: int
    part_ids: tuple[int, ...]
    t: tuple[int, ...]
    deg: tuple[dict[int, int], ...]

    @property
    def m(self) -> int:
        return sum(self.t)

    def max_degree(self) -> int:
        """Largest deg_i(v) over all kept parts and vertices (0 if empty)."""
        best = 0
        for table in self.deg:
            if table:
                best = max(best, max(table.values()))
        return best


def degree_profile(inst: PartitionedInstance) -> DegreeProfile:
    """Collect per-part sizes and degrees in one pass, dropping empty parts."""
    t: dict[int, int] = {}
    deg: dict[int, dict[int, int]] = {}
    for part, u, v, _ in inst.constraints:
        t[part] = t.get(part, 0) + 1
        table = deg.setdefault(part, {})
        table[u] = table.get(u, 0) + 1
        table[v] = table.get(v, 0) + 1
    part_ids = tuple(sorted(t))
    return DegreeProfile(n=inst.n, part_ids=part_ids, t=tuple(t[i] for i in part_ids),
                         deg=tuple(deg[i] for i in part_ids))


# ---------------------------------------------------------------------------
# Serialization.  On-disk instances use a single canonical JSON layout so that
# digests are stable across save/load round trips.
# ---------------------------------------------------------------------------

def to_json_dict(inst) -> dict:
    """Canonical JSON dictionary for an instance."""
    if isinstance(inst, KXorInstance):
        return {
            "kind": "kxor",
            "n": inst.n,
            "k": inst.k,
            "constraints": [list(cl) + [s] for cl, s in zip(inst.clauses, inst.signs)],
        }
    if isinstance(inst, PartitionedInstance):
        return {
            "kind": "p2xor",
            "n": inst.n,
            "ell": inst.ell,
            "constraints": [[p, u, v, s] for p, u, v, s in inst.constraints],
        }
    raise TypeError(f"unsupported instance type {type(inst).__name__}")


def _json_int(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def _json_rows(data: dict, width: int) -> list[list[int]]:
    rows = data["constraints"]
    if not isinstance(rows, list):
        raise ValueError("constraints must be a list")
    for row in rows:
        if not isinstance(row, list) or len(row) != width:
            raise ValueError(f"constraint {row!r} must be a list of {width} integers")
        for x in row:
            _json_int(x, "constraint entry")
    return rows


def from_json_dict(data: dict):
    """Parse an instance from its canonical JSON dictionary.

    Everything but the layout is checked by the instance constructors; here
    the top level must be an object, every row must have the right length,
    and every number must be a JSON integer (not a float or a boolean).
    """
    if not isinstance(data, dict):
        raise ValueError(f"instance must be a JSON object, got {type(data).__name__}")
    kind = data.get("kind")
    if kind == "kxor":
        k = _json_int(data["k"], "k")
        constraints = [(row[:-1], row[-1]) for row in _json_rows(data, k + 1)]
        return KXorInstance.make(n=_json_int(data["n"], "n"), k=k, constraints=constraints)
    if kind == "p2xor":
        return PartitionedInstance.make(n=_json_int(data["n"], "n"),
                                        ell=_json_int(data["ell"], "ell"),
                                        constraints=_json_rows(data, 4))
    raise ValueError(f"unknown instance kind {kind!r}")


def canonical_json(data: dict) -> str:
    """Deterministic compact JSON encoding used for hashing."""
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def instance_digest(inst) -> str:
    """SHA-256 hex digest of the canonical JSON encoding of an instance."""
    return hashlib.sha256(canonical_json(to_json_dict(inst)).encode("utf-8")).hexdigest()


def save_instance(inst, path) -> None:
    Path(path).write_text(json.dumps(to_json_dict(inst), indent=2) + "\n")


def load_instance(path):
    return from_json_dict(json.loads(Path(path).read_text()))
