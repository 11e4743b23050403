"""Instance types and exact evaluation for k-XOR and partitioned 2-XOR.

Variables are 0-indexed and assignments live in {+1, -1}.  Constraint
containers are multisets: duplicates are legal and every copy counts
toward the satisfied fraction.  Values are exact rationals.

Every instance holds its constraints once, as read-only int64 arrays with
one row per constraint: k-XOR ``clauses`` (m x k) and ``signs`` (m), and
partitioned 2-XOR ``constraints`` (m x 4, rows ``part, u, v, sign``).  The
constructors take any integer array-like, tuples included, and reject
boolean and float input rather than round it; validation runs on the whole
array at once.  Two instances are equal when their fields hold the same
values.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields
from fractions import Fraction
from pathlib import Path

import numpy as np


def _check_sign(s: int) -> None:
    if s not in (-1, 1):
        raise ValueError(f"sign must be +1 or -1, got {s!r}")


def _count(value, what: str) -> int:
    """value as a Python int; booleans and floats are rejected."""
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return int(value)


def int_rows(values, width: int | None, what: str) -> np.ndarray:
    """A read-only int64 copy of values, of shape (rows, width), or (rows,) when width is None.

    Any integer array-like is accepted; a boolean, float or object dtype
    raises ValueError, and so does an unsigned value beyond the int64 range.
    """
    arr = np.asarray(values)
    if arr.size and (arr.dtype.kind not in "iu" or
                     (arr.dtype.kind == "u" and arr.max() > np.iinfo(np.int64).max)):
        raise ValueError(f"{what} must be int64 integers, got dtype {arr.dtype}")
    arr = np.array(arr, dtype=np.int64, ndmin=1)
    shape = arr.shape[:1] if width is None else (len(arr), width)
    if arr.shape != shape and arr.size:
        raise ValueError(f"{what} must have shape {shape}, got {arr.shape}")
    arr = arr.reshape(shape)  # an empty input gets its row width
    arr.flags.writeable = False
    return arr


def reject_rows(bad: np.ndarray, rows: np.ndarray, message: str) -> None:
    """Raise ValueError(message) naming the first of rows where bad holds."""
    if bad.any():
        raise ValueError(f"{message}: {rows[np.flatnonzero(bad)[0]].tolist()}")


class ValueEq:
    """Equality by value for frozen dataclasses whose fields include numpy arrays."""

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        for f in fields(self):
            a, b = getattr(self, f.name), getattr(other, f.name)
            if not (np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b):
                return False
        return True


@dataclass(frozen=True, eq=False)
class KXorInstance(ValueEq):
    """A k-XOR instance: each row of clauses holds k sorted, distinct variables."""

    n: int
    k: int
    clauses: np.ndarray  # (m, k) int64
    signs: np.ndarray  # (m,) int64, each +1 or -1

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", _count(self.n, "n"))
        object.__setattr__(self, "k", _count(self.k, "k"))
        if self.n < 1:
            raise ValueError("n must be positive")
        if self.k < 2:
            raise ValueError("arity k must be >= 2")
        clauses = int_rows(self.clauses, self.k, "clauses")
        signs = int_rows(self.signs, None, "signs")
        if len(clauses) != len(signs):
            raise ValueError("clauses and signs must have equal length")
        reject_rows(((clauses < 0) | (clauses >= self.n)).any(axis=1), clauses,
                    f"clause has a vertex out of range [0, {self.n})")
        reject_rows((np.diff(clauses, axis=1) <= 0).any(axis=1), clauses,
                    "clause must be sorted and distinct")
        reject_rows(np.abs(signs) != 1, signs, "sign must be +1 or -1")
        object.__setattr__(self, "clauses", clauses)
        object.__setattr__(self, "signs", signs)

    @property
    def m(self) -> int:
        return len(self.signs)

    @classmethod
    def make(cls, n: int, k: int, constraints) -> "KXorInstance":
        """Build from (clause, sign) pairs, sorting each clause into canonical form."""
        pairs = list(constraints)
        clauses, signs = zip(*pairs) if pairs else ((), ())
        return cls(n=n, k=k, clauses=np.sort(int_rows(clauses, k, "clauses"), axis=1),
                   signs=signs)


@dataclass(frozen=True, eq=False)
class PartitionedInstance(ValueEq):
    """Partitioned 2-XOR: constraints (i, {u, v}, sign) grouped into ell parts.

    Each constraint reads y_i * x_u * x_v = sign; a part's variable y_i is
    shared by all constraints carrying part index i.
    """

    n: int
    ell: int
    constraints: np.ndarray  # (m, 4) int64 rows (part, u, v, sign), u < v

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", _count(self.n, "n"))
        object.__setattr__(self, "ell", _count(self.ell, "ell"))
        if self.n < 2:
            raise ValueError("n must be >= 2 for pair constraints")
        if self.ell < 1:
            raise ValueError("ell must be positive")
        rows = int_rows(self.constraints, 4, "constraints")
        part, u, v, s = rows.T
        reject_rows((part < 0) | (part >= self.ell), rows,
                    f"part index out of range [0, {self.ell})")
        reject_rows((u < 0) | (v >= self.n), rows, f"vertex out of range [0, {self.n})")
        reject_rows(u >= v, rows, "pair must satisfy u < v")
        reject_rows(np.abs(s) != 1, rows, "sign must be +1 or -1")
        object.__setattr__(self, "constraints", rows)

    @property
    def m(self) -> int:
        return len(self.constraints)

    @classmethod
    def make(cls, n: int, ell: int, constraints) -> "PartitionedInstance":
        """Build from (part, u, v, sign) rows, normalizing each pair to u < v."""
        rows = int_rows(constraints, 4, "constraints")
        pair = np.sort(rows[:, 1:3], axis=1)
        return cls(n=n, ell=ell, constraints=np.column_stack([rows[:, 0], pair, rows[:, 3]]))

    def mu_rows(self) -> np.ndarray:
        """Rows (part, u, v, mu) of every pair with nonzero signed multiplicity mu.

        mu_i(e) sums the signs of part i's constraints on pair e; the rows
        are sorted by part, u and v.
        """
        rows = self.constraints[np.lexsort(self.constraints[:, 2::-1].T)]
        if not len(rows):
            return np.empty((0, 4), dtype=np.int64)
        starts = np.flatnonzero((np.diff(rows[:, :3], axis=0, prepend=-1) != 0).any(axis=1))
        out = np.column_stack([rows[starts, :3], np.add.reduceat(rows[:, 3], starts)])
        return out[out[:, 3] != 0]


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
    x = np.array(assignment.x, dtype=np.int64)
    if len(x) != inst.n:
        raise ValueError(f"assignment has {len(x)} variables, instance has {inst.n}")
    sat = np.count_nonzero(x[inst.clauses].prod(axis=1) == inst.signs)
    return Fraction(int(sat), inst.m)


def eval_partitioned(inst: PartitionedInstance, assignment: Assignment) -> Fraction:
    """Exact satisfied fraction of a partitioned 2-XOR instance under (x, y)."""
    if inst.m == 0:
        raise ValueError("empty instance")
    x = np.array(assignment.x, dtype=np.int64)
    if len(x) != inst.n:
        raise ValueError(f"assignment has {len(x)} variables, instance has {inst.n}")
    if assignment.y is None:
        raise ValueError("partitioned instance requires a part-variable vector y")
    y = np.array(assignment.y, dtype=np.int64)
    if len(y) != inst.ell:
        raise ValueError(f"y has {len(y)} entries, instance has {inst.ell} parts")
    part, u, v, s = inst.constraints.T
    sat = np.count_nonzero(y[part] * x[u] * x[v] == s)
    return Fraction(int(sat), inst.m)


def bias(inst, assignment: Assignment) -> Fraction:
    """Exact bias 2*val - 1 of an instance under an assignment."""
    if isinstance(inst, KXorInstance):
        return 2 * eval_kxor(inst, assignment) - 1
    if isinstance(inst, PartitionedInstance):
        return 2 * eval_partitioned(inst, assignment) - 1
    raise TypeError(f"unsupported instance type {type(inst).__name__}")


@dataclass(frozen=True, eq=False)
class DegreeProfile(ValueEq):
    """Degree data of a partitioned instance, with empty parts dropped.

    Slot j corresponds to original part index part_ids[j]; t[j] is the number
    of constraints in that part and deg[j, v] counts vertex v's occurrences
    in it.
    """

    n: int
    part_ids: np.ndarray  # (parts,) ascending
    t: np.ndarray  # (parts,)
    deg: np.ndarray  # (parts, n)

    def max_degree(self) -> int:
        """Largest deg_i(v) over all kept parts and vertices (0 if empty)."""
        return int(self.deg.max()) if self.deg.size else 0


def degree_profile(inst: PartitionedInstance) -> DegreeProfile:
    """Per-part sizes and degrees from bincounts, dropping empty parts."""
    part, u, v, _ = inst.constraints.T
    t = np.bincount(part, minlength=inst.ell)
    part_ids = np.flatnonzero(t)
    slot = np.searchsorted(part_ids, part) * inst.n
    size = len(part_ids) * inst.n
    deg = np.bincount(slot + u, minlength=size) + np.bincount(slot + v, minlength=size)
    return DegreeProfile(n=inst.n, part_ids=part_ids, t=t[part_ids],
                         deg=deg.reshape(len(part_ids), inst.n))


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
            "constraints": np.column_stack([inst.clauses, inst.signs]).tolist(),
        }
    if isinstance(inst, PartitionedInstance):
        return {
            "kind": "p2xor",
            "n": inst.n,
            "ell": inst.ell,
            "constraints": inst.constraints.tolist(),
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
        rows = int_rows(_json_rows(data, k + 1), k + 1, "constraints")
        return KXorInstance(n=_json_int(data["n"], "n"), k=k,
                            clauses=np.sort(rows[:, :-1], axis=1), signs=rows[:, -1])
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
