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
import itertools
import json
from dataclasses import dataclass, fields
from fractions import Fraction
from pathlib import Path

import numpy as np


def _check_sign(s: int) -> None:
    if s not in (-1, 1):
        raise ValueError(f"sign must be +1 or -1, got {s!r}")


def _count(value, what: str) -> int:
    """value as a Python int; booleans, floats and integers beyond int64 are rejected."""
    if (isinstance(value, (bool, np.bool_)) or not isinstance(value, (int, np.integer))
            or not -2 ** 63 <= value < 2 ** 63):
        raise ValueError(f"{what} must be an int64 integer, got {value!r}")
    return int(value)


def int_rows(values, width: int | None, what: str) -> np.ndarray:
    """A read-only int64 copy of values, of shape (rows, width), or (rows,) when width is None.

    Any integer array-like is accepted; a boolean, float or object dtype
    raises ValueError, and so does an unsigned value beyond the int64 range.
    A sequence that mixes booleans with integers is rejected too: numpy
    would turn it into integers, so its elements' types are checked.
    """
    arr = np.asarray(values)
    if arr.size and (arr.dtype.kind not in "iu" or
                     (arr.dtype.kind == "u" and arr.max() > np.iinfo(np.int64).max)):
        raise ValueError(f"{what} must be int64 integers, got dtype {arr.dtype}")
    if arr.ndim and arr.size and not isinstance(values, np.ndarray):
        items = values
        for _ in range(arr.ndim - 1):
            items = itertools.chain.from_iterable(items)
        if not {bool, np.bool_}.isdisjoint(map(type, items)):
            raise ValueError(f"{what} must be integers, got a boolean")
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
    """Per-part sizes and degrees, with a slot per part the constraints use, in ascending order."""
    part, u, v, _ = inst.constraints.T
    part_ids, slot, t = np.unique(part, return_inverse=True, return_counts=True)
    slot, size = slot * inst.n, len(part_ids) * inst.n
    deg = np.bincount(slot + u, minlength=size) + np.bincount(slot + v, minlength=size)
    return DegreeProfile(n=inst.n, part_ids=part_ids, t=t, deg=deg.reshape(len(part_ids), inst.n))


# ---------------------------------------------------------------------------
# Serialization.  An instance file holds the instance's canonical JSON bytes,
# and its digest is the SHA-256 of those bytes.
# ---------------------------------------------------------------------------

def _json_parts(inst) -> tuple[dict, np.ndarray]:
    """An instance's canonical JSON dictionary, less its "constraints" rows, and those rows."""
    if isinstance(inst, KXorInstance):
        return ({"kind": "kxor", "n": inst.n, "k": inst.k},
                np.column_stack([inst.clauses, inst.signs]))
    if isinstance(inst, PartitionedInstance):
        return {"kind": "p2xor", "n": inst.n, "ell": inst.ell}, inst.constraints
    raise TypeError(f"unsupported instance type {type(inst).__name__}")


def to_json_dict(inst) -> dict:
    """Canonical JSON dictionary for an instance."""
    scalars, rows = _json_parts(inst)
    return {**scalars, "constraints": rows.tolist()}


def from_json_dict(data: dict):
    """Parse an instance from its canonical JSON dictionary.

    Here the top level must be an object; everything else is checked once,
    by the code that builds the instance.  ``_count`` takes n, k and ell
    only as int64 integers (not floats or booleans), and ``int_rows`` takes
    the constraints only as a list of rows of the right length whose every
    number is an int64 integer.
    """
    if not isinstance(data, dict):
        raise ValueError(f"instance must be a JSON object, got {type(data).__name__}")
    kind = data.get("kind")
    if kind == "kxor":
        k = _count(data["k"], "k")
        rows = int_rows(data["constraints"], k + 1, "constraints")
        return KXorInstance(n=data["n"], k=k,
                            clauses=np.sort(rows[:, :-1], axis=1), signs=rows[:, -1])
    if kind == "p2xor":
        return PartitionedInstance.make(n=data["n"], ell=data["ell"],
                                        constraints=data["constraints"])
    raise ValueError(f"unknown instance kind {kind!r}")


def canonical_json(data: dict) -> str:
    """Deterministic compact JSON encoding: the bytes of instance files and digests."""
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def _json_int_rows(rows: np.ndarray) -> bytes:
    """The bytes of json.dumps(rows.tolist(), separators=(",", ":")) for an (m, w) integer array.

    Each row fills one line of a uint8 grid: a "," and a "[", then per entry
    a sign cell, one cell per digit of the widest magnitude, and a separator
    ("," or, after the last entry, "]").  The digits come from repeated
    division by 10; one boolean compress then drops the unused sign cells,
    the leading zeros and the first row's ",".
    """
    if not rows.size:
        return json.dumps(rows.tolist(), separators=(",", ":")).encode("utf-8")
    m, w = rows.shape
    mag = np.abs(rows.astype(np.int64)).view(np.uint64)  # |int64 min| = 2**63 fits
    top = int(mag.max())
    digits = len(str(top))
    mag = mag.astype(np.min_scalar_type(top))  # a narrower type divides faster
    grid = np.empty((m, 2 + w * (digits + 2)), dtype=np.uint8)
    keep = np.ones(grid.shape, dtype=bool)
    grid[:, :2] = np.frombuffer(b",[", dtype=np.uint8)
    keep[0, 0] = False
    cells = grid[:, 2:].reshape(m, w, digits + 2)  # views: entry, then cell
    kept = keep[:, 2:].reshape(m, w, digits + 2)
    cells[:, :, 0] = ord("-")
    kept[:, :, 0] = rows < 0
    for j in range(digits, 0, -1):  # cell j holds the digit of 10**(digits - j)
        if j < digits:
            kept[:, :, j] = mag != 0  # a leading zero when nothing is left
        rest = mag // 10
        cells[:, :, j] = mag - rest * 10 + ord("0")  # mag % 10, but faster
        mag = rest
    cells[:, :, -1] = ord(",")
    cells[:, -1, -1] = ord("]")
    return b"[" + np.compress(keep.ravel(), grid).tobytes() + b"]"


def canonical_bytes(scalars: dict, rows: np.ndarray, key: str = "constraints") -> bytes:
    """canonical_json({**scalars, key: rows.tolist()}) in UTF-8, with no lists built.

    scalars holds only strings and integers.  The rows are encoded straight
    from the array, between the canonical text before and after them.
    """
    head, tail = canonical_json({**scalars, key: []}).split(f'"{key}":[]')
    return f'{head}"{key}":'.encode("utf-8") + _json_int_rows(rows) + tail.encode("utf-8")


def instance_digest(inst) -> str:
    """SHA-256 hex digest of the file save_instance writes: the instance's canonical bytes.

    The hashed bytes are canonical_json(to_json_dict(inst)) in UTF-8: the
    keys sorted, separators (",", ":") with no whitespace, and the
    constraint rows as nested lists of integers, for example
    {"constraints":[[0,1,2,-1]],"k":3,"kind":"kxor","n":6}.  So anyone can
    recompute it with sha256sum from a file xorcert wrote, or from any
    instance file with Python's json and hashlib alone:
    sha256(json.dumps(data, sort_keys=True, separators=(",", ":")).encode()).
    """
    return hashlib.sha256(canonical_bytes(*_json_parts(inst))).hexdigest()


def save_instance(inst, path) -> None:
    """Write the canonical bytes that instance_digest hashes, with no trailing newline."""
    Path(path).write_bytes(canonical_bytes(*_json_parts(inst)))


def load_instance(path):
    return from_json_dict(json.loads(Path(path).read_text()))
