"""Tunable constants for the refutation pipeline.

A config snapshot is embedded in every certificate so that verification can
re-derive the decomposition and the per-block parameters deterministically.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, asdict


def _finite_real(value) -> bool:
    try:
        return (isinstance(value, numbers.Real) and not isinstance(value, bool)
                and math.isfinite(value))
    except OverflowError:  # an int too large for a float
        return False


@dataclass(frozen=True)
class RefuteConfig:
    # heavy/light split: groups of size >= ceil(c_split / eps^2) go heavy
    c_split: float = 4.0
    # C in alpha = C * d^2 * ell * log2(n)^6 / (eps^4 * m)
    alpha_c: float = 1.0
    # total failure budget delta, split evenly over the (L+1)^2 blocks
    block_delta: float = 0.01

    def __post_init__(self) -> None:
        for name in ("c_split", "alpha_c", "block_delta"):
            value = getattr(self, name)
            if not _finite_real(value):
                raise TypeError(f"config {name} must be a finite real number, got {value!r}")
        if not (self.c_split > 0 and self.alpha_c > 0):
            raise ValueError("config c_split and alpha_c must be positive")
        if not 0 < self.block_delta < 1:
            raise ValueError(f"config block_delta must lie in (0, 1), got {self.block_delta}")

    def to_json_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json_dict(cls, data: dict) -> "RefuteConfig":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data)


DEFAULT_CONFIG = RefuteConfig()
