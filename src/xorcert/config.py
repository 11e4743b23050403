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
    # certified spectral-norm power iteration
    norm_tol: float = 1e-8
    norm_max_iter: int = 1500

    def __post_init__(self) -> None:
        for name in ("c_split", "alpha_c", "block_delta", "norm_tol"):
            value = getattr(self, name)
            if not _finite_real(value):
                raise TypeError(f"config {name} must be a finite real number, got {value!r}")
        max_iter = self.norm_max_iter
        if not isinstance(max_iter, numbers.Integral) or isinstance(max_iter, bool):
            raise TypeError(f"config norm_max_iter must be an int, got {max_iter!r}")
        if max_iter < 1:
            raise ValueError(f"config norm_max_iter must be at least 1, got {max_iter}")
        if not (self.c_split > 0 and self.alpha_c > 0 and self.norm_tol > 0):
            raise ValueError("config c_split, alpha_c and norm_tol must be positive")
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
