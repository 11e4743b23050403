"""Tunable constants for the refutation pipeline.

A config snapshot is embedded in every certificate so that verification can
re-derive the decomposition and the per-block parameters deterministically.
"""
from __future__ import annotations

from dataclasses import dataclass, asdict, replace


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
    # PSD feasibility slack, relative to the matrix scale
    psd_slack_rel: float = 1e-9

    def to_json_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json_dict(cls, data: dict) -> "RefuteConfig":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data)

    def with_overrides(self, **kwargs) -> "RefuteConfig":
        return replace(self, **kwargs)


DEFAULT_CONFIG = RefuteConfig()
