from __future__ import annotations

import math

import pytest

from xorcert import DEFAULT_CONFIG, RefuteConfig

# keys that earlier versions wrote into configs and certificates
REMOVED_KEYS = ["sdp_budget", "sdp_eta0", "sdp_barrier_dim_cap", "round_trials",
                "seed", "kg_target", "loose_factor", "brute_cap", "psd_slack_rel",
                "norm_tol", "norm_max_iter"]


def test_config_fields():
    assert list(DEFAULT_CONFIG.to_json_dict()) == [
        "c_split", "alpha_c", "block_delta"]
    assert RefuteConfig.from_json_dict(DEFAULT_CONFIG.to_json_dict()) == DEFAULT_CONFIG


@pytest.mark.parametrize("key", REMOVED_KEYS)
def test_from_json_dict_rejects_removed_key(key):
    data = {**DEFAULT_CONFIG.to_json_dict(), key: 1}
    with pytest.raises(ValueError, match=f"unknown config keys: \\['{key}'\\]"):
        RefuteConfig.from_json_dict(data)


@pytest.mark.parametrize("field,value", [
    ("c_split", "4"), ("c_split", True), ("c_split", None),
    ("c_split", math.nan), ("c_split", math.inf), ("c_split", 0.0), ("c_split", -4.0),
    ("c_split", 10 ** 400), ("alpha_c", 0.0), ("block_delta", 1.0),
    ("block_delta", 0.0),
])
def test_config_rejects_bad_value(field, value):
    with pytest.raises((TypeError, ValueError), match=field):
        RefuteConfig.from_json_dict({field: value})


def test_config_accepts_boundary_values():
    config = RefuteConfig(c_split=4)
    assert RefuteConfig.from_json_dict(config.to_json_dict()) == config
