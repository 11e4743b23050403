from __future__ import annotations

import pytest

from xorcert import DEFAULT_CONFIG, RefuteConfig

# keys that earlier versions wrote into configs and certificates
REMOVED_KEYS = ["sdp_budget", "sdp_eta0", "sdp_barrier_dim_cap", "round_trials",
                "seed", "kg_target", "loose_factor", "brute_cap"]


def test_config_fields():
    assert list(DEFAULT_CONFIG.to_json_dict()) == [
        "c_split", "alpha_c", "block_delta", "norm_tol", "norm_max_iter", "psd_slack_rel"]
    assert RefuteConfig.from_json_dict(DEFAULT_CONFIG.to_json_dict()) == DEFAULT_CONFIG


@pytest.mark.parametrize("key", REMOVED_KEYS)
def test_from_json_dict_rejects_removed_key(key):
    data = {**DEFAULT_CONFIG.to_json_dict(), key: 1}
    with pytest.raises(ValueError, match=f"unknown config keys: \\['{key}'\\]"):
        RefuteConfig.from_json_dict(data)
