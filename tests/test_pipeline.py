from __future__ import annotations

import copy
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import xorcert.pipeline
import xorcert.sdp
import xorcert.spectral
from xorcert import (
    Certificate,
    GenSpec,
    KXorInstance,
    PartitionedInstance,
    REFUTED,
    UNKNOWN,
    brute_force_val,
    gen_kxor,
    gen_random_partitioned,
    refute_kxor,
    refute_partitioned,
    verify_certificate,
    verify_certificate_detailed,
)
from xorcert.spectral import assemble_phi_bound, block_contribution


@pytest.fixture(scope="module")
def dense_kxor():
    inst = gen_kxor(GenSpec(kind="random", n=10, m=2000, seed=7, k=3))
    return inst, refute_kxor(inst, eps=0.25)


@pytest.fixture(scope="module")
def whole_kxor():
    # even k reduces to one part, so one SDP dual bounds the whole instance
    inst = gen_kxor(GenSpec(kind="random", n=14, m=300, seed=1, k=4))
    return inst, refute_kxor(inst, eps=0.4)


def _mutate(cert: Certificate, path: tuple, value) -> Certificate:
    payload = copy.deepcopy(cert.payload)
    node = payload
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return Certificate(payload=payload)


def test_refute_partitioned_random_refutes():
    inst = gen_random_partitioned(30, 1, 4000, seed=2)
    cert = refute_partitioned(inst, eps=0.25)
    assert cert.outcome == REFUTED
    assert cert.kind == "p2xor" and cert.eps == 0.25
    assert cert.certified_val_upper <= 0.75 + 1e-12
    assert verify_certificate(cert, inst)


def test_refute_partitioned_validation():
    inst = gen_random_partitioned(6, 1, 10, seed=0)
    with pytest.raises(ValueError):
        refute_partitioned(inst, eps=0.0)
    with pytest.raises(ValueError):
        refute_partitioned(inst, eps=0.5)
    with pytest.raises(ValueError):
        refute_partitioned(PartitionedInstance(n=3, ell=1, constraints=()), eps=0.2)


# heavy sides whose signed pair matrix cancels to zero: 10 copies of a pair
# with each sign, all in one group at the cap of 20 for eps = 0.45
CANCELLED_HEAVY = [
    PartitionedInstance(n=3, ell=1, constraints=((0, 0, 1, 1),) * 10 + ((0, 0, 1, -1),) * 10),
    KXorInstance.make(n=4, k=3, constraints=[((0, 1, 2), 1)] * 10 + [((0, 1, 2), -1)] * 10),
]


@pytest.mark.parametrize("inst", CANCELLED_HEAVY, ids=["p2xor", "kxor"])
def test_zero_heavy_matrix_refutes_and_verifies(inst):
    refute = refute_kxor if isinstance(inst, KXorInstance) else refute_partitioned
    cert = refute(inst, eps=0.45)
    heavy = cert.payload["heavy"]
    if isinstance(inst, KXorInstance):
        assert heavy["mode"] == "sdp" and heavy["m"] == inst.m
        report = heavy["report"]
    else:  # one part: the whole instance's pair matrix cancels to zero
        assert heavy["mode"] == "whole" and heavy["m"] == inst.m
        report = cert.payload["whole"]
    assert 0.0 < report["bound"] < 1e-300
    assert cert.outcome == REFUTED and cert.certified_val_upper == 0.5 + 1e-12
    assert verify_certificate_detailed(cert, inst) == (True, [])


def test_combination_case_heavy_small():
    # sparse duplicate-free-ish instance: nothing reaches the heavy cap
    inst = gen_random_partitioned(12, 3, 40, seed=1)
    cert = refute_partitioned(inst, eps=0.3)
    assert cert.payload["combination_case"] == "heavy-small"
    assert cert.payload["heavy"]["mode"] in ("empty", "trivial")
    assert cert.payload["heavy"]["side_bound"] == cert.payload["heavy"]["m"]
    assert verify_certificate(cert, inst)


def test_combination_case_light_small():
    # k = 3 star: every clause holds vertex 0, so part 0 gets every constraint
    # and its groups, about 50 each, all go heavy
    phi = gen_kxor(GenSpec(kind="star", n=12, m=300, seed=3, k=3))
    cert = refute_kxor(phi, eps=0.4)
    assert cert.payload["combination_case"] == "light-small"
    assert cert.payload["light"]["mode"] == "empty"
    assert cert.payload["heavy"]["mode"] == "sdp"
    assert verify_certificate(cert, phi)


def test_combination_case_both_large(dense_kxor):
    inst, cert = dense_kxor
    assert cert.payload["combination_case"] == "both-large"
    assert cert.payload["light"]["mode"] == "spectral"
    assert cert.payload["heavy"]["mode"] == "sdp"
    assert cert.outcome == REFUTED


def test_outcome_matches_combined_bound():
    for seed in range(4):
        inst = gen_random_partitioned(14, 2, 150, seed=seed)
        for eps in (0.1, 0.3):
            cert = refute_partitioned(inst, eps=eps)
            combined = (cert.payload["light"]["side_bound"]
                        + cert.payload["heavy"]["side_bound"]) / inst.m
            assert cert.certified_val_upper == pytest.approx(min(1.0, combined))
            assert (cert.outcome == REFUTED) == (combined <= 0.5 + eps)
            assert verify_certificate(cert, inst)


def test_unknown_on_satisfiable_instance():
    rows = ((0, 0, 1, 1),) * 40
    inst = PartitionedInstance(n=2, ell=1, constraints=rows)
    cert = refute_partitioned(inst, eps=0.3)
    assert cert.outcome == UNKNOWN
    assert cert.certified_val_upper > 0.8
    # the certificate is still internally consistent and verifies
    assert verify_certificate(cert, inst)
    val, _ = brute_force_val(inst)
    assert float(val) <= cert.certified_val_upper + 1e-12


def test_certificate_is_deterministic(dense_kxor):
    inst, cert = dense_kxor
    again = refute_kxor(inst, eps=0.25)
    assert cert.to_json() == again.to_json()


def test_certificate_save_load(tmp_path, dense_kxor):
    _, cert = dense_kxor
    path = tmp_path / "cert.json"
    cert.save(path)
    loaded = Certificate.load(path)
    assert loaded == cert
    assert json.loads(cert.to_json())["schema"] == "cert_v1"


def test_kxor_reduction_block(dense_kxor):
    inst, cert = dense_kxor
    red = cert.payload["reduction"]
    assert red["ell"] == inst.n and red["subset_size"] == 1
    assert cert.kind == "kxor"
    # soundness against the true optimum
    val, _ = brute_force_val(inst)
    assert float(val) <= cert.certified_val_upper + 1e-12


def test_verify_rejects_wrong_instance(dense_kxor):
    inst, cert = dense_kxor
    other = gen_kxor(GenSpec(kind="random", n=10, m=2000, seed=8, k=3))
    ok, errors = verify_certificate_detailed(cert, other)
    assert not ok and errors == ["instance digest mismatch"]


def test_verify_rejects_kind_mismatch(dense_kxor):
    inst, cert = dense_kxor
    psi = gen_random_partitioned(6, 2, 10, seed=0)
    ok, errors = verify_certificate_detailed(_mutate(cert, ("kind",), "p2xor"), psi)
    assert not ok


@pytest.mark.parametrize("path,value", [
    (("outcome",), "UNKNOWN"),
    (("certified_val_upper",), 0.5),
    (("eps",), 0.45),
    (("decomposition", "d_cap"), 9),
    (("decomposition", "m_light"), 0),
    (("light", "side_bound"), 0.0),
    (("heavy", "side_bound"), 0.0),
    (("light", "report", "phi_total_bound"), 0.0),
    (("light", "report", "val_upper"), 0.5),
    (("heavy", "report", "bound"), 0.0),
    (("heavy", "report", "dual", "slack"), 0.0),
    (("reduction", "psi_digest"), "0" * 64),
    (("schema",), "cert_v0"),
])
def test_verify_rejects_single_field_corruption(dense_kxor, path, value):
    inst, cert = dense_kxor
    bad = _mutate(cert, path, value)
    ok, errors = verify_certificate_detailed(bad, inst)
    assert not ok and errors


def test_verify_rejects_malformed_payload(dense_kxor):
    inst, cert = dense_kxor
    payload = copy.deepcopy(cert.payload)
    del payload["light"]
    ok, errors = verify_certificate_detailed(Certificate(payload=payload), inst)
    assert not ok and "malformed certificate" in errors[0]


def test_verify_rejects_padded_block_list(dense_kxor):
    inst, cert = dense_kxor
    payload = copy.deepcopy(cert.payload)
    blocks = payload["light"]["report"]["blocks"]
    blocks.append(dict(blocks[0]))
    ok, _ = verify_certificate_detailed(Certificate(payload=payload), inst)
    assert not ok


def _planted_3xor(n: int, m: int, seed: int) -> KXorInstance:
    """Random 3-XOR whose signs all agree with one hidden assignment (val = 1)."""
    rng = np.random.default_rng(seed)
    hidden = rng.choice([-1, 1], size=n)
    constraints = []
    for _ in range(m):
        clause = sorted(int(v) for v in rng.choice(n, size=3, replace=False))
        constraints.append((clause, int(np.prod(hidden[clause]))))
    return KXorInstance.make(n, 3, constraints)


def test_verify_rejects_infinite_slack_forgery():
    # zero dual with infinite slack: every PSD check passes, and a relative
    # tolerance against an infinite bound accepts any claimed bound
    inst = _planted_3xor(10, 10000, seed=3)
    cert = refute_kxor(inst, eps=0.25)
    assert cert.outcome == UNKNOWN and cert.payload["heavy"]["mode"] == "sdp"
    payload = copy.deepcopy(cert.payload)
    heavy = payload["heavy"]
    report, dual = heavy["report"], heavy["report"]["dual"]
    dual["d_left"] = [0.0] * len(dual["d_left"])
    dual["d_right"] = [0.0] * len(dual["d_right"])
    dual["slack"] = math.inf
    dual["bound"] = report["bound"] = 1.0
    m2 = heavy["m"]
    report["val_upper"] = min(1.0, 0.5 + 1.0 / (2.0 * m2) + 1e-12)
    report["status"] = "SUCCESS"
    heavy["side_bound"] = min(float(m2), report["val_upper"] * m2)
    combined = (payload["light"]["side_bound"] + heavy["side_bound"]) / inst.m
    payload["certified_val_upper"] = min(1.0, combined)
    payload["outcome"] = REFUTED if combined <= 0.5 + payload["eps"] else UNKNOWN
    assert payload["outcome"] == REFUTED  # the forgery claims a refutation of val = 1
    ok, errors = verify_certificate_detailed(Certificate(payload=payload), inst)
    assert not ok and errors


@pytest.mark.parametrize("path", [
    ("certified_val_upper",),
    ("light", "side_bound"),
    ("heavy", "side_bound"),
    ("light", "report", "phi1_bound"),
    ("light", "report", "phi_total_bound"),
    ("light", "report", "implied_eps"),
    ("light", "report", "val_upper"),
    ("light", "report", "blocks", 0, "contribution"),
    ("heavy", "report", "bound"),
    ("heavy", "report", "val_upper"),
    ("heavy", "report", "dual", "bound"),
])
def test_verify_rejects_one_ulp_shave(dense_kxor, path):
    inst, cert = dense_kxor
    node = cert.payload
    for key in path:
        node = node[key]
    shaved = math.nextafter(node, 0.0)
    assert shaved < node
    ok, errors = verify_certificate_detailed(_mutate(cert, path, shaved), inst)
    assert not ok and errors


def test_verify_rejects_one_ulp_shave_of_any_whole_entry(whole_kxor):
    # the dual must sit on its grid with the prover's slack, so even a shave
    # that leaves Z(d) PSD and the bound's bytes alone is rejected
    inst, cert = whole_kxor
    whole = cert.payload["whole"]
    assert cert.outcome == REFUTED and whole["rows"] == whole["cols"] == 79
    paths = [("bound",), ("val_upper",), ("dual", "bound"), ("dual", "slack")]
    paths += [("dual", side, i) for side in ("d_left", "d_right")
              for i, d in enumerate(whole["dual"][side]) if d > 0.0]
    assert len(paths) > 100
    for path in paths:
        node = whole
        for key in path:
            node = node[key]
        ok, errors = verify_certificate_detailed(
            _mutate(cert, ("whole",) + path, math.nextafter(node, 0.0)), inst)
        assert not ok and errors, path


def test_verify_rejects_infinite_slack_forgery_on_whole():
    # planted 2-XOR (val = 1): a zero dual with infinite slack would pass
    # every PSD check and claim a refutation
    rng = np.random.default_rng(4)
    hidden = rng.choice([-1, 1], size=20)
    rows = []
    for _ in range(1500):
        u, v = sorted(int(x) for x in rng.choice(20, size=2, replace=False))
        rows.append((0, u, v, int(hidden[u] * hidden[v])))
    inst = PartitionedInstance.make(20, 1, rows)
    cert = refute_partitioned(inst, eps=0.3)
    assert cert.outcome == UNKNOWN and cert.certified_val_upper == 1.0
    payload = copy.deepcopy(cert.payload)
    whole = payload["whole"]
    whole["dual"].update(d_left=[0.0] * whole["rows"], d_right=[0.0] * whole["cols"],
                         slack=math.inf, bound=1.0)
    whole.update(bound=1.0, val_upper=0.5 + 1.0 / (2.0 * inst.m) + 1e-12, status="SUCCESS")
    payload.update(certified_val_upper=whole["val_upper"], outcome=REFUTED)
    ok, errors = verify_certificate_detailed(Certificate(payload=payload), inst)
    assert not ok and errors[0].startswith("malformed certificate")


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
def test_certificate_load_rejects_non_finite(tmp_path, dense_kxor, literal):
    _, cert = dense_kxor
    text = cert.to_json()
    slack = json.dumps(cert.payload["heavy"]["report"]["dual"]["slack"])
    assert f'"slack": {slack}' in text
    path = tmp_path / "cert.json"
    path.write_text(text.replace(f'"slack": {slack}', f'"slack": {literal}'))
    with pytest.raises(ValueError, match=literal):
        Certificate.load(path)


def _reassemble_light(payload: dict) -> None:
    """Recompute every field downstream of the light blocks and constants."""
    light = payload["light"]
    report = light["report"]
    for block in report["blocks"]:
        block["contribution"] = block_contribution(block["size_j"], block["size_k"],
                                                   block["norm_upper"])
    report.update(assemble_phi_bound([b["contribution"] for b in report["blocks"]],
                                     report["dup_correction"], report["phi2_term"],
                                     report["eps"], report["m"], report["ell_eff"]))
    light["side_bound"] = min(float(light["m"]), report["val_upper"] * light["m"])
    dec = payload["decomposition"]
    combined = (light["side_bound"] + payload["heavy"]["side_bound"]) / (
        dec["m_light"] + dec["m_heavy"])
    payload["certified_val_upper"] = min(1.0, combined)
    payload["outcome"] = REFUTED if combined <= 0.5 + payload["eps"] else UNKNOWN


def test_verify_rejects_norm_upper_forged_down_to_lower(dense_kxor):
    # a claimed norm upper below the verifier's certified upper is unproven,
    # even when it stays above the fresh lower bound
    inst, cert = dense_kxor
    payload = copy.deepcopy(cert.payload)
    for block in payload["light"]["report"]["blocks"]:
        block["norm_upper"] = block["norm_lower"]
    _reassemble_light(payload)
    assert payload["certified_val_upper"] < cert.certified_val_upper
    ok, errors = verify_certificate_detailed(Certificate(payload=payload), inst)
    assert not ok and errors[0] == "light.report.blocks[0].norm_upper does not re-derive"


@pytest.mark.parametrize("field", ["phi2_term", "dup_correction"])
def test_verify_rejects_shaved_phi_constant(dense_kxor, field):
    inst, cert = dense_kxor
    payload = copy.deepcopy(cert.payload)
    report = payload["light"]["report"]
    report[field] -= 5e-8 * abs(report[field])
    _reassemble_light(payload)
    assert payload["certified_val_upper"] < cert.certified_val_upper
    ok, errors = verify_certificate_detailed(Certificate(payload=payload), inst)
    assert not ok and errors[0] == f"light.report.{field} does not re-derive"


@pytest.mark.parametrize("payload", [[], None, "cert_v1"])
def test_verify_rejects_non_object_payload(dense_kxor, payload):
    inst, _ = dense_kxor
    ok, errors = verify_certificate_detailed(Certificate(payload=payload), inst)
    assert not ok and errors[0].startswith("malformed certificate")


def test_verify_never_solves_the_sdp(dense_kxor, whole_kxor, monkeypatch):
    assert dense_kxor[1].payload["heavy"]["mode"] == "sdp"
    assert whole_kxor[1].payload["whole"]["dual"]

    def solve(*args, **kwargs):
        raise AssertionError("the verifier solved the SDP")

    monkeypatch.setattr(xorcert.sdp, "inf1_upper", solve)
    monkeypatch.setattr(xorcert.sdp, "_mixing_solve", solve)
    for inst, cert in (dense_kxor, whole_kxor):
        assert verify_certificate_detailed(cert, inst) == (True, [])


def test_verify_hashes_the_instance_once(dense_kxor, monkeypatch):
    inst, cert = dense_kxor
    hashed = []
    digest = xorcert.pipeline.instance_digest

    def counting(obj):
        hashed.append(obj)
        return digest(obj)

    monkeypatch.setattr(xorcert.pipeline, "instance_digest", counting)
    assert verify_certificate_detailed(cert, inst) == (True, [])
    assert sum(obj is inst for obj in hashed) == 1


def test_heavy_side_runs_no_power_iteration(monkeypatch):
    # the light side is trivial here, so no light norm is ever needed
    inst = gen_kxor(GenSpec(kind="random", n=10, m=1500, seed=1, k=3))

    def solve(*args, **kwargs):
        raise AssertionError("a light-side norm ran")

    monkeypatch.setattr(xorcert.spectral, "weighted_norm", solve)
    cert = refute_kxor(inst, eps=0.4)
    assert cert.payload["light"]["mode"] == "trivial"
    assert cert.payload["heavy"]["mode"] == "sdp"
    assert verify_certificate_detailed(cert, inst) == (True, [])


def _norm_methods(monkeypatch) -> list[str]:
    """The method of every light-block norm from now on, in call order."""
    methods = []
    weighted_norm = xorcert.spectral.weighted_norm

    def record(*args):
        nb = weighted_norm(*args)
        methods.append(nb.method)
        return nb

    monkeypatch.setattr(xorcert.spectral, "weighted_norm", record)
    return methods


def test_light_side_below_the_dense_cap_runs_no_power_iteration(monkeypatch):
    # every block is certified by the dense eigen proposal and its Cholesky checks
    inst = gen_kxor(GenSpec(kind="random", n=20, m=1200, seed=1, k=3))
    methods = _norm_methods(monkeypatch)
    cert = refute_kxor(inst, eps=0.3)
    assert cert.payload["light"]["mode"] == "spectral"
    blocks = cert.payload["light"]["report"]["blocks"]
    assert blocks and methods == ["dense-cholesky"] * len(blocks)
    assert verify_certificate_detailed(cert, inst) == (True, [])


def test_light_block_above_the_old_cap_is_certified_dense(monkeypatch):
    # one class of 40^2 = 1600 ordered pairs, past the 1024-row cap where
    # power iteration took over before; folded onto 820 unordered pairs it
    # takes the dense eigen proposal and the Cholesky checks
    inst = gen_kxor(GenSpec(kind="random", n=40, m=4000, seed=1, k=3))
    methods = _norm_methods(monkeypatch)
    cert = refute_kxor(inst, eps=0.3)
    assert cert.outcome == REFUTED and cert.certified_val_upper <= 0.65651
    (block,) = cert.payload["light"]["report"]["blocks"]
    assert block["size_j"] == 1600 and methods == ["dense-cholesky"]
    assert verify_certificate_detailed(cert, inst) == (True, [])


def test_light_side_above_the_cap_is_bounded_by_its_size(monkeypatch):
    # a side with more unordered pairs than the cap is never built
    monkeypatch.setattr(xorcert.spectral, "_DENSE_CAP", 200)  # below 20 * 21 / 2
    inst = gen_kxor(GenSpec(kind="random", n=20, m=1200, seed=1, k=3))
    cert = refute_kxor(inst, eps=0.3)
    light = cert.payload["light"]
    assert light["mode"] == "trivial" and light["report"] is None
    assert light["side_bound"] == light["m"] > 0.5 * 0.3 * inst.m
    assert cert.outcome == UNKNOWN
    assert verify_certificate_detailed(cert, inst) == (True, [])


def test_presentation_does_not_drop_a_block_to_its_l1_bound():
    # heavy-group 3-XOR under one gauge and clause order: power iteration
    # stopped early on stagnation there, the block fell back to its l1 bound
    # (61.10 instead of 8.669) and the outcome was UNKNOWN at 0.8343
    base = gen_kxor(GenSpec(kind="heavy-group", n=20, m=1500, seed=1, k=3,
                            params={"group_size": 500}))
    clauses = np.asarray(base.clauses, dtype=np.int64)
    rng = np.random.default_rng([5, 2, 2])
    gauge = rng.choice(np.array([-1, 1]), size=base.n)
    signs = np.asarray(base.signs, dtype=np.int64) * gauge[clauses].prod(axis=1)
    order = rng.permutation(base.m)
    inst = KXorInstance(n=base.n, k=3,
                        clauses=tuple(tuple(int(v) for v in clauses[i]) for i in order),
                        signs=tuple(int(s) for s in signs[order]))
    cert = refute_kxor(inst, eps=0.3)
    assert cert.outcome == REFUTED
    assert cert.certified_val_upper < 0.66
    assert verify_certificate_detailed(cert, inst) == (True, [])


_REFUTE_TO_STDOUT = (
    "import sys\n"
    "from xorcert import GenSpec, gen_kxor, refute_kxor\n"
    "inst = gen_kxor(GenSpec(kind='random', n={n}, m={m}, seed=1, k={k}))\n"
    "sys.stdout.write(refute_kxor(inst, eps={eps}).to_json())\n"
)


def test_certificate_bytes_independent_of_blas_threads():
    # the duals and both bounds of every norm are rounded onto binary grids,
    # so the last digits that the BLAS thread count changes in the eigen and
    # SDP solves never reach them; the 4-XOR input is bounded by one SDP on
    # its whole pair matrix
    src = str(Path(__file__).resolve().parents[1] / "src")
    for n, m, k, eps, side, mode in ((20, 6000, 3, 0.4, "heavy", "sdp"),
                                     (20, 1200, 3, 0.3, "light", "spectral"),
                                     (30, 2000, 3, 0.3, "light", "spectral"),
                                     (40, 4000, 3, 0.3, "light", "spectral"),
                                     (14, 300, 4, 0.4, "light", "whole")):
        outputs = []
        for threads in ("1", "2"):
            env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads}
            code = _REFUTE_TO_STDOUT.format(n=n, m=m, k=k, eps=eps)
            proc = subprocess.run([sys.executable, "-c", code],
                                  env=env, capture_output=True, text=True, timeout=300)
            assert proc.returncode == 0, proc.stderr[-2000:]
            outputs.append(proc.stdout)
        assert json.loads(outputs[0])[side]["mode"] == mode
        assert outputs[0] == outputs[1]


@pytest.mark.parametrize("path", [
    ("decomposition", "m_light"),
    ("light", "report", "beta_clamped"),
    ("light", "report", "blocks", 0, "nnz"),
])
def test_verify_compares_leaf_types(dense_kxor, path):
    # 1 == 1.0 == True in Python, so equal values of another type must not pass
    inst, cert = dense_kxor
    node = cert.payload
    for key in path:
        node = node[key]
    retyped = float(node) if type(node) is int else int(node)
    assert retyped == node
    ok, errors = verify_certificate_detailed(_mutate(cert, path, retyped), inst)
    dotted = ".".join(str(k) for k in path).replace(".0.", "[0].")
    assert not ok and errors == [f"{dotted} does not re-derive"]


def test_verify_rejects_extra_key(dense_kxor):
    inst, cert = dense_kxor
    payload = copy.deepcopy(cert.payload)
    payload["light"]["report"]["note"] = "trust me"
    ok, errors = verify_certificate_detailed(Certificate(payload=payload), inst)
    assert not ok and errors[0].startswith("malformed certificate: light.report keys differ")


@pytest.mark.parametrize("path,value", [
    (("config", "c_split"), 1e308),  # c_split / eps^2 overflows
    (("eps",), 1e-300),  # eps * eps underflows
    (("eps",), 1e-100),  # eps ** 4 underflows in the weight-class alpha
])
def test_verify_rejects_unusable_eps_or_config(dense_kxor, path, value):
    inst, cert = dense_kxor
    ok, errors = verify_certificate_detailed(_mutate(cert, path, value), inst)
    assert not ok and errors[0].startswith("malformed certificate")


def _paths(node, path=()):
    """(leaf paths, dict paths) of a payload; only the ends of a list of numbers."""
    if isinstance(node, dict):
        leaves, dicts = [], [path]
        for key, value in node.items():
            sub_leaves, sub_dicts = _paths(value, path + (key,))
            leaves += sub_leaves
            dicts += sub_dicts
        return leaves, dicts
    if isinstance(node, list):
        if node and not isinstance(node[0], (dict, list)):
            return [path + (0,), path + (len(node) - 1,)], []
        leaves, dicts = [], []
        for i, value in enumerate(node):
            sub_leaves, sub_dicts = _paths(value, path + (i,))
            leaves += sub_leaves
            dicts += sub_dicts
        return leaves, dicts
    return [path], []


_ODD_VALUES = [math.nan, math.inf, -math.inf, None, "1", True, [], {}]


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_verify_payload_fuzz(dense_kxor, whole_kxor, data):
    # one leaf replaced by an odd value or moved one step, or one key removed
    # or added: the verifier never raises, rejects every change of key set,
    # and whatever it accepts still certifies the original bound and outcome
    inst, cert = data.draw(st.sampled_from([dense_kxor, whole_kxor]))
    payload = copy.deepcopy(cert.payload)
    leaves, dicts = _paths(payload)
    action = data.draw(st.sampled_from(["leaf", "delete", "add"]))
    path = data.draw(st.sampled_from(leaves if action != "add" else dicts))
    parent = payload
    for key in path[:-1] if action != "add" else path:
        parent = parent[key]
    if action == "leaf":
        old = parent[path[-1]]
        steps = []
        if type(old) is float:
            steps = [math.nextafter(old, 0.0), math.nextafter(old, math.inf)]
        elif type(old) is int:
            steps = [old - 1, old + 1]
        parent[path[-1]] = data.draw(st.sampled_from(_ODD_VALUES + steps))
    elif action == "delete":
        del parent[path[-1]]
    else:
        parent["extra"] = 0
    ok, errors = verify_certificate_detailed(Certificate(payload=payload), inst)
    if ok:
        assert action == "leaf" and errors == []  # a key set must match exactly
        assert payload["certified_val_upper"] == cert.certified_val_upper
        assert payload["outcome"] == cert.outcome
    else:
        assert errors and all(isinstance(e, str) for e in errors)
