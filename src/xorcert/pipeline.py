"""End-to-end refutation pipeline producing independently verifiable certificates.

A certificate records every number the soundness argument needs: the
decomposition shape, per-block certified norm bounds for the light side, the
dual diagonal certificate for the heavy side, and the combination arithmetic.
Verification re-derives the deterministic structure from the instance, runs
fresh certified checks against the claimed bounds, and re-checks all
arithmetic; it never trusts a recorded number it can contradict.

Fields that are pure arithmetic over other recorded numbers are recomputed
with the prover's own functions and compared exactly (``==``): the heavy
``dual.bound``, ``bound``, ``val_upper`` and ``side_bound``; each light
block's ``contribution``; the light ``phi1_bound``, ``phi_total_bound``,
``implied_eps``, ``val_upper`` and ``side_bound``; and the top-level
``certified_val_upper``.  ``phi2_term`` and ``dup_correction`` are fsums
over the instance, so they too are recomputed and compared exactly, and the
light bound is assembled from the verifier's own values.  Floats round-trip
exactly through JSON, so an honest certificate matches bit for bit and a
one-ulp shave is rejected.  A block's claimed ``norm_upper`` must be at least
the verifier's own certified upper bound for the rebuilt block.  Other
numbers re-derived from the instance (``alpha``, ``beta``, ``sigma2``,
``r_bound``, ``bernstein_t``, ``threshold``) are compared at a relative
tolerance of 1e-7.  A payload that is not a JSON object is rejected.  NaN and
infinite dual entries are rejected, and ``Certificate.load`` refuses the
``NaN`` / ``Infinity`` JSON literals.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import DEFAULT_CONFIG, RefuteConfig
from .instances import (KXorInstance, PartitionedInstance, canonical_json,
                        degree_profile, instance_digest)
from .linalg import bernstein_threshold, min_eig_check, spectral_norm
from .reduce import Decomposition, decompose, kxor_to_partitioned
from .sdp import DualCert, refute_2xor, two_xor_matrix, two_xor_value, z_matrix
from .spectral import (assemble_phi_bound, block_contribution, block_r_bound,
                       block_variance_bound, build_blocks, butterfly, certify_dbounded,
                       dup_correction, phi2_term, weight_classes)

SCHEMA = "cert_v1"
TOOL_VERSION = "0.1.0"

REFUTED = "REFUTED"
UNKNOWN = "UNKNOWN"


@dataclass(frozen=True)
class Certificate:
    """A refutation certificate; the payload is the canonical JSON content."""

    payload: dict

    @property
    def outcome(self) -> str:
        return self.payload["outcome"]

    @property
    def eps(self) -> float:
        return self.payload["eps"]

    @property
    def kind(self) -> str:
        return self.payload["kind"]

    @property
    def certified_val_upper(self) -> float:
        return self.payload["certified_val_upper"]

    @property
    def instance_digest(self) -> str:
        return self.payload["instance_digest"]

    def to_json(self) -> str:
        return json.dumps(self.payload, sort_keys=True, indent=2) + "\n"

    def save(self, path) -> None:
        Path(path).write_text(self.to_json())

    @classmethod
    def load(cls, path) -> "Certificate":
        """Read a saved certificate; the NaN / Infinity literals raise ValueError."""
        return cls(payload=json.loads(Path(path).read_text(),
                                      parse_constant=_reject_constant))


def _reject_constant(name: str):
    raise ValueError(f"non-finite number {name} in certificate")


def _side_bound(m_side: int, val_upper: float) -> float:
    return min(float(m_side), val_upper * m_side)


def _side_modes(m_side: int, small: float) -> str:
    if m_side == 0:
        return "empty"
    if m_side < small:
        return "trivial"
    return "active"


def refute_partitioned(inst: PartitionedInstance, eps: float,
                       config: RefuteConfig | None = None) -> Certificate:
    """Decompose, certify both sides at eps/2, and combine the side bounds.

    A side smaller than eps*m/2 is bounded trivially by its own size; the
    certified combined value is (light bound + heavy bound) / m, and the
    outcome is REFUTED exactly when it is at most 1/2 + eps.
    """
    config = config or DEFAULT_CONFIG
    if not 0.0 < eps < 0.5:
        raise ValueError("eps must lie in (0, 1/2)")
    if inst.m == 0:
        raise ValueError("empty instance")
    dec = decompose(inst, eps, config.c_split)
    m = inst.m
    m1, m2 = dec.m_light, dec.m_heavy
    small = 0.5 * eps * m
    eps_half = 0.5 * eps

    light_mode = _side_modes(m1, small)
    if light_mode == "active":
        light_report = certify_dbounded(dec.light, eps_half, config, d_bound=dec.d_cap)
        s1 = _side_bound(m1, light_report.val_upper)
        light = {"mode": "spectral", "m": m1, "side_bound": s1,
                 "report": light_report.to_json_dict()}
    else:
        s1 = float(m1)
        light = {"mode": light_mode, "m": m1, "side_bound": s1, "report": None}

    heavy_mode = _side_modes(m2, small)
    if heavy_mode == "active":
        heavy_report = refute_2xor(dec.heavy, eps_half, config)
        s2 = _side_bound(m2, heavy_report.val_upper)
        heavy = {"mode": "sdp", "m": m2, "side_bound": s2,
                 "report": {
                     "eps": eps_half, "rows": heavy_report.rows, "cols": heavy_report.cols,
                     "status": heavy_report.status, "bound": heavy_report.bound,
                     "val_upper": heavy_report.val_upper,
                     "dual": heavy_report.dual.to_json_dict(),
                 }}
    else:
        s2 = float(m2)
        heavy = {"mode": heavy_mode, "m": m2, "side_bound": s2, "report": None}

    if m2 < small:
        case = "heavy-small"
    elif m1 < small:
        case = "light-small"
    else:
        case = "both-large"

    combined = (s1 + s2) / m
    outcome = REFUTED if combined <= 0.5 + eps else UNKNOWN
    payload = {
        "schema": SCHEMA,
        "tool": "xorcert",
        "version": TOOL_VERSION,
        "kind": "p2xor",
        "instance_digest": instance_digest(inst),
        "eps": eps,
        "config": config.to_json_dict(),
        "outcome": outcome,
        "certified_val_upper": min(1.0, combined),
        "combination_case": case,
        "decomposition": {
            "d_cap": dec.d_cap, "m_light": m1, "m_heavy": m2,
            "heavy_groups": len(dec.heavy.left_labels),
        },
        "light": light,
        "heavy": heavy,
    }
    return Certificate(payload=payload)


def refute_kxor(inst: KXorInstance, eps: float,
                config: RefuteConfig | None = None) -> Certificate:
    """Reduce to partitioned 2-XOR and refute; the value bound transfers back."""
    if inst.m == 0:
        raise ValueError("empty instance")
    red = kxor_to_partitioned(inst)
    psi_cert = refute_partitioned(red.psi, eps, config)
    payload = dict(psi_cert.payload)
    payload["kind"] = "kxor"
    payload["instance_digest"] = instance_digest(inst)
    payload["reduction"] = {
        "ell": red.psi.ell,
        "n_psi": red.psi.n,
        "subset_size": red.dictionary.subset_size,
        "dictionary_digest": hashlib.sha256(
            canonical_json(red.dictionary.to_json_dict()).encode("utf-8")).hexdigest(),
        "psi_digest": instance_digest(red.psi),
    }
    return Certificate(payload=payload)


# ---------------------------------------------------------------------------
# Verification.
# ---------------------------------------------------------------------------

_REL_TOL = 1e-7


def _close(a: float, b: float) -> bool:
    # only for numbers re-derived from the instance; recorded arithmetic is
    # compared with == (a tolerance hides shaves, and _close(x, inf) holds)
    return abs(a - b) <= _REL_TOL * max(1.0, abs(a), abs(b))


def _verify_light(payload: dict, dec: Decomposition, eps_half: float,
                  config: RefuteConfig, failures: list[str]) -> None:
    light = payload["light"]
    m1 = dec.m_light
    if light["m"] != m1:
        failures.append(f"light side size mismatch: {light['m']} != {m1}")
        return
    if light["mode"] != "spectral":
        if light["report"] is not None or light["side_bound"] != float(m1):
            failures.append("trivial light side must carry its size as the bound")
        return
    report = light["report"]
    inst = dec.light
    profile = degree_profile(inst)
    measured = profile.max_degree()
    if measured > dec.d_cap:
        failures.append("light side violates the degree cap")
        return
    m = inst.m
    ell_eff = len(profile.t)
    if (report["m"] != m or report["n"] != inst.n or report["ell_eff"] != ell_eff
            or report["d_used"] != dec.d_cap):
        failures.append("light report shape fields do not match the decomposition")
        return
    if not _close(report["eps"], eps_half):
        failures.append("light report eps is not eps/2")
        return
    table = butterfly(profile)
    partition = weight_classes(table, d=dec.d_cap, eps=eps_half, m=m, ell=ell_eff,
                               alpha_c=config.alpha_c)
    if not (_close(report["alpha"], partition.alpha) and _close(report["beta"], partition.beta)
            and report["levels"] == partition.levels
            and report["beta_clamped"] == partition.clamped
            and tuple(report["class_sizes"]) == partition.sizes):
        failures.append("weight-class parameters do not re-derive")
        return
    blocks = build_blocks(inst, partition, profile)
    claimed = {(b["j"], b["k"]): b for b in report["blocks"]}
    if len(claimed) != len(report["blocks"]) or set(claimed) != set(blocks):
        failures.append("claimed block set does not match the rebuilt blocks")
        return
    delta_block = config.block_delta / (partition.levels + 1) ** 2
    for key in sorted(blocks):
        block = blocks[key]
        rec = claimed[key]
        j, k = key
        if rec["size_j"] != partition.sizes[j] or rec["size_k"] != partition.sizes[k]:
            failures.append(f"block {key} class sizes do not match")
            return
        if rec["nnz"] != block.mat.nnz:
            failures.append(f"block {key} support size does not match")
            return
        # the prover ran the same call on the same block, so an honest
        # certificate records exactly fresh.upper
        fresh = spectral_norm(block.mat, tol=config.norm_tol, max_iter=config.norm_max_iter)
        if rec["norm_upper"] < fresh.upper:
            failures.append(f"block {key} claimed norm upper {rec['norm_upper']} "
                            f"is below the certified upper bound {fresh.upper}")
            return
        if rec["norm_lower"] > rec["norm_upper"]:
            failures.append(f"block {key} has an inverted norm sandwich")
            return
        if rec["contribution"] != block_contribution(rec["size_j"], rec["size_k"],
                                                     rec["norm_upper"]):
            failures.append(f"block {key} contribution arithmetic is wrong")
            return
        sigma2 = block_variance_bound(partition, j, k)
        r_bound = block_r_bound(partition, j, k, dec.d_cap)
        if not (_close(rec["sigma2"], sigma2) and _close(rec["r_bound"], r_bound)):
            failures.append(f"block {key} analytic bound parameters do not re-derive")
            return
        if not _close(rec["bernstein_t"],
                      bernstein_threshold(sigma2, r_bound, rec["size_j"], rec["size_k"],
                                          delta_block)):
            failures.append(f"block {key} deviation threshold does not re-derive")
            return
    phi2 = phi2_term(profile)
    c0 = dup_correction(inst, profile)
    if report["phi2_term"] != phi2 or report["dup_correction"] != c0:
        failures.append("phi constant terms do not re-derive")
        return
    want = assemble_phi_bound([claimed[key]["contribution"] for key in sorted(blocks)],
                              c0, phi2, eps_half, m, ell_eff)
    if not _close(report["threshold"], want["threshold"]):
        failures.append("phi threshold does not re-derive")
        return
    for field in ("phi1_bound", "phi_total_bound", "implied_eps", "val_upper"):
        if report[field] != want[field]:
            failures.append(f"light {field} arithmetic is wrong")
            return
    if report["status"] != want["status"]:
        failures.append("light status contradicts its own bound")
        return
    if light["side_bound"] != _side_bound(m, report["val_upper"]):
        failures.append("light side bound arithmetic is wrong")


def _verify_heavy(payload: dict, dec: Decomposition, eps_half: float,
                  config: RefuteConfig, failures: list[str]) -> None:
    heavy = payload["heavy"]
    m2 = dec.m_heavy
    if heavy["m"] != m2:
        failures.append(f"heavy side size mismatch: {heavy['m']} != {m2}")
        return
    if heavy["mode"] != "sdp":
        if heavy["report"] is not None or heavy["side_bound"] != float(m2):
            failures.append("trivial heavy side must carry its size as the bound")
        return
    report = heavy["report"]
    mat = two_xor_matrix(dec.heavy)
    if report["rows"] != mat.rows or report["cols"] != mat.cols:
        failures.append("heavy matrix shape does not match the decomposition")
        return
    if not _close(report["eps"], eps_half):
        failures.append("heavy report eps is not eps/2")
        return
    dual = DualCert.from_json_dict(report["dual"])  # non-finite entries raise ValueError
    if len(dual.d_left) != mat.rows or len(dual.d_right) != mat.cols:
        failures.append("dual certificate dimensions do not match")
        return
    if dual.slack < 0 or min(dual.d_left, default=0.0) < 0 or min(dual.d_right, default=0.0) < 0:
        failures.append("dual certificate has negative entries")
        return
    d = np.array(dual.d_left + dual.d_right, dtype=float)
    if not min_eig_check(z_matrix(mat, d), dual.slack,
                         tol=config.norm_tol, max_iter=config.norm_max_iter):
        failures.append("dual certificate fails the PSD check")
        return
    bound = dual.bound()
    if report["dual"]["bound"] != bound or report["bound"] != bound:
        failures.append("dual bound arithmetic is wrong")
        return
    val_upper, status = two_xor_value(bound, eps_half, m2)
    if report["val_upper"] != val_upper:
        failures.append("heavy value bound arithmetic is wrong")
        return
    if report["status"] != status:
        failures.append("heavy status contradicts its own bound")
        return
    if heavy["side_bound"] != _side_bound(m2, val_upper):
        failures.append("heavy side bound arithmetic is wrong")


def verify_certificate_detailed(cert: Certificate, inst) -> tuple[bool, list[str]]:
    """Full re-derivation check; returns (ok, failure descriptions)."""
    failures: list[str] = []
    payload = cert.payload
    if not isinstance(payload, dict):
        return False, [f"malformed certificate: payload is a {type(payload).__name__}, "
                       "not a JSON object"]
    try:
        if payload.get("schema") != SCHEMA:
            return False, [f"unsupported schema {payload.get('schema')!r}"]
        eps = float(payload["eps"])
        if not 0.0 < eps < 0.5:
            return False, ["eps out of range"]
        config = RefuteConfig.from_json_dict(payload["config"])
        if payload["instance_digest"] != instance_digest(inst):
            return False, ["instance digest mismatch"]

        if payload["kind"] == "kxor":
            if not isinstance(inst, KXorInstance):
                return False, ["certificate kind does not match the instance"]
            red = kxor_to_partitioned(inst)
            info = payload["reduction"]
            dict_digest = hashlib.sha256(
                canonical_json(red.dictionary.to_json_dict()).encode("utf-8")).hexdigest()
            if (info["ell"] != red.psi.ell or info["n_psi"] != red.psi.n
                    or info["subset_size"] != red.dictionary.subset_size
                    or info["dictionary_digest"] != dict_digest
                    or info["psi_digest"] != instance_digest(red.psi)):
                return False, ["reduction data does not re-derive"]
            psi = red.psi
        elif payload["kind"] == "p2xor":
            if not isinstance(inst, PartitionedInstance):
                return False, ["certificate kind does not match the instance"]
            psi = inst
        else:
            return False, [f"unknown certificate kind {payload['kind']!r}"]

        dec = decompose(psi, eps, config.c_split)
        rec = payload["decomposition"]
        if (rec["d_cap"] != dec.d_cap or rec["m_light"] != dec.m_light
                or rec["m_heavy"] != dec.m_heavy
                or rec["heavy_groups"] != len(dec.heavy.left_labels)):
            return False, ["decomposition does not re-derive"]

        m = psi.m
        small = 0.5 * eps * m
        want_light = "spectral" if _side_modes(dec.m_light, small) == "active" \
            else _side_modes(dec.m_light, small)
        want_heavy = "sdp" if _side_modes(dec.m_heavy, small) == "active" \
            else _side_modes(dec.m_heavy, small)
        if payload["light"]["mode"] != want_light or payload["heavy"]["mode"] != want_heavy:
            return False, ["side handling does not match the size case rule"]
        if dec.m_heavy < small:
            want_case = "heavy-small"
        elif dec.m_light < small:
            want_case = "light-small"
        else:
            want_case = "both-large"
        if payload["combination_case"] != want_case:
            return False, ["combination case label is wrong"]

        _verify_light(payload, dec, 0.5 * eps, config, failures)
        if failures:
            return False, failures
        _verify_heavy(payload, dec, 0.5 * eps, config, failures)
        if failures:
            return False, failures

        combined = (payload["light"]["side_bound"] + payload["heavy"]["side_bound"]) / m
        if payload["certified_val_upper"] != min(1.0, combined):
            return False, ["combined value arithmetic is wrong"]
        want_outcome = REFUTED if combined <= 0.5 + eps else UNKNOWN
        if payload["outcome"] != want_outcome:
            return False, ["outcome contradicts the combined bound"]
        return True, []
    except (KeyError, TypeError, ValueError) as exc:
        return False, [f"malformed certificate: {exc}"]


def verify_certificate(cert: Certificate, inst) -> bool:
    """True iff every certified claim in the certificate re-derives and re-checks."""
    ok, _ = verify_certificate_detailed(cert, inst)
    return ok
