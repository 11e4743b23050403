"""Which xorcert names the traced run wraps, and the per-layer metrics it reports.

Layer names follow the modules.  Span times are per round (summed over the
workload's instances, averaged over the traced rounds); counts are per round.
``_refute_s`` / ``_verify_s`` split a layer by the operation whose span
encloses it.  A name the program no longer has is skipped with a warning,
and its metrics read 0.
"""
from __future__ import annotations

import statistics

import numpy as np

import xorcert.linalg
import xorcert.pipeline
import xorcert.sdp
import xorcert.spectral

REFUTE, VERIFY = "pipeline.refute", "pipeline.verify"

# (module or class, attribute, span name).  The pipeline binds these names at
# import, so each is wrapped where its caller looks it up.
WRAPPED = (
    (xorcert.pipeline, "instance_digest", "instances.digest"),
    (xorcert.pipeline, "kxor_to_partitioned", "reduce.reduce"),
    (xorcert.pipeline, "decompose", "reduce.decompose"),
    (xorcert.pipeline, "certify_dbounded", "spectral.light"),
    (xorcert.pipeline, "build_blocks", "spectral.build_blocks"),
    (xorcert.spectral, "_accumulate_blocks", "spectral.build_blocks"),
    (xorcert.pipeline, "spectral_norm", "linalg.spectral_norm"),
    (xorcert.spectral, "spectral_norm", "linalg.spectral_norm"),
    (xorcert.pipeline, "refute_2xor", "sdp.refute_2xor"),
    (xorcert.sdp, "inf1_upper", "sdp.inf1_upper"),
    (xorcert.sdp, "_certify", "sdp.certify"),
    (xorcert.sdp, "min_eig_lower_bound", "linalg.min_eig"),
    (xorcert.pipeline, "min_eig_check", "linalg.min_eig"),
    (np.linalg, "cholesky", "numpy.cholesky"),
)
COUNTED = (
    (xorcert.linalg.SparseMat, "matvec", "linalg.matvecs"),
    (xorcert.linalg.SparseMat, "rmatvec", "linalg.matvecs"),
)

UNITS = {
    "generate.gen_s": "s",
    "instances.io_s": "s",
    "instances.digest_s": "s",
    "reduce.reduce_s": "s",
    "reduce.decompose_refute_s": "s",
    "reduce.decompose_verify_s": "s",
    "reduce.heavy_groups": "count",
    "reduce.m_heavy": "count",
    "spectral.light_s": "s",
    "spectral.build_blocks_refute_s": "s",
    "spectral.build_blocks_verify_s": "s",
    "spectral.block_nnz": "count",
    "spectral.blocks": "count",
    "spectral.clamped_sides": "count",
    "spectral.phi_margin": "ratio",
    "sdp.inf1_upper_s": "s",
    "sdp.certify_s": "s",
    "sdp.cholesky_calls": "count",
    "sdp.dim": "count",
    "sdp.bound_margin": "ratio",
    "linalg.spectral_norm_refute_s": "s",
    "linalg.spectral_norm_verify_s": "s",
    "linalg.spectral_norm_calls": "count",
    "linalg.matvecs": "count",
    "linalg.min_eig_refute_s": "s",
    "linalg.min_eig_verify_s": "s",
    "linalg.min_eig_calls": "count",
    "pipeline.refute_s": "s",
    "pipeline.verify_s": "s",
    "pipeline.refute_self_s": "s",
    "pipeline.verify_self_s": "s",
    "pipeline.cert_bytes": "B",
    "pipeline.trace_overhead": "fraction",
}


def install(tracer) -> None:
    for owner, attr, name in WRAPPED:
        tracer.wrap(owner, attr, name)
    for owner, attr, name in COUNTED:
        tracer.count(owner, attr, name)


def _mean(values) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def metrics(tracer, rounds: int, certs: list) -> dict:
    """Per-layer metrics from `rounds` traced rounds and all their certificates."""
    def secs(name, root=None):
        return tracer.layer(name, root)[0] / rounds

    def calls(name):
        return tracer.layer(name)[1] / rounds

    def per_round(values):
        return sum(values) / rounds

    lights = [c.payload["light"]["report"] for c in certs if c.payload["light"]["report"]]
    heavies = [c.payload["heavy"] for c in certs if c.payload["heavy"]["report"]]
    blocks = [b for rep in lights for b in rep["blocks"]]
    return {
        "instances.digest_s": secs("instances.digest"),
        "reduce.reduce_s": secs("reduce.reduce"),
        "reduce.decompose_refute_s": secs("reduce.decompose", REFUTE),
        "reduce.decompose_verify_s": secs("reduce.decompose", VERIFY),
        "reduce.heavy_groups": per_round(c.payload["decomposition"]["heavy_groups"] for c in certs),
        "reduce.m_heavy": per_round(c.payload["decomposition"]["m_heavy"] for c in certs),
        "spectral.light_s": secs("spectral.light"),
        "spectral.build_blocks_refute_s": secs("spectral.build_blocks", REFUTE),
        "spectral.build_blocks_verify_s": secs("spectral.build_blocks", VERIFY),
        "spectral.block_nnz": per_round(b["nnz"] for b in blocks),
        "spectral.blocks": len(blocks) / rounds,
        "spectral.clamped_sides": per_round(1 for rep in lights if rep["beta_clamped"]),
        "spectral.phi_margin": _mean(rep["phi_total_bound"] / rep["threshold"] for rep in lights),
        "sdp.inf1_upper_s": secs("sdp.inf1_upper"),
        "sdp.certify_s": secs("sdp.certify"),
        "sdp.cholesky_calls": calls("numpy.cholesky"),
        "sdp.dim": per_round(h["report"]["rows"] + h["report"]["cols"] for h in heavies),
        "sdp.bound_margin": _mean(h["report"]["bound"] / (2.0 * h["report"]["eps"] * h["m"])
                                  for h in heavies),
        "linalg.spectral_norm_refute_s": secs("linalg.spectral_norm", REFUTE),
        "linalg.spectral_norm_verify_s": secs("linalg.spectral_norm", VERIFY),
        "linalg.spectral_norm_calls": calls("linalg.spectral_norm"),
        "linalg.matvecs": tracer.counts.get("linalg.matvecs", 0) / rounds,
        "linalg.min_eig_refute_s": secs("linalg.min_eig", REFUTE),
        "linalg.min_eig_verify_s": secs("linalg.min_eig", VERIFY),
        "linalg.min_eig_calls": calls("linalg.min_eig"),
        "pipeline.refute_s": secs(REFUTE),
        "pipeline.verify_s": secs(VERIFY),
        "pipeline.refute_self_s": tracer.self_time(REFUTE) / rounds,
        "pipeline.verify_self_s": tracer.self_time(VERIFY) / rounds,
        "pipeline.cert_bytes": per_round(len(c.to_json().encode()) for c in certs),
    }
