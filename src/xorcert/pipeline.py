"""End-to-end refutation pipeline producing independently verifiable certificates.

A certificate records every number the soundness argument needs: the
decomposition shape, per-block certified norm bounds for the light side, the
dual diagonal certificates of the SDP bounds, and the combination
arithmetic.  An instance with one part (ell = 1) is plain 2-XOR and is
bounded by one SDP dual on its whole symmetric pair matrix (``whole``);
any other has a light side and a heavy side.

Every recorded number except the SDP duals is a deterministic function of
the instance, ``eps`` and the config, and one function, ``_build_payload``,
computes all of them.  ``refute_kxor`` and ``refute_partitioned`` call it
with duals solved by ``sdp.inf1_upper``.  ``verify_certificate_detailed``
calls it with the recorded duals, each of which must match its matrix's
shape, have no negative entry, and make Z(d) + slack*I pass
``min_eig_check``, the Cholesky check that ``inf1_upper`` ran on it; the SDP
is never re-solved.  The verifier then compares the rebuilt payload with the
recorded one exactly: the same keys, the same list lengths, and leaves of
the same type and value.  Floats round-trip exactly through JSON, so an
honest certificate matches bit for bit, and a one-ulp shave is rejected.

A mismatched leaf is reported as ``"<path> does not re-derive"``, with the
path dotted and list indices in brackets (``light.report.blocks[0].norm_upper``).
Nested containers are compared before their scalar siblings, so the first
message names the root cause rather than a downstream sum.  A missing or extra
key, or a container of the wrong type, is a ``malformed certificate``.
``Certificate.load`` refuses the ``NaN`` / ``Infinity`` JSON literals.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import DEFAULT_CONFIG, RefuteConfig
from .instances import KXorInstance, PartitionedInstance, instance_digest
from . import sdp
from .linalg import min_eig_check
from .reduce import bipartite_matrix, decompose, kxor_to_partitioned
from .sdp import DualCert, two_xor_value, z_matrix
from .spectral import certify_dbounded, side_fits

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


def _side_mode(m_side: int, small: float, active: str) -> str:
    if m_side == 0:
        return "empty"
    if m_side < small:
        return "trivial"
    return active


def _sdp_report(mat: np.ndarray, dual: DualCert, eps: float, m: int) -> dict:
    """An SDP side's report: the dual's bound and the value bound it implies."""
    bound = dual.bound()
    val_upper, status = two_xor_value(bound, eps, m)
    rows, cols = mat.shape
    return {"eps": eps, "rows": rows, "cols": cols, "status": status,
            "bound": bound, "val_upper": val_upper, "dual": dual.to_json_dict()}


def _whole_matrix(psi: PartitionedInstance) -> np.ndarray:
    """A = sum_c s_c (e_u e_v^T + e_v e_u^T) / 2, so that x^T A x is the advantage at x.

    Its entries are halves of integer sums, so A is exact and exactly symmetric.
    """
    one_sided = np.zeros((psi.n, psi.n))
    _, u, v, s = psi.constraints.T
    np.add.at(one_sided, (u, v), s)
    return (one_sided + one_sided.T) / 2.0


def _build_payload(inst, digest: str, eps: float, config: RefuteConfig, dual_for) -> dict:
    """The payload for inst (digest: its instance_digest); dual_for(key, matrix) gives a dual.

    A k-XOR instance is reduced to partitioned 2-XOR first.  With one part
    (ell = 1: every even k, and 2-XOR) the instance is plain 2-XOR, whose
    advantage sum_c s_c x_u x_v = x^T A x is at most the infinity-to-one
    norm of A, so one SDP dual on A ("whole") bounds the value by
    1/2 + bound/(2m); ``light`` and ``heavy`` then carry no report.
    Otherwise both sides are certified at eps/2; a side smaller than
    eps*m/2, or a light side too large to build (``side_fits``), is
    bounded trivially by its own size; the certified combined value is
    (light bound + heavy bound) / m.  The outcome is REFUTED exactly when
    the certified value is at most 1/2 + eps.  ``decomposition`` is
    recorded either way.
    """
    if not 0.0 < eps < 0.5:
        raise ValueError("eps must lie in (0, 1/2)")
    if inst.m == 0:
        raise ValueError("empty instance")
    eps = float(eps)
    red = kxor_to_partitioned(inst) if isinstance(inst, KXorInstance) else None
    psi = inst if red is None else red.psi
    dec = decompose(psi, eps, config.c_split)
    m, m1, m2 = psi.m, dec.m_light, dec.m_heavy
    small = 0.5 * eps * m
    eps_half = 0.5 * eps

    whole = None
    if psi.ell == 1:
        mat = _whole_matrix(psi)
        whole = _sdp_report(mat, dual_for("whole", mat), eps, m)
        light = {"mode": "whole", "m": m1, "side_bound": float(m1), "report": None}
        heavy = {"mode": "whole", "m": m2, "side_bound": float(m2), "report": None}
        case, certified = "whole", whole["val_upper"]
    else:
        active = "spectral" if side_fits(dec.light.n) else "trivial"
        light = {"mode": _side_mode(m1, small, active), "m": m1, "side_bound": float(m1),
                 "report": None}
        if light["mode"] == "spectral":
            report = certify_dbounded(dec.light, eps_half, config,
                                      d_bound=dec.d_cap).to_json_dict()
            light.update(side_bound=_side_bound(m1, report["val_upper"]), report=report)
        heavy = {"mode": _side_mode(m2, small, "sdp"), "m": m2, "side_bound": float(m2),
                 "report": None}
        if heavy["mode"] == "sdp":
            mat = bipartite_matrix(dec.heavy)
            report = _sdp_report(mat, dual_for("heavy", mat), eps_half, m2)
            heavy.update(side_bound=_side_bound(m2, report["val_upper"]), report=report)
        if m2 < small:
            case = "heavy-small"
        elif m1 < small:
            case = "light-small"
        else:
            case = "both-large"
        certified = min(1.0, (light["side_bound"] + heavy["side_bound"]) / m)
    payload = {
        "schema": SCHEMA,
        "tool": "xorcert",
        "version": TOOL_VERSION,
        "kind": "p2xor" if red is None else "kxor",
        "instance_digest": digest,
        "eps": eps,
        "config": config.to_json_dict(),
        "outcome": REFUTED if certified <= 0.5 + eps else UNKNOWN,
        "certified_val_upper": certified,
        "combination_case": case,
        "decomposition": {
            "d_cap": dec.d_cap, "m_light": m1, "m_heavy": m2,
            "heavy_groups": len(dec.heavy.left_labels),
        },
        "light": light,
        "heavy": heavy,
        "whole": whole,
    }
    if red is not None:
        payload["reduction"] = {
            "ell": psi.ell,
            "n_psi": psi.n,
            "subset_size": red.dictionary.subset_size,
            "dictionary_digest": red.dictionary.digest(),
            "psi_digest": instance_digest(psi),
        }
    return payload


def _refute(inst, eps: float, config: RefuteConfig | None) -> Certificate:
    config = config or DEFAULT_CONFIG
    return Certificate(payload=_build_payload(inst, instance_digest(inst), eps, config,
                                              lambda key, mat: sdp.inf1_upper(mat)[1]))


def refute_partitioned(inst: PartitionedInstance, eps: float,
                       config: RefuteConfig | None = None) -> Certificate:
    """Decompose, certify both sides at eps/2, and combine the side bounds."""
    return _refute(inst, eps, config)


def refute_kxor(inst: KXorInstance, eps: float,
                config: RefuteConfig | None = None) -> Certificate:
    """Reduce to partitioned 2-XOR and refute; the value bound transfers back."""
    return _refute(inst, eps, config)


# ---------------------------------------------------------------------------
# Verification.
# ---------------------------------------------------------------------------

class _DualRejected(Exception):
    """A recorded SDP dual fails one of its checks."""


def _checked_dual(data: dict, mat: np.ndarray) -> DualCert:
    """Parse a recorded dual and check that it certifies Z(d) + slack*I PSD.

    The dual must also be in the prover's form (``sdp._rounded``): d on its
    grid and the slack worked out from d, so that each bound has one dual.
    """
    dual = DualCert.from_json_dict(data)  # non-finite entries raise ValueError
    if (len(dual.d_left), len(dual.d_right)) != mat.shape:
        raise _DualRejected("dual certificate dimensions do not match")
    d = np.array(dual.d_left + dual.d_right, dtype=float)
    if dual.slack < 0 or (d < 0).any():
        raise _DualRejected("dual certificate has negative entries")
    if sdp._rounded(mat, d) != dual:
        raise _DualRejected("dual certificate is off its grid or has a different slack")
    if not min_eig_check(z_matrix(mat, d), dual.slack):
        raise _DualRejected("dual certificate fails the PSD check")
    return dual


def _compare(want, got, path: str, failures: list[str]) -> None:
    """Append one message per place where got differs from want, containers first."""
    where = path or "payload"
    if isinstance(want, dict):
        if not isinstance(got, dict):
            failures.append(f"malformed certificate: {where} is a {type(got).__name__}, "
                            "not an object")
            return
        if got.keys() != want.keys():
            missing = sorted(map(str, want.keys() - got.keys()))
            extra = sorted(map(str, got.keys() - want.keys()))
            failures.append(f"malformed certificate: {where} keys differ "
                            f"(missing {missing}, unexpected {extra})")
            return
        items = [(f"{path}.{key}" if path else key, want[key], got[key]) for key in want]
    elif isinstance(want, list):
        if not isinstance(got, list):
            failures.append(f"malformed certificate: {where} is a {type(got).__name__}, "
                            "not a list")
            return
        if len(got) != len(want):
            failures.append(f"{where} does not re-derive")
            return
        items = [(f"{path}[{i}]", w, g) for i, (w, g) in enumerate(zip(want, got))]
    else:
        # the type check keeps 1, 1.0 and True apart
        if not (type(got) is type(want) and got == want):
            failures.append(f"{where} does not re-derive")
        return
    # sorted is stable: containers first, each group in _build_payload's order
    for sub, w, g in sorted(items, key=lambda item: not isinstance(item[1], (dict, list))):
        _compare(w, g, sub, failures)


def verify_certificate_detailed(cert: Certificate, inst) -> tuple[bool, list[str]]:
    """Rebuild the payload around the recorded dual; returns (ok, failure descriptions)."""
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
        digest = instance_digest(inst)
        if payload["instance_digest"] != digest:
            return False, ["instance digest mismatch"]
        kind = payload["kind"]
        if kind not in ("kxor", "p2xor"):
            return False, [f"unknown certificate kind {kind!r}"]
        if not isinstance(inst, KXorInstance if kind == "kxor" else PartitionedInstance):
            return False, ["certificate kind does not match the instance"]
        rebuilt = _build_payload(inst, digest, eps, config, lambda key, mat: _checked_dual(
            (payload["whole"] if key == "whole" else payload["heavy"]["report"])["dual"], mat))
    except _DualRejected as exc:
        return False, [str(exc)]
    except (KeyError, TypeError, ValueError, ArithmeticError) as exc:
        return False, [f"malformed certificate: {exc}"]
    failures: list[str] = []
    _compare(rebuilt, payload, "", failures)
    return not failures, failures


def verify_certificate(cert: Certificate, inst) -> bool:
    """True iff every certified claim in the certificate re-derives and re-checks."""
    ok, _ = verify_certificate_detailed(cert, inst)
    return ok
