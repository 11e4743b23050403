"""Command-line front end: generate, reduce, decompose, refute, verify, experiment.

Exit codes: refute exits 0 on REFUTED, 10 on UNKNOWN, 2 on input error;
verify exits 0 when every check passes, 1 on a failed certificate, 2 on input
error.  Machine artifacts go to files; stdout carries a one-line human summary;
logging goes to stderr and is silenced by --quiet.
"""
from __future__ import annotations

import argparse
import csv
import json
import logging
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from .config import DEFAULT_CONFIG, RefuteConfig
from .generate import FAMILIES, GenSpec, gen_kxor, gen_random_partitioned
from .instances import (KXorInstance, PartitionedInstance, instance_digest,
                        load_instance, save_instance, to_json_dict)
from .oracle import brute_force_val
from .pipeline import (Certificate, refute_kxor, refute_partitioned,
                       verify_certificate_detailed)
from .reduce import decompose, kxor_to_partitioned

log = logging.getLogger("xorcert")

CSV_HEADER = "family,n,k_or_ell,m,eps,seed,outcome,bound,m_light,m_heavy,wall_ms"

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_INPUT = 2
EXIT_UNKNOWN = 10


class CliError(Exception):
    """Input error: bad file, bad flag combination, malformed JSON."""


def _write_json(path: str, data: dict) -> None:
    Path(path).write_text(json.dumps(data, sort_keys=True, indent=2) + "\n")


def _load_config(args) -> RefuteConfig:
    config = DEFAULT_CONFIG
    if args.config:
        try:
            config = RefuteConfig.from_json_dict(json.loads(Path(args.config).read_text()))
        except (OSError, json.JSONDecodeError, ValueError, TypeError, RecursionError) as exc:
            raise CliError(f"bad config file {args.config}: {exc}") from exc
    return config


def _load_instance(path: str):
    try:
        return load_instance(path)
    except (OSError, json.JSONDecodeError, KeyError, ValueError, TypeError,
            RecursionError) as exc:  # RecursionError: JSON nested too deeply to parse
        raise CliError(f"bad instance file {path}: {exc}") from exc


def _check_eps(eps: float) -> float:
    if not 0.0 < eps < 0.5:
        raise CliError(f"eps must lie in (0, 1/2), got {eps}")
    return eps


def cmd_generate(args) -> int:
    """Write a generated instance to --out."""
    try:
        if args.kind == "p2xor":
            if args.ell is None:
                raise CliError("p2xor generation requires --ell")
            inst = gen_random_partitioned(args.n, args.ell, args.m, args.seed)
        else:
            if args.k is None:
                raise CliError(f"family {args.kind!r} requires --k")
            params = {}
            if args.group_size is not None:
                params["group_size"] = args.group_size
            if args.cluster_size is not None:
                params["cluster_size"] = args.cluster_size
            spec = GenSpec(kind=args.kind, n=args.n, m=args.m, seed=args.seed,
                           k=args.k, params=params)
            inst = gen_kxor(spec)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    save_instance(inst, args.out)
    log.info("generated %s -> %s", args.kind, args.out)
    print(f"generated {args.kind} n={inst.n} m={inst.m} digest={instance_digest(inst)[:12]} "
          f"-> {args.out}")
    return EXIT_OK


def cmd_reduce(args) -> int:
    """Reduce a k-XOR instance to partitioned 2-XOR; writes a dictionary sidecar."""
    inst = _load_instance(args.infile)
    if not isinstance(inst, KXorInstance):
        raise CliError("reduce expects a kxor instance")
    red = kxor_to_partitioned(inst)
    save_instance(red.psi, args.out)
    dict_path = args.out + ".dict.json"
    Path(dict_path).write_bytes(red.dictionary.canonical_bytes())
    print(f"reduced k={inst.k} m={inst.m} -> ell={red.psi.ell} n={red.psi.n} "
          f"({args.out}, dictionary {dict_path})")
    return EXIT_OK


def _provenance_json(dec) -> list:
    """Per constraint, ["light"] or ["heavy", part, vertex] of its group."""
    tags = np.empty(len(dec.heavy.left_labels) + 1, dtype=object)
    tags[0] = ["light"]
    for i, label in enumerate(dec.heavy.left_labels.tolist(), start=1):
        tags[i] = ["heavy", *label]
    return tags[dec.provenance + 1].tolist()


def cmd_decompose(args) -> int:
    """Split a partitioned instance into light/heavy sides at the degree cap."""
    inst = _load_instance(args.infile)
    if not isinstance(inst, PartitionedInstance):
        raise CliError("decompose expects a p2xor instance")
    eps = _check_eps(args.eps)
    config = _load_config(args)
    dec = decompose(inst, eps, config.c_split)
    _write_json(args.out, {
        "d_cap": dec.d_cap,
        "m_light": dec.m_light,
        "m_heavy": dec.m_heavy,
        "light": to_json_dict(dec.light),
        "heavy": {
            "left_labels": dec.heavy.left_labels.tolist(),
            "n_right": dec.heavy.n_right,
            "constraints": dec.heavy.constraints.tolist(),
        },
        "provenance": _provenance_json(dec),
    })
    print(f"decomposed m={inst.m} at d_cap={dec.d_cap}: "
          f"m_light={dec.m_light} m_heavy={dec.m_heavy} -> {args.out}")
    return EXIT_OK


def cmd_refute(args) -> int:
    """Refute an instance and write the certificate; exit 0 REFUTED, 10 UNKNOWN."""
    inst = _load_instance(args.infile)
    eps = _check_eps(args.eps)
    config = _load_config(args)
    if isinstance(inst, KXorInstance):
        cert = refute_kxor(inst, eps, config)
    else:
        cert = refute_partitioned(inst, eps, config)
    if args.out:
        cert.save(args.out)
        log.info("certificate -> %s", args.out)
    print(f"{cert.outcome}: certified val <= {cert.certified_val_upper:.6f} "
          f"(eps={eps}, case {cert.payload['combination_case']})")
    return EXIT_OK if cert.outcome == "REFUTED" else EXIT_UNKNOWN


def cmd_verify(args) -> int:
    """Re-derive and re-check a certificate against its instance."""
    inst = _load_instance(args.inst)
    try:
        cert = Certificate.load(args.cert)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise CliError(f"bad certificate file {args.cert}: {exc}") from exc
    except ValueError as exc:  # valid JSON syntax carrying NaN or Infinity
        ok, failures = False, [str(exc)]
    else:
        ok, failures = verify_certificate_detailed(cert, inst)
    for msg in failures:
        log.warning("verify: %s", msg)
    if ok and args.brute:
        val, _ = brute_force_val(inst, cap=args.brute_cap)
        if float(val) > cert.certified_val_upper:
            ok = False
            failures = [f"brute-force val {float(val):.6f} exceeds certified "
                        f"upper bound {cert.certified_val_upper:.6f}"]
            log.warning("verify: %s", failures[0])
        else:
            print(f"brute-force val {float(val):.6f} <= certified {cert.certified_val_upper:.6f}")
    if ok:
        print("certificate OK")
        return EXIT_OK
    print("certificate FAILED: " + "; ".join(failures))
    return EXIT_VERIFY_FAIL


def _experiment_cell(item: tuple) -> tuple:
    """One (family, n, m, eps, seed) run; returns a finished CSV row."""
    family, n, k_or_ell, m, eps, seed = item
    start = time.perf_counter()
    if family == "p2xor":
        inst = gen_random_partitioned(n, k_or_ell, m, seed)
        cert = refute_partitioned(inst, eps)
    else:
        spec = GenSpec(kind=family, n=n, m=m, seed=seed, k=k_or_ell)
        cert = refute_kxor(gen_kxor(spec), eps)
    wall_ms = (time.perf_counter() - start) * 1000.0
    dec = cert.payload["decomposition"]
    return (family, n, k_or_ell, m, eps, seed, cert.outcome,
            f"{cert.certified_val_upper:.9f}", dec["m_light"], dec["m_heavy"],
            f"{wall_ms:.3f}")


def cmd_experiment(args) -> int:
    """Sweep a (family, n, m, eps) grid over seeds and emit one CSV row per run."""
    families = [f.strip() for f in args.families.split(",") if f.strip()]
    for fam in families:
        if fam not in FAMILIES + ("p2xor",):
            raise CliError(f"unknown family {fam!r}")
    ns = [int(v) for v in args.n.split(",")]
    ms = [int(v) for v in args.m.split(",")]
    epss = [float(v) for v in args.eps.split(",")]
    for eps in epss:
        _check_eps(eps)
    if any(f != "p2xor" for f in families) and args.k is None:
        raise CliError("k-XOR families require --k")
    if "p2xor" in families and args.ell is None:
        raise CliError("family p2xor requires --ell")
    if args.jobs < 1:
        raise CliError(f"--jobs must be at least 1, got {args.jobs}")

    items = []
    cell_index = 0
    for family in families:
        k_or_ell = args.ell if family == "p2xor" else args.k
        for n in ns:
            for m in ms:
                for eps in epss:
                    for rep in range(args.seeds):
                        # derived seed: deterministic in (cell, rep), independent across cells
                        seed = args.seed_base ^ (cell_index << 20) ^ rep
                        items.append((family, n, k_or_ell, m, eps, seed))
                    cell_index += 1

    log.info("experiment: %d runs over %d cells", len(items), cell_index)
    # a fork-started pool starts all its workers at once, so start no idle ones
    workers = min(args.jobs, len(items))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_experiment_cell, items))
    else:
        rows = [_experiment_cell(item) for item in items]

    out = Path(args.out).open("w", newline="") if args.out else sys.stdout
    try:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(CSV_HEADER.split(","))
        writer.writerows(rows)
    finally:
        if args.out:
            out.close()
    refuted = sum(1 for r in rows if r[6] == "REFUTED")
    log.info("experiment: %d/%d REFUTED", refuted, len(rows))
    if args.out:
        print(f"{len(rows)} rows -> {args.out} ({refuted} REFUTED)")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xorcert",
        description="Certified refutation of semi-random k-XOR / partitioned 2-XOR.",
    )
    parser.add_argument("--quiet", action="store_true", help="suppress stderr logging")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate an instance")
    p.add_argument("--kind", required=True, choices=FAMILIES + ("p2xor",))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--k", type=int, help="clause arity (k-XOR families)")
    p.add_argument("--ell", type=int, help="part count (p2xor)")
    p.add_argument("--group-size", type=int, help="heavy-group family parameter")
    p.add_argument("--cluster-size", type=int, help="clustered family parameter")
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("reduce", help="reduce k-XOR to partitioned 2-XOR")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("decompose", help="light/heavy split of a partitioned instance")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--config")
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("refute", help="refute and write a certificate")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--config", help="JSON config file")
    p.add_argument("-o", "--out", help="certificate output path")
    p.set_defaults(func=cmd_refute)

    p = sub.add_parser("verify", help="re-check a certificate against its instance")
    p.add_argument("--inst", required=True)
    p.add_argument("--cert", required=True)
    p.add_argument("--brute", action="store_true",
                   help="also require brute-force val <= certified bound")
    p.add_argument("--brute-cap", type=int, default=24)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("experiment", help="grid sweep with CSV output")
    p.add_argument("--families", default="random",
                   help="comma list from: " + ",".join(FAMILIES + ("p2xor",)))
    p.add_argument("--n", required=True, help="comma list")
    p.add_argument("--m", required=True, help="comma list")
    p.add_argument("--eps", required=True, help="comma list")
    p.add_argument("--k", type=int, help="arity for k-XOR families")
    p.add_argument("--ell", type=int, help="part count for p2xor")
    p.add_argument("--seeds", type=int, default=1, help="repetitions per cell")
    p.add_argument("--seed-base", type=int, default=0)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("-o", "--out", help="CSV path (default stdout)")
    p.set_defaults(func=cmd_experiment)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.WARNING if args.quiet else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except (CliError, OSError, ValueError) as exc:
        log.error("%s", exc)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
