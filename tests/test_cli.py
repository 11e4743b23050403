from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import xorcert.cli
from xorcert import (Certificate, GenSpec, KXorInstance, PartitionedInstance, RefuteConfig,
                     gen_kxor, load_instance, refute_kxor, refute_partitioned, save_instance,
                     verify_certificate_detailed)
from xorcert.cli import CSV_HEADER, main


def run(*argv) -> int:
    return main(["--quiet", *[str(a) for a in argv]])


@pytest.fixture()
def workdir(tmp_path):
    return tmp_path


def test_generate_reduce_decompose_refute_verify_round_trip(workdir):
    phi = workdir / "phi.json"
    psi = workdir / "psi.json"
    dec = workdir / "dec.json"
    cert = workdir / "cert.json"

    assert run("generate", "--kind", "random", "--n", 10, "--m", 2000,
               "--seed", 7, "--k", 3, "-o", phi) == 0
    assert run("reduce", "--in", phi, "-o", psi) == 0
    assert (workdir / "psi.json.dict.json").exists()
    assert load_instance(psi).ell == 10

    assert run("decompose", "--in", psi, "--eps", 0.25, "-o", dec) == 0
    data = json.loads(dec.read_text())
    assert data["m_light"] + data["m_heavy"] == 2000
    assert data["d_cap"] == 64

    assert run("refute", "--in", phi, "--eps", 0.25, "-o", cert) == 0
    payload = Certificate.load(cert).payload
    assert payload["outcome"] == "REFUTED"
    # each digest is the SHA-256 of the file xorcert wrote for that artifact
    assert (_sha(phi), _sha(psi), _sha(workdir / "psi.json.dict.json")) == (
        payload["instance_digest"], payload["reduction"]["psi_digest"],
        payload["reduction"]["dictionary_digest"])

    assert run("verify", "--inst", phi, "--cert", cert) == 0
    assert run("verify", "--inst", phi, "--cert", cert, "--brute") == 0


# SHA-256 of the files `reduce` writes for seeded draws, recorded with numpy
# 2.4.6.  Each file holds its artifact's canonical bytes, so each pin is also
# the digest a certificate records for it (`psi_digest`, `dictionary_digest`).
# The subset dictionary lists the halves in ascending order, so a change to
# how it is computed must keep these bytes.
REDUCE_SHA = {  # k: (reduced instance, dictionary sidecar)
    4: ("4238ea421df0886e497b2e02cab64189a36a39487d0af003bb1e9c4fd33bd672",
        "f7438d47dda951dd3dc411c4a7e6cbaecec3b78bdc25917817bedd0d115dad6b"),
    6: ("2e3375a628c4a18df8819e1f2fd0929486663866fce7478394ff2d7ab3757a0b",
        "533f0e7b2247d8f7678811936b2561698427e9ed10f97ec62e59481079ea28fe"),
}


def _sha(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("k", sorted(REDUCE_SHA))
def test_reduce_outputs_are_pinned(workdir, k):
    # half-subsets of size 2 and 3
    phi = workdir / "phi.json"
    psi = workdir / "psi.json"
    assert run("generate", "--kind", "random", "--n", 10, "--m", 300,
               "--seed", 5, "--k", k, "-o", phi) == 0
    assert run("reduce", "--in", phi, "-o", psi) == 0
    assert (_sha(psi), _sha(workdir / "psi.json.dict.json")) == REDUCE_SHA[k]


def test_decompose_output_is_pinned(workdir):
    # three heavy groups (146 constraints) and 454 light ones, provenance included
    inst = workdir / "inst.json"
    dec = workdir / "dec.json"
    assert run("generate", "--kind", "p2xor", "--n", 10, "--m", 600,
               "--seed", 5, "--ell", 3, "-o", inst) == 0
    assert run("decompose", "--in", inst, "--eps", 0.3, "-o", dec) == 0
    assert _sha(dec) == "afceb2c7b64dc083e6e1e6da436ab3bc0ae97d9a83c86225220d07dcbdcd3377"


def test_refute_unknown_exit_code(workdir):
    inst = workdir / "inst.json"
    assert run("generate", "--kind", "p2xor", "--n", 8, "--m", 30,
               "--seed", 1, "--ell", 2, "-o", inst) == 0
    # eps this small cannot be certified at m = 30
    assert run("refute", "--in", inst, "--eps", 0.01, "-o", workdir / "c.json") == 10


def test_verify_fails_on_tampered_certificate(workdir):
    inst = workdir / "inst.json"
    cert = workdir / "cert.json"
    assert run("generate", "--kind", "p2xor", "--n", 20, "--m", 1500,
               "--seed", 3, "--ell", 1, "-o", inst) == 0
    assert run("refute", "--in", inst, "--eps", 0.3, "-o", cert) in (0, 10)
    data = json.loads(cert.read_text())
    data["certified_val_upper"] = 0.5
    cert.write_text(json.dumps(data))
    assert run("verify", "--inst", inst, "--cert", cert) == 1


def test_verify_fails_on_non_finite_certificate(workdir, capsys):
    inst = workdir / "inst.json"
    cert = workdir / "cert.json"
    assert run("generate", "--kind", "p2xor", "--n", 20, "--m", 1500,
               "--seed", 3, "--ell", 1, "-o", inst) == 0
    assert run("refute", "--in", inst, "--eps", 0.3, "-o", cert) in (0, 10)
    data = json.loads(cert.read_text())
    assert data["heavy"]["mode"] == "whole"  # one part: one SDP bounds the instance
    data["whole"]["dual"]["slack"] = float("inf")
    cert.write_text(json.dumps(data))  # json writes the Infinity literal
    capsys.readouterr()
    assert run("verify", "--inst", inst, "--cert", cert) == 1
    out, err = capsys.readouterr()
    assert "non-finite number Infinity" in out
    assert "Traceback" not in out + err


def test_verify_fails_on_non_object_certificate(workdir, capsys):
    inst = workdir / "inst.json"
    cert = workdir / "cert.json"
    assert run("generate", "--kind", "p2xor", "--n", 6, "--m", 10,
               "--seed", 0, "--ell", 1, "-o", inst) == 0
    cert.write_text("[]")
    capsys.readouterr()
    assert run("verify", "--inst", inst, "--cert", cert) == 1
    out, err = capsys.readouterr()
    assert "malformed certificate" in out
    assert "Traceback" not in out + err


def test_removed_config_key_is_rejected(workdir, capsys):
    inst = workdir / "inst.json"
    cert = workdir / "cert.json"
    config = workdir / "old.json"
    assert run("generate", "--kind", "p2xor", "--n", 12, "--m", 200,
               "--seed", 5, "--ell", 2, "-o", inst) == 0
    config.write_text(json.dumps({"sdp_barrier_dim_cap": 400}))
    assert run("refute", "--in", inst, "--eps", 0.3, "--config", config) == 2
    # a certificate whose embedded config carries a removed key fails to verify
    assert run("refute", "--in", inst, "--eps", 0.3, "-o", cert) in (0, 10)
    data = json.loads(cert.read_text())
    data["config"]["sdp_barrier_dim_cap"] = 400
    cert.write_text(json.dumps(data))
    capsys.readouterr()
    assert run("verify", "--inst", inst, "--cert", cert) == 1
    assert "unknown config keys" in capsys.readouterr().out


def test_input_error_exit_codes(workdir):
    missing = workdir / "nope.json"
    assert run("refute", "--in", missing, "--eps", 0.2) == 2
    inst = workdir / "inst.json"
    assert run("generate", "--kind", "p2xor", "--n", 6, "--m", 10,
               "--seed", 0, "--ell", 1, "-o", inst) == 0
    assert run("refute", "--in", inst, "--eps", 0.7) == 2  # eps out of range
    assert run("generate", "--kind", "random", "--n", 6, "--m", 10,
               "--seed", 0, "-o", workdir / "x.json") == 2  # --k missing
    assert run("reduce", "--in", inst, "-o", workdir / "y.json") == 2  # not a kxor file
    bad = workdir / "bad.json"
    bad.write_text("{not json")
    assert run("verify", "--inst", inst, "--cert", bad) == 2


def test_verify_brute_cap(workdir):
    inst = workdir / "inst.json"
    cert = workdir / "cert.json"
    assert run("generate", "--kind", "p2xor", "--n", 30, "--m", 4000,
               "--seed", 2, "--ell", 1, "-o", inst) == 0
    assert run("refute", "--in", inst, "--eps", 0.25, "-o", cert) == 0
    # n + ell = 31 > 24: --brute must refuse rather than hang
    assert run("verify", "--inst", inst, "--cert", cert, "--brute") == 2
    assert run("verify", "--inst", inst, "--cert", cert) == 0


def test_refute_is_byte_deterministic(workdir):
    inst = workdir / "inst.json"
    assert run("generate", "--kind", "p2xor", "--n", 12, "--m", 200,
               "--seed", 5, "--ell", 2, "-o", inst) == 0
    c1 = workdir / "c1.json"
    c2 = workdir / "c2.json"
    assert run("refute", "--in", inst, "--eps", 0.3, "-o", c1) in (0, 10)
    assert run("refute", "--in", inst, "--eps", 0.3, "-o", c2) in (0, 10)
    assert c1.read_text() == c2.read_text()


def test_experiment_csv(workdir):
    out = workdir / "grid.csv"
    assert run("experiment", "--families", "random", "--n", 10, "--m", "50,100",
               "--eps", 0.3, "--k", 3, "--seeds", 2, "-o", out) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + 2 * 2
    for line in lines[1:]:
        fields = line.split(",")
        assert fields[0] == "random" and fields[1] == "10" and fields[2] == "3"
        assert fields[6] in ("REFUTED", "UNKNOWN")
        assert int(fields[8]) + int(fields[9]) == int(fields[3])


def test_experiment_jobs_matches_serial(workdir):
    serial = workdir / "serial.csv"
    parallel = workdir / "parallel.csv"
    args = ("experiment", "--families", "p2xor", "--n", 8, "--m", 40,
            "--eps", 0.3, "--ell", 2, "--seeds", 2, "--seed-base", 11)
    assert run(*args, "-o", serial) == 0
    assert run(*args, "--jobs", 2, "-o", parallel) == 0

    def strip_wall(path):
        return [line.rsplit(",", 1)[0] for line in path.read_text().splitlines()]

    assert strip_wall(serial) == strip_wall(parallel)


@pytest.fixture()
def pool_sizes(monkeypatch):
    """Swap ProcessPoolExecutor for a serial stand-in; the list of max_workers it got."""
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(xorcert.cli, "ProcessPoolExecutor", SerialPool)
    return sizes


@pytest.mark.parametrize("jobs,seeds,workers", [(8, 3, [3]), (2, 3, [2]), (4, 1, []), (1, 3, [])])
def test_experiment_starts_no_more_workers_than_runs(workdir, pool_sizes, jobs, seeds, workers):
    out = workdir / "grid.csv"
    assert run("experiment", "--families", "p2xor", "--n", 8, "--m", 40, "--eps", 0.3,
               "--ell", 2, "--seeds", seeds, "--jobs", jobs, "-o", out) == 0
    assert pool_sizes == workers
    assert len(out.read_text().splitlines()) == 1 + seeds


@pytest.mark.parametrize("jobs", [0, -1])
def test_experiment_rejects_jobs_below_one(workdir, pool_sizes, capsys, jobs):
    assert run("experiment", "--families", "p2xor", "--n", 8, "--m", 40, "--eps", 0.3,
               "--ell", 2, "--jobs", jobs, "-o", workdir / "grid.csv") == 2
    assert pool_sizes == []
    assert "--jobs" in capsys.readouterr().err


def test_experiment_validation(workdir):
    assert run("experiment", "--families", "random", "--n", 8, "--m", 10,
               "--eps", 0.3) == 2  # --k missing
    assert run("experiment", "--families", "bogus", "--n", 8, "--m", 10,
               "--eps", 0.3, "--k", 3) == 2


@pytest.mark.parametrize("config", [
    {"alpha_c": "1"},
    {"block_delta": True},
    {"c_split": "4"},
    {"c_split": 1e308},
])
def test_refute_rejects_bad_config_value(workdir, capsys, config):
    inst = workdir / "inst.json"
    path = workdir / "config.json"
    assert run("generate", "--kind", "p2xor", "--n", 8, "--m", 60,
               "--seed", 0, "--ell", 1, "-o", inst) == 0
    path.write_text(json.dumps(config))
    assert run("refute", "--in", inst, "--eps", 0.3, "--config", path) == 2
    assert "Traceback" not in "".join(capsys.readouterr())


@pytest.mark.parametrize("eps", [
    1e-300,  # eps * eps underflows, so the degree cap c_split / eps^2 is not finite
    1e-100,  # eps ** 4 underflows, so the weight-class alpha is not finite
])
def test_refute_rejects_tiny_eps(workdir, capsys, eps):
    inst = workdir / "inst.json"
    assert run("generate", "--kind", "random", "--n", 8, "--m", 60, "--k", 3,
               "--seed", 0, "-o", inst) == 0
    assert run("refute", "--in", inst, "--eps", eps) == 2
    assert "Traceback" not in "".join(capsys.readouterr())


@pytest.mark.parametrize("text", [
    "[1, 2]",  # not a JSON object
    '{"kind": "p2xor", "n": 4, "ell": 1, "constraints": [[0, 1]]}',  # short row
    '{"kind": "p2xor", "n": 4, "ell": 1, "constraints": [[0, 1.7, 2, 1]]}',  # float vertex
    '{"kind": "kxor", "n": 4, "k": 3, "constraints": [[0, 1, 2, 1.5]]}',  # float sign
    '{"kind": "kxor", "n": 4, "k": 3, "constraints": [[0, 1, 2, true]]}',  # boolean sign
    '{"kind": "p2xor", "n": 100000000000000000000000000000, "ell": 1, '
    '"constraints": [[0, 0, 1, 1]]}',  # n beyond int64
    '{"kind": "p2xor", "n": 4, "ell": 100000000000000000000000000000, '
    '"constraints": [[0, 0, 1, 1]]}',  # ell beyond int64
], ids=["not-object", "short-row", "float-vertex", "float-sign", "bool-sign",
        "huge-n", "huge-ell"])
def test_malformed_instance_is_an_input_error(workdir, capsys, text):
    inst = workdir / "inst.json"
    cert = workdir / "cert.json"
    inst.write_text(text)
    cert.write_text("{}")
    assert run("refute", "--in", inst, "--eps", 0.3, "-o", cert) == 2
    assert run("verify", "--inst", inst, "--cert", cert) == 2
    out, err = capsys.readouterr()
    assert "bad instance file" in err
    assert "Traceback" not in out + err


@pytest.mark.parametrize("kind,arity", [("p2xor", "--ell"), ("random", "--k")],
                         ids=["p2xor", "random"])
def test_generate_rejects_n_beyond_int64(workdir, capsys, kind, arity):
    assert run("generate", "--kind", kind, "--n", 10 ** 29, "--m", 10, arity, 2,
               "-o", workdir / "inst.json") == 2
    assert "Traceback" not in "".join(capsys.readouterr())


@pytest.mark.parametrize("inst", [
    PartitionedInstance(n=3, ell=1, constraints=((0, 0, 1, 1),) * 10 + ((0, 0, 1, -1),) * 10),
    KXorInstance.make(n=4, k=3, constraints=[((0, 1, 2), 1)] * 10 + [((0, 1, 2), -1)] * 10),
], ids=["p2xor", "kxor"])
def test_verify_accepts_cancelled_heavy_side(workdir, inst):
    # the heavy side's pair matrix sums to zero; its certificate must still verify
    path = workdir / "inst.json"
    cert = workdir / "cert.json"
    save_instance(inst, path)
    assert run("refute", "--in", path, "--eps", 0.45, "-o", cert) == 0
    assert run("verify", "--inst", path, "--cert", cert) == 0


NESTED_JSON = "[" * 200000 + "]" * 200000  # too deep for the json module's recursion


@pytest.mark.parametrize("which", ["instance", "config", "certificate"])
def test_deeply_nested_json_is_an_input_error(workdir, capsys, which):
    inst = workdir / "inst.json"
    cert = workdir / "cert.json"
    nested = workdir / "nested.json"
    nested.write_text(NESTED_JSON)
    assert run("generate", "--kind", "p2xor", "--n", 8, "--m", 60,
               "--seed", 0, "--ell", 1, "-o", inst) == 0
    assert run("refute", "--in", inst, "--eps", 0.3, "-o", cert) in (0, 10)
    capsys.readouterr()
    if which == "instance":
        assert run("refute", "--in", nested, "--eps", 0.3) == 2
    elif which == "config":
        assert run("refute", "--in", inst, "--eps", 0.3, "--config", nested) == 2
    else:
        assert run("verify", "--inst", inst, "--cert", nested) == 2
    out, err = capsys.readouterr()
    assert f"bad {which} file" in err
    assert "Traceback" not in out + err


HUGE_N = 2 ** 28


@pytest.mark.parametrize("ell", [1, 2])
def test_huge_declared_n_refutes_and_verifies(workdir, capsys, ell):
    # a cancelling pair on vertices 0 and 2^28 - 1 in each of the ell parts:
    # sized by the declared n, A would take 512 PiB and the heavy side 2 GiB;
    # at eps 0.4, c_split 0.25 gives d_cap 2, so for ell = 2 all four
    # constraints go heavy, in two groups
    inst = PartitionedInstance(n=HUGE_N, ell=ell, constraints=[
        (part, 0, HUGE_N - 1, s) for part in range(ell) for s in (1, -1)])
    config = RefuteConfig(c_split=0.25)
    cert = refute_partitioned(inst, 0.4, config)
    report = cert.payload["whole"] if ell == 1 else cert.payload["heavy"]["report"]
    assert (report["rows"], report["cols"]) == (2, 2)
    assert cert.outcome == "REFUTED"
    assert verify_certificate_detailed(cert, inst) == (True, [])

    path = workdir / "inst.json"
    config_path = workdir / "config.json"
    cert_path = workdir / "cert.json"
    save_instance(inst, path)
    config_path.write_text(json.dumps(config.to_json_dict()))
    capsys.readouterr()
    assert run("refute", "--in", path, "--eps", 0.4, "--config", config_path,
               "-o", cert_path) == 0
    assert run("verify", "--inst", path, "--cert", cert_path) == 0
    out, err = capsys.readouterr()
    assert "Traceback" not in out + err


# Renames vertex 11 of a 3-XOR instance on n = 12 to 2^28 - 1, declares
# n = 2^28, and refutes and verifies it through main under a 1.5 GiB
# address-space limit, which any table of 2^28 int64 entries would exceed.
_HUGE_KXOR = """
import resource, sys
import numpy as np
from xorcert import GenSpec, KXorInstance, gen_kxor, save_instance
from xorcert.cli import main
resource.setrlimit(resource.RLIMIT_AS, (3 << 29, 3 << 29))
small = gen_kxor(GenSpec("random", n=12, m=300, seed=3, k=3))
clauses = np.where(small.clauses == 11, {huge} - 1, small.clauses)
save_instance(KXorInstance(n={huge}, k=3, clauses=clauses, signs=small.signs), "inst.json")
print(main(["--quiet", "refute", "--in", "inst.json", "--eps", "0.3", "-o", "cert.json"]),
      main(["--quiet", "verify", "--inst", "inst.json", "--cert", "cert.json"]))
"""


def test_huge_declared_n_kxor_refutes_and_verifies(workdir):
    # the subset dictionary lists the 11 vertices named outside the part
    # column and the degree profile the 9 parts in use, so the certificate
    # bounds the value as for n = 12, although ell = n = 2^28
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-c", _HUGE_KXOR.format(huge=HUGE_N)], cwd=workdir,
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0 and "Traceback" not in proc.stdout + proc.stderr, proc.stderr
    assert proc.stdout.split()[-2:] == ["0", "0"]
    payload = Certificate.load(workdir / "cert.json").payload
    assert payload["outcome"] == "REFUTED" and payload["light"]["mode"] == "spectral"
    assert payload["certified_val_upper"] == 0.6926839420329572
    small = refute_kxor(gen_kxor(GenSpec("random", n=12, m=300, seed=3, k=3)), 0.3)
    assert payload["certified_val_upper"] == small.certified_val_upper
