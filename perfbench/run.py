"""Benchmark xorcert's refute and verify, end to end and layer by layer.

    python3 perfbench/run.py --workload heavy3 --seed 1 --seconds 36 --trace 0

Run from the root of a checkout: the program is imported from ./src.  A run
repeats whole rounds, at least two, while one more still fits in --seconds.
Round r sets the workload up afresh (a fresh interpreter times `import
xorcert`; every instance is generated under the presentation seeded by
(--seed, r) and round-tripped through save_instance / load_instance), then
refutes every instance with the default RefuteConfig, saves each
certificate, and verifies each one as a third party would: load it from
disk, then run verify_certificate_detailed.  The correctness checks run
after the timed rounds.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are the end-to-end ones, each the median over rounds; with
--trace 1 they are per layer, from spans recorded around the calls into
xorcert (see layers.py), and the spans are written to .perfbench_out/.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
# OpenBLAS uses every core by default.  On a 2-core machine that made one
# refute vary 6% between two identical runs (1.2% with one thread), and the
# SDP's certificate bytes depend on the thread count, so every BLAS/OpenMP
# pool is pinned to one thread before numpy loads, here and in the children.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
IMPORT_PROBE = ("import time; t = time.perf_counter(); import xorcert; "
                "print(repr(time.perf_counter() - t))")

END_TO_END_UNITS = {"refute_s": "s", "verify_s": "s", "setup_s": "s",
                    "peak_rss_mb": "MB", "val_upper_mean": "fraction"}


def import_seconds() -> float:
    """Seconds a fresh interpreter spends in `import xorcert`, as it reports."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                         capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.strip().splitlines()[-1])


class Bench:
    """One run of one workload: timed rounds, then the checks."""

    def __init__(self, workload: str, seed: int, workdir: Path):
        from workloads import WORKLOADS
        self.members = WORKLOADS[workload]
        self.seed = seed
        self.workdir = workdir
        self.done: list[dict] = []  # every round made, in order, kept small
        self.first: dict = {}  # round 1's instances, for the repeat checks
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0

    def set_up(self, r: int) -> dict:
        """Import, generate round r's instances, and round-trip them through JSON."""
        from workloads import generate
        from xorcert import load_instance, save_instance
        import_s = import_seconds()
        t0 = time.perf_counter()
        gens = [generate(mem, i, self.seed, r) for i, mem in enumerate(self.members)]
        t1 = time.perf_counter()
        paths = [self.workdir / f"inst{i}.json" for i in range(len(gens))]
        for g, path in zip(gens, paths):
            save_instance(g.inst, path)
        insts = [load_instance(path) for path in paths]
        t2 = time.perf_counter()
        return {"setup_s": import_s + (t2 - t0), "gen_s": t1 - t0, "io_s": t2 - t1,
                "gens": gens, "insts": insts}

    def round(self, tracer=None, presentation: int | None = None) -> dict:
        """Set up, refute every instance and save its certificate, then load and verify each.

        The instances are those of round `presentation`, by default a new one.
        """
        from xorcert import Certificate, refute_kxor, verify_certificate_detailed
        span = tracer.span if tracer is not None else (lambda name: nullcontext())
        if presentation is None:
            presentation = len(self.done)
        out = self.set_up(presentation)
        out["presentation"] = presentation
        gens, insts = out["gens"], out["insts"]
        refute_s = verify_s = 0.0
        certs: list = [None] * len(insts)
        verdicts: list = [None] * len(insts)
        verify_times: list = [math.inf] * len(insts)
        paths = [self.workdir / f"cert{i}.json" for i in range(len(insts))]
        for i, (g, inst) in enumerate(zip(gens, insts)):
            self.attempted += 1
            try:
                t0 = time.perf_counter()
                with span("pipeline.refute"):
                    certs[i] = refute_kxor(inst, g.member.eps)
                refute_s += time.perf_counter() - t0
            except Exception:
                traceback.print_exc(file=sys.stderr)
                self.failed += 1
                continue
            certs[i].save(paths[i])
        for i, inst in enumerate(insts):
            if certs[i] is None:
                continue
            self.attempted += 1
            try:
                t0 = time.perf_counter()
                with span("pipeline.verify"):
                    verdicts[i] = verify_certificate_detailed(Certificate.load(paths[i]), inst)
                verify_times[i] = time.perf_counter() - t0
                verify_s += verify_times[i]
            except Exception:
                traceback.print_exc(file=sys.stderr)
                self.failed += 1
        out.update(refute_s=refute_s, verify_s=verify_s, certs=certs, verdicts=verdicts,
                   verify_times=verify_times)
        self._keep(out)
        print(f"perfbench: round {len(self.done)}: setup {out['setup_s']:.3f} s, "
              f"refute {refute_s:.3f} s, verify {verify_s:.3f} s", file=sys.stderr)
        return out

    def _keep(self, out: dict) -> None:
        """Record a round for the checks, keeping only arrays of its instances.

        Keeping every round's instance objects would make the peak RSS grow
        with the number of rounds, that is with the program's speed.
        """
        import numpy as np
        from checks import clause_arrays
        gens, insts = out.pop("gens"), out.pop("insts")
        label = f"round {len(self.done) + 1}"
        if any(a != g.inst for a, g in zip(insts, gens)):
            self.problems.append(f"{label}: the JSON round trip changed an instance")
        out["cases"] = []
        for g in gens:
            clauses, signs = clause_arrays(g.inst.clauses, g.inst.signs)
            out["cases"].append((g.member, clauses.astype(np.int16), signs.astype(np.int8),
                                 g.planted_x))
        if not self.done:
            self.first = {"gens": gens, "insts": insts}
        self.done.append(out)

    def rounds(self, seconds: float, at_least: int, tracer=None) -> list[dict]:
        """At least `at_least` whole rounds, then more while another fits in `seconds`."""
        out = []
        t0 = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - t0
            if len(out) >= at_least and elapsed * (len(out) + 1) / len(out) > seconds:
                return out
            out.append(self.round(tracer))

    # -- checks, after the timed rounds --------------------------------------------

    def check(self) -> None:
        """Check every certificate of every round against the method and the references."""
        import numpy as np
        digests: dict = {}
        for r, rnd in enumerate(self.done):
            for i, (case, cert) in enumerate(zip(rnd["cases"], rnd["certs"])):
                if cert is not None:
                    label = f"round {r + 1} #{i} {case[0].label}"
                    rng = np.random.default_rng([self.seed, r, i])
                    self._check_cert(label, case, cert, rnd["verdicts"][i], rng)
                    sha = hashlib.sha256(cert.to_json().encode()).digest()
                    if digests.setdefault((rnd["presentation"], i), sha) != sha:
                        self.problems.append(f"{label}: certificate bytes differ from an "
                                             f"earlier round on the same instance")
        self._check_repeatable()

    def _check_cert(self, label: str, case, cert, verdict, rng) -> None:
        from xorcert import DEFAULT_CONFIG, REFUTED, UNKNOWN
        p = self.problems
        if verdict is not None and verdict != (True, []):
            p.append(f"{label}: verifier rejected the certificate: {verdict}")
        member, clauses, signs, planted_x = case
        payload = cert.payload
        eps, m = member.eps, len(signs)
        upper = payload["certified_val_upper"]
        dec = payload["decomposition"]
        if dec["m_light"] + dec["m_heavy"] != m:
            p.append(f"{label}: m_light + m_heavy != m")
        if dec["d_cap"] != math.ceil(DEFAULT_CONFIG.c_split / (eps * eps)):
            p.append(f"{label}: d_cap is not ceil(c_split / eps^2)")
        if (payload["outcome"] == REFUTED) != (upper <= 0.5 + eps):
            p.append(f"{label}: outcome {payload['outcome']} contradicts bound {upper}")
        best = self._reference_count(label, case, rng)
        if Fraction(upper) * m < best:
            p.append(f"{label}: certified {upper} is below an assignment's value {best}/{m}")
        if planted_x is not None and (payload["outcome"] != UNKNOWN or upper != 1.0):
            p.append(f"{label}: planted instance must be UNKNOWN at 1.0")

    def _reference_count(self, label: str, case, rng) -> int:
        """Most clauses an assignment found apart from xorcert satisfies."""
        from checks import exhaustive_best, local_search_best, satisfied
        member, clauses, signs, planted_x = case
        best = local_search_best(clauses, signs, member.n, rng)
        if planted_x is not None:
            planted = int(satisfied(clauses, signs, planted_x)[0])
            if planted != len(signs):
                self.problems.append(f"{label}: planted assignment is not satisfying")
            best = max(best, planted)
        if member.n <= 20:
            exact = exhaustive_best(clauses, signs, member.n)
            if exact < best:
                self.problems.append(f"{label}: enumeration found less than local search")
            best = exact
        return best

    def _check_repeatable(self) -> None:
        """Regenerate round 1 and refute its cheapest instance again: same bytes.

        That certificate, shaved by one ulp, must also be rejected.
        """
        from checks import shave
        from workloads import generate
        from xorcert import Certificate, refute_kxor, verify_certificate_detailed
        gens, insts = self.first["gens"], self.first["insts"]
        if any(generate(mem, i, self.seed, 0).inst != g.inst
               for i, (mem, g) in enumerate(zip(self.members, gens))):
            self.problems.append("generation is not deterministic for a fixed seed")
        times = self.done[0]["verify_times"]
        i = min(range(len(times)), key=times.__getitem__)
        cert = self.done[0]["certs"][i]
        if cert is None:
            return
        label = f"round 1 #{i} {gens[i].member.label}"
        again = refute_kxor(insts[i], gens[i].member.eps)
        if hashlib.sha256(again.to_json().encode()).digest() != \
                hashlib.sha256(cert.to_json().encode()).digest():
            self.problems.append(f"{label}: refuting again gave different certificate bytes")
        forged = Certificate(payload=shave(cert.payload))
        if verify_certificate_detailed(forged, insts[i])[0]:
            self.problems.append(f"{label}: a one-ulp shave was accepted")


def _certs(rounds: list[dict]) -> list:
    return [c for r in rounds for c in r["certs"] if c is not None]


def end_to_end(bench: Bench, seconds: float) -> dict:
    rounds = bench.rounds(seconds, at_least=2)
    # read before the checks, whose enumeration would otherwise set the peak
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    bench.check()
    return {
        "refute_s": statistics.median(r["refute_s"] for r in rounds),
        "verify_s": statistics.median(r["verify_s"] for r in rounds),
        "setup_s": statistics.median(r["setup_s"] for r in rounds),
        "peak_rss_mb": peak_rss_mb,
        # a median over rounds too: now and then a gauge stops a power
        # iteration early with a looser bound, and one such round would
        # otherwise move a mean over every certificate of the run
        "val_upper_mean": statistics.median(
            statistics.fmean(c.certified_val_upper for c in _certs([r])) for r in rounds),
    }


def per_layer(bench: Bench, seconds: float, trace_path: Path) -> dict:
    import layers
    from spans import Tracer
    plain = bench.rounds(seconds / 2, at_least=2)
    tracer = Tracer()
    layers.install(tracer)
    try:  # the same instances again, so that each traced round has an untraced twin
        traced = [bench.round(tracer, presentation=r["presentation"]) for r in plain]
    finally:
        tracer.restore()
    bench.check()
    tracer.write(trace_path)
    metrics = layers.metrics(tracer, len(traced), _certs(traced))
    metrics["generate.gen_s"] = statistics.median(r["gen_s"] for r in bench.done)
    metrics["instances.io_s"] = statistics.median(r["io_s"] for r in bench.done)
    metrics["pipeline.trace_overhead"] = statistics.median(
        (t["refute_s"] + t["verify_s"]) / (p["refute_s"] + p["verify_s"])
        for t, p in zip(traced, plain)) - 1.0
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "xorcert" / "__init__.py").is_file():
        print(f"perfbench: no xorcert sources under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import xorcert
    if Path(xorcert.__file__).resolve().parent != (SRC / "xorcert").resolve():
        print(f"perfbench: imported xorcert from {xorcert.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        bench = Bench(args.workload, args.seed, workdir)
        if args.trace:
            from layers import UNITS
            values = per_layer(bench, args.seconds,
                               OUT / f"trace-{args.workload}-{args.seed}.jsonl")
            units = UNITS
        else:
            values = end_to_end(bench, args.seconds)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in bench.problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
