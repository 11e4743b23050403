"""Acceptance suite: one test per criterion, at full stated sizes and tolerances.

Each test prints a single pass/fail line under pytest -v.  Soundness checks
(1, 8) compare certified bounds against exact brute-force optima with zero
tolerance; identity checks (2, 3) use the stated numeric tolerances; the
statistical criteria (7, 8, 11) assert the stated success-rate floors.
"""
from __future__ import annotations

import copy
import itertools
import math
import time
import warnings

import numpy as np
import pytest

from conftest import dupfree_partitioned
from helpers import build_blocks, inf1_lower_round, phi1_from_blocks, phi_direct
from xorcert import (
    Certificate,
    GenSpec,
    PartitionedInstance,
    REFUTED,
    bernstein_tail,
    bernstein_threshold,
    brute_force_inf1,
    brute_force_val,
    butterfly,
    certify_dbounded,
    decompose,
    degree_profile,
    dup_correction,
    gen_kxor,
    gen_random_partitioned,
    inf1_upper,
    kxor_to_partitioned,
    l1_norm_bound,
    phi2_term,
    refute_kxor,
    refute_partitioned,
    spectral_norm,
    verify_certificate,
    verify_certificate_detailed,
    weight_classes,
)


def _refute_any(inst, eps):
    if isinstance(inst, PartitionedInstance):
        return refute_partitioned(inst, eps)
    return refute_kxor(inst, eps)


def test_criterion_01_soundness_suite():
    # >= 500 instances over all families; every REFUTED certificate must satisfy
    # brute val <= certified bound <= 1/2 + eps with zero tolerance.
    start = time.perf_counter()
    kxor_nk = [(6, 2), (7, 3), (8, 4), (9, 5), (10, 2), (11, 3), (12, 4), (9, 3),
               (14, 2), (13, 5)]
    p2_shapes = [(6, 2), (8, 4), (10, 8), (12, 6), (14, 4), (16, 2), (12, 1), (9, 9)]
    families = ("random", "star", "heavy-group", "clustered", "p2xor")
    eps_grid = (0.15, 0.25, 0.35, 0.45)
    ms = (10, 40, 120, 600)
    total = refuted = 0
    for i in range(520):
        fam = families[i % 5]
        eps = eps_grid[(i // 5) % 4]
        m = ms[(i // 20) % 4]
        if fam == "p2xor":
            n, ell = p2_shapes[(i // 40) % len(p2_shapes)]
            inst = gen_random_partitioned(n, ell, m, seed=i)
        else:
            n, k = kxor_nk[(i // 40) % len(kxor_nk)]
            inst = gen_kxor(GenSpec(kind=fam, n=n, m=m, seed=i, k=k))
        cert = _refute_any(inst, eps)
        total += 1
        if cert.outcome == REFUTED:
            refuted += 1
            val, _ = brute_force_val(inst)
            assert float(val) <= cert.certified_val_upper, (
                f"instance {i} ({fam}): brute {float(val)} > certified "
                f"{cert.certified_val_upper}")
            assert cert.certified_val_upper <= 0.5 + eps, (
                f"instance {i} ({fam}): certified {cert.certified_val_upper} "
                f"> 1/2 + {eps}")
    elapsed = time.perf_counter() - start
    assert total >= 500
    assert refuted > 0, "the sweep never refuted anything; sizes are miscalibrated"
    assert elapsed < 600.0, f"soundness suite took {elapsed:.1f}s (> 10 min)"


def test_criterion_02_gamma_sum_identity():
    # sum of butterfly degrees == 4m to 1e-9 * m on 200 random instances
    shapes = [(6, 1), (8, 2), (10, 3), (12, 4), (14, 2), (16, 6), (9, 9), (20, 1)]
    for i in range(200):
        n, ell = shapes[i % len(shapes)]
        m = 10 + 7 * (i % 40)
        inst = gen_random_partitioned(n, ell, m, seed=i)
        table = butterfly(degree_profile(inst))
        assert abs(table.total - 4.0 * m) <= 1e-9 * m, (
            f"instance {i}: gamma sum {table.total} != 4m = {4 * m}")


def test_criterion_03_phi_identities():
    # Phi(x) = Phi_1(x) + sum sqrt(t_i) to 1e-6 relative, Phi_1 through the
    # block quadratic form; the potential lower bound holds at the optimum.
    for i in range(50):
        gen = np.random.default_rng(i)
        if i % 2 == 0:
            inst = dupfree_partitioned(gen, n=9, ell=2, m=40)
        else:
            inst = gen_random_partitioned(9, 3, 60, seed=i)  # duplicates allowed
        profile = degree_profile(inst)
        d = profile.max_degree()
        partition = weight_classes(butterfly(profile), d=d, eps=0.3, m=inst.m,
                                   ell=len(profile.t))
        blocks = build_blocks(inst, partition, profile)
        c0 = dup_correction(inst, profile)
        phi2 = phi2_term(profile)
        for _ in range(20):
            x = (2.0 * gen.integers(0, 2, size=9) - 1.0).astype(float)
            direct = phi_direct(inst, x)
            via_blocks = phi1_from_blocks(blocks, x, c0, 9) + phi2
            assert abs(via_blocks - direct) <= 1e-6 * max(1.0, abs(direct)), (
                f"instance {i}: block form {via_blocks} != direct {direct}")

    # lemma at the brute-force optimum, exact up to float evaluation noise
    for i in range(25):
        gen = np.random.default_rng(1000 + i)
        inst = dupfree_partitioned(gen, n=7, ell=2, m=16 + i)
        val, asg = brute_force_val(inst)
        x = np.array(asg.x, dtype=float)
        eps_star = float(val) - 0.5
        ell_eff = len(degree_profile(inst).t)
        lemma = 4.0 * eps_star ** 2 * inst.m ** 1.5 / math.sqrt(ell_eff)
        phi_star = phi_direct(inst, x)
        assert phi_star >= lemma - 1e-9 * max(1.0, lemma), (
            f"instance {i}: Phi(x*) = {phi_star} < {lemma}")


def test_criterion_04_norm_certification():
    # numpy svd oracle inside [lower, upper] on 200 sparse matrices, dim <= 20
    for i in range(200):
        gen = np.random.default_rng(i)
        rows = int(gen.integers(1, 21))
        cols = int(gen.integers(1, 21))
        a = gen.standard_normal((rows, cols))
        a[gen.random((rows, cols)) > 0.5] = 0.0
        if i % 3 == 0:
            a = np.sign(a)  # +/-1 pattern matrices too
        nb = spectral_norm(a)
        sigma = float(np.linalg.svd(a, compute_uv=False)[0]) if a.any() else 0.0
        assert nb.lower <= sigma <= nb.upper, (
            f"matrix {i} ({rows}x{cols}): {sigma} outside [{nb.lower}, {nb.upper}]")
        assert l1_norm_bound(a) >= sigma, f"matrix {i}: l1 bound below the norm"


def test_criterion_05_inf1_sandwich():
    # inf1_lower_round <= brute <= inf1_upper on 50 +/-1 matrices (hard);
    # median upper/brute <= 1.8 is a soft target, reported if missed
    ratios = []
    for i in range(50):
        gen = np.random.default_rng(i)
        rows = int(gen.integers(1, 7))
        cols = int(gen.integers(1, 7))
        a = (2 * gen.integers(0, 2, size=(rows, cols)) - 1).astype(float)
        truth = brute_force_inf1(a)
        upper, _ = inf1_upper(a)
        lower, _, _ = inf1_lower_round(a)
        assert lower <= truth + 1e-9, f"matrix {i}: rounded lower {lower} > brute {truth}"
        assert truth <= upper + 1e-9, f"matrix {i}: brute {truth} > certified {upper}"
        ratios.append(upper / truth)
    median = sorted(ratios)[len(ratios) // 2]
    if median > 1.8:
        warnings.warn(f"soft target missed: median inf1_upper/brute = {median:.3f} > 1.8")


def test_criterion_06_bernstein_plug_back():
    # tail(threshold) <= delta + 1e-12 over a >= 10^3 point parameter grid
    sigmas = (0.0, 1e-8, 1e-3, 0.5, 3.0, 50.0)
    rs = (0.0, 1e-4, 0.2, 5.0, 300.0)
    dims = ((1, 1), (1, 40), (64, 64), (1000, 3), (0, 1))
    deltas = (1.0, 0.3, 1e-2, 1e-5, 1e-9, 1e-13, 1e-16)
    points = 0
    for sigma2, r, (d1, d2), delta in itertools.product(sigmas, rs, dims, deltas):
        t = bernstein_threshold(sigma2, r, d1, d2, delta)
        tail = bernstein_tail(sigma2, r, d1, d2, t)
        assert tail <= delta + 1e-12, (
            f"plug-back violated at sigma2={sigma2} R={r} d=({d1},{d2}) "
            f"delta={delta}: tail({t}) = {tail}")
        points += 1
    assert points >= 1000


def test_criterion_07_statistical_2xor():
    # random 2-XOR, n = 40, eps = 0.25, m = c * n / eps^2: success >= 90% at c = 64
    start = time.perf_counter()
    n, eps = 40, 0.25
    rates = {}
    for c in (8, 16, 32, 64):
        m = int(c * n / eps ** 2)
        hits = 0
        for rep in range(20):
            inst = gen_random_partitioned(n, 1, m, seed=1000 * c + rep)
            if refute_partitioned(inst, eps).outcome == REFUTED:
                hits += 1
        rates[c] = hits / 20.0
    elapsed = time.perf_counter() - start
    assert rates[64] >= 0.9, f"success rates by c: {rates}"
    assert elapsed < 900.0, f"2-XOR sweep took {elapsed:.1f}s (> 15 min)"


def test_criterion_08_statistical_3xor():
    # random 3-XOR, n = 10, eps = 0.3, m swept 10^2 .. 10^4 geometrically:
    # >= 80% success at the top, monotone up to one inversion, every success
    # cross-checked against the brute-force oracle
    start = time.perf_counter()
    n, eps = 10, 0.3
    ms = (100, 316, 1000, 3162, 10000)
    rates = []
    for mi, m in enumerate(ms):
        hits = 0
        for rep in range(20):
            inst = gen_kxor(GenSpec(kind="random", n=n, m=m, seed=31 * mi + rep, k=3))
            cert = refute_kxor(inst, eps)
            if cert.outcome == REFUTED:
                hits += 1
                val, _ = brute_force_val(inst)
                assert float(val) <= cert.certified_val_upper <= 0.5 + eps, (
                    f"m={m} rep={rep}: unsound certificate")
        rates.append(hits / 20.0)
    elapsed = time.perf_counter() - start
    assert rates[-1] >= 0.8, f"success rates over m={ms}: {rates}"
    inversions = sum(1 for a, b in zip(rates, rates[1:]) if a > b)
    assert inversions <= 1, f"success curve {rates} has {inversions} inversions"
    assert elapsed < 1200.0, f"3-XOR sweep took {elapsed:.1f}s (> 20 min)"


def test_criterion_09_decomposition_accounting():
    # m1 + m2 = m, light-side degree cap, |X| <= m2 / d_cap, on every family
    cases = []
    for fam in ("random", "star", "heavy-group", "clustered"):
        for k in (2, 3):
            for m in (60, 200):
                for seed in (0, 1):
                    cases.append(gen_kxor(GenSpec(kind=fam, n=12, m=m, seed=seed, k=k,
                                                  params={"group_size": min(50, m)})))
    for seed in range(4):
        cases.append(gen_random_partitioned(12, 3, 150, seed=seed))
    for inst in cases:
        psi = inst if isinstance(inst, PartitionedInstance) else kxor_to_partitioned(inst).psi
        for eps in (0.2, 0.35):
            dec = decompose(psi, eps)
            assert dec.m_light + dec.m_heavy == psi.m
            counts: dict[tuple[int, int], int] = {}
            for p, u, v, _ in dec.light.constraints:
                counts[(p, u)] = counts.get((p, u), 0) + 1
                counts[(p, v)] = counts.get((p, v), 0) + 1
            assert all(c < dec.d_cap for c in counts.values()), "light cap violated"
            x_size = len(dec.heavy.left_labels)
            assert x_size * dec.d_cap <= dec.m_heavy or dec.m_heavy == 0, (
                f"|X| = {x_size} > m2/d_cap = {dec.m_heavy}/{dec.d_cap}")
            # each removed group really carried >= d_cap constraints
            per_label = [0] * x_size
            for left, _, _ in dec.heavy.constraints:
                per_label[left] += 1
            assert all(c >= dec.d_cap for c in per_label)


def _mutate(cert: Certificate, path: tuple, value) -> Certificate:
    payload = copy.deepcopy(cert.payload)
    node = payload
    for key in path[:-1]:
        node = node[key]
    old = node[path[-1]]
    node[path[-1]] = value(old) if callable(value) else value
    return Certificate(payload=payload)


def test_criterion_10_certificate_round_trip():
    # verification accepts 100% of produced certificates and rejects 100% of a
    # single-field mutation suite on a certificate with both sides active
    produced = [
        (gen_kxor(GenSpec(kind="random", n=10, m=2000, seed=7, k=3)), 0.25),
        (gen_kxor(GenSpec(kind="star", n=16, m=300, seed=3, k=2)), 0.4),
        (gen_kxor(GenSpec(kind="heavy-group", n=10, m=150, seed=4, k=3)), 0.3),
        (gen_kxor(GenSpec(kind="clustered", n=12, m=200, seed=5, k=4)), 0.3),
        (gen_kxor(GenSpec(kind="random", n=10, m=300, seed=6, k=5)), 0.35),
        (gen_random_partitioned(12, 3, 40, seed=1), 0.3),
        (gen_random_partitioned(30, 1, 4000, seed=2), 0.25),
        (PartitionedInstance(n=2, ell=1, constraints=((0, 0, 1, 1),) * 40), 0.3),
    ]
    for inst, eps in produced:
        cert = _refute_any(inst, eps)
        assert verify_certificate(cert, inst), (
            f"fresh certificate rejected (outcome {cert.outcome})")

    inst = produced[0][0]
    cert = refute_kxor(inst, 0.25)
    assert cert.payload["combination_case"] == "both-large"
    flip = lambda s: "UNKNOWN" if s == "REFUTED" else "REFUTED"
    flip_status = lambda s: "UNKNOWN" if s == "SUCCESS" else "SUCCESS"
    mutations = [
        (("schema",), "cert_v0"),
        (("kind",), "p2xor"),
        (("instance_digest",), "0" * 64),
        (("eps",), 0.3),
        (("outcome",), flip),
        (("certified_val_upper",), 0.5),
        (("certified_val_upper",), 1.0),
        (("combination_case",), "heavy-small"),
        (("config", "c_split"), 8.0),
        (("config", "alpha_c"), 2.0),
        (("decomposition", "d_cap"), lambda v: v + 1),
        (("decomposition", "m_light"), lambda v: v - 1),
        (("decomposition", "m_heavy"), lambda v: v + 1),
        (("decomposition", "heavy_groups"), lambda v: v + 1),
        (("light", "mode"), "trivial"),
        (("light", "m"), lambda v: v + 1),
        (("light", "side_bound"), 0.0),
        (("light", "report", "phi_total_bound"), 0.0),
        (("light", "report", "threshold"), lambda v: v * 10),
        (("light", "report", "val_upper"), 0.5),
        (("light", "report", "status"), flip_status),
        (("light", "report", "alpha"), lambda v: v * 2),
        (("heavy", "side_bound"), 0.0),
        (("heavy", "report", "bound"), 0.0),
        (("heavy", "report", "val_upper"), 0.5),
        (("heavy", "report", "status"), flip_status),
        (("heavy", "report", "dual", "slack"), 0.0),
        (("heavy", "report", "dual", "d_left"), lambda d: [d[0] * 0.5] + d[1:]),
        (("reduction", "psi_digest"), "f" * 64),
        (("reduction", "subset_size"), 2),
    ]
    # block-level corruptions, addressed through the blocks list
    payload = copy.deepcopy(cert.payload)
    blocks = payload["light"]["report"]["blocks"]
    assert blocks, "mutation base certificate must carry spectral blocks"
    for field, value in (("norm_upper", 0.0), ("contribution", 0.0), ("bernstein_t", 0.0)):
        bad = copy.deepcopy(cert.payload)
        bad["light"]["report"]["blocks"][0][field] = value
        ok, errors = verify_certificate_detailed(Certificate(payload=bad), inst)
        assert not ok and errors, f"block mutation {field} was accepted"
    count = 3
    for path, value in mutations:
        ok, errors = verify_certificate_detailed(_mutate(cert, path, value), inst)
        assert not ok and errors, f"mutation {path} was accepted"
        count += 1
    assert count >= 20


def test_criterion_11_block_bounds_hold():
    # on 50 fully-random partitioned instances, >= 95% of blocks satisfy
    # certified norm upper <= the matching Bernstein threshold
    good = total = 0
    for seed in range(50):
        inst = gen_random_partitioned(12, 4, 120, seed=seed)
        report = certify_dbounded(inst, eps=0.25)
        for rec in report.blocks:
            total += 1
            if rec.norm_upper <= rec.bernstein_t:
                good += 1
    assert total > 0
    assert good / total >= 0.95, f"only {good}/{total} blocks within the Bernstein bound"
