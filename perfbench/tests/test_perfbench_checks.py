"""Fast tests of the benchmark's own checkers on tiny hand-made instances."""
from __future__ import annotations

import itertools
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(HERE.parent.parent / "src"))

from checks import clause_arrays, exhaustive_best, local_search_best, satisfied, shave  # noqa: E402

# x0 x1 = +1, x1 x2 = -1, x0 x2 = +1: the three products multiply to +1 but
# the signs to -1, so every assignment violates at least one clause.
TRIANGLE = clause_arrays([(0, 1), (1, 2), (0, 2)], [1, -1, 1])


def test_satisfied_matches_hand_counts():
    clauses, signs = TRIANGLE
    xs = np.array([[1, 1, 1], [1, -1, 1], [-1, 1, 1], [1, 1, -1]])
    # products per row: (1,1,1) (-1,-1,1) (-1,1,-1) (1,-1,-1)
    assert satisfied(clauses, signs, xs).tolist() == [2, 2, 0, 2]


def test_satisfied_three_xor_by_hand():
    clauses, signs = clause_arrays([(0, 1, 2), (1, 2, 3)], [1, -1])
    assert satisfied(clauses, signs, np.array([1, 1, 1, 1])).tolist() == [1]
    assert satisfied(clauses, signs, np.array([1, 1, 1, -1])).tolist() == [2]
    assert satisfied(clauses, signs, np.array([-1, 1, 1, -1])).tolist() == [1]


def test_exhaustive_finds_known_optimum():
    assert exhaustive_best(*TRIANGLE, n=3) == 2
    clauses, signs = clause_arrays([(0, 1, 2), (1, 2, 3)], [1, -1])
    assert exhaustive_best(clauses, signs, n=4) == 2
    # a duplicated clause with both signs: exactly one copy holds
    clauses, signs = clause_arrays([(0, 1), (0, 1)], [1, -1])
    assert exhaustive_best(clauses, signs, n=2) == 1


def test_exhaustive_matches_plain_enumeration():
    rng = np.random.default_rng(5)
    n, m = 8, 40
    clauses = np.array([np.sort(rng.choice(n, size=3, replace=False)) for _ in range(m)])
    signs = rng.choice([-1, 1], size=m)
    xs = np.array(list(itertools.product([1, -1], repeat=n)))
    assert exhaustive_best(clauses, signs, n) == satisfied(clauses, signs, xs).max()
    assert local_search_best(clauses, signs, n, np.random.default_rng(0)) <= \
        exhaustive_best(clauses, signs, n)


def test_exhaustive_and_local_search_find_a_planted_optimum():
    rng = np.random.default_rng(9)
    n, m = 12, 60
    hidden = rng.choice([-1, 1], size=n)
    clauses = np.array([np.sort(rng.choice(n, size=3, replace=False)) for _ in range(m)])
    signs = hidden[clauses].prod(axis=1)
    assert satisfied(clauses, signs, hidden).tolist() == [m]
    assert exhaustive_best(clauses, signs, n) == m


def test_planted_member_stays_satisfiable_under_its_gauge():
    from workloads import Member, generate
    member = Member("random", n=10, m=200, k=3, eps=0.4, base_seed=3, planted=True)
    a, b = generate(member, 0, seed=11, round_=2), generate(member, 0, seed=11, round_=2)
    assert a.inst == b.inst
    assert generate(member, 0, seed=12, round_=2).inst != a.inst
    assert generate(member, 0, seed=11, round_=3).inst != a.inst
    clauses, signs = clause_arrays(a.inst.clauses, a.inst.signs)
    assert satisfied(clauses, signs, a.planted_x).tolist() == [member.m]


def test_one_ulp_shave_is_rejected():
    xorcert = pytest.importorskip("xorcert")
    inst = xorcert.gen_kxor(xorcert.GenSpec(kind="random", n=10, m=2000, seed=7, k=3))
    cert = xorcert.refute_kxor(inst, eps=0.25)
    assert xorcert.verify_certificate_detailed(cert, inst) == (True, [])
    forged = xorcert.Certificate(payload=shave(cert.payload))
    assert forged.certified_val_upper < cert.certified_val_upper
    ok, failures = xorcert.verify_certificate_detailed(forged, inst)
    assert not ok and failures
