from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xorcert import (
    Assignment,
    KXorInstance,
    PartitionedInstance,
    brute_force_inf1,
    brute_force_val,
    eval_kxor,
    eval_partitioned,
    gen_random_partitioned,
)


def test_single_clause_is_satisfiable():
    inst = KXorInstance(n=3, k=2, clauses=((0, 1),), signs=(-1,))
    val, asg = brute_force_val(inst)
    assert val == 1
    assert eval_kxor(inst, asg) == 1


def test_contradictory_pair_gives_half():
    inst = KXorInstance(n=2, k=2, clauses=((0, 1), (0, 1)), signs=(1, -1))
    val, _ = brute_force_val(inst)
    assert val == Fraction(1, 2)


def test_tie_break_smallest_index():
    # all-ones x (index 0) always satisfies a +1 clause; ties resolve to it
    inst = KXorInstance(n=2, k=2, clauses=((0, 1),), signs=(1,))
    _, asg = brute_force_val(inst)
    assert asg.x == (1, 1)


def test_partitioned_matches_eval_enumeration():
    inst = gen_random_partitioned(5, 3, 18, seed=3)
    val, asg = brute_force_val(inst)
    assert eval_partitioned(inst, asg) == val
    # independent dual enumeration over (x, y) jointly
    best = Fraction(0)
    for xs in itertools.product((1, -1), repeat=inst.n):
        for ys in itertools.product((1, -1), repeat=inst.ell):
            best = max(best, eval_partitioned(inst, Assignment(x=xs, y=ys)))
    assert best == val


def test_partitioned_val_at_least_half():
    inst = gen_random_partitioned(6, 2, 31, seed=11)
    val, _ = brute_force_val(inst)
    assert val >= Fraction(1, 2)


def test_brute_force_val_caps_and_errors():
    inst = KXorInstance(n=25, k=2, clauses=((0, 1),), signs=(1,))
    with pytest.raises(ValueError):
        brute_force_val(inst)
    part = gen_random_partitioned(20, 8, 5, seed=0)
    with pytest.raises(ValueError):
        brute_force_val(part)  # n + ell = 28 > 24
    with pytest.raises(ValueError):
        brute_force_val(KXorInstance(n=3, k=2, clauses=(), signs=()))
    with pytest.raises(TypeError):
        brute_force_val(object())


def test_inf1_single_entry():
    assert brute_force_inf1(np.array([[1.0]])) == 1.0
    assert brute_force_inf1(np.array([[-2.5]])) == 2.5


def test_inf1_all_ones():
    a, b = 3, 5
    assert brute_force_inf1(np.ones((a, b))) == a * b


def test_inf1_zero_cases():
    assert brute_force_inf1(np.zeros((0, 3))) == 0.0
    assert brute_force_inf1(np.zeros((2, 2))) == 0.0


def test_inf1_cap():
    with pytest.raises(ValueError):
        brute_force_inf1(np.zeros((15, 1)))


def test_inf1_matches_double_enumeration(rng):
    for _ in range(10):
        a = rng.integers(-2, 3, size=(4, 5)).astype(float)
        best = max(
            abs(float(np.array(xs) @ a @ np.array(ys)))
            for xs in itertools.product((1, -1), repeat=4)
            for ys in itertools.product((1, -1), repeat=5)
        )
        assert brute_force_inf1(a) == pytest.approx(best, abs=1e-12)


def test_inf1_transpose_invariant(rng):
    a = rng.standard_normal((3, 6))
    assert brute_force_inf1(a) == pytest.approx(brute_force_inf1(a.T), abs=1e-9)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_brute_val_is_true_optimum_kxor(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 6))
    m = int(rng.integers(1, 12))
    clauses = tuple(tuple(sorted(rng.choice(n, size=2, replace=False).tolist())) for _ in range(m))
    signs = tuple(int(s) for s in 2 * rng.integers(0, 2, size=m) - 1)
    inst = KXorInstance(n=n, k=2, clauses=clauses, signs=signs)
    val, asg = brute_force_val(inst)
    assert eval_kxor(inst, asg) == val
    # no assignment beats the reported optimum
    for xs in itertools.product((1, -1), repeat=n):
        assert eval_kxor(inst, Assignment(x=xs)) <= val
