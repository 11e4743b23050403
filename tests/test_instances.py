from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xorcert import (Assignment, KXorInstance, PartitionedInstance, bias,
                     degree_profile, eval_kxor, eval_partitioned,
                     from_json_dict, instance_digest, load_instance,
                     save_instance, to_json_dict)


def test_kxor_validation():
    with pytest.raises(ValueError):
        KXorInstance(n=0, k=2, clauses=(), signs=())
    with pytest.raises(ValueError):
        KXorInstance(n=4, k=1, clauses=(), signs=())
    with pytest.raises(ValueError):
        KXorInstance(n=4, k=2, clauses=((1, 0),), signs=(1,))  # unsorted
    with pytest.raises(ValueError):
        KXorInstance(n=4, k=2, clauses=((1, 1),), signs=(1,))  # repeated vertex
    with pytest.raises(ValueError):
        KXorInstance(n=4, k=2, clauses=((0, 4),), signs=(1,))  # out of range
    with pytest.raises(ValueError):
        KXorInstance(n=4, k=2, clauses=((0, 1),), signs=(2,))  # bad sign


def test_kxor_make_sorts():
    inst = KXorInstance.make(5, 3, [((4, 0, 2), -1)])
    assert inst.clauses.tolist() == [[0, 2, 4]]
    assert inst.signs == (-1,)


def test_partitioned_validation():
    with pytest.raises(ValueError):
        PartitionedInstance(n=1, ell=1, constraints=())
    with pytest.raises(ValueError):
        PartitionedInstance(n=3, ell=1, constraints=((1, 0, 1, 1),))  # part range
    with pytest.raises(ValueError):
        PartitionedInstance(n=3, ell=1, constraints=((0, 1, 1, 1),))  # u >= v
    inst = PartitionedInstance.make(3, 2, [(1, 2, 0, -1)])
    assert inst.constraints.tolist() == [[1, 0, 2, -1]]


def test_make_rejects_float_entries():
    # a float is rejected, never truncated to an integer
    with pytest.raises(ValueError):
        PartitionedInstance.make(n=3, ell=1, constraints=[(0, 0, 1.7, 1)])
    with pytest.raises(ValueError):
        KXorInstance.make(n=3, k=2, constraints=[((0, 1), 1.5)])


def test_constructors_reject_booleans():
    with pytest.raises(ValueError):
        KXorInstance(n=3, k=2, clauses=((0, 1),), signs=(True,))
    with pytest.raises(ValueError):
        KXorInstance(n=3, k=2, clauses=np.array([[False, True]]), signs=(1,))


def test_constructors_accept_numpy_integers():
    inst = PartitionedInstance(n=3, ell=1, constraints=((0, np.int64(0), 1, 1),))
    assert inst == PartitionedInstance(n=3, ell=1, constraints=((0, 0, 1, 1),))


def test_array_built_instances_equal_tuple_built_ones():
    kx = KXorInstance(n=6, k=3, clauses=((0, 1, 2), (1, 3, 5)), signs=(1, -1))
    kx_arrays = KXorInstance(n=6, k=3, clauses=np.array([[0, 1, 2], [1, 3, 5]], dtype=np.int32),
                             signs=np.array([1, -1]))
    px = PartitionedInstance(n=4, ell=2, constraints=((0, 0, 1, 1), (1, 2, 3, -1)))
    px_arrays = PartitionedInstance(n=4, ell=2, constraints=np.array([[0, 0, 1, 1], [1, 2, 3, -1]]))
    for tuples, arrays in ((kx, kx_arrays), (px, px_arrays)):
        assert arrays == tuples and not arrays != tuples
        assert instance_digest(arrays) == instance_digest(tuples)
    assert kx != KXorInstance(n=6, k=3, clauses=((0, 1, 2), (1, 3, 5)), signs=(1, 1))


def test_eval_kxor_exact():
    inst = KXorInstance.make(3, 2, [((0, 1), 1), ((1, 2), -1)])
    a = Assignment(x=(1, 1, 1))
    assert eval_kxor(inst, a) == Fraction(1, 2)
    assert bias(inst, a) == 0
    a = Assignment(x=(1, 1, -1))
    assert eval_kxor(inst, a) == 1


def test_eval_partitioned_exact():
    inst = PartitionedInstance.make(2, 2, [(0, 0, 1, 1), (1, 0, 1, -1)])
    a = Assignment(x=(1, 1), y=(1, -1))
    assert eval_partitioned(inst, a) == 1
    a = Assignment(x=(1, 1), y=(1, 1))
    assert eval_partitioned(inst, a) == Fraction(1, 2)


def test_eval_errors():
    inst = KXorInstance.make(3, 2, [((0, 1), 1)])
    with pytest.raises(ValueError):
        eval_kxor(inst, Assignment(x=(1, 1)))  # wrong length
    with pytest.raises(ValueError):
        eval_kxor(KXorInstance(n=3, k=2, clauses=(), signs=()), Assignment(x=(1, 1, 1)))
    pinst = PartitionedInstance.make(3, 1, [(0, 0, 1, 1)])
    with pytest.raises(ValueError):
        eval_partitioned(pinst, Assignment(x=(1, 1, 1)))  # missing y


def test_duplicates_count_as_multiset():
    # the same constraint twice doubles its weight in the satisfied fraction
    inst = PartitionedInstance.make(2, 1, [(0, 0, 1, 1), (0, 0, 1, 1), (0, 0, 1, -1)])
    a = Assignment(x=(1, 1), y=(1,))
    assert eval_partitioned(inst, a) == Fraction(2, 3)


def test_degree_profile_drops_empty_parts():
    inst = PartitionedInstance.make(4, 5, [(2, 0, 1, 1), (2, 1, 2, -1), (4, 0, 3, 1)])
    prof = degree_profile(inst)
    assert prof.part_ids.tolist() == [2, 4]
    assert prof.t.tolist() == [2, 1]
    assert prof.deg[0][1] == 2  # vertex 1 in part 2
    assert prof.max_degree() == 2


def test_json_round_trip(tmp_path):
    kx = KXorInstance.make(6, 3, [((0, 1, 2), 1), ((1, 3, 5), -1)])
    assert from_json_dict(to_json_dict(kx)) == kx
    px = PartitionedInstance.make(4, 2, [(0, 0, 1, 1), (1, 2, 3, -1)])
    assert from_json_dict(to_json_dict(px)) == px
    path = tmp_path / "inst.json"
    save_instance(px, path)
    assert load_instance(path) == px


def test_digest_distinguishes():
    a = KXorInstance.make(6, 3, [((0, 1, 2), 1)])
    b = KXorInstance.make(6, 3, [((0, 1, 2), -1)])
    assert instance_digest(a) != instance_digest(b)
    assert instance_digest(a) == instance_digest(from_json_dict(to_json_dict(a)))


def test_from_json_rejects_unknown_kind():
    with pytest.raises(ValueError):
        from_json_dict({"kind": "sat", "n": 3, "k": 2, "constraints": []})


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_eval_value_in_range(data):
    n = data.draw(st.integers(2, 6))
    ell = data.draw(st.integers(1, 3))
    m = data.draw(st.integers(1, 12))
    cons = [
        (data.draw(st.integers(0, ell - 1)),
         *sorted(data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2,
                                    unique=True))),
         data.draw(st.sampled_from([-1, 1])))
        for _ in range(m)
    ]
    inst = PartitionedInstance.make(n, ell, cons)
    x = tuple(data.draw(st.sampled_from([-1, 1])) for _ in range(n))
    y = tuple(data.draw(st.sampled_from([-1, 1])) for _ in range(ell))
    val = eval_partitioned(inst, Assignment(x=x, y=y))
    assert 0 <= val <= 1
    # flipping y part-wise to the majority sign reaches at least 1/2
    best_y = []
    for i in range(ell):
        agree = sum(1 for p, u, v, s in inst.constraints if p == i and x[u] * x[v] == s)
        tot = sum(1 for p, _, _, _ in inst.constraints if p == i)
        best_y.append(1 if 2 * agree >= tot else -1)
    val2 = eval_partitioned(inst, Assignment(x=x, y=tuple(best_y)))
    assert val2 >= Fraction(1, 2)
