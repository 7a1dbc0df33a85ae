"""Randomized invariants of SuffixMinArray and DenseMinArray against a
dict-backed mirror."""

import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from csst.baselines import DenseMinArray
from csst.sst import INF, SuffixMinArray
from helpers import RefArray, check_tree

# An op is either ("set", i, v), ("del", i) or ("grow", extra).
def _ops(max_cap: int):
    return st.lists(
        st.one_of(
            st.tuples(
                st.just("set"),
                st.integers(0, max_cap - 1),
                st.integers(0, 40),
            ),
            st.tuples(st.just("del"), st.integers(0, max_cap - 1)),
            st.tuples(st.just("grow"), st.integers(1, 8)),
        ),
        max_size=60,
    )


def _apply(arr, ref, ops):
    cap = ref.capacity
    for op in ops:
        if op[0] == "set":
            i = op[1] % cap if cap else 0
            if cap == 0:
                continue
            arr.update(i, op[2])
            ref.update(i, op[2])
        elif op[0] == "del":
            if cap == 0:
                continue
            i = op[1] % cap
            arr.update(i, INF)
            ref.update(i, INF)
        else:
            cap += op[1]
            arr.grow(cap)
            ref.grow(cap)


# Descending values at indices 2^n - 1 build the worst-case chain, height 9
# on capacity 300; the random draws build far shallower trees. The grow then
# takes capacity past 512 with every node left in place, and the last set
# glues that chain under the root [0, 1023].
_CHAIN = (0, 1, 3, 7, 15, 31, 63, 127, 255, 299)


@settings(max_examples=200, deadline=None)
@given(cap=st.integers(1, 300), ops=_ops(300))
@example(
    cap=300,
    ops=[("set", i, 40 - n) for n, i in enumerate(_CHAIN)]
    + [("del", 15), ("grow", 300), ("set", 550, 0)],
)
def test_matches_mirror(cap, ops):
    arr = SuffixMinArray(cap)
    ref = RefArray(cap)
    for op in ops:
        _apply(arr, ref, [op])
        check_tree(arr)
    for i in range(ref.capacity):
        assert arr.min_suffix(i) == ref.min_suffix(i)
    for v in range(0, 42):
        assert arr.argleq(v) == ref.argleq(v)
    assert arr.density() == ref.density()
    # Entry ownership is unique and lossless.
    assert arr.entries() == ref.data


@settings(max_examples=200, deadline=None)
@given(cap=st.integers(1, 48), ops=_ops(48))
@example(cap=4, ops=[("set", 3, 7), ("grow", 1), ("set", 4, 2), ("del", 3)])
def test_dense_matches_mirror(cap, ops):
    arr = DenseMinArray(cap)
    ref = RefArray(cap)
    _apply(arr, ref, ops)
    for i in range(ref.capacity):
        assert arr.min_suffix(i) == ref.min_suffix(i)
    for v in range(0, 42):
        assert arr.argleq(v) == ref.argleq(v)
    assert arr.density() == ref.density()


@settings(max_examples=200, deadline=None)
@given(cap=st.integers(1, 64), ops=_ops(64))
def test_height_bound_and_node_economy(cap, ops):
    arr = SuffixMinArray(cap)
    ref = RefArray(cap)
    for op in ops:
        _apply(arr, ref, [op])
        d = arr.density()
        bound = min(math.ceil(math.log2(max(ref.capacity, 2))), d) if d else 0
        assert arr.height() <= bound
        # Every node owns exactly one live entry.
        assert arr.node_count() == d


@settings(max_examples=150, deadline=None)
@given(
    pairs=st.dictionaries(st.integers(0, 31), st.integers(0, 30), max_size=32),
    order=st.randoms(use_true_random=False),
)
def test_insert_then_delete_round_trip(pairs, order):
    arr = SuffixMinArray(32)
    items = list(pairs.items())
    order.shuffle(items)
    for i, v in items:
        arr.update(i, v)
    order.shuffle(items)
    for i, _ in items:
        arr.update(i, INF)
    assert arr.node_count() == 0
    assert arr.density() == 0
    assert arr.min_suffix(0) == INF


@settings(max_examples=150, deadline=None)
@given(
    pairs=st.dictionaries(st.integers(0, 31), st.integers(0, 30), max_size=32),
    perm=st.randoms(use_true_random=False),
)
def test_final_state_independent_of_insertion_order(pairs, perm):
    items = list(pairs.items())
    a1 = SuffixMinArray(32)
    for i, v in items:
        a1.update(i, v)
    perm.shuffle(items)
    a2 = SuffixMinArray(32)
    for i, v in items:
        a2.update(i, v)
    assert a1.entries() == a2.entries()
    for i in range(32):
        assert a1.min_suffix(i) == a2.min_suffix(i)
    for v in range(31):
        assert a1.argleq(v) == a2.argleq(v)
