"""Pinned behavior of SuffixMinArray on small hand-checked layouts."""

import math

import pytest

from csst.sst import INF, SuffixMinArray
from helpers import check_tree, tree_shape

# Each expected value below was worked out by hand before the
# implementation existed; the tests freeze those numbers.


def test_small_dense_array_queries():
    # A = [6, 9, 8, 10] on capacity 4.
    a = SuffixMinArray(4)
    for i, v in enumerate([6, 9, 8, 10]):
        a.update(i, v)
    assert [a.min_suffix(i) for i in range(4)] == [6, 8, 8, 10]
    assert a.argleq(7) == 0
    assert a.argleq(9) == 2
    assert a.argleq(11) == 3
    assert a.argleq(5) == -1
    assert a.density() == 4


def test_lazy_build_step_by_step():
    # capacity 8: every node carries exactly one entry, and the root is the
    # lowest aligned range over the entries so far, so the whole
    # lazy-creation / swap / lowest-common-ancestor dance is visible in the
    # node layout.
    a = SuffixMinArray(8)

    a.update(2, 65)
    assert tree_shape(a) == {(2, 2): (65, 2)}

    a.update(3, 42)
    assert tree_shape(a) == {(2, 3): (42, 3), (2, 2): (65, 2)}

    # 42@3 keeps the new root [0, 3]; [2, 3] refills from its child, which
    # empties and goes.
    a.update(0, 59)
    assert tree_shape(a) == {
        (0, 3): (42, 3),
        (0, 0): (59, 0),
        (2, 3): (65, 2),
    }

    a.update(7, 13)
    assert tree_shape(a) == {
        (0, 7): (13, 7),
        (0, 3): (42, 3),
        (0, 0): (59, 0),
        (2, 3): (65, 2),
    }
    assert a.density() == 4
    assert a.node_count() == 4


def test_query_stops_early_when_carried_pair_decides():
    # Dense 8-slot array whose left half bottoms out at 42@1 and 59@3; a
    # suffix query from 2 must be answered at depth 1 without reaching any
    # deeper node.
    a = SuffixMinArray(8)
    for i, v in enumerate([77, 42, 65, 59, 80, 81, 82, 100]):
        a.update(i, v)
    shape = tree_shape(a)
    assert shape[(0, 7)] == (42, 1)
    assert shape[(0, 3)] == (59, 3)
    assert a.min_suffix(2) == 59
    # Cut everything below the depth-1 node (0, 3): a descent that went past
    # it would now find nothing there and answer 80, the right half's min.
    left = a._root.left
    assert (left.start, left.end) == (0, 3)
    left.left = left.right = None
    assert a.min_suffix(2) == 59


def test_height_reaches_but_never_exceeds_log_bound():
    # Descending values at indices that each double the root's range build
    # the worst-case chain: height equals the log bound exactly.
    a = SuffixMinArray(8)
    for i, v in zip([0, 1, 2, 7], [50, 40, 30, 20]):
        a.update(i, v)
    assert a.height() == 3
    assert a.height() <= min(math.ceil(math.log2(8)), a.density())


def test_delete_and_refill_promotes_best_descendant():
    a = SuffixMinArray(8)
    for i, v in enumerate([77, 42, 65, 59]):
        a.update(i, v)
    a.update(1, INF)  # drop the global minimum
    assert a.min_suffix(0) == 59
    assert a.density() == 3
    assert a.argleq(60) == 3
    # Entries survive with original values.
    assert a.entries() == {0: 77, 2: 65, 3: 59}


def test_delete_everything_leaves_empty_tree():
    a = SuffixMinArray(16)
    for i, v in [(3, 9), (7, 2), (8, 5), (15, 1)]:
        a.update(i, v)
    for i in [7, 15, 3, 8]:
        a.update(i, INF)
    assert tree_shape(a) == {}
    assert a.density() == 0
    assert a.min_suffix(0) == INF
    assert a.argleq(10 ** 9) == -1


def test_update_overwrites_in_place():
    a = SuffixMinArray(8)
    a.update(3, 5)
    a.update(3, 7)
    assert a.entries() == {3: 7}
    assert a.min_suffix(0) == 7
    a.update(3, 5)
    assert a.entries() == {3: 5}


def test_value_ties_prefer_larger_index():
    a = SuffixMinArray(8)
    a.update(1, 4)
    a.update(5, 4)
    assert a.argleq(4) == 5
    # The root should carry the tie at the larger index so suffix queries
    # from the middle stop immediately.
    assert tree_shape(a)[(0, 7)] == (4, 5)
    assert a.min_suffix(3) == 4


def test_absent_index_beside_a_compressed_child():
    # Lookups and deletes at an absent index descend by mid until the path
    # ends; here the path passes a compressed child that does not cover it.
    a = SuffixMinArray(8)
    for i, v in [(0, 30), (1, 40), (6, 50), (7, 60)]:
        a.update(i, v)
    shape = {
        (0, 7): (30, 0),
        (0, 1): (40, 1),  # left half [0, 3]: 2 and 3 lie right of it
        (6, 7): (50, 6),  # right half [4, 7]: 4 and 5 lie left of it
        (7, 7): (60, 7),
    }
    entries = {0: 30, 1: 40, 6: 50, 7: 60}
    assert tree_shape(a) == shape
    for i in (2, 3, 4, 5):
        assert a.value_at(i) == INF
        a.update(i, INF)
        assert a.density() == 4
        assert a.entries() == entries
        assert tree_shape(a) == shape
    assert [a.value_at(i) for i in (0, 1, 6, 7)] == [30, 40, 50, 60]


def test_grow_preserves_entries():
    a = SuffixMinArray(4)
    for i, v in enumerate([6, 9, 8, 10]):
        a.update(i, v)
    a.grow(11)
    assert a.capacity == 11
    a.update(9, 3)
    assert a.entries() == {0: 6, 1: 9, 2: 8, 3: 10, 9: 3}
    assert a.min_suffix(1) == 3
    assert a.min_suffix(10) == INF
    assert a.argleq(3) == 9


def test_grow_changes_no_node():
    a = SuffixMinArray(8)
    a.update(1, 5)
    a.update(6, 3)
    before = tree_shape(a)
    assert before == {(0, 7): (3, 6), (1, 1): (5, 1)}
    old_root = a._root
    a.grow(20)  # past 8, the old power of two
    assert tree_shape(a) == before
    # An entry above the old root's range glues the untouched old root and
    # the new entry under their lowest common aligned range, [0, 31].
    a.update(19, 1)
    assert tree_shape(a) == {**before, (0, 31): (1, 19)}
    assert a._root.left is old_root
    check_tree(a)
    assert a.min_suffix(7) == 1
    assert a.argleq(4) == 19


def test_bad_arguments_rejected():
    a = SuffixMinArray(4)
    with pytest.raises(IndexError):
        a.update(4, 1)
    with pytest.raises(IndexError):
        a.update(-1, 1)
    with pytest.raises(IndexError):
        a.min_suffix(4)
    with pytest.raises(ValueError):
        a.update(0, -3)
    with pytest.raises(ValueError):
        a.grow(2)
    with pytest.raises(ValueError):
        SuffixMinArray(-1)


def test_empty_and_capacity_zero():
    a = SuffixMinArray(0)
    assert a.density() == 0
    assert a.argleq(5) == -1
    b = SuffixMinArray(5)
    assert b.min_suffix(0) == INF
    assert b.min_suffix(4) == INF
    assert b.height() == 0


def test_capacity_zero_rejects_index_zero():
    # No index is valid on a capacity-0 array, for a query or an update.
    a = SuffixMinArray(0)
    with pytest.raises(IndexError):
        a.min_suffix(0)
    with pytest.raises(IndexError):
        a.update(0, 1)
    with pytest.raises(IndexError):
        a.value_at(0)


@pytest.mark.parametrize("cap", [1, 5, 8, 40])
def test_min_suffix_rejects_minus_one_and_capacity(cap):
    a = SuffixMinArray(cap)
    a.update(cap - 1, 3)
    assert a.min_suffix(cap - 1) == 3
    with pytest.raises(IndexError):
        a.min_suffix(-1)
    with pytest.raises(IndexError):
        a.min_suffix(cap)


@pytest.mark.parametrize("old, new", [(0, 1), (0, 6), (5, 7), (5, 40), (8, 9)])
def test_min_suffix_accepts_new_top_index_after_grow(old, new):
    # (5, 7) stays below the same power of two, the others pass it.
    a = SuffixMinArray(old)
    a.grow(new)
    assert a.min_suffix(new - 1) == INF
    a.update(new - 1, 4)
    assert a.min_suffix(0) == 4
    assert a.min_suffix(new - 1) == 4
    with pytest.raises(IndexError):
        a.min_suffix(new)
