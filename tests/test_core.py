"""Shared vocabulary: errors, same-chain conventions, growth."""

import pytest

from csst import BruteForcePartialOrder, NodeId, PoError, PoErrorKind

N = NodeId


def test_single_chain_order_is_trivial():
    po = BruteForcePartialOrder(1, [5])
    assert po.successor(N(0, 1), 0) == 1
    assert po.predecessor(N(0, 1), 0) == 1
    assert po.reachable(N(0, 1), N(0, 4))
    assert not po.reachable(N(0, 4), N(0, 1))
    with pytest.raises(PoError) as e:
        po.insert_edge(N(0, 0), N(0, 1))
    assert e.value.kind == PoErrorKind.SAME_CHAIN_UPDATE


def test_error_payload_carries_offenders():
    po = BruteForcePartialOrder(2, [2, 2])
    with pytest.raises(PoError) as e:
        po.reachable(N(0, 0), N(1, 7))
    assert e.value.kind == PoErrorKind.OUT_OF_RANGE
    assert e.value.nodes == (N(1, 7),)
    assert "OutOfRange" in str(e.value)


def test_grow_contract():
    po = BruteForcePartialOrder(2, [2, 2])
    po.grow(0, 4)
    assert po.lengths == [4, 2]
    po.grow(0, 4)  # idempotent at same length
    with pytest.raises(ValueError):
        po.grow(0, 3)
    with pytest.raises(PoError):
        po.grow(5, 9)


def test_oracle_self_consistency():
    po = BruteForcePartialOrder(3, [3, 3, 3])
    po.insert_edge(N(0, 1), N(1, 0))
    po.insert_edge(N(1, 1), N(2, 1))
    # successor and reachable must tell the same story.
    for t2 in range(3):
        s = po.successor(N(0, 1), t2)
        for j2 in range(3):
            want = s is not None and s <= j2
            assert po.reachable(N(0, 1), N(t2, j2)) == want
    # predecessor mirrors reachable from the other side.
    for t1 in range(3):
        p = po.predecessor(N(2, 1), t1)
        for j1 in range(3):
            want = p is not None and j1 <= p
            assert po.reachable(N(t1, j1), N(2, 1)) == want
