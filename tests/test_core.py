"""Shared vocabulary: errors, same-chain conventions, growth."""

import pytest

from csst import BruteForcePartialOrder, NodeId, PartialOrderBase, PoError, PoErrorKind
from csst.harness import BACKENDS, make_backend

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


@pytest.mark.parametrize("cls", [BACKENDS[n] for n in sorted(BACKENDS)] + [BruteForcePartialOrder])
def test_every_order_answers_one_hook_of_each_pair_natively(cls):
    # The base derives a single entry from the row and the row from single
    # entries, so an order that overrides neither of a pair recurses.
    def native(hook):
        return getattr(cls, hook) is not getattr(PartialOrderBase, hook)

    assert native("_successor") or native("_successors")
    assert native("_predecessor") or native("_predecessors")


@pytest.mark.parametrize("name", sorted(BACKENDS) + ["oracle"])
def test_query_contract_is_shared_by_every_order(name):
    po = make_backend(name, 3, [4, 4, 4])
    po.insert_edge(N(0, 1), N(1, 2))
    po.insert_edge(N(1, 3), N(2, 0))
    ok = N(1, 0)
    for bad in (N(0, 4), N(3, 0), N(-1, 0), N(0, -1)):
        for call in (
            lambda: po.reachable(bad, ok),
            lambda: po.reachable(ok, bad),
            lambda: po.successor(bad, 1),
            lambda: po.predecessor(bad, 1),
            lambda: po.successors(bad),
            lambda: po.predecessors(bad),
        ):
            with pytest.raises(PoError) as e:
                call()
            assert e.value.kind == PoErrorKind.OUT_OF_RANGE
            assert e.value.nodes == (bad,)
            assert str(e.value) == f"OutOfRange: NodeId(chain={bad.chain}, index={bad.index})"
    for chain in (3, -1):
        for call in (lambda: po.successor(ok, chain), lambda: po.predecessor(ok, chain)):
            with pytest.raises(PoError) as e:
                call()
            assert e.value.kind == PoErrorKind.OUT_OF_RANGE
            assert e.value.nodes == (N(chain, 0),)
            assert str(e.value) == f"OutOfRange: NodeId(chain={chain}, index=0) (no such chain)"
    # Same-chain pairs compare indices, whatever the cross edges say.
    assert po.reachable(N(1, 0), N(1, 3))
    assert po.reachable(N(1, 2), N(1, 2))
    assert not po.reachable(N(1, 3), N(1, 0))
    # reachable agrees with successor and predecessor on every pair,
    # including the two-hop (0, 1) -> (1, 2) -> (1, 3) -> (2, 0).
    assert po.reachable(N(0, 1), N(2, 0))
    nodes = [N(t, i) for t in range(3) for i in range(4)]
    for u in nodes:
        for v in nodes:
            s = po.successor(u, v.chain)
            p = po.predecessor(v, u.chain)
            want = s is not None and s <= v.index
            assert po.reachable(u, v) == want
            assert want == (p is not None and u.index <= p)
    # Update errors name (u, v), and their messages are pinned byte for byte:
    # the CLI prints them as they are.
    def refused(update, u, v, kind):
        with pytest.raises(PoError) as e:
            update(u, v)
        assert e.value.kind == kind
        assert e.value.nodes == (u, v)
        return str(e.value)

    for update in (po.insert_edge, po.delete_edge):
        assert refused(update, N(1, 0), N(1, 2), PoErrorKind.SAME_CHAIN_UPDATE) == (
            "SameChainUpdate: NodeId(chain=1, index=0), NodeId(chain=1, index=2)"
        )
    insert_only = name in ("csst-inc", "st", "vc")
    if insert_only:
        po.insert_edge(N(0, 1), N(1, 2))  # a repeat is a no-op
    else:
        assert refused(po.insert_edge, N(0, 1), N(1, 2), PoErrorKind.DUPLICATE_EDGE) == (
            "DuplicateEdge: NodeId(chain=0, index=1), NodeId(chain=1, index=2)"
        )
    # (0, 0) reaches (2, 1), so (2, 1) -> (0, 0) closes a cycle
    if name in ("csst-inc", "st"):
        assert refused(po.insert_edge, N(2, 1), N(0, 0), PoErrorKind.CYCLE_DETECTED) == (
            "CycleDetected: NodeId(chain=2, index=1), NodeId(chain=0, index=0)"
        )
    else:
        po.insert_edge(N(2, 1), N(0, 0))
    if insert_only:
        # every delete is refused, of a present edge or an absent one
        for u, v in ((N(0, 1), N(1, 2)), (N(0, 0), N(1, 2))):
            assert refused(po.delete_edge, u, v, PoErrorKind.DELETE_UNSUPPORTED) == (
                f"DeleteUnsupported: NodeId(chain=0, index={u.index}), NodeId(chain=1, index=2)"
            )
        assert po.reachable(N(0, 1), N(1, 2))
    else:
        assert refused(po.delete_edge, N(0, 0), N(1, 2), PoErrorKind.MISSING_EDGE) == (
            "MissingEdge: NodeId(chain=0, index=0), NodeId(chain=1, index=2)"
        )
        po.delete_edge(N(0, 1), N(1, 2))
        assert not po.reachable(N(0, 1), N(1, 2))
