"""Vector-clock, plain-graph, and dense-tree baselines."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csst import (
    GraphPO,
    IncrementalPartialOrder,
    NodeId,
    PlainStPO,
    PoError,
    PoErrorKind,
    VectorClockPO,
)
from helpers import RefOrder

N = NodeId


# -- vector clocks --------------------------------------------------------------


def test_clock_entries_cover_untouched_suffix():
    vc = VectorClockPO(2, [3, 3])
    vc.insert_edge(N(0, 0), N(1, 0))
    # Only index 0 of each chain is materialized; the rest of chain 1 still
    # answers through the frozen last row.
    assert vc.materialized_rows() == 2
    assert vc._predecessors(N(1, 2))[0] == 0
    assert vc.reachable(N(0, 0), N(1, 2))
    assert not vc.reachable(N(0, 1), N(1, 2))
    assert vc.successor(N(0, 0), 1) == 0
    assert vc.predecessor(N(1, 2), 0) == 0
    assert vc.predecessor(N(1, 0), 0) == 0
    assert vc.successor(N(0, 1), 1) is None


def test_reinserting_implied_edge_propagates_nothing():
    vc = VectorClockPO(3, [4, 4, 4])
    vc.insert_edge(N(0, 1), N(1, 1))
    vc.insert_edge(N(1, 2), N(2, 0))
    rows_before = [[r.copy() for r in chain] for chain in vc._rows]
    joins_before = vc.row_joins
    vc.insert_edge(N(0, 1), N(2, 0))  # already implied transitively
    assert vc._rows == rows_before
    # One join attempt on the target row, zero cascading work.
    assert vc.row_joins == joins_before + 1


def test_vc_rejects_deletes():
    vc = VectorClockPO(2, [2, 2])
    vc.insert_edge(N(0, 0), N(1, 1))
    with pytest.raises(PoError) as e:
        vc.delete_edge(N(0, 0), N(1, 1))
    assert e.value.kind == PoErrorKind.DELETE_UNSUPPORTED


def test_vc_late_source_edge_still_repropagates():
    # An edge whose source sits beyond the old watermark must keep working
    # when upstream clocks change later.
    vc = VectorClockPO(3, [6, 6, 6])
    vc.insert_edge(N(1, 4), N(2, 1))
    vc.insert_edge(N(0, 2), N(1, 3))  # upstream of (1,4): must flow to (2,1)
    assert vc.reachable(N(0, 2), N(2, 1))
    assert vc.reachable(N(0, 2), N(2, 5))
    assert vc.predecessor(N(2, 1), 0) == 2
    assert vc.successor(N(0, 2), 2) == 1


# -- plain graph ----------------------------------------------------------------


def test_graph_basic_queries_and_churn():
    g = GraphPO(3, [3, 3, 3])
    g.insert_edge(N(0, 1), N(1, 0))
    g.insert_edge(N(1, 1), N(2, 1))
    assert g.reachable(N(0, 1), N(2, 2))
    assert g.successor(N(0, 0), 2) == 1
    assert g.predecessor(N(2, 1), 0) == 1
    g.delete_edge(N(1, 1), N(2, 1))
    assert g.successor(N(0, 0), 2) is None
    assert g.predecessor(N(2, 1), 0) is None
    with pytest.raises(PoError) as e:
        g.delete_edge(N(1, 1), N(2, 1))
    assert e.value.kind == PoErrorKind.MISSING_EDGE
    g.insert_edge(N(0, 1), N(2, 2))
    with pytest.raises(PoError) as e:
        g.insert_edge(N(0, 1), N(2, 2))
    assert e.value.kind == PoErrorKind.DUPLICATE_EDGE


# -- dense trees ----------------------------------------------------------------


def test_plain_trees_match_sparse_insert_only_order():
    k = 4
    lengths = [3, 3, 3, 3]
    st_po = PlainStPO(k, lengths)
    inc = IncrementalPartialOrder(k, lengths)
    for u, v in [
        (N(0, 1), N(1, 0)),
        (N(1, 2), N(2, 1)),
        (N(2, 0), N(3, 2)),
        (N(1, 1), N(2, 0)),
    ]:
        st_po.insert_edge(u, v)
        inc.insert_edge(u, v)
    for t1 in range(k):
        for j1 in range(3):
            u = N(t1, j1)
            for t2 in range(k):
                assert st_po.successor(u, t2) == inc.successor(u, t2)
                assert st_po.predecessor(u, t2) == inc.predecessor(u, t2)


def test_plain_trees_always_fully_materialized():
    st_po = PlainStPO(3, [8, 8, 8])
    inc = IncrementalPartialOrder(3, [8, 8, 8])
    # One lonely edge: the sparse order allocates a couple of nodes, the
    # dense one paid for everything up front.
    st_po.insert_edge(N(0, 3), N(1, 4))
    inc.insert_edge(N(0, 3), N(1, 4))
    assert st_po.node_count() == 6 * (2 * 8 - 1)
    assert inc.node_count() < st_po.node_count()
    assert inc.node_count() == 1


def test_plain_grow():
    st_po = PlainStPO(2, [2, 2])
    st_po.insert_edge(N(0, 1), N(1, 0))
    st_po.grow(0, 5)
    st_po.insert_edge(N(0, 3), N(1, 1))
    assert st_po.successor(N(0, 1), 1) == 0
    assert st_po.successor(N(0, 2), 1) == 1
    assert st_po.predecessor(N(1, 1), 0) == 3


# -- differential sweep over all three -------------------------------------------


@settings(max_examples=60, deadline=None)
@given(k=st.integers(2, 4), data=st.data())
def test_insert_only_baselines_agree_with_naive(k, data):
    lengths = [data.draw(st.integers(1, 6)) for _ in range(k)]
    ref = RefOrder(k, lengths)
    impls = [
        VectorClockPO(k, lengths),
        GraphPO(k, lengths),
        PlainStPO(k, lengths),
    ]
    for _ in range(10):
        t1 = data.draw(st.integers(0, k - 1))
        t2 = data.draw(st.integers(0, k - 1))
        if t1 == t2:
            continue
        j1 = data.draw(st.integers(0, lengths[t1] - 1))
        j2 = data.draw(st.integers(0, lengths[t2] - 1))
        if (t1, j1, t2, j2) in ref.edges or ref.reachable((t2, j2), (t1, j1)):
            continue
        ref.insert_edge((t1, j1), (t2, j2))
        for po in impls:
            po.insert_edge(N(t1, j1), N(t2, j2))
    for t1 in range(k):
        for j1 in range(lengths[t1]):
            u = N(t1, j1)
            for t2 in range(k):
                want_s = ref.successor((t1, j1), t2)
                want_p = ref.predecessor((t1, j1), t2)
                for po in impls:
                    assert po.successor(u, t2) == want_s
                    assert po.predecessor(u, t2) == want_p
                for j2 in range(lengths[t2]):
                    want = ref.reachable((t1, j1), (t2, j2))
                    for po in impls:
                        assert po.reachable(u, N(t2, j2)) == want
