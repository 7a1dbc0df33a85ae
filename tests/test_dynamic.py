"""Dynamic order: pinned examples, deletion semantics, closure round bound."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csst import BruteForcePartialOrder, DynamicPartialOrder, NodeId, PoError, PoErrorKind
from csst.sst import INF, SuffixMinArray
from helpers import RefOrder

N = NodeId


def four_chain_example():
    """Four chains, three events each, four cross edges (hand-checked)."""
    po = DynamicPartialOrder(4, [3, 3, 3, 3])
    for u, v in [
        (N(0, 1), N(1, 0)),
        (N(0, 2), N(3, 2)),
        (N(1, 1), N(2, 1)),
        (N(2, 2), N(3, 1)),
    ]:
        po.insert_edge(u, v)
    return po


def test_multi_hop_successor_and_delete():
    po = four_chain_example()
    # (0,0) reaches chain 3 earliest at index 1, through the three-edge
    # crossing path (0,1)->(1,0), (1,1)->(2,1), (2,2)->(3,1).
    assert po.successor(N(0, 0), 3) == 1
    # The sweep that found it: rounds 1 and 2 improve chains 2 and 3, and
    # round 3 expands chain 3 at its new index 1 and finds nothing, all
    # within the k-round bound.
    assert po.last_closure_rounds == 3
    assert po.max_closure_rounds <= 4
    assert po.reachable(N(0, 0), N(3, 1))
    assert not po.reachable(N(0, 0), N(3, 0))
    assert po.predecessor(N(3, 1), 0) == 1

    po.delete_edge(N(2, 2), N(3, 1))
    assert po.successor(N(0, 0), 3) == 2  # falls back to the direct edge
    assert po.predecessor(N(3, 1), 0) is None
    assert not po.reachable(N(0, 0), N(3, 1))
    assert po.reachable(N(0, 0), N(3, 2))


def test_reachable_stops_at_the_probe_that_reaches_its_target(monkeypatch):
    # Round 0 from (0,0) reaches chains 1, 2 and 3, with chain 2 only at
    # index 2, so round 1 queues all three. Expanding chain 1, the first of
    # them, its second probe (1,0) -> (2,0) decides reachable((0,0), (2,0)):
    # the query ends there, not after expanding chains 2 and 3 as well.
    po = DynamicPartialOrder(4, [3, 3, 3, 3])
    for u, v in [
        (N(0, 0), N(1, 0)),
        (N(0, 0), N(2, 2)),
        (N(0, 0), N(3, 0)),
        (N(1, 0), N(2, 0)),
    ]:
        po.insert_edge(u, v)
    probes = []

    def probe(self, j, _fn=SuffixMinArray.min_suffix):
        probes.append(j)
        return _fn(self, j)

    monkeypatch.setattr(SuffixMinArray, "min_suffix", probe)
    assert po.reachable(N(0, 0), N(2, 0))
    # Three probes for round 0's row, then two of chain 1's three.
    assert len(probes) == 5
    assert po.last_closure_rounds == 1
    assert not po._fwd_memo  # a query that stopped early stores nothing


def test_direct_minima_track_the_edge_multiset():
    po = DynamicPartialOrder(2, [4, 4])
    po.insert_edge(N(0, 1), N(1, 3))
    assert po.arrays[0 * 2 + 1].value_at(1) == 3
    po.insert_edge(N(0, 1), N(1, 1))
    assert po.arrays[0 * 2 + 1].value_at(1) == 1
    po.insert_edge(N(0, 1), N(1, 2))
    assert po.arrays[0 * 2 + 1].value_at(1) == 1
    assert po.direct_minimum(0, 1, 1) == 1
    po.delete_edge(N(0, 1), N(1, 1))
    assert po.arrays[0 * 2 + 1].value_at(1) == 2  # next target promoted
    po.delete_edge(N(0, 1), N(1, 2))
    po.delete_edge(N(0, 1), N(1, 3))
    assert po.arrays[0 * 2 + 1].value_at(1) == INF
    assert po.direct_minimum(0, 1, 1) == INF
    assert po.edge_count() == 0


def test_duplicate_and_missing_edges():
    po = DynamicPartialOrder(2, [3, 3])
    po.insert_edge(N(0, 0), N(1, 1))
    with pytest.raises(PoError) as e:
        po.insert_edge(N(0, 0), N(1, 1))
    assert e.value.kind == PoErrorKind.DUPLICATE_EDGE
    with pytest.raises(PoError) as e:
        po.delete_edge(N(0, 0), N(1, 2))
    assert e.value.kind == PoErrorKind.MISSING_EDGE
    with pytest.raises(PoError) as e:
        po.delete_edge(N(1, 0), N(0, 0))
    assert e.value.kind == PoErrorKind.MISSING_EDGE


def test_insert_then_delete_returns_to_prior_state():
    po = four_chain_example()
    before_entries = [a.entries() if a else None for a in po.arrays]
    before_density = po.density()
    po.insert_edge(N(3, 0), N(0, 2))
    assert po.reachable(N(3, 0), N(0, 2))
    po.delete_edge(N(3, 0), N(0, 2))
    assert before_entries == [a.entries() if a else None for a in po.arrays]
    assert before_density == po.density()
    assert not po.reachable(N(3, 0), N(0, 2))


def test_density_counts_distinct_sources_per_chain():
    po = DynamicPartialOrder(3, [4, 4, 4])
    assert po.density() == 0
    po.insert_edge(N(0, 1), N(1, 0))
    po.insert_edge(N(0, 1), N(2, 2))  # same source again
    assert po.density() == 1
    po.insert_edge(N(0, 3), N(2, 0))
    assert po.density() == 2
    po.insert_edge(N(1, 0), N(2, 1))
    assert po.density() == 2  # chain 1 has 1 < chain 0's 2
    po.delete_edge(N(0, 1), N(1, 0))
    assert po.density() == 2  # (0,1) still sources the edge into chain 2
    po.delete_edge(N(0, 1), N(2, 2))
    assert po.density() == 1


def test_grow_only_touches_source_capacities():
    po = DynamicPartialOrder(2, [2, 2])
    po.insert_edge(N(0, 1), N(1, 1))
    po.grow(0, 9)
    po.insert_edge(N(0, 7), N(1, 0))
    assert po.successor(N(0, 7), 1) == 0
    assert po.successor(N(0, 1), 1) == 0  # via (0,7) down the chain? no:
    # (0,1) reaches (1,1) directly and (1,0) via (0,7)'s edge only if
    # (0,1) precedes (0,7), which it does on the same chain.
    assert po.reachable(N(0, 1), N(1, 0))


def _live_edges(ref):
    return sorted(ref.edges)


@settings(max_examples=80, deadline=None)
@given(k=st.integers(2, 4), data=st.data())
def test_agrees_with_naive_order_under_churn(k, data):
    lengths = [data.draw(st.integers(1, 6)) for _ in range(k)]
    ref = RefOrder(k, lengths)
    po = DynamicPartialOrder(k, lengths)
    for _ in range(16):
        do_delete = ref.edges and data.draw(st.integers(0, 9)) < 3
        if do_delete:
            t1, j1, t2, j2 = data.draw(st.sampled_from(_live_edges(ref)))
            ref.delete_edge((t1, j1), (t2, j2))
            po.delete_edge(N(t1, j1), N(t2, j2))
        else:
            t1 = data.draw(st.integers(0, k - 1))
            t2 = data.draw(st.integers(0, k - 1))
            if t1 == t2:
                continue
            j1 = data.draw(st.integers(0, lengths[t1] - 1))
            j2 = data.draw(st.integers(0, lengths[t2] - 1))
            if (t1, j1, t2, j2) in ref.edges:
                continue
            if ref.reachable((t2, j2), (t1, j1)):
                continue
            ref.insert_edge((t1, j1), (t2, j2))
            po.insert_edge(N(t1, j1), N(t2, j2))
        # Eq-style invariant: every array entry equals its multiset minimum.
        for (a, b, c), lst in po._store.items():
            assert po.arrays[a * k + c].value_at(b) == lst[0]
        assert po.max_closure_rounds <= k
    for t1 in range(k):
        for j1 in range(lengths[t1]):
            u = N(t1, j1)
            for t2 in range(k):
                assert po.successor(u, t2) == ref.successor((t1, j1), t2)
                assert po.predecessor(u, t2) == ref.predecessor((t1, j1), t2)
                for j2 in range(lengths[t2]):
                    assert po.reachable(u, N(t2, j2)) == ref.reachable(
                        (t1, j1), (t2, j2)
                    )
    assert po.max_closure_rounds <= k


def test_closure_memo_kept_until_an_array_entry_changes():
    po = DynamicPartialOrder(3, [6, 6, 6])
    po.insert_edge(N(0, 2), N(1, 3))
    po.insert_edge(N(1, 4), N(2, 2))
    assert po.successor(N(0, 0), 2) == 2  # (0,2) -> (1,3) .. (1,4) -> (2,2)
    assert po.last_closure_rounds > 0
    assert po.predecessor(N(2, 5), 0) == 2
    assert po.last_closure_rounds > 0
    assert po.successor(N(1, 0), 0) is None  # another source chain between
    assert po.closure_memo_hits == 0

    # (0,1) and (0,0) share their round-0 row (chain 1 at 3, chain 2 at inf),
    # and (2,3) and (2,5) theirs (chain 0 at none, chain 1 at 4).
    def hits_from_other_source_indices():
        before = po.closure_memo_hits
        assert po.successor(N(0, 1), 2) == 2
        assert po.last_closure_rounds == 0
        assert po.predecessor(N(2, 3), 0) == 2
        assert po.last_closure_rounds == 0
        assert not po.reachable(N(0, 1), N(2, 1))
        assert po.last_closure_rounds == 0
        assert po.closure_memo_hits == before + 3

    hits_from_other_source_indices()
    po.insert_edge(N(0, 2), N(1, 5))  # above the slot's direct minimum 3
    hits_from_other_source_indices()
    po.delete_edge(N(0, 2), N(1, 5))  # a non-minimal copy
    hits_from_other_source_indices()
    po.grow(0, 9)
    po.grow(2, 7)
    hits_from_other_source_indices()

    # Lowering a direct minimum clears the memo: the next query misses and
    # sees the new answer.
    po.insert_edge(N(1, 4), N(2, 1))
    hits = po.closure_memo_hits
    assert po.successor(N(0, 1), 2) == 1
    assert po.last_closure_rounds > 0
    assert po.predecessor(N(2, 1), 0) == 2
    assert po.closure_memo_hits == hits
    # So does deleting one; (1,4) -> (2,2) is promoted in its place.
    po.delete_edge(N(1, 4), N(2, 1))
    assert po.successor(N(0, 1), 2) == 2
    assert po.predecessor(N(2, 1), 0) is None
    po.delete_edge(N(1, 4), N(2, 2))
    assert po.successor(N(0, 0), 2) is None
    assert po.predecessor(N(2, 5), 0) is None
    assert po.closure_memo_hits == hits


def test_a_closure_whose_round_0_reaches_nothing_settles_in_zero_rounds():
    # Chain 0's one out-edge leaves index 2 and its one in-edge enters index
    # 3, so round 0 reaches no chain forward from (0,4) or (0,5), nor
    # backward from (0,0) or (0,1).
    po = DynamicPartialOrder(3, [6, 6, 6])
    po.insert_edge(N(0, 2), N(1, 3))
    po.insert_edge(N(1, 4), N(2, 2))
    po.insert_edge(N(2, 0), N(0, 3))
    assert po.successors(N(0, 0)) == [0, 3, 2]
    assert po.last_closure_rounds == po.max_closure_rounds == 2
    hits = po.closure_memo_hits

    def empty_rows(fwd_from, bwd_from):
        assert po.successors(N(0, fwd_from)) == [fwd_from, None, None]
        assert po.last_closure_rounds == 0
        assert po.predecessors(N(0, bwd_from)) == [bwd_from, None, None]
        assert po.last_closure_rounds == 0
        assert not po.reachable(N(0, fwd_from), N(1, 5))
        assert po.last_closure_rounds == 0
        assert po.max_closure_rounds == 2

    empty_rows(4, 1)
    assert po.closure_memo_hits == hits + 1  # the reachable after the row
    # (0,5) and (0,0) have the same empty round-0 rows: the memo answers.
    empty_rows(5, 0)
    assert po.closure_memo_hits == hits + 4

    # An entry change clears the memo, even one no queried row reads.
    po.insert_edge(N(1, 0), N(2, 0))
    hits = po.closure_memo_hits
    empty_rows(5, 0)
    assert po.closure_memo_hits == hits + 1


def _queries(k, lengths):
    """Every cross-chain successor, predecessor and reachable query, as
    (method name, node, argument)."""
    out = []
    for t1 in range(k):
        for j1 in range(lengths[t1]):
            u = N(t1, j1)
            for t2 in range(k):
                if t2 != t1:
                    out.append(("successor", u, t2))
                    out.append(("predecessor", u, t2))
                    out += [("reachable", u, N(t2, j2)) for j2 in range(lengths[t2])]
    return out


def _answers(po, queries, rounds=None):
    """{query: answer}; with `rounds`, also the closure rounds of each."""
    out = {}
    for q in queries:
        name, u, arg = q
        out[q] = getattr(po, name)(u, arg)
        if rounds is not None:
            rounds.append(po.last_closure_rounds)
    return out


@settings(max_examples=50, deadline=None)
@given(k=st.integers(2, 4), data=st.data())
def test_closure_memo_agrees_with_oracle_under_churn_cycles_and_growth(k, data):
    lengths = [data.draw(st.integers(1, 5)) for _ in range(k)]
    po = DynamicPartialOrder(k, lengths)  # cycles allowed
    oracle = BruteForcePartialOrder(k, lengths)
    live = []
    for _ in range(10):
        op = data.draw(st.integers(0, 9))
        if op == 0:
            t = data.draw(st.integers(0, k - 1))
            new_len = po.lengths[t] + data.draw(st.integers(1, 3))
            po.grow(t, new_len)
            oracle.grow(t, new_len)
        elif op <= 3 and live:
            u, v = live.pop(data.draw(st.integers(0, len(live) - 1)))
            po.delete_edge(u, v)
            oracle.delete_edge(u, v)
        else:
            t1 = data.draw(st.integers(0, k - 1))
            t2 = (t1 + data.draw(st.integers(1, k - 1))) % k
            u = N(t1, data.draw(st.integers(0, po.lengths[t1] - 1)))
            v = N(t2, data.draw(st.integers(0, po.lengths[t2] - 1)))
            if (u, v) in live:
                continue
            po.insert_edge(u, v)
            oracle.insert_edge(u, v)
            live.append((u, v))
        queries = _queries(k, po.lengths)
        want = _answers(oracle, queries)
        assert _answers(po, queries) == want
        # The first sweep settled the forward and backward key of every node,
        # so the second runs no round. Its shuffled order has queries from
        # different chains and directions follow each other.
        data.draw(st.randoms(use_true_random=False)).shuffle(queries)
        rounds = []
        assert _answers(po, queries, rounds) == want
        assert not any(rounds)
        # One key per row, and rows change only where an array entry sits.
        sources = {key[:2] for key in po._store}
        targets = {(t2, lst[0]) for (_, _, t2), lst in po._store.items()}
        assert len(po._fwd_memo) <= len(sources) + k
        assert len(po._bwd_memo) <= len(targets) + k


def test_no_array_probed_twice_at_one_argument_in_a_query(monkeypatch):
    # Each chain is expanded at most once per value it takes, so within one
    # query no array answers the same probe twice, cycles and deletes
    # included.
    probes = []
    for name in ("min_suffix", "argleq"):
        def probe(self, j, _fn=getattr(SuffixMinArray, name), _name=name):
            probes.append((_name, id(self), j))
            return _fn(self, j)

        monkeypatch.setattr(SuffixMinArray, name, probe)
    rng = random.Random(8)
    multi_round = 0
    for _ in range(60):
        k = rng.randint(2, 6)
        lengths = [rng.randint(1, 6) for _ in range(k)]
        po = DynamicPartialOrder(k, lengths)  # cycles allowed
        live = []
        for _ in range(40):
            if live and rng.random() < 0.3:
                po.delete_edge(*live.pop(rng.randrange(len(live))))
            else:
                t1, t2 = rng.sample(range(k), 2)
                u = N(t1, rng.randrange(lengths[t1]))
                v = N(t2, rng.randrange(lengths[t2]))
                if (u, v) not in live:
                    po.insert_edge(u, v)
                    live.append((u, v))
            for _ in range(3):
                t1, t2 = rng.sample(range(k), 2)
                u = N(t1, rng.randrange(lengths[t1]))
                for name, arg in [
                    ("successor", t2),
                    ("predecessor", t2),
                    ("reachable", N(t2, rng.randrange(lengths[t2]))),
                ]:
                    probes.clear()
                    getattr(po, name)(u, arg)
                    assert len(set(probes)) == len(probes), (name, u, arg)
                    multi_round += po.last_closure_rounds > 1
    assert multi_round > 1000  # enough queries ran more than one round


def test_closures_probe_arrays_in_a_pinned_order(monkeypatch):
    # Forward from (0,0), round 0 reaches chains 1, 2 and 3 (at 3, 2 and 4).
    # Round 1 expands them in chain order; expanding chain 1 brings chain 3
    # to 1 before its turn, so chain 3 is expanded at 1 and not queued
    # again, while chain 2's expansion brings the expanded chain 1 to 1, so
    # round 2 expands chain 1 once more. That brings chain 3 to 0, and
    # round 3 expands chain 3 at 0 and finds nothing better.
    po = DynamicPartialOrder(4, [6, 6, 6, 6])
    for u, v in [
        (N(0, 0), N(1, 3)),
        (N(0, 0), N(2, 2)),
        (N(0, 0), N(3, 4)),
        (N(1, 3), N(3, 1)),
        (N(2, 2), N(1, 1)),
        (N(1, 1), N(3, 0)),
        (N(3, 5), N(0, 5)),
    ]:
        po.insert_edge(u, v)
    pair = {
        id(po.arrays[t1 * 4 + t2]): (t1, t2) for t1 in range(4) for t2 in range(4) if t1 != t2
    }
    probes = []
    for name in ("min_suffix", "argleq"):
        def probe(self, j, _fn=getattr(SuffixMinArray, name), _name=name):
            probes.append((_name, *pair[id(self)], j))
            return _fn(self, j)

        monkeypatch.setattr(SuffixMinArray, name, probe)

    assert po.successors(N(0, 0)) == [0, 1, 2, 0]
    assert po.last_closure_rounds == 3
    # (chain expanded, at): round 0, round 1, round 2, round 3
    expanded = [(0, 0), (1, 3), (2, 2), (3, 1), (1, 1), (3, 0)]
    assert probes == [("min_suffix", t1, t2, j) for t1, j in expanded for t2 in range(4) if t2 != t1]

    # Backward from (3,4), round 0 reaches chains 0 and 1 (at 0 and 3).
    # Round 1 expands chain 0 at 0, which no edge enters at or below, then
    # chain 1 at 3, which (2,2) enters at 1; round 2 expands chain 2 at 2
    # and settles.
    probes.clear()
    assert po.predecessors(N(3, 4)) == [0, 3, 2, 4]
    assert po.last_closure_rounds == 2
    expanded = [(3, 4), (0, 0), (1, 3), (2, 2)]
    assert probes == [("argleq", t1, t2, j) for t2, j in expanded for t1 in range(4) if t1 != t2]
