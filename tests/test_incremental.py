"""Insert-only order: pinned examples, invariants, op-count budget."""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csst import IncrementalPartialOrder, NodeId, PlainStPO, PoError, PoErrorKind
from csst.sst import INF
from helpers import RefFold, RefOrder

N = NodeId


def three_by_three_example():
    """Three chains of three events; four cross edges forming the running
    example used across the pinned tests (hand-checked answers)."""
    po = IncrementalPartialOrder(3, [3, 3, 3])
    edges = [
        (N(1, 0), N(2, 0)),
        (N(1, 2), N(0, 1)),
        (N(1, 1), N(2, 2)),
        (N(2, 2), N(1, 2)),
    ]
    for u, v in edges:
        po.insert_edge(u, v)
    return po, edges


def test_single_lookup_queries_on_running_example():
    po, _ = three_by_three_example()
    # The (1 -> 0) array ends up [inf, inf, 1].
    a10 = po.arrays[1 * 3 + 0]
    assert a10.value_at(0) == INF
    assert a10.value_at(1) == INF
    assert a10.value_at(2) == 1
    assert po.successor(N(1, 0), 2) == 0
    assert po.predecessor(N(0, 2), 1) == 2
    assert po.successor(N(1, 0), 1) == 0  # same chain: itself
    assert po.predecessor(N(0, 2), 0) == 2
    assert po.reachable(N(1, 0), N(0, 2))
    assert not po.reachable(N(0, 0), N(1, 0))


def test_insert_folds_transitive_consequences():
    # Four chains, three events each. After three prior edges, inserting
    # (1,1) -> (2,0) must create the long-range entry (0,1) ~> (3,2).
    po = IncrementalPartialOrder(4, [3, 3, 3, 3])
    po.insert_edge(N(0, 1), N(1, 0))
    po.insert_edge(N(1, 2), N(2, 1))
    po.insert_edge(N(2, 0), N(3, 2))
    assert po.successor(N(0, 1), 3) is None
    po.insert_edge(N(1, 1), N(2, 0))
    assert po.arrays[0 * 4 + 3].value_at(1) == 2
    assert po.reachable(N(0, 1), N(3, 2))
    assert po.successor(N(0, 1), 3) == 2
    assert po.predecessor(N(3, 2), 0) == 1


def test_reinsert_implied_edge_is_a_no_op():
    po, edges = three_by_three_example()
    before = [a.entries() if a else None for a in po.arrays]
    po.insert_edge(N(1, 0), N(2, 0))  # exact duplicate: already implied
    po.insert_edge(N(1, 1), N(2, 2))
    after = [a.entries() if a else None for a in po.arrays]
    assert before == after


def test_deletes_are_refused():
    po, edges = three_by_three_example()
    with pytest.raises(PoError) as e:
        po.delete_edge(N(1, 0), N(2, 0))
    assert e.value.kind == PoErrorKind.DELETE_UNSUPPORTED
    assert e.value.nodes == (N(1, 0), N(2, 0))


def test_validation_errors():
    po = IncrementalPartialOrder(2, [3, 3])
    with pytest.raises(PoError) as e:
        po.insert_edge(N(0, 3), N(1, 0))
    assert e.value.kind == PoErrorKind.OUT_OF_RANGE
    assert e.value.nodes[0] == N(0, 3)
    with pytest.raises(PoError) as e:
        po.insert_edge(N(0, 0), N(0, 1))
    assert e.value.kind == PoErrorKind.SAME_CHAIN_UPDATE
    with pytest.raises(PoError) as e:
        po.successor(N(0, 0), 5)
    assert e.value.kind == PoErrorKind.OUT_OF_RANGE


def test_refuses_a_cycle_closing_insert():
    # csst-inc and st refuse a cycle-closing insert with no option: after
    # the implied-edge probe, one probe finds v reaching u, and the refusal
    # comes before any update.
    for cls in (IncrementalPartialOrder, PlainStPO):
        po = cls(2, [2, 2])
        po.insert_edge(N(0, 0), N(1, 0))
        calls = _count_calls(po)
        with pytest.raises(PoError) as e:
            po.insert_edge(N(1, 1), N(0, 0))
        assert e.value.kind == PoErrorKind.CYCLE_DETECTED
        assert e.value.nodes == (N(1, 1), N(0, 0))
        assert calls == Counter(min_suffix=2)
        assert po.successor(N(1, 1), 0) is None


def test_grow_extends_a_chain():
    po = IncrementalPartialOrder(2, [2, 2])
    po.insert_edge(N(0, 1), N(1, 0))
    po.grow(0, 6)
    po.insert_edge(N(0, 4), N(1, 1))
    assert po.successor(N(0, 4), 1) == 1
    assert po.successor(N(0, 1), 1) == 0
    assert po.reachable(N(0, 0), N(1, 1))
    with pytest.raises(PoError):
        po.insert_edge(N(0, 6), N(1, 0))


class _CountingArray:
    def __init__(self, inner, calls):
        self._inner = inner
        self._calls = calls

    def __getattr__(self, name):
        if name in ("update", "min_suffix", "argleq"):
            calls = self._calls
            fn = getattr(self._inner, name)

            def counted(*a):
                calls[name] += 1
                return fn(*a)

            return counted
        return getattr(self._inner, name)


def _count_calls(po) -> Counter:
    calls = Counter()
    po.arrays = [_CountingArray(a, calls) if a is not None else None for a in po.arrays]
    return calls


def _dag_steps(data, ref, n_steps):
    """Yield ("grow", chain, new_len) and ("ins", u, v) steps that keep ref
    acyclic and free of duplicates. ref takes each step after yielding it,
    so the caller sees the order as it was before the step."""
    k = ref.k
    for _ in range(n_steps):
        if data.draw(st.integers(0, 4)) == 0:
            t = data.draw(st.integers(0, k - 1))
            new_len = ref.lengths[t] + data.draw(st.integers(1, 3))
            yield "grow", t, new_len
            ref.grow(t, new_len)
            continue
        t1 = data.draw(st.integers(0, k - 1))
        t2 = data.draw(st.integers(0, k - 1))
        if t1 == t2:
            continue
        u = (t1, data.draw(st.integers(0, ref.lengths[t1] - 1)))
        v = (t2, data.draw(st.integers(0, ref.lengths[t2] - 1)))
        if (*u, *v) in ref.edges or ref.reachable(v, u):
            continue
        yield "ins", u, v
        ref.insert_edge(u, v)


def _expected_calls(ref, u, v) -> Counter:
    """Array calls the fold makes for u -> v on an acyclic order, worked out
    from reachability alone: every probe whose answer could write, and the
    frontier reads that find those probes."""
    if ref.reachable(u, v):
        return Counter(min_suffix=1)
    k = ref.k
    (t1, _), (t2, _) = u, v
    # k probes up front: the implied edge, the cycle, and v's successor on
    # each of the k-2 other chains.
    want = Counter(min_suffix=k, argleq=k - 2, update=1)
    cols = {}
    for t in range(k):
        s = ref.successor(v, t) if t not in (t1, t2) else None
        if s is None:
            continue
        want["min_suffix"] += 1
        if not ref.reachable(u, (t, s)):
            cols[t] = s
            want["update"] += 1
    for ta in range(k):
        p = ref.predecessor(u, ta) if ta not in (t1, t2) else None
        if p is None:
            continue
        want["min_suffix"] += 1
        if ref.reachable((ta, p), v):
            continue
        want["update"] += 1
        for tb, s in cols.items():
            if tb != ta:
                want["min_suffix"] += 1
                want["update"] += not ref.reachable((ta, p), (tb, s))
    return want


@settings(max_examples=80, deadline=None)
@given(k=st.integers(2, 6), data=st.data())
def test_insert_probes_only_the_live_frontier(k, data):
    # The fold skips a column of v's successors that u already reaches, and
    # a row of u's predecessors that already reach v; nothing else.
    ref = RefOrder(k, [data.draw(st.integers(1, 6)) for _ in range(k)])
    po = IncrementalPartialOrder(k, ref.lengths)
    calls = _count_calls(po)
    for op, *args in _dag_steps(data, ref, 14):
        if op == "grow":
            po.grow(*args)
            continue
        u, v = args
        want = _expected_calls(ref, u, v)
        calls.clear()
        po.insert_edge(N(*u), N(*v))
        assert calls == want
        assert calls.total() <= 2 * (k - 1) ** 2 + 1


@settings(max_examples=80, deadline=None)
@given(k=st.integers(2, 6), data=st.data())
def test_writes_match_the_unpruned_fold(k, data):
    ref = RefOrder(k, [data.draw(st.integers(1, 6)) for _ in range(k)])
    po = IncrementalPartialOrder(k, ref.lengths)
    fold = RefFold(k, ref.lengths)
    for op, *args in _dag_steps(data, ref, 14):
        if op == "grow":
            po.grow(*args)
            fold.grow(*args)
            continue
        u, v = args
        po.insert_edge(N(*u), N(*v))
        fold.insert_edge(u, v)
        for got, want in zip(po.arrays, fold.arrays):
            assert (got and got.entries()) == (want and want.entries())


def test_reinsert_implied_edge_costs_one_probe():
    po, _ = three_by_three_example()
    calls = _count_calls(po)
    po.insert_edge(N(1, 0), N(2, 0))  # the edge itself
    assert calls == Counter(min_suffix=1)
    calls.clear()
    po.insert_edge(N(1, 0), N(0, 1))  # implied through (1,2) -> (0,1)
    assert calls == Counter(min_suffix=1)


@settings(max_examples=80, deadline=None)
@given(k=st.integers(2, 4), data=st.data())
def test_refuses_exactly_the_cycles(k, data):
    # The closure needs an acyclic order, so csst-inc and st refuse
    # precisely the inserts that close a cycle, and every answer after that
    # is defined.
    cls = data.draw(st.sampled_from([IncrementalPartialOrder, PlainStPO]))
    ref = RefOrder(k, [data.draw(st.integers(1, 5)) for _ in range(k)])
    po = cls(k, ref.lengths)
    for _ in range(12):
        t1 = data.draw(st.integers(0, k - 1))
        t2 = data.draw(st.integers(0, k - 1))
        if t1 == t2:
            continue
        u = (t1, data.draw(st.integers(0, ref.lengths[t1] - 1)))
        v = (t2, data.draw(st.integers(0, ref.lengths[t2] - 1)))
        if (*u, *v) in ref.edges:
            continue
        if ref.reachable(v, u):
            with pytest.raises(PoError) as e:
                po.insert_edge(N(*u), N(*v))
            assert e.value.kind == PoErrorKind.CYCLE_DETECTED
        else:
            po.insert_edge(N(*u), N(*v))
            ref.insert_edge(u, v)
        _assert_all_queries_agree(po, ref)


def _random_dag_workload(data, k, max_len, n_edges):
    lengths = [data.draw(st.integers(1, max_len)) for _ in range(k)]
    ref = RefOrder(k, lengths)
    edges = []
    for _ in range(n_edges):
        t1 = data.draw(st.integers(0, k - 1))
        t2 = data.draw(st.integers(0, k - 1))
        if t1 == t2:
            continue
        j1 = data.draw(st.integers(0, ref.lengths[t1] - 1))
        j2 = data.draw(st.integers(0, ref.lengths[t2] - 1))
        if (t1, j1, t2, j2) in ref.edges:
            continue
        if ref.reachable((t2, j2), (t1, j1)):
            continue
        ref.insert_edge((t1, j1), (t2, j2))
        edges.append((t1, j1, t2, j2))
    return ref, edges


def _assert_all_queries_agree(po, ref):
    k = ref.k
    for t1 in range(k):
        for j1 in range(ref.lengths[t1]):
            for t2 in range(k):
                u = N(t1, j1)
                assert po.successor(u, t2) == ref.successor((t1, j1), t2)
                assert po.predecessor(u, t2) == ref.predecessor((t1, j1), t2)
                for j2 in range(ref.lengths[t2]):
                    got = po.reachable(u, N(t2, j2))
                    assert got == ref.reachable((t1, j1), (t2, j2))


@settings(max_examples=80, deadline=None)
@given(k=st.integers(2, 4), data=st.data())
def test_agrees_with_naive_order(k, data):
    ref, edges = _random_dag_workload(data, k, max_len=6, n_edges=10)
    po = IncrementalPartialOrder(k, [1] * k)
    # Replay geometry through grow to exercise it alongside the inserts.
    for t in range(k):
        po.grow(t, ref.lengths[t])
    for t1, j1, t2, j2 in edges:
        po.insert_edge(N(t1, j1), N(t2, j2))
    _assert_all_queries_agree(po, ref)


@settings(max_examples=60, deadline=None)
@given(k=st.integers(2, 4), data=st.data(), seed=st.randoms(use_true_random=False))
def test_final_answers_independent_of_insert_order(k, data, seed):
    ref, edges = _random_dag_workload(data, k, max_len=5, n_edges=8)
    po1 = IncrementalPartialOrder(k, ref.lengths)
    for t1, j1, t2, j2 in edges:
        po1.insert_edge(N(t1, j1), N(t2, j2))
    shuffled = edges[:]
    seed.shuffle(shuffled)
    po2 = IncrementalPartialOrder(k, ref.lengths)
    for t1, j1, t2, j2 in shuffled:
        po2.insert_edge(N(t1, j1), N(t2, j2))
    for t1 in range(k):
        for j1 in range(ref.lengths[t1]):
            for t2 in range(k):
                u = N(t1, j1)
                assert po1.successor(u, t2) == po2.successor(u, t2)
                assert po1.predecessor(u, t2) == po2.predecessor(u, t2)
