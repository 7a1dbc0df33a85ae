import importlib.util
import itertools
import pathlib
import random
import time

import pytest

from csst.core import NodeId
from csst.dynamic import DynamicPartialOrder
from csst.harness import TraceEvent, parse_trace
from csst.satcheck import check, predecessor_masks

from helpers import interleaving_consistent, interleaving_with_binding

DATA = pathlib.Path(__file__).parent / "data"


def _ev(t, i, kind, var, val):
    return TraceEvent(t, i, kind, var, val)


def test_single_read_binds_to_the_only_write():
    events = [_ev(0, 0, "w", "x", 1), _ev(1, 0, "r", "x", 1)]
    res = check(events)
    assert res.consistent
    assert res.bindings == [(NodeId(1, 0), NodeId(0, 0))]


def test_read_of_a_value_nobody_wrote():
    events = [_ev(0, 0, "w", "x", 1), _ev(1, 0, "r", "x", 2)]
    assert not check(events).consistent


def test_overwrite_before_the_read_blocks_the_older_write():
    # thread 0 writes x=1 then x=2; the read of x=1 is pinned after the
    # overwrite, so no interleaving can explain it
    events = [_ev(0, 0, "w", "x", 1), _ev(0, 1, "w", "x", 2), _ev(1, 0, "r", "x", 1)]
    orders = [(0, 1, 1, 0)]
    assert not check(events, orders).consistent
    assert not interleaving_consistent(events, orders)
    # without the pin the read slots in between the writes
    res = check(events)
    assert res.consistent
    assert res.bindings == [(NodeId(1, 0), NodeId(0, 0))]


def test_same_thread_read_sees_program_order():
    # a thread cannot read its own later write
    events = [_ev(0, 0, "r", "x", 1), _ev(0, 1, "w", "x", 1)]
    assert not check(events).consistent
    events = [_ev(0, 0, "w", "x", 1), _ev(0, 1, "r", "x", 1)]
    assert check(events).consistent


def test_interleaving_search_rejects_a_saturated_binding():
    # Reads bind in file order: (0, 2) takes (0, 0) with nothing to force,
    # then (0, 1) takes (1, 0), which orders (0, 0) before (1, 0). That puts
    # the x=1 write between (0, 0) and its reader (0, 2); only the final
    # interleaving search sees it.
    events = [
        _ev(0, 2, "r", "x", 2),
        _ev(0, 0, "w", "x", 2),
        _ev(0, 1, "r", "x", 1),
        _ev(1, 0, "w", "x", 1),
    ]
    assert not interleaving_consistent(events)
    assert not check(events).consistent


def test_two_reads_may_need_different_writes():
    events = [
        _ev(0, 0, "w", "x", 1),
        _ev(1, 0, "w", "x", 2),
        _ev(2, 0, "r", "x", 1),
        _ev(2, 1, "r", "x", 2),
    ]
    res = check(events)
    assert res.consistent
    assert res.bindings == [
        (NodeId(2, 0), NodeId(0, 0)),
        (NodeId(2, 1), NodeId(1, 0)),
    ]
    # reversing the read order flips the required write order; still fine
    events2 = [
        _ev(0, 0, "w", "x", 1),
        _ev(1, 0, "w", "x", 2),
        _ev(2, 0, "r", "x", 2),
        _ev(2, 1, "r", "x", 1),
    ]
    assert check(events2).consistent


def test_conflicting_read_pair_is_rejected():
    # both orders of the two writes are exhausted by the two threads'
    # opposite observations
    events = [
        _ev(0, 0, "w", "x", 1),
        _ev(1, 0, "w", "x", 2),
        _ev(2, 0, "r", "x", 1),
        _ev(2, 1, "r", "x", 2),
        _ev(3, 0, "r", "x", 2),
        _ev(3, 1, "r", "x", 1),
    ]
    assert not check(events).consistent
    assert not interleaving_consistent(events)


def test_contradictory_initial_orderings_raise():
    events = [_ev(0, 0, "w", "x", 1), _ev(0, 1, "r", "x", 1), _ev(1, 0, "w", "x", 2)]
    with pytest.raises(ValueError):
        check(events, [(0, 1, 0, 0)])  # against program order
    with pytest.raises(ValueError):
        check(events, [(0, 0, 1, 0), (1, 0, 0, 0)])  # two-edge cycle
    events.append(_ev(1, 1, "w", "x", 3))
    with pytest.raises(ValueError):
        # (0, 1) -> (1, 0), then program order to (1, 1), then back to (0, 0)
        check(events, [(0, 1, 1, 0), (1, 1, 0, 0)])


def _spy_inserts(monkeypatch):
    """Log every insert_edge that check() makes, and require that none of
    them closes a cycle: the order check() builds stays acyclic."""
    inserted = []
    insert = DynamicPartialOrder.insert_edge

    def spy(po, u, v):
        assert not po.reachable(v, u), (u, v)
        inserted.append((tuple(u), tuple(v)))
        return insert(po, u, v)

    monkeypatch.setattr(DynamicPartialOrder, "insert_edge", spy)
    return inserted


def test_forced_ordering_into_a_cycle_kills_the_candidate(monkeypatch):
    # The read (1,0) tries (0,0) first, which already reaches it through
    # (0,1) and the pinned ordering. (0,0) reaches the other x write (0,1),
    # so (1,0) -> (0,1) would be forced; but (0,1) reaches the read, so that
    # edge closes a cycle. The candidate dies on its rows with no insert,
    # and the read binds the next x=1 write, (2,0).
    inserted = _spy_inserts(monkeypatch)
    events = [
        _ev(0, 0, "w", "x", 1),
        _ev(0, 1, "w", "x", 2),
        _ev(1, 0, "r", "x", 1),
        _ev(2, 0, "w", "x", 1),
    ]
    orders = [(0, 1, 1, 0)]
    res = check(events, orders)
    assert res.consistent
    assert res.bindings == [(NodeId(1, 0), NodeId(2, 0))]
    assert inserted == [
        ((0, 1), (1, 0)),  # the pinned ordering
        ((2, 0), (1, 0)),  # second candidate
        ((0, 0), (2, 0)),  # forced: (0,0) reaches the read
        ((0, 1), (2, 0)),  # forced: (0,1) reaches the read
    ]
    assert interleaving_with_binding(events, orders, {2: 3})


def test_first_edge_closing_a_cycle_is_refused(monkeypatch):
    # The read (1,0) reaches the x=1 write (0,0) through two pinned
    # orderings, so (0,0) -> (1,0) would close a cycle: it is never
    # inserted, and the read binds the later x=1 write (3,0).
    inserted = _spy_inserts(monkeypatch)
    events = [
        _ev(0, 0, "w", "x", 1),
        _ev(1, 0, "r", "x", 1),
        _ev(2, 0, "w", "y", 5),
        _ev(3, 0, "w", "x", 1),
    ]
    orders = [(1, 0, 2, 0), (2, 0, 0, 0)]
    res = check(events, orders)
    assert res.consistent
    assert res.bindings == [(NodeId(1, 0), NodeId(3, 0))]
    assert inserted == [((1, 0), (2, 0)), ((2, 0), (0, 0)), ((3, 0), (1, 0))]
    assert not interleaving_with_binding(events, orders, {1: 0})


def _seed3_pool():
    """The traces of the benchmark's satcheck workload at seed 3."""
    path = pathlib.Path(__file__).parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return [parse_trace(text) for text in workloads.Satcheck(3).texts]


def test_no_insert_closes_a_cycle(monkeypatch):
    # check() decides every cycle itself, so each edge it inserts finds the
    # reverse direction unreachable: on the benchmark's seed-3 pool, and on
    # small random traces, where candidates die and roll back.
    pool = _seed3_pool()
    rng = random.Random(606)
    pool += [random_trace(rng, max_events=12) for _ in range(300)]
    inserted = _spy_inserts(monkeypatch)
    for events, orders in pool:
        check(events, orders)
    assert len(inserted) > 20000


def test_pinned_trace_rejects_first_candidate_then_accepts():
    events, orders = parse_trace((DATA / "two_candidates.trace").read_text())
    res = check(events, orders)
    assert res.consistent
    # the final read of x=3 has two candidate writes; trace order tries
    # (1,0) first, which closes a cycle through the pinned orderings, so
    # the binding must be the later write (2,0)
    assert res.bindings == [
        (NodeId(0, 1), NodeId(1, 2)),
        (NodeId(2, 2), NodeId(1, 1)),
        (NodeId(0, 2), NodeId(2, 0)),
    ]
    assert interleaving_consistent(events, orders)


def test_checker_leaves_no_residue_between_candidates():
    # after a full check the same instance of the question answers the same
    events, orders = parse_trace((DATA / "two_candidates.trace").read_text())
    first = check(events, orders)
    second = check(events, orders)
    assert first == second


def random_trace(rng, max_events=10):
    n = rng.randint(2, max_events)
    k = rng.randint(1, 3)
    nvars = rng.randint(1, 2)
    counts = [0] * k
    events = []
    written: dict[str, list[int]] = {}
    for _ in range(n):
        t = rng.randrange(k)
        var = "xy"[rng.randrange(nvars)]
        if rng.random() < 0.4:
            kind = "r"
            # bias reads toward values that exist so consistent traces occur
            pool = written.get(var)
            val = rng.choice(pool) if pool and rng.random() < 0.7 else rng.randint(1, 3)
        else:
            kind = "w"
            val = rng.randint(1, 3)
            written.setdefault(var, []).append(val)
        events.append(TraceEvent(t, counts[t], kind, var, val))
        counts[t] += 1
    # Renumber the threads that got events to 0..T-1, as check() requires.
    ids = {t: i for i, t in enumerate(t for t in range(k) if counts[t])}
    events = [TraceEvent(ids[e.thread], e.index, e.kind, e.var, e.value) for e in events]
    orders = []
    if rng.random() < 0.35 and len(events) >= 2:
        a, b = rng.sample(events, 2)
        if a.thread != b.thread:
            orders.append((a.thread, a.index, b.thread, b.index))
    return events, orders


def test_matches_exhaustive_interleaving_on_random_traces():
    rng = random.Random(515)
    consistent = 0
    for _ in range(300):
        events, orders = random_trace(rng)
        want = interleaving_consistent(events, orders)
        got = check(events, orders).consistent
        assert got == want, (events, orders)
        consistent += want
    # the generator must exercise both verdicts
    assert 30 < consistent < 270


def test_bindings_are_the_first_witnessed_candidate_vector():
    # Reads bind in trace order, each to its same-value writes in trace
    # order, so the answer is the first vector in that lexicographic order
    # that some interleaving witnesses, or none.
    rng = random.Random(909)
    consistent = multi = 0
    for _ in range(300):
        events, orders = random_trace(rng)
        reads = [i for i, ev in enumerate(events) if ev.kind == "r"]
        cands = [
            [
                w
                for w, ev in enumerate(events)
                if ev.kind == "w" and ev.var == events[r].var and ev.value == events[r].value
            ]
            for r in reads
        ]
        first = next(
            (
                vec
                for vec in itertools.product(*cands)
                if interleaving_with_binding(events, orders, dict(zip(reads, vec)))
            ),
            None,
        )
        res = check(events, orders)
        assert res.consistent == (first is not None), (events, orders)
        if first is not None:
            want = [(_node(events[r]), _node(events[w])) for r, w in zip(reads, first)]
            assert res.bindings == want, (events, orders)
        consistent += res.consistent
        multi += res.consistent and any(len(c) > 1 for c in cands)
    # both verdicts occur, and some answers had a choice to make
    assert 30 < consistent < 270
    assert multi > 20


def _node(ev):
    return NodeId(ev.thread, ev.index)


def _pairwise_masks(po, nodes):
    return [
        sum(1 << a for a, u in enumerate(nodes) if a != b and po.reachable(u, v))
        for b, v in enumerate(nodes)
    ]


def test_predecessor_masks_match_pairwise_reachable():
    rng = random.Random(77)
    saw_none = saw_delete = 0
    for _ in range(150):
        k = rng.randint(1, 4)
        lengths = [rng.randint(1, 6) for _ in range(k)]
        # Edges only run from a smaller hidden timestamp to a larger one, so
        # the order stays acyclic; chains outside `linked` get no cross edge.
        ts = {(t, j): j * k + rng.randrange(k) for t in range(k) for j in range(lengths[t])}
        linked = [t for t in range(k) if rng.random() < 0.75]
        po = DynamicPartialOrder(k, lengths)
        nodes = [NodeId(t, j) for t in range(k) for j in range(lengths[t])]
        live = []
        for _ in range(rng.randint(0, 12)):
            if live and rng.random() < 0.3:
                po.delete_edge(*live.pop(rng.randrange(len(live))))
                saw_delete += 1
            elif len(linked) >= 2:
                t1, t2 = rng.sample(linked, 2)
                u = NodeId(t1, rng.randrange(lengths[t1]))
                v = NodeId(t2, rng.randrange(lengths[t2]))
                if ts[u] < ts[v] and (u, v) not in live:
                    po.insert_edge(u, v)
                    live.append((u, v))
            rng.shuffle(nodes)
            assert predecessor_masks(po, nodes) == _pairwise_masks(po, nodes)
            saw_none += any(
                po.predecessor(u, t) is None for u in nodes for t in range(k) if t != u.chain
            )
    assert saw_none > 100 and saw_delete > 50


@pytest.mark.parametrize(
    "events, orders",
    [
        # a thread id far past the others; must not size a 401-chain order
        ([_ev(0, 0, "w", "x", 1), _ev(400, 0, "r", "x", 1)], []),
        ([_ev(-1, 0, "w", "x", 1), _ev(0, 0, "r", "x", 1)], []),
        ([_ev(0, 0, "w", "x", 1), _ev(1, 0, "r", "x", 1)], [(0, 0, 2, 0)]),
        ([_ev(0, 0, "w", "x", 1), _ev(1, 0, "r", "x", 1)], [(0, 0, 1, 1)]),
        ([_ev(0, 0, "w", "x", 1), _ev(0, 0, "r", "x", 1)], []),
        ([_ev(0, 1, "w", "x", 1)], []),
        ([], []),
        # a kind that is neither w nor r
        ([_ev(0, 0, "w", "x", 1), _ev(0, 1, "q", "x", 2), _ev(1, 0, "r", "x", 1)], [(0, 1, 1, 0)]),
    ],
)
def test_check_rejects_invalid_input_before_building_the_order(events, orders):
    t0 = time.perf_counter()
    with pytest.raises(ValueError):
        check(events, orders)
    assert time.perf_counter() - t0 < 0.1


def test_the_last_binding_is_saturated_when_the_search_starts(monkeypatch):
    # After reads[-1] binds to w, every other write o of its variable is
    # ordered against it: w reaches r, w reaching o puts r before o, and o
    # reaching r puts o before w. The masks handed to the interleaving
    # search hold the whole order, so the test reads reachability there.
    import csst.satcheck as satcheck

    search = satcheck._realizable
    checked = 0

    def spy(events, masks, reads, binding):
        nonlocal checked
        if not reads:
            return search(events, masks, reads, binding)
        r, w = reads[-1], binding[-1]

        def reaches(a, b):
            return a == b or masks[b] >> a & 1

        assert reaches(w, r)
        for o, ev in enumerate(events):
            if ev.kind == "w" and ev.var == events[r].var and o != w:
                assert not reaches(w, o) or reaches(r, o)
                assert not reaches(o, r) or reaches(o, w)
                checked += 1
        return search(events, masks, reads, binding)

    monkeypatch.setattr(satcheck, "_realizable", spy)
    rng = random.Random(303)
    for _ in range(300):
        check(*random_trace(rng, max_events=12))
    assert checked > 100
