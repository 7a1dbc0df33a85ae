import importlib.util
import itertools
import os
import pathlib
import random
import subprocess
import sys
import time
from collections import Counter

import pytest

from csst.core import NodeId
from csst.dynamic import DynamicPartialOrder
from csst.harness import parse_trace
from csst.oracle import BruteForcePartialOrder
from csst.satcheck import TraceEvent, check

from helpers import interleaving_consistent, interleaving_with_binding

DATA = pathlib.Path(__file__).parent / "data"


def _ev(t, i, kind, var, val):
    return TraceEvent(t, i, kind, var, val)


def test_importing_satcheck_leaves_the_harness_unloaded():
    # Satcheck owns its input model; the fuzzer and bench code stay out.
    code = "import sys, csst.satcheck; print('csst.harness' in sys.modules)"
    src = str(pathlib.Path(__file__).parent.parent / "src")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                       env={**os.environ, "PYTHONPATH": src}, check=True)
    assert r.stdout == "False\n"


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
    # and the read binds the next x=1 write, (2,0). Both x writes on thread
    # 0 reach the read, and the latest, (0,1), is the only one ordered
    # before (2,0): (0,0) follows through program order.
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


def test_reused_values_bind_after_failed_full_searches(monkeypatch):
    # Reused values give most reads several candidate writes, and full
    # bindings that saturation accepts can have no interleaving: the search
    # turns down two of them before it witnesses this one. Once the first
    # has failed, and not before, each new binding's reads so far are
    # tested first, and a failed test drops every completion of it (the
    # unpruned search failed 787 full bindings here).
    import csst.satcheck as satcheck

    search = satcheck._realizable
    full, prefix = [], []  # verdicts of full searches and of prefix tests

    def spy(lengths, edges, events, node, reads, binding):
        found = search(lengths, edges, events, node, reads, binding)
        if len(reads) < nreads:
            assert False in full
            prefix.append(found)
        else:
            full.append(found)
        return found

    monkeypatch.setattr(satcheck, "_realizable", spy)
    events, orders = parse_trace((DATA / "reused_values.trace").read_text())
    nreads = sum(ev.kind == "r" for ev in events)
    res = check(events, orders)
    assert res.consistent
    assert [(tuple(r), tuple(w)) for r, w in res.bindings] == [
        ((3, 0), (2, 0)), ((2, 1), (2, 0)), ((0, 1), (2, 0)), ((0, 2), (2, 0)),
        ((2, 2), (1, 0)), ((2, 3), (1, 0)), ((3, 1), (0, 0)), ((1, 1), (0, 0)),
        ((0, 6), (0, 3)), ((3, 2), (0, 0)), ((3, 4), (3, 3)), ((2, 4), (2, 0)),
        ((0, 7), (3, 3)), ((0, 8), (3, 3)), ((0, 9), (3, 5)), ((1, 2), (2, 0)),
        ((1, 3), (3, 3)), ((1, 4), (3, 5)), ((3, 7), (3, 3)), ((1, 5), (3, 5)),
        ((2, 7), (3, 3)), ((3, 8), (3, 3)), ((2, 8), (3, 3)), ((1, 7), (2, 6)),
        ((1, 8), (2, 6)), ((1, 9), (2, 6)),
    ]
    assert full == [False, False, True]
    assert len(prefix) == 20 and prefix.count(False) == 12
    pos = {_node(ev): e for e, ev in enumerate(events)}
    assert interleaving_with_binding(events, orders, {pos[r]: pos[w] for r, w in res.bindings})


def test_reused_values_trace_5_gets_a_verdict_in_seconds():
    # Without pruning, about 190,000 full bindings of this trace failed the
    # interleaving search, close to a minute, before one was witnessed.
    events, orders = parse_trace((DATA / "reused_values_5.trace").read_text())
    t0 = time.perf_counter()
    res = check(events, orders)
    assert time.perf_counter() - t0 < 2
    assert res.consistent
    assert [(tuple(r), tuple(w)) for r, w in res.bindings] == [
        ((3, 2), (1, 1)), ((2, 0), (1, 1)), ((2, 1), (3, 0)), ((0, 1), (0, 0)),
        ((0, 2), (3, 0)), ((2, 2), (3, 0)), ((3, 3), (3, 1)), ((0, 3), (0, 0)),
        ((2, 3), (1, 3)), ((0, 4), (3, 0)), ((3, 4), (3, 1)), ((0, 5), (3, 0)),
        ((2, 4), (3, 1)), ((1, 4), (3, 1)), ((3, 5), (1, 1)), ((3, 6), (1, 1)),
        ((2, 5), (0, 6)), ((1, 7), (0, 6)), ((1, 8), (1, 6)), ((3, 8), (1, 5)),
        ((3, 9), (1, 3)), ((2, 7), (1, 9)),
    ]
    pos = {_node(ev): e for e, ev in enumerate(events)}
    assert interleaving_with_binding(events, orders, {pos[r]: pos[w] for r, w in res.bindings})


def _workloads():
    """The benchmark's workload module, which holds its trace generator."""
    path = pathlib.Path(__file__).parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


def _seed3_pool():
    """The traces of the benchmark's satcheck workload at seed 3."""
    return [parse_trace(text) for text in _workloads().Satcheck(3).texts]


def test_queries_per_candidate_do_not_grow_with_the_trace(monkeypatch):
    # A candidate reads four rows, one closure each, and takes a
    # `reachable` only for the second and later forced edges of a kind
    # (r -> o, o -> w), each on its own chain: two forward rows, two
    # backward rows and at most 2(k - 2) `reachable` calls, whether the
    # trace has 80 events or 800.
    import csst.satcheck as satcheck

    log = [Counter()]  # one Counter per candidate, after one for the orderings
    closure = DynamicPartialOrder._closure
    reachable = DynamicPartialOrder.reachable

    def row_spy(po, fwd, tu, ju, tt=-1, tj=-1):
        if tt < 0:  # a whole row, not a `reachable` stopping at its target
            log[-1]["forward rows" if fwd else "backward rows"] += 1
        return closure(po, fwd, tu, ju, tt, tj)

    def reach_spy(po, u, v):
        log[-1]["reachable"] += 1
        return reachable(po, u, v)

    monkeypatch.setattr(DynamicPartialOrder, "_closure", row_spy)
    monkeypatch.setattr(DynamicPartialOrder, "reachable", reach_spy)
    bind = satcheck._bind

    def spy(*args):
        log.append(Counter())
        return bind(*args)

    monkeypatch.setattr(satcheck, "_bind", spy)
    k = 4
    for n in (80, 800):
        text, truth = _workloads().simulate_trace(random.Random(3), k, n // k, 3, 0.4)
        del log[1:]
        res = check(*parse_trace(text))
        assert res.consistent and res.bindings == truth
        # Values are fresh, so each read has one candidate, and it lives.
        assert len(log) == 1 + len(truth)
        for c in log[1:]:
            assert c["forward rows"] == c["backward rows"] == 2
            assert c["reachable"] <= 2 * (k - 2)
        assert sum(c["reachable"] for c in log[1:]) > 0


def test_a_write_waits_on_one_count_not_a_scan_of_its_reads(monkeypatch):
    # Thread 0 writes x=1 and reads it n times; thread 1 overwrites x n
    # times, each of which must wait for all of those reads. A wait test
    # that scans the (write, read) pairs of x takes n steps per overwrite.
    # The search carries a count of pending reads per variable instead, so
    # the Python lines it runs grow with the events, not with their square.
    import csst.satcheck as satcheck

    search = satcheck._realizable

    def tracer(frame, event, arg):
        nonlocal lines
        if frame.f_code.co_filename != satcheck.__file__:
            return None
        lines += 1
        return tracer

    def spy(*args):
        before = sys.gettrace()
        sys.settrace(tracer)
        try:
            return search(*args)
        finally:
            sys.settrace(before)

    monkeypatch.setattr(satcheck, "_realizable", spy)
    per_size = []
    for n in (100, 300):
        events = [_ev(0, 0, "w", "x", 1)]
        events += [_ev(0, i, "r", "x", 1) for i in range(1, n + 1)]
        events += [_ev(1, i, "w", "x", 2) for i in range(n)]
        lines = 0
        assert check(events).consistent
        per_size.append(lines)
    # three times the events: about three times the lines, where a scan
    # of the pairs makes it about nine
    assert 0 < per_size[1] < 4 * per_size[0]


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


def _candidates(events):
    """The positions of the reads, and for each read the positions of its
    same-value writes, both in trace order."""
    reads = [i for i, ev in enumerate(events) if ev.kind == "r"]
    cands = [
        [
            w
            for w, ev in enumerate(events)
            if ev.kind == "w" and ev.var == events[r].var and ev.value == events[r].value
        ]
        for r in reads
    ]
    return reads, cands


def _first_witnessed(events, orders):
    """Reads bind in trace order, each to its same-value writes in trace
    order, so check() answers with the first vector in that lexicographic
    order that some interleaving witnesses: that vector as (read, write)
    node pairs, or None when no vector is witnessed."""
    reads, cands = _candidates(events)
    for vec in itertools.product(*cands):
        if interleaving_with_binding(events, orders, dict(zip(reads, vec))):
            return [(_node(events[r]), _node(events[w])) for r, w in zip(reads, vec)]
    return None


def test_bindings_are_the_first_witnessed_candidate_vector():
    rng = random.Random(909)
    consistent = multi = 0
    for _ in range(300):
        events, orders = random_trace(rng)
        first = _first_witnessed(events, orders)
        res = check(events, orders)
        assert res.consistent == (first is not None), (events, orders)
        if first is not None:
            assert res.bindings == first, (events, orders)
        consistent += res.consistent
        multi += res.consistent and any(len(c) > 1 for c in _candidates(events)[1])
    # both verdicts occur, and some answers had a choice to make
    assert 30 < consistent < 270
    assert multi > 20


def reused_value_trace(rng, max_events=12):
    """A short trace whose reads mostly have several candidate writes. 3-4
    threads take steps in a random order; a step writes 0 or 1 (always when
    its variable has no write yet, else with probability 0.4) or reads the
    variable's latest value, or the other value one time in four. Up to 5
    orderings each pin two reads on different threads in the order they
    ran. The events are listed shuffled, so reads bind out of program order
    and saturation accepts bindings that only the interleaving search
    refuses."""
    k = rng.randint(3, 4)
    n = rng.randint(k + 4, max_events)
    variables = "xy"[: rng.randint(1, 2)]
    latest: dict[str, int] = {}
    counts = [0] * k
    events = []
    for i in range(n):
        t = i if i < k else rng.randrange(k)
        var = rng.choice(variables)
        if var not in latest or rng.random() < 0.4:
            kind = "w"
            latest[var] = val = rng.randint(0, 1)
        else:
            kind = "r"
            val = latest[var] if rng.random() < 0.75 else 1 - latest[var]
        events.append(TraceEvent(t, counts[t], kind, var, val))
        counts[t] += 1
    reads = [ev for ev in events if ev.kind == "r"]
    orders = []
    for _ in range(rng.randint(3, 5) if len(reads) > 1 else 0):
        a, b = sorted(rng.sample(range(len(reads)), 2))
        a, b = reads[a], reads[b]
        if a.thread != b.thread:
            orders.append((a.thread, a.index, b.thread, b.index))
    rng.shuffle(events)
    return events, orders


def test_reused_value_traces_need_the_interleaving_search(monkeypatch):
    # On these traces saturation accepts full bindings that no interleaving
    # realizes, so verdicts and bindings match the exhaustive answers only
    # if the search refuses exactly those: it must read every live edge,
    # count an edge's source as fired, and hold a write back while a read
    # of its variable still wants the value it would overwrite.
    import csst.satcheck as satcheck

    search = satcheck._realizable
    refused = 0

    def spy(*args):
        nonlocal refused
        found = search(*args)
        refused += not found
        return found

    monkeypatch.setattr(satcheck, "_realizable", spy)
    rng = random.Random(1414)
    consistent = 0
    for _ in range(300):
        events, orders = reused_value_trace(rng)
        res = check(events, orders)
        assert res.consistent == interleaving_consistent(events, orders), (events, orders)
        if res.consistent:
            assert res.bindings == _first_witnessed(events, orders), (events, orders)
        consistent += res.consistent
    assert 30 < consistent < 270
    assert refused > 20


def _node(ev):
    return NodeId(ev.thread, ev.index)


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


def test_satcheck_on_graph_agrees_with_csst_dyn(monkeypatch):
    # Satcheck reads rows only through the order's row hooks and asks only
    # `reachable`, so any fully dynamic order must give csst-dyn's verdicts
    # and bindings, and GraphPO shares no code with csst-dyn's closure.
    import csst.satcheck as satcheck
    from csst.baselines import GraphPO

    rng = random.Random(626)
    inputs = [parse_trace((DATA / name).read_text())
              for name in ("two_candidates.trace", "reused_values.trace", "reused_values_5.trace")]
    inputs += [random_trace(rng, max_events=12) for _ in range(300)]
    inputs += [reused_value_trace(rng) for _ in range(100)]
    inputs += _seed3_pool()
    want = [check(*args) for args in inputs]
    assert 0 < sum(res.consistent for res in want) < len(want)
    monkeypatch.setattr(satcheck, "DynamicPartialOrder", GraphPO)
    for args, res in zip(inputs, want):
        assert check(*args) == res, args


def test_the_last_binding_is_saturated_when_the_search_starts(monkeypatch):
    # After reads[-1] binds to w, whether the search checks a full binding
    # or the reads bound so far, every other write o of its variable is
    # ordered against it: w reaches r, w reaching o puts r before o, and o
    # reaching r puts o before w. The edges handed to the interleaving
    # search are the live edges of the order check() built, and they hold
    # all of it: the test reads reachability on an oracle built from them.
    import csst.satcheck as satcheck

    built = []

    class Recording(DynamicPartialOrder):
        def __init__(self, k, lengths):
            super().__init__(k, lengths)
            self.live = set()
            built.append(self)

        def insert_edge(self, u, v):
            super().insert_edge(u, v)
            self.live.add((u, v))

        def delete_edge(self, u, v):
            super().delete_edge(u, v)
            self.live.remove((u, v))

    search = satcheck._realizable
    checked = 0

    def spy(lengths, edges, events, node, reads, binding):
        nonlocal checked
        assert sorted(edges) == sorted(built[-1].live)
        if reads:
            po = BruteForcePartialOrder(len(lengths), lengths)
            for u, v in edges:
                po.insert_edge(u, v)
            r, w = reads[-1], binding[-1]

            def reaches(a, b):
                return po.reachable(node[a], node[b])

            assert reaches(w, r)
            for o, ev in enumerate(events):
                if ev.kind == "w" and ev.var == events[r].var and o != w:
                    assert not reaches(w, o) or reaches(r, o)
                    assert not reaches(o, r) or reaches(o, w)
                    checked += 1
        return search(lengths, edges, events, node, reads, binding)

    monkeypatch.setattr(satcheck, "DynamicPartialOrder", Recording)
    monkeypatch.setattr(satcheck, "_realizable", spy)
    rng = random.Random(303)
    for _ in range(300):
        check(*random_trace(rng, max_events=12))
    # Reused values make full searches fail, so prefix tests run too.
    for _ in range(100):
        check(*reused_value_trace(rng))
    assert checked > 100
