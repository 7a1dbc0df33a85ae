import pathlib
import random

import pytest

from csst.core import NodeId
from csst.harness import TraceEvent, parse_trace
from csst.satcheck import check

from helpers import interleaving_consistent

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
