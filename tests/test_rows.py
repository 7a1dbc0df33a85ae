"""Row queries: successors(u) and predecessors(u) on every backend."""

import random

import pytest

from csst import DynamicPartialOrder, NodeId
from csst.harness import BACKENDS, make_backend
from csst.sst import INF, SuffixMinArray
from helpers import RefOrder

N = NodeId
DELETES = {"csst-dyn", "graph", "oracle"}
CYCLES = DELETES | {"vc"}  # csst-inc and st refuse a cycle


def _ref_rows(ref, u):
    succ = [ref.successor(u, t) for t in range(ref.k)]
    pred = [ref.predecessor(u, t) for t in range(ref.k)]
    # On a cycle u's own chain can be reached below u; the slot is u.index.
    succ[u.chain] = pred[u.chain] = u.index
    return succ, pred


def _random_history(rng, name, cyclic):
    """Yield (po, ref) after each step of a seeded mix of inserts, grows
    and, where the backend has them, deletes."""
    k = rng.randint(1, 5)
    ref = RefOrder(k, [rng.randint(1, 6) for _ in range(k)])
    po = make_backend(name, k, ref.lengths)
    live = []
    for _ in range(30):
        r = rng.random()
        if r < 0.1:
            t = rng.randrange(k)
            new_len = ref.lengths[t] + rng.randint(1, 4)
            po.grow(t, new_len)
            ref.grow(t, new_len)
        elif r < 0.3 and live and name in DELETES:
            u, v = live.pop(rng.randrange(len(live)))
            po.delete_edge(N(*u), N(*v))
            ref.delete_edge(u, v)
        elif k > 1:
            t1, t2 = rng.sample(range(k), 2)
            u = (t1, rng.randrange(ref.lengths[t1]))
            v = (t2, rng.randrange(ref.lengths[t2]))
            if (u, v) in live or (not cyclic and ref.reachable(v, u)):
                continue
            po.insert_edge(N(*u), N(*v))
            ref.insert_edge(u, v)
            live.append((u, v))
        yield po, ref


@pytest.mark.parametrize(
    "name, cyclic",
    [(name, False) for name in sorted(BACKENDS) + ["oracle"]]
    + [(name, True) for name in sorted(CYCLES)],
)
def test_rows_match_the_reference_entry_by_entry(name, cyclic):
    rng = random.Random(f"rows-{name}-{cyclic}")
    saw_none = saw_below = 0
    for _ in range(25):
        for po, ref in _random_history(rng, name, cyclic):
            for t in range(ref.k):
                for i in range(ref.lengths[t]):
                    u = N(t, i)
                    succ, pred = _ref_rows(ref, u)
                    assert po.successors(u) == succ, (u, ref.edges)
                    assert po.predecessors(u) == pred, (u, ref.edges)
                    # Each entry is the matching single-entry answer.
                    assert succ == [po.successor(u, c) for c in range(ref.k)]
                    assert pred == [po.predecessor(u, c) for c in range(ref.k)]
                    saw_none += None in succ or None in pred
                    saw_below += ref.successor(u, t) < i
    assert saw_none > 100
    # The cyclic runs reach u's own chain below u, which the row must hide.
    assert (saw_below > 0) == cyclic


@pytest.mark.parametrize("name", sorted(BACKENDS) + ["oracle"])
def test_hooks_answer_nothing_with_inf_and_minus_one(name):
    # One edge (0,1) -> (1,1) over chains of 3, 3 and 2 events, then chain 2
    # grows. Where there is no answer a hook gives inf forward and -1
    # backward, never None; only the public methods turn those into None.
    po = make_backend(name, 3, [3, 3, 2])
    po.insert_edge(N(0, 1), N(1, 1))
    po.grow(2, 4)
    assert po._successor(N(0, 0), 1) == 1
    assert po._successor(N(0, 2), 1) == INF
    assert po._predecessor(N(1, 2), 0) == 1
    assert po._predecessor(N(1, 0), 0) == -1
    assert list(po._successors(N(0, 2)))[1:] == [INF, INF]
    assert list(po._predecessors(N(1, 0)))[0::2] == [-1, -1]
    for t, n in enumerate(po.lengths):
        for i in range(n):
            u = N(t, i)
            others = [c for c in range(3) if c != t]
            answers = [po._successor(u, c) for c in others]
            answers += [po._predecessor(u, c) for c in others]
            answers += [*po._successors(u), *po._predecessors(u)]
            assert None not in answers, u
    assert po.successor(N(0, 2), 1) is None
    assert po.predecessors(N(1, 0)) == [None, 0, None]


def _count_probes(monkeypatch):
    calls = {"min_suffix": 0, "argleq": 0}
    for name in calls:

        def probe(self, j, _fn=getattr(SuffixMinArray, name), _name=name):
            calls[_name] += 1
            return _fn(self, j)

        monkeypatch.setattr(SuffixMinArray, name, probe)
    return calls


def _twin_orders(rng):
    """Two csst-dyn instances with the same edges, cycles included."""
    k = rng.randint(2, 6)
    lengths = [rng.randint(1, 8) for _ in range(k)]
    a, b = DynamicPartialOrder(k, lengths), DynamicPartialOrder(k, lengths)
    edges = set()
    for _ in range(rng.randint(1, 20)):
        t1, t2 = rng.sample(range(k), 2)
        edges.add((N(t1, rng.randrange(lengths[t1])), N(t2, rng.randrange(lengths[t2]))))
    for u, v in sorted(edges):
        a.insert_edge(u, v)
        b.insert_edge(u, v)
    return a, b


def test_a_dyn_row_costs_the_probes_of_one_entry(monkeypatch):
    # successors(u) runs the closure successor(u, t) runs, once: on a cold
    # memo the same min_suffix probes, on a hit only round 0's k - 1.
    calls = _count_probes(monkeypatch)
    rng = random.Random(41)
    multi_round = 0
    for _ in range(40):
        a, b = _twin_orders(rng)
        k = a.k
        for t in range(k):
            for i in range(a.lengths[t]):
                u = N(t, i)
                for one, row, kind in [
                    (a.successor, b.successors, "min_suffix"),
                    (a.predecessor, b.predecessors, "argleq"),
                ]:
                    for po in (a, b):
                        po._fwd_memo.clear()
                        po._bwd_memo.clear()
                    calls.update(min_suffix=0, argleq=0)
                    one(u, (t + 1) % k)
                    want = dict(calls)
                    calls.update(min_suffix=0, argleq=0)
                    row(u)
                    assert calls == want, (u, kind)
                    multi_round += want[kind] > k - 1
                    calls.update(min_suffix=0, argleq=0)
                    row(u)
                    assert calls == {"min_suffix": 0, "argleq": 0, kind: k - 1}
    assert multi_round > 100
