"""Seeded inputs and the four workloads of the csst benchmark.

Inputs are generated without calling any partial-order backend. Each chain's
events get hidden, strictly increasing timestamps, and every edge runs from
an earlier to a later timestamp within a window. Program order also runs
forward in time, so every generated order is acyclic by construction.
Satcheck traces come from a simulated interleaving in which every write
stores a fresh value, so the write each read observed is known exactly.

A workload supplies:

    setup()          the work `setup_s` times; returns the state ops run on
    calls(state)     per op kind, the public function an op calls
    stream()         a fresh, endless, deterministic sequence of op chunks,
                     lists of (kind, x, y); a None chunk asks for the state
                     to be set up anew, off the clock
    judge(op, answer)
                     True or False when the answer can be checked on the
                     spot, None when it needs the reference replay
    verify(n, sample)
                     wrong answers among `sample` {op position: answer},
                     found by replaying the first n ops into `GraphPO`

`GraphPO` shares no code with `sst`, `dynamic` or `incremental`. Satcheck
answers are judged against the generator's ground truth.
"""

from __future__ import annotations

import random
from array import array
from bisect import bisect_left, bisect_right
from collections import deque
from itertools import accumulate

from csst import DynamicPartialOrder, GraphPO, IncrementalPartialOrder, NodeId
from csst import harness, satcheck

REACH, SUCC, PRED, INSERT, DELETE, CHECK = range(6)
KIND_NAMES = ("reach", "succ", "pred", "insert", "delete", "check")
QUERY_KINDS = (REACH, SUCC, PRED)

# Returned in place of an answer when an op raised.
FAILED = object()

CHUNK = 256  # ops generated per chunk, outside the clock


class Chains:
    """k chains of ell events with hidden, strictly increasing timestamps."""

    MAX_GAP = 8  # timestamp gaps are uniform in 1..MAX_GAP

    def __init__(self, rng: random.Random, k: int, ell: int, window_events: int):
        self.k, self.ell = k, ell
        self.ts = [
            array("q", accumulate(rng.randint(1, self.MAX_GAP) for _ in range(ell)))
            for _ in range(k)
        ]
        # The window is given in events; convert at the mean gap.
        self.window = window_events * (self.MAX_GAP + 1) // 2

    def other_chain(self, rng: random.Random, t: int) -> int:
        t2 = rng.randrange(self.k - 1)
        return t2 + (t2 >= t)

    def edge(self, rng: random.Random) -> tuple[NodeId, NodeId]:
        """A cross edge to a strictly later timestamp within the window."""
        while True:
            t1 = rng.randrange(self.k)
            j1 = rng.randrange(self.ell)
            t2 = self.other_chain(rng, t1)
            s = self.ts[t1][j1]
            col = self.ts[t2]
            lo = bisect_right(col, s)
            hi = bisect_right(col, s + self.window)
            if lo < hi:
                return NodeId(t1, j1), NodeId(t2, rng.randrange(lo, hi))

    def distinct_edges(self, rng: random.Random, n: int, taken: set) -> list:
        out = []
        while len(out) < n:
            e = self.edge(rng)
            if e not in taken:
                taken.add(e)
                out.append(e)
        return out

    def query(self, rng: random.Random, kind: int) -> tuple:
        t1 = rng.randrange(self.k)
        u = NodeId(t1, rng.randrange(self.ell))
        t2 = self.other_chain(rng, t1)
        if kind != REACH:
            return (kind, u, t2)
        # Target near u in time, so that answers are a mix of true and false.
        s = self.ts[t1][u.index] + rng.randint(-self.window, self.window)
        j2 = min(bisect_left(self.ts[t2], s), self.ell - 1)
        return (REACH, u, NodeId(t2, j2))


class OrderWorkload:
    """Shared shape of the three workloads that drive one order directly."""

    backend = None
    verify_budget = 1000  # query answers checked against GraphPO per run
    trace_ops = 4000  # ops in the traced run, which is fixed-size

    def __init__(self, seed: int, k: int, ell: int, window: int, preload: int):
        rng = random.Random(seed)
        self.seed = seed
        self.k, self.ell = k, ell
        self.chains = Chains(rng, k, ell, window)
        self.preload = self.chains.distinct_edges(rng, preload, set())
        self.desc = f"k={k} ell={ell} window={window} preload={preload}"

    def setup(self):
        po = self.backend(self.k, [self.ell] * self.k)
        ins = po.insert_edge
        for u, v in self.preload:
            ins(u, v)
        return po

    def calls(self, po) -> tuple:
        return (po.reachable, po.successor, po.predecessor, po.insert_edge, po.delete_edge)

    def stream(self):
        ops = self.ops(random.Random(f"ops-{self.seed}"))
        chunk = []
        for op in ops:
            if op is None:
                if chunk:
                    yield chunk
                    chunk = []
                yield None
                continue
            chunk.append(op)
            if len(chunk) == CHUNK:
                yield chunk
                chunk = []

    def ops(self, rng: random.Random):
        """Endless ops; None where the order is to be set up anew."""
        raise NotImplementedError

    def judge(self, op: tuple, answer) -> bool | None:
        return None

    def verify(self, n: int, sample: dict) -> int:
        def reference():
            g = GraphPO(self.k, [self.ell] * self.k)
            for u, v in self.preload:
                g.insert_edge(u, v)
            return self.calls(g)

        mirror = reference()
        wrong = 0
        pos = 0
        for chunk in self.stream():
            if pos >= n or len(sample) == 0:
                break
            if chunk is None:
                mirror = reference()
                continue
            for kind, x, y in chunk:
                if pos in sample:
                    if sample.pop(pos) != mirror[kind](x, y):
                        wrong += 1
                elif kind in (INSERT, DELETE):
                    mirror[kind](x, y)
                pos += 1
                if pos >= n:
                    break
        return wrong


def order_state(po) -> dict:
    """Size counters of one csst order."""
    return {
        "sst.nodes": po.node_count(),
        "sst.height_max": po.height_max(),
        "dynamic.live_edges": po.edge_count() if isinstance(po, DynamicPartialOrder) else 0,
    }


class DynRead(OrderWorkload):
    """csst-dyn over a preloaded edge set, then only queries."""

    name = "dyn-read"
    backend = DynamicPartialOrder

    def __init__(self, seed: int, tiny: bool = False):
        if tiny:
            super().__init__(seed, k=4, ell=300, window=40, preload=80)
        else:
            super().__init__(seed, k=10, ell=5000, window=400, preload=2000)

    def ops(self, rng: random.Random):
        while True:
            yield self.chains.query(rng, rng.choice(QUERY_KINDS))


class DynChurn(OrderWorkload):
    """csst-dyn with a sliding live edge set: the oldest live edge is the
    one deleted, and about as many edges are inserted as deleted."""

    name = "dyn-churn"
    backend = DynamicPartialOrder

    def __init__(self, seed: int, tiny: bool = False):
        if tiny:
            super().__init__(seed, k=4, ell=300, window=40, preload=80)
        else:
            super().__init__(seed, k=10, ell=5000, window=400, preload=2000)

    def ops(self, rng: random.Random):
        live = set(self.preload)
        queue = deque(self.preload)
        while True:
            x = rng.random()
            if x < 0.35:
                u, v = self.chains.distinct_edges(rng, 1, live)[0]
                queue.append((u, v))
                yield (INSERT, u, v)
            elif x < 0.70 and queue:
                u, v = queue.popleft()
                live.discard((u, v))
                yield (DELETE, u, v)
            else:
                yield self.chains.query(rng, REACH)


class IncBuild(OrderWorkload):
    """csst-inc at a larger capacity: mostly inserts, with one-lookup
    queries interleaved. The order is rebuilt from the preloaded edges
    every `epoch` ops, so that what a run measures, memory included, does
    not depend on how many ops it got through."""

    name = "inc-build"
    backend = IncrementalPartialOrder
    verify_budget = 100  # GraphPO searches whole 50000-event chains
    trace_ops = 1500

    def __init__(self, seed: int, tiny: bool = False):
        if tiny:
            super().__init__(seed, k=4, ell=2000, window=200, preload=100)
            self.epoch = 150
        else:
            super().__init__(seed, k=10, ell=50000, window=4000, preload=1000)
            self.epoch = 12000
        self.desc += f" epoch={self.epoch}"

    def ops(self, rng: random.Random):
        while True:
            live = set(self.preload)
            for _ in range(self.epoch):
                if rng.random() < 0.75:
                    u, v = self.chains.distinct_edges(rng, 1, live)[0]
                    yield (INSERT, u, v)
                else:
                    yield self.chains.query(rng, rng.choice(QUERY_KINDS))
            yield None


def simulate_trace(rng: random.Random, k: int, per_thread: int, nvars: int, write_frac: float):
    """One execution of k threads, per_thread events each, interleaved at
    random. Returns (trace text in execution order, ground-truth bindings
    as (read, write) NodeId pairs in trace order of the reads)."""
    left = [per_thread] * k
    idx = [0] * k
    latest: dict[str, tuple[int, NodeId]] = {}
    lines = []
    truth = []
    value = 0
    while True:
        runnable = [t for t in range(k) if left[t]]
        if not runnable:
            break
        t = rng.choice(runnable)
        var = f"x{rng.randrange(nvars)}"
        me = NodeId(t, idx[t])
        if var not in latest or rng.random() < write_frac:
            value += 1
            latest[var] = (value, me)
            lines.append(f"e {t} {me.index} w {var} {value}")
        else:
            val, w = latest[var]
            lines.append(f"e {t} {me.index} r {var} {val}")
            truth.append((me, w))
        idx[t] += 1
        left[t] -= 1
    return "\n".join(lines) + "\n", truth


class Satcheck:
    """`satcheck.check` on a pool of simulated traces, checked in turn."""

    name = "satcheck"
    verify_budget = 0  # every answer is judged on the spot
    trace_ops = 8

    def __init__(self, seed: int, tiny: bool = False):
        rng = random.Random(seed)
        if tiny:
            k, per_thread, nvars, pool = 3, 8, 2, 6
        else:
            k, per_thread, nvars, pool = 4, 20, 3, 256
        made = [simulate_trace(rng, k, per_thread, nvars, 0.4) for _ in range(pool)]
        self.texts = [text for text, _ in made]
        self.truth = [truth for _, truth in made]
        self.desc = f"k={k} events={k * per_thread} vars={nvars} pool={pool}"

    def setup(self):
        parse = harness.parse_trace
        return [parse(text) for text in self.texts]

    def calls(self, parsed) -> tuple:
        check = satcheck.check
        return (None, None, None, None, None, lambda i, _: check(*parsed[i]))

    def stream(self):
        while True:
            for i in range(len(self.texts)):
                yield [(CHECK, i, None)]

    def judge(self, op: tuple, answer) -> bool:
        return answer.consistent and answer.bindings == self.truth[op[1]]

    def verify(self, n: int, sample: dict) -> int:
        return 0


WORKLOADS = {w.name: w for w in (DynRead, DynChurn, IncBuild, Satcheck)}
