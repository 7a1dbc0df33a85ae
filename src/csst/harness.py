"""Workload plumbing: op-log replay, differential fuzzing, benchmarks.

Op-log format (one op per line, `#` starts a comment):

    init <k> <len_0> ... <len_{k-1}>     first op, exactly once
    ins <t1> <j1> <t2> <j2>
    del <t1> <j1> <t2> <j2>
    succ <t1> <j1> <t2>
    pred <t1> <j1> <t2>
    reach <t1> <j1> <t2> <j2>
    grow <t> <new_len>

Replay prints one line per query op:

    succ -> <index|inf>
    pred -> <index|none>
    reach -> <true|false>

Trace format for the consistency checker, read into `satcheck.TraceEvent`s:

    e <thread> <index> <w|r> <var> <value>
    o <t1> <j1> <t2> <j2>        optional: orderings established up front

Everything here is deterministic given its seed; the fuzzer and benchmark
derive all randomness from `random.Random` seeded by explicit integers.
"""

from __future__ import annotations

import gc
import math
import random
import time
from dataclasses import dataclass

from .baselines import GraphPO, PlainStPO, VectorClockPO
from .core import NodeId, PartialOrderBase, PoError, PoErrorKind
from .dynamic import DynamicPartialOrder
from .incremental import IncrementalPartialOrder
from .oracle import BruteForcePartialOrder
from .satcheck import TraceEvent, validate_trace
from .sst import INF

BACKENDS = {
    "csst-dyn": DynamicPartialOrder,
    "csst-inc": IncrementalPartialOrder,
    "vc": VectorClockPO,
    "graph": GraphPO,
    "st": PlainStPO,
}

def make_backend(name: str, k: int, lengths) -> PartialOrderBase:
    """Instantiate a backend by id; "oracle" also names the brute-force
    arbiter, which is not offered as a backend on the command line."""
    if name == "oracle":
        return BruteForcePartialOrder(k, lengths)
    try:
        cls = BACKENDS[name]
    except KeyError:
        raise ValueError(f"unknown backend {name!r} (choose from {sorted(BACKENDS)})")
    return cls(k, lengths)


def _refuses_deletes(name: str) -> bool:
    """Whether backend `name` answers a delete with DeleteUnsupported."""
    po = make_backend(name, 2, [1, 1])
    u, v = NodeId(0, 0), NodeId(1, 0)
    po.insert_edge(u, v)
    try:
        po.delete_edge(u, v)
    except PoError as e:
        return e.kind is PoErrorKind.DELETE_UNSUPPORTED
    return False


# -- op logs -----------------------------------------------------------------------


@dataclass(frozen=True)
class OpRecord:
    op: str
    args: tuple[int, ...]

    def line(self) -> str:
        return " ".join([self.op, *map(str, self.args)])


_ARITY = {"ins": 4, "del": 4, "succ": 3, "pred": 3, "reach": 4, "grow": 2}


def parse_oplog(text: str) -> list[OpRecord]:
    records: list[OpRecord] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        op, args = parts[0], parts[1:]
        try:
            nums = tuple(int(a) for a in args)
        except ValueError:
            raise ValueError(f"line {lineno}: non-integer argument in {raw!r}")
        if op == "init":
            if records:
                raise ValueError(f"line {lineno}: init must be the first op")
            if len(nums) < 1 or len(nums) != 1 + nums[0]:
                raise ValueError(f"line {lineno}: init wants k then k lengths")
        elif op in _ARITY:
            if not records:
                raise ValueError(f"line {lineno}: first op must be init")
            if len(nums) != _ARITY[op]:
                raise ValueError(
                    f"line {lineno}: {op} wants {_ARITY[op]} ints, got {len(nums)}"
                )
        else:
            raise ValueError(f"line {lineno}: unknown op {op!r}")
        records.append(OpRecord(op, nums))
    if not records:
        raise ValueError("empty op log")
    return records


def _ask(po: PartialOrderBase, rec: OpRecord):
    """Answer one succ, pred or reach record on po."""
    a = rec.args
    u = NodeId(a[0], a[1])
    if rec.op == "succ":
        return po.successor(u, a[2])
    if rec.op == "pred":
        return po.predecessor(u, a[2])
    return po.reachable(u, NodeId(a[2], a[3]))


def _row(po: PartialOrderBase, rec: OpRecord) -> list[int | None]:
    """The whole successors or predecessors row of a succ or pred record."""
    u = NodeId(rec.args[0], rec.args[1])
    return po.successors(u) if rec.op == "succ" else po.predecessors(u)


def _apply(po: PartialOrderBase, rec: OpRecord) -> None:
    """Apply one ins, del or grow record to po."""
    a = rec.args
    if rec.op == "ins":
        po.insert_edge(NodeId(a[0], a[1]), NodeId(a[2], a[3]))
    elif rec.op == "del":
        po.delete_edge(NodeId(a[0], a[1]), NodeId(a[2], a[3]))
    else:
        po.grow(a[0], a[1])


def replay(records: list[OpRecord], backend: str) -> list[str]:
    """Apply an op log to one backend; returns the query output lines."""
    if not records or records[0].op != "init":
        raise ValueError("op log must start with init")
    k = records[0].args[0]
    po = make_backend(backend, k, list(records[0].args[1:]))
    out: list[str] = []
    for rec in records[1:]:
        if rec.op in ("ins", "del", "grow"):
            _apply(po, rec)
        else:
            r = _ask(po, rec)
            if rec.op == "reach":
                r = "true" if r else "false"
            elif r is None:
                r = "inf" if rec.op == "succ" else "none"
            out.append(f"{rec.op} -> {r}")
    return out


# -- traces ------------------------------------------------------------------------


def parse_trace(text: str) -> tuple[list[TraceEvent], list[tuple[int, int, int, int]]]:
    """Returns (events in file order, initial ordering edges), checked by
    `validate_trace`."""
    events: list[TraceEvent] = []
    orders: list[tuple[int, int, int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "e":
            if len(parts) != 6:
                raise ValueError(f"line {lineno}: want `e <thread> <index> <w|r> <var> <value>`")
            events.append(TraceEvent(int(parts[1]), int(parts[2]), parts[3], parts[4], int(parts[5])))
        elif parts[0] == "o":
            if len(parts) != 5:
                raise ValueError(f"line {lineno}: want `o <t1> <j1> <t2> <j2>`")
            orders.append((int(parts[1]), int(parts[2]), int(parts[3]), int(parts[4])))
        else:
            raise ValueError(f"line {lineno}: unknown record {parts[0]!r}")
    validate_trace(events, orders)
    return events, orders


# -- differential fuzzing --------------------------------------------------------------


# Chance that an update grows a chain instead of inserting or deleting.
GROW_PROB = 0.02
# Joint budget on naive-oracle work per workload, in rough node-visits;
# keeps the heavy tail of random draws affordable.
MAX_ORACLE_WORK = 1_500_000


@dataclass
class FuzzOptions:
    max_k: int = 6
    max_len: int = 64
    max_updates: int = 120
    max_queries: int = 400
    delete_frac: float = 0.0
    # Cheap per-update checks on the dynamic backend (direct-minimum entry
    # against the least live target, per-array density against cross-chain
    # density).
    check_invariants: bool = True
    # Per-update height sweep over every sparse array; costs a DFS per array,
    # so large batteries may want it off.
    check_heights: bool = True


@dataclass(frozen=True)
class WorkloadShape:
    """Pre-drawn workload dimensions, for callers that want their own
    size distribution instead of FuzzOptions' uniform draws."""

    k: int
    lengths: tuple[int, ...]
    n_updates: int
    n_queries: int


def _draw_scaled(rng: random.Random, cap: int) -> int:
    """1..cap with a bias toward small values but full-range coverage."""
    hi = rng.choice((min(8, cap), min(32, cap), min(cap, 128), cap))
    return rng.randint(1, hi)


class DifferentialRun:
    """One seeded workload raced across implementations vs the oracle.

    Records every executed op so a failure can be replayed and shrunk.
    `failure` stays None when all answers and invariants agree.
    """

    def __init__(
        self,
        seed: int,
        opts: FuzzOptions,
        backends: list[str] | None = None,
        shape: WorkloadShape | None = None,
    ):
        self.seed = seed
        self.opts = opts
        rng = random.Random(seed)
        self.rng = rng
        if shape is None:
            self.k = rng.randint(2, opts.max_k)
            self.lengths = [_draw_scaled(rng, opts.max_len) for _ in range(self.k)]
            self._n_upd = rng.randint(1, opts.max_updates)
            per_query = self.k * max(self.lengths) + 1
            q_cap = max(1, min(opts.max_queries, MAX_ORACLE_WORK // per_query))
            self._n_q = rng.randint(0, q_cap)
        else:
            self.k = shape.k
            self.lengths = list(shape.lengths)
            self._n_upd = shape.n_updates
            self._n_q = shape.n_queries
        if backends is None:
            backends = (
                ["csst-dyn", "graph"]
                if opts.delete_frac > 0
                else ["csst-dyn", "csst-inc", "st", "vc", "graph"]
            )
        self.names = backends
        self.failure: str | None = None
        self.observed_rounds = 0
        self.ops: list[OpRecord] = [OpRecord("init", (self.k, *self.lengths))]

    def run(self) -> None:
        opts = self.opts
        rng = self.rng
        k = self.k
        lengths = self.lengths
        impls = {n: make_backend(n, k, lengths) for n in self.names}
        oracle = BruteForcePartialOrder(k, lengths)
        dyn = impls.get("csst-dyn")
        n_upd = self._n_upd
        n_q = self._n_q
        live: list[tuple[int, int, int, int]] = []
        edge_set: set[tuple[int, int, int, int]] = set()

        def record(op: str, *args: int) -> OpRecord:
            rec = OpRecord(op, args)
            self.ops.append(rec)
            return rec

        def agree(fn, rec: OpRecord, what: str) -> bool:
            """fn(po, rec) on every backend returns what it returns on the
            oracle; otherwise records the failure and returns False."""
            want = fn(oracle, rec)
            for name, po in impls.items():
                try:
                    got = fn(po, rec)
                except PoError as e:
                    self.failure = (
                        f"backend {name} raised {e} on `{rec.line()}`; the oracle did not"
                    )
                    return False
                if got != want:
                    self._fail(name, what, want, got)
                    return False
            return True

        def apply_all(rec: OpRecord) -> bool:
            return agree(_apply, rec, rec.line())

        steps = n_upd + n_q
        upd_left, q_left = n_upd, n_q
        for _ in range(steps):
            do_update = rng.random() < upd_left / max(upd_left + q_left, 1)
            if do_update:
                upd_left -= 1
                r = rng.random()
                if r < GROW_PROB:
                    t = rng.randrange(k)
                    new_len = lengths[t] + rng.randint(1, 16)
                    if not apply_all(record("grow", t, new_len)):
                        return
                    lengths[t] = new_len
                    if opts.check_heights:
                        self._check_tree_bounds(impls)
                elif live and r < GROW_PROB + opts.delete_frac:
                    e = live.pop(rng.randrange(len(live)))
                    edge_set.discard(e)
                    t1, j1, t2, j2 = e
                    if not apply_all(record("del", *e)):
                        return
                    if dyn is not None and opts.check_invariants:
                        self._check_dyn_invariants(dyn, t1, j1, t2)
                    if self.failure is None and opts.check_heights:
                        self._check_tree_bounds(impls)
                else:
                    for _attempt in range(8):
                        t1 = rng.randrange(k)
                        t2 = rng.randrange(k - 1)
                        if t2 >= t1:
                            t2 += 1
                        j1 = rng.randrange(lengths[t1])
                        j2 = rng.randrange(lengths[t2])
                        e = (t1, j1, t2, j2)
                        if e in edge_set:
                            continue
                        if oracle.reachable(NodeId(t2, j2), NodeId(t1, j1)):
                            continue
                        if not apply_all(record("ins", *e)):
                            return
                        live.append(e)
                        edge_set.add(e)
                        if dyn is not None and opts.check_invariants:
                            self._check_dyn_invariants(dyn, t1, j1, t2)
                        if self.failure is None and opts.check_heights:
                            self._check_tree_bounds(impls)
                        break
                if self.failure:
                    return
            else:
                q_left -= 1
                kind = rng.choice(("succ", "pred", "reach"))
                t1 = rng.randrange(k)
                j1 = rng.randrange(lengths[t1])
                t2 = rng.randrange(k)
                args = (t1, j1, t2)
                if kind == "reach":
                    args += (rng.randrange(lengths[t2]),)
                rec = record(kind, *args)
                if not agree(_ask, rec, rec.line()):
                    return
                # The whole row the query's entry belongs to, entry by entry.
                if kind != "reach" and not agree(_row, rec, f"the row of {rec.line()}"):
                    return
                if dyn is not None:
                    self.observed_rounds = dyn.max_closure_rounds
                    if dyn.max_closure_rounds > k:
                        self.failure = (
                            f"closure ran {dyn.max_closure_rounds} rounds on k={k}"
                        )
                        return

    def _fail(self, name: str, query: str, want, got) -> None:
        self.failure = f"backend {name} answered {got!r}, oracle says {want!r} on `{query}`"

    def _check_dyn_invariants(self, dyn: DynamicPartialOrder, t1: int, j1: int, t2: int) -> None:
        lst = dyn._store.get((t1, j1, t2))
        want = lst[0] if lst else INF
        got = dyn.arrays[t1 * dyn.k + t2].value_at(j1)
        if got != want:
            self.failure = (
                f"direct-minimum entry mismatch at ({t1},{j1})->chain {t2}: "
                f"array {got!r} vs least live target {want!r}"
            )
            return
        a = dyn.arrays[t1 * dyn.k + t2]
        if a.density() > dyn.density():
            self.failure = (
                f"array density {a.density()} exceeds cross-chain density {dyn.density()}"
            )

    def _check_tree_bounds(self, impls) -> None:
        for name in ("csst-dyn", "csst-inc"):
            po = impls.get(name)
            if po is None:
                continue
            for a in po.arrays:
                if a is None or a.capacity == 0:
                    continue
                bound = min(math.ceil(math.log2(max(a.capacity, 2))), a.density())
                if a.density() and a.height() > bound:
                    self.failure = (
                        f"{name}: tree height {a.height()} exceeds "
                        f"min(log2 {a.capacity}, {a.density()})"
                    )
                    return

    def oplog_text(self) -> str:
        return "\n".join(r.line() for r in self.ops) + "\n"


def _answers(records: list[OpRecord], backend: str) -> list:
    """Every answer of an op log on one backend, as the fuzzer compares
    them: each succ or pred answer is followed by its whole row."""
    po = make_backend(backend, records[0].args[0], list(records[0].args[1:]))
    out = []
    for rec in records[1:]:
        if rec.op in ("ins", "del", "grow"):
            _apply(po, rec)
        else:
            out.append(_ask(po, rec))
            if rec.op != "reach":
                out.append(_row(po, rec))
    return out


def _oplog_disagrees(records: list[OpRecord], names: list[str]) -> bool:
    """True when the log's answers differ between some backend and the
    oracle, or a backend raises where the oracle answers; used by the
    shrinker."""
    try:
        want = _answers(records, "oracle")
    except (PoError, ValueError):
        return False  # an invalid candidate is not a reproducer
    for n in names:
        try:
            if _answers(records, n) != want:
                return True
        except PoError:
            return True  # the oracle answers the whole log; this backend raises
    return False


def shrink_oplog(records: list[OpRecord], names: list[str], budget: int = 300) -> list[OpRecord]:
    """Greedy delta-debugging: drop ops while the disagreement persists."""
    cur = records[:]
    changed = True
    while changed and budget > 0:
        changed = False
        i = 1  # never drop init
        while i < len(cur) and budget > 0:
            cand = cur[:i] + cur[i + 1 :]
            budget -= 1
            if _oplog_disagrees(cand, names):
                cur = cand
                changed = True
            else:
                i += 1
    return cur


def fuzz(seed: int, runs: int, opts: FuzzOptions, backends: list[str] | None = None):
    """Run seeded differential workloads. Returns (clean_runs, report|None).
    Raises ValueError up front when deletes are asked of an insert-only
    backend, so that no log, shrunk or not, makes one delete."""
    if opts.delete_frac > 0:
        for name in backends or ():
            if _refuses_deletes(name):
                raise ValueError(f"backend {name} is insert-only; it cannot be fuzzed with deletes")
    for i in range(runs):
        run = DifferentialRun(seed * 1_000_003 + i, opts, backends)
        run.run()
        if run.failure:
            small = shrink_oplog(run.ops, run.names)
            report = (
                f"run {i} (seed {run.seed}): {run.failure}\n"
                "reproducer op-log:\n"
                + "\n".join(r.line() for r in small)
            )
            return i, report
    return runs, None


# -- benchmarking -----------------------------------------------------------------------


@dataclass
class BenchConfig:
    backend: str
    k: int
    ell: int
    window: int = 10_000
    insert_factor: int = 20
    queries: int = 1_000_000
    seed: int = 0
    no_timing: bool = False


CSV_HEADER = "backend,k,ell,window,mean_insert_ns,mean_query_ns,inserted_edges,density_max"


@dataclass
class BenchResult:
    config: BenchConfig
    mean_insert_ns: int
    mean_query_ns: int
    inserted_edges: int
    density_max: int

    def csv(self) -> str:
        c = self.config
        return (
            f"{CSV_HEADER}\n"
            f"{c.backend},{c.k},{c.ell},{c.window},"
            f"{self.mean_insert_ns},{self.mean_query_ns},"
            f"{self.inserted_edges},{self.density_max}\n"
        )


def generate_bench_workload(cfg: BenchConfig):
    """Untimed pass: grow the order edge by edge, keeping only additions
    whose endpoints are unordered both ways, each random draw counting as one
    attempt. Also pre-draws the query batch so the timed pass does no RNG
    work. The answers come from csst-inc whatever cfg.backend is: every
    backend agrees on them, and csst-inc is the cheapest to ask."""
    rng = random.Random(cfg.seed)
    k, ell, w = cfg.k, cfg.ell, cfg.window
    po = IncrementalPartialOrder(k, [ell] * k)
    edges: list[tuple[NodeId, NodeId]] = []
    attempts = cfg.insert_factor * ell
    for _ in range(attempts):
        t1 = rng.randrange(k)
        t2 = rng.randrange(k - 1)
        if t2 >= t1:
            t2 += 1
        j1 = rng.randrange(ell)
        j2 = rng.randint(max(0, j1 - w), min(ell - 1, j1 + w))
        u = NodeId(t1, j1)
        v = NodeId(t2, j2)
        if po.reachable(u, v) or po.reachable(v, u):
            continue
        po.insert_edge(u, v)
        edges.append((u, v))
    qs = []
    for _ in range(cfg.queries):
        a = rng.randrange(k)
        b = rng.randrange(k - 1)
        if b >= a:
            b += 1
        qs.append((NodeId(a, rng.randrange(ell)), NodeId(b, rng.randrange(ell))))
    srcs = [set() for _ in range(k)]
    for u, _v in edges:
        srcs[u.chain].add(u.index)
    density_max = max(len(s) for s in srcs)
    return edges, qs, density_max


def run_bench(cfg: BenchConfig) -> BenchResult:
    edges, qs, density_max = generate_bench_workload(cfg)  # warm-up pass
    po = make_backend(cfg.backend, cfg.k, [cfg.ell] * cfg.k)
    ins = po.insert_edge
    # The warm-up pass leaves ~3 objects per query behind; collect now so that
    # a full collection of the heap (about 150 ms with 200,000 queries) does
    # not land inside a timed loop that may run only a few thousand inserts.
    gc.collect()
    t0 = time.perf_counter_ns()
    for u, v in edges:
        ins(u, v)
    t1 = time.perf_counter_ns()
    reach = po.reachable
    gc.collect()
    t2 = time.perf_counter_ns()
    for u, v in qs:
        reach(u, v)
    t3 = time.perf_counter_ns()
    mean_ins = (t1 - t0) // len(edges) if edges else 0
    mean_q = (t3 - t2) // len(qs) if qs else 0
    if cfg.no_timing:
        mean_ins = 0
        mean_q = 0
    return BenchResult(cfg, mean_ins, mean_q, len(edges), density_max)
