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
from .core import NodeId, PartialOrderBase, PoError
from .dynamic import DynamicPartialOrder
from .incremental import IncrementalPartialOrder
from .oracle import BruteForcePartialOrder
from .satcheck import TraceEvent, validate_trace
from .sst import SuffixMinArray

BACKENDS = {
    "csst-dyn": DynamicPartialOrder,
    "csst-inc": IncrementalPartialOrder,
    "st": PlainStPO,
    "vc": VectorClockPO,
    "graph": GraphPO,
}


def _check_backend(name: str) -> None:
    if name not in BACKENDS:
        raise ValueError(f"unknown backend {name!r} (choose from {sorted(BACKENDS)})")


def make_backend(name: str, k: int, lengths) -> PartialOrderBase:
    """Instantiate a backend by id; "oracle" also names the brute-force
    arbiter, which is not offered as a backend on the command line."""
    if name == "oracle":
        return BruteForcePartialOrder(k, lengths)
    _check_backend(name)
    return BACKENDS[name](k, lengths)


def _refuses_deletes(name: str) -> bool:
    """Whether backend `name` is insert-only: its class keeps the base's
    _delete_edge, which raises DeleteUnsupported. Builds no backend."""
    return BACKENDS[name]._delete_edge is PartialOrderBase._delete_edge


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


_UPDATES = ("ins", "del", "grow")


def _play(po: PartialOrderBase, rec: OpRecord, row: bool = False):
    """Apply one ins, del or grow record to po, or answer one query record:
    a reach with a bool, a succ or pred with its one entry. With `row`, a
    succ or pred answers u's whole successors or predecessors row instead,
    once po has checked the record's chain id, so that the entry a caller
    reads from the row is the one the record asks for."""
    a = rec.args
    op = rec.op
    if op == "grow":
        return po.grow(a[0], a[1])
    u = NodeId(a[0], a[1])
    if op == "succ" or op == "pred":
        if not row:
            return po.successor(u, a[2]) if op == "succ" else po.predecessor(u, a[2])
        po._check_chain(a[2])
        return po.successors(u) if op == "succ" else po.predecessors(u)
    v = NodeId(a[2], a[3])
    if op == "reach":
        return po.reachable(u, v)
    return po.insert_edge(u, v) if op == "ins" else po.delete_edge(u, v)


def replay(records: list[OpRecord], backend: str) -> list[str]:
    """Apply an op log to one backend; returns the query output lines."""
    if not records or records[0].op != "init":
        raise ValueError("op log must start with init")
    k = records[0].args[0]
    po = make_backend(backend, k, list(records[0].args[1:]))
    out: list[str] = []
    for rec in records[1:]:
        r = _play(po, rec)
        if rec.op in _UPDATES:
            continue
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
        elif parts[0] == "o":
            if len(parts) != 5:
                raise ValueError(f"line {lineno}: want `o <t1> <j1> <t2> <j2>`")
        else:
            raise ValueError(f"line {lineno}: unknown record {parts[0]!r}")
        try:
            if parts[0] == "e":
                ev = TraceEvent(int(parts[1]), int(parts[2]), parts[3], parts[4], int(parts[5]))
                events.append(ev)
            else:
                orders.append((int(parts[1]), int(parts[2]), int(parts[3]), int(parts[4])))
        except ValueError:
            raise ValueError(f"line {lineno}: non-integer field in {raw!r}")
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


class _Judge:
    """Replays an op log record by record, its init record first, on the
    oracle and on the named backends. `step` on the init record builds the
    oracle, then each backend in one guarded call; on any other record it
    asks the oracle once (a succ or pred for u's whole row), then judges
    each backend on the record in one guarded call. It returns the first
    failure it shows, or None. A failure is an answer or row that differs
    from the oracle's, a broken invariant, or any exception a backend
    raises where the oracle answers, in its constructor, an answer or an
    invariant read alike. The oracle's own PoError or ValueError passes
    through: an op the oracle refuses makes the log invalid."""

    def __init__(self, names: list[str]):
        self.names = names
        self.impls: dict[str, PartialOrderBase] = {}
        # the largest closure-round count read from a DynamicPartialOrder
        self.rounds = 0

    def step(self, rec: OpRecord) -> str | None:
        init = rec.op == "init"
        if init:
            self.oracle = BruteForcePartialOrder(rec.args[0], list(rec.args[1:]))
        want = None if init else _play(self.oracle, rec, row=True)
        for name in self.names:
            try:
                if init:
                    self.impls[name] = make_backend(name, rec.args[0], list(rec.args[1:]))
                    continue
                failure = self._judge(name, self.impls[name], rec, want)
            except Exception as e:
                # a PoError's message starts with its kind; name any other's type
                err = e if isinstance(e, PoError) else f"{type(e).__name__}: {e}"
                return f"backend {name} raised {err} on `{rec.line()}`; the oracle did not"
            if failure:
                return failure
        return None

    def _judge(self, name: str, po: PartialOrderBase, rec: OpRecord, want) -> str | None:
        """Everything the judge reads from po on rec, given the oracle's
        answer `want` (for a succ or pred, u's row): po's answer, and its
        row too for a succ or pred; after an insert or delete on a
        DynamicPartialOrder, the direct-minimum and density checks; after
        any update, the height of every SuffixMinArray po holds; after a
        query on a DynamicPartialOrder, the closure-round bound."""
        query = rec.op == "succ" or rec.op == "pred"
        entry = want[rec.args[2]] if query else want
        what = rec.line()
        got = _play(po, rec)
        if query and got == entry:  # the entry agrees; judge its whole row
            got, entry, what = _play(po, rec, row=True), want, f"the row of {what}"
        if got != entry:
            return f"backend {name} answered {got!r}, oracle says {entry!r} on `{what}`"
        dyn = isinstance(po, DynamicPartialOrder)
        if rec.op not in _UPDATES:
            if dyn:
                rounds = po.max_closure_rounds
                self.rounds = max(self.rounds, rounds)
                if rounds > po.k:
                    return f"closure ran {rounds} rounds on k={po.k}"
            return None
        if dyn and rec.op != "grow":
            # the edge's array entry is its least live target, and no array
            # is denser than the order
            t1, j1, t2 = rec.args[:3]
            a = po.arrays[t1 * po.k + t2]
            least, got = po.direct_minimum(t1, j1, t2), a.value_at(j1)
            if got != least:
                return (
                    f"direct-minimum entry mismatch at ({t1},{j1})->chain {t2}: "
                    f"array {got!r} vs least live target {least!r}"
                )
            if a.density() > po.density():
                return f"array density {a.density()} exceeds cross-chain density {po.density()}"
        for a in getattr(po, "arrays", ()):
            if isinstance(a, SuffixMinArray) and a.density():
                bound = min(math.ceil(math.log2(max(a.capacity, 2))), a.density())
                if a.height() > bound:
                    return (
                        f"{name}: tree height {a.height()} exceeds "
                        f"min(log2 {a.capacity}, {a.density()})"
                    )
        return None


class DifferentialRun:
    """One seeded workload raced across implementations vs the oracle.

    Records every executed op so a failure can be replayed and shrunk.
    `failure` stays None when all answers and invariants agree. Whether an
    insert draw would close a cycle is asked of a private GraphPO, which
    replays each update record once the judge has passed it; the judge's
    oracle only judges. So a GraphPO reach bug would also change the draws.
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
            backends = [n for n in BACKENDS if not (opts.delete_frac > 0 and _refuses_deletes(n))]
        self.names = backends
        self.failure: str | None = None
        self.observed_rounds = 0
        self.ops: list[OpRecord] = [OpRecord("init", (self.k, *self.lengths))]

    def run(self) -> None:
        """Draw ops and judge each as it is drawn, until one fails."""
        opts = self.opts
        rng = self.rng
        k = self.k
        judge = _Judge(self.names)
        self.failure = judge.step(self.ops[0])
        if self.failure:
            return
        draw = GraphPO(k, self.lengths)
        lengths = draw.lengths  # current lengths: draw replays each grow
        live: list[tuple[int, int, int, int]] = []
        edge_set: set[tuple[int, int, int, int]] = set()
        upd_left, q_left = self._n_upd, self._n_q
        for _ in range(upd_left + q_left):
            if rng.random() < upd_left / max(upd_left + q_left, 1):
                upd_left -= 1
                r = rng.random()
                if r < GROW_PROB:
                    t = rng.randrange(k)
                    rec = OpRecord("grow", (t, lengths[t] + rng.randint(1, 16)))
                elif live and r < GROW_PROB + opts.delete_frac:
                    e = live.pop(rng.randrange(len(live)))
                    edge_set.discard(e)
                    rec = OpRecord("del", e)
                else:
                    rec = None
                    for _attempt in range(8):
                        t1 = rng.randrange(k)
                        t2 = rng.randrange(k - 1)
                        if t2 >= t1:
                            t2 += 1
                        j1 = rng.randrange(lengths[t1])
                        j2 = rng.randrange(lengths[t2])
                        e = (t1, j1, t2, j2)
                        if e in edge_set or draw.reachable(NodeId(t2, j2), NodeId(t1, j1)):
                            continue
                        live.append(e)
                        edge_set.add(e)
                        rec = OpRecord("ins", e)
                        break
                    if rec is None:
                        continue
            else:
                q_left -= 1
                kind = rng.choice(("succ", "pred", "reach"))
                t1 = rng.randrange(k)
                j1 = rng.randrange(lengths[t1])
                t2 = rng.randrange(k)
                args = (t1, j1, t2)
                if kind == "reach":
                    args += (rng.randrange(lengths[t2]),)
                rec = OpRecord(kind, args)
            self.ops.append(rec)
            self.failure = judge.step(rec)
            if self.failure:
                break
            if rec.op in _UPDATES:
                _play(draw, rec)
        self.observed_rounds = judge.rounds

    def oplog_text(self) -> str:
        return "\n".join(r.line() for r in self.ops) + "\n"


def _first_failure(records: list[OpRecord], names: list[str]) -> str | None:
    """The first failure of a whole op log; None when there is none or the
    oracle refuses some op of the log, since an invalid log is not a
    reproducer."""
    judge = _Judge(names)
    failure = None
    try:
        for rec in records:
            if failure is None:
                failure = judge.step(rec)
            else:  # past the failure only the log's validity is in question
                _play(judge.oracle, rec)
    except (PoError, ValueError):
        return None
    return failure


# Candidate logs the shrinker may judge per failure.
SHRINK_BUDGET = 300


def shrink_oplog(records: list[OpRecord], names: list[str]) -> list[OpRecord]:
    """Greedy delta debugging: drop ops while the log still fails."""
    cur = records[:]
    budget = SHRINK_BUDGET
    changed = True
    while changed and budget > 0:
        changed = False
        i = 1  # never drop init
        while i < len(cur) and budget > 0:
            cand = cur[:i] + cur[i + 1 :]
            budget -= 1
            if _first_failure(cand, names) is not None:
                cur = cand
                changed = True
            else:
                i += 1
    return cur


def fuzz(seed: int, runs: int, opts: FuzzOptions, backends: list[str] | None = None):
    """Run seeded differential workloads. Returns (clean_runs, report|None).
    Raises ValueError up front when deletes are asked of an insert-only
    backend, one whose class does not implement _delete_edge, so that no
    log, shrunk or not, makes one delete. With no `backends`, each run
    races every backend that can take its ops."""
    for name in backends or ():
        _check_backend(name)  # the oracle too: raced against itself it checks nothing
        if opts.delete_frac > 0 and _refuses_deletes(name):
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
