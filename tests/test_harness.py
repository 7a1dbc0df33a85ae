import zlib

import pytest

from csst import harness
from csst.core import NodeId
from csst.harness import (
    BenchConfig,
    DifferentialRun,
    FuzzOptions,
    OpRecord,
    fuzz,
    parse_oplog,
    parse_trace,
    replay,
    run_bench,
    shrink_oplog,
)
from csst.oracle import BruteForcePartialOrder
from csst.sst import INF

ALL = ["csst-dyn", "csst-inc", "vc", "graph", "st"]

SMALL_LOG = """\
# one cross edge, then a sweep of queries
init 2 3 3
ins 0 0 1 1
succ 0 0 1
pred 1 1 0
reach 0 0 1 2
reach 1 0 0 0
succ 1 2 0
pred 0 0 1
"""

# worked out by hand on the two-chain picture above
SMALL_EXPECT = [
    "succ -> 1",
    "pred -> 0",
    "reach -> true",
    "reach -> false",
    "succ -> inf",
    "pred -> none",
]


def test_replay_small_log_on_every_backend():
    records = parse_oplog(SMALL_LOG)
    for name in ALL:
        assert replay(records, name) == SMALL_EXPECT, name


def test_replay_grow_and_delete():
    log = """\
    init 2 2 2
    ins 0 1 1 1
    grow 1 4
    reach 0 1 1 3
    del 0 1 1 1
    reach 0 1 1 3
    """
    records = parse_oplog(log)
    for name in ("csst-dyn", "graph"):
        assert replay(records, name) == ["reach -> true", "reach -> false"], name


def test_replay_is_deterministic():
    run = DifferentialRun(41, FuzzOptions(max_updates=60, max_queries=80))
    run.run()
    assert run.failure is None
    records = parse_oplog(run.oplog_text())
    assert replay(records, "csst-dyn") == replay(records, "csst-dyn")


def test_oplog_round_trips_through_text():
    rec = OpRecord("ins", (0, 1, 2, 3))
    assert parse_oplog("init 3 1 1 1\n" + rec.line())[1] == rec


@pytest.mark.parametrize(
    "bad",
    [
        "",
        "ins 0 0 1 1",  # no init
        "init 2 3 3\ninit 2 3 3",  # double init
        "init 2 3",  # k without all lengths
        "init 2 3 3\nins 0 0 1",  # arity
        "init 2 3 3\nfoo 1 2",  # unknown op
        "init 2 3 3\nins 0 a 1 1",  # non-integer
    ],
)
def test_oplog_rejects_malformed_input(bad):
    with pytest.raises(ValueError):
        parse_oplog(bad)


def test_trace_parsing_round_trip():
    events, orders = parse_trace(
        """
        e 0 0 w x 1
        e 1 0 r x 1  # comment
        o 0 0 1 0
        """
    )
    assert [e.kind for e in events] == ["w", "r"]
    assert orders == [(0, 0, 1, 0)]


@pytest.mark.parametrize(
    "bad",
    [
        "",
        "e 0 0 w x",  # arity
        "e 0 0 q x 1",  # bad kind
        "e 0 1 w x 1",  # gap in thread indices
        "e 0 0 w x 1\ne 600 0 r x 1",  # gap in thread ids
        "e -1 0 w x 1\ne 0 0 r x 1",  # negative thread id
        "e 0 0 w x 1\ne 0 0 w x 2",  # duplicate slot
        "e 0 0 w x 1\no 0 0 1 0",  # ordering names missing event
        "z 0 0",  # unknown record
    ],
)
def test_trace_rejects_malformed_input(bad):
    with pytest.raises(ValueError):
        parse_trace(bad)


def test_fuzz_smoke_stays_clean():
    clean, report = fuzz(11, 6, FuzzOptions(max_updates=50, max_queries=60))
    assert (clean, report) == (6, None)
    clean, report = fuzz(12, 6, FuzzOptions(max_updates=50, max_queries=60, delete_frac=0.3))
    assert (clean, report) == (6, None)


def test_fuzz_draw_is_pinned():
    # Chained crc32 of 40 op logs, with and without deletes. Each insert the
    # draw keeps passed a cycle test on the oracle's `reachable`, so a change
    # to the draw or to that test that alters a log fails here.
    h = 0
    for s in range(20):
        for f in (0, 0.3):
            run = DifferentialRun(s * 1_000_003, FuzzOptions(delete_frac=f))
            run.run()
            assert run.failure is None
            h = zlib.crc32(run.oplog_text().encode(), h)
    assert h == 0x7607A5B7


class _BrokenGraph(harness.BACKENDS["graph"]):
    # answers successor queries off by one when an answer exists
    def _successor(self, u, t2):
        r = super()._successor(u, t2)
        return r if r == INF else r + 1


class _BrokenGraphRows(harness.BACKENDS["graph"]):
    # answers every predecessor single entry right, but predecessors rows
    # off by one off u's own chain when an entry exists (the base writes
    # the own slot)
    def _predecessors(self, u):
        return [p if p < 0 else p + 1 for p in super()._predecessors(u)]

    def _predecessor(self, u, t1):
        return super()._predecessors(u)[t1]


def test_fuzz_catches_a_planted_bug_and_shrinks(monkeypatch):
    _catches_and_shrinks(monkeypatch, _BrokenGraph, 0xA5128F16)


def test_fuzz_catches_a_planted_row_bug_and_shrinks(monkeypatch):
    _catches_and_shrinks(monkeypatch, _BrokenGraphRows, 0x876CB1DE)


def _catches_and_shrinks(monkeypatch, broken, crc):
    monkeypatch.setitem(harness.BACKENDS, "graph", broken)
    clean, report = fuzz(7, 40, FuzzOptions(max_updates=30, max_queries=80))
    assert report is not None
    assert "backend graph" in report
    # the whole report, wording and shrunk log alike, is pinned
    assert zlib.crc32(report.encode()) == crc
    lines = [l for l in report.splitlines() if l and not l.startswith(("run", "reproducer"))]
    # the shrunk reproducer still demonstrates the disagreement
    records = parse_oplog("\n".join(lines))
    assert harness._first_failure(records, ["graph"]) is not None
    # and it is small: init, one insert, one query is the essence of this bug
    assert len(records) <= 5


class _RoundsOverK(harness.BACKENDS["csst-dyn"]):
    # answers every query right, but reports k + 1 closure rounds once it
    # holds two live edges
    @property
    def max_closure_rounds(self):
        return self.k + 1 if self.edge_count() >= 2 else self._rounds

    @max_closure_rounds.setter
    def max_closure_rounds(self, rounds):
        self._rounds = rounds


def test_fuzz_shrinks_a_broken_invariant(monkeypatch):
    monkeypatch.setitem(harness.BACKENDS, "csst-dyn", _RoundsOverK)
    clean, report = fuzz(7, 40, FuzzOptions(max_updates=30, max_queries=80))
    assert report is not None
    assert "closure ran" in report.splitlines()[0]
    assert zlib.crc32(report.encode()) == 0xE94147E3
    lines = [l for l in report.splitlines() if l and not l.startswith(("run", "reproducer"))]
    records = parse_oplog("\n".join(lines))
    # the reproducer still breaks the invariant, and only the invariant
    assert harness._first_failure(records, ALL).startswith("closure ran")
    assert replay(records, "csst-dyn") == replay(records, "oracle")
    # init, two inserts and one query are the essence of this failure
    assert len(records) <= 5


def test_judge_walks_the_oracle_once_per_query(monkeypatch):
    walks = []

    def counted(visit):
        def wrapper(self, *args):
            walks.append(visit.__name__)
            return visit(self, *args)

        return wrapper

    for visit in (BruteForcePartialOrder._visit_fwd, BruteForcePartialOrder._visit_bwd):
        monkeypatch.setattr(BruteForcePartialOrder, visit.__name__, counted(visit))
    records = parse_oplog(SMALL_LOG)
    judge = harness._Judge(ALL)
    assert judge.step(records[0]) is None
    for rec in records[1:]:
        walks.clear()
        assert judge.step(rec) is None
        # an update walks nothing; a query, its row included, walks once
        assert len(walks) == (0 if rec.op == "ins" else 1), (rec.line(), walks)


@pytest.mark.parametrize("query", ["succ 0 0 2", "succ 0 0 -1", "pred 1 1 2", "pred 1 1 -1"])
def test_a_query_on_no_such_chain_makes_the_log_invalid(query):
    # the oracle refuses the chain id before any row entry is read, so a
    # row never wraps on a negative index into an answer
    records = parse_oplog(f"init 2 3 3\nins 0 0 1 1\n{query}\n")
    assert harness._first_failure(records, ALL) is None


def test_shrinker_keeps_a_minimal_disagreement(monkeypatch):
    monkeypatch.setitem(harness.BACKENDS, "graph", _BrokenGraph)
    records = parse_oplog(
        """
        init 2 4 4
        ins 0 0 1 2
        ins 0 1 1 3
        reach 0 0 1 0
        succ 0 0 1
        """
    )
    small = shrink_oplog(records, ["graph"])
    assert small[0].op == "init"
    assert harness._first_failure(small, ["graph"]) is not None
    assert len(small) < len(records)


def test_bench_rows_are_reproducible_and_backend_agnostic():
    base = dict(k=3, ell=60, window=15, insert_factor=4, queries=150, seed=9)
    rows = {}
    for name in ALL:
        a = run_bench(BenchConfig(backend=name, no_timing=True, **base))
        b = run_bench(BenchConfig(backend=name, no_timing=True, **base))
        assert a.csv() == b.csv()
        assert a.inserted_edges > 0
        rows[name] = a.csv().splitlines()[1].split(",", 1)[1]
    # backends see the same workload: the rows differ in the backend name only
    assert len(set(rows.values())) == 1


def test_bench_timed_run_matches_untimed_shape():
    cfg = BenchConfig(backend="csst-inc", k=3, ell=40, window=10, insert_factor=3, queries=50, seed=2)
    timed = run_bench(cfg)
    header, line = timed.csv().splitlines()
    assert header == harness.CSV_HEADER
    fields = line.split(",")
    assert fields[0] == "csst-inc"
    assert int(fields[4]) > 0 and int(fields[5]) > 0
    untimed = run_bench(BenchConfig(backend="csst-inc", k=3, ell=40, window=10, insert_factor=3, queries=50, seed=2, no_timing=True))
    assert untimed.inserted_edges == timed.inserted_edges
    assert untimed.density_max == timed.density_max


def test_bench_window_limits_edge_span():
    cfg = BenchConfig(backend="graph", k=4, ell=200, window=7, insert_factor=2, queries=10, seed=5, no_timing=True)
    edges, _qs, _d = harness.generate_bench_workload(cfg)
    assert edges
    assert all(abs(u.index - v.index) <= 7 for u, v in edges)


def test_make_backend_rejects_unknown_name():
    with pytest.raises(ValueError):
        harness.make_backend("nope", 2, [1, 1])
