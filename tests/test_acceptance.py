"""End-to-end acceptance battery.

One test per criterion, each printing a single verdict line; run

    pytest tests/test_acceptance.py -v -s

to see the lines as the battery progresses. The slow criteria (2, 3, 6)
carry explicit wall-clock budgets and together take a few minutes.
"""

import random
import time

import test_baselines
import test_dynamic
import test_incremental
import test_sst
import test_satcheck
from helpers import interleaving_consistent

from csst import (
    BruteForcePartialOrder,
    IncrementalPartialOrder,
    NodeId,
    PlainStPO,
)
from csst.harness import (
    BenchConfig,
    DifferentialRun,
    FuzzOptions,
    WorkloadShape,
    parse_oplog,
    replay,
    run_bench,
)
from csst.satcheck import check


def _report(n: int, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} ({detail})"
    print("\n" + line)
    assert ok, line


def _shape(rng: random.Random, max_len=512, big_u=5000, big_q=20_000, work_budget=1_200_000):
    """Workload dimensions biased small with occasional cap-sized draws;
    the query count is jointly budgeted so the naive oracle stays affordable."""
    k = rng.randint(2, 8)
    lengths = tuple(rng.randint(1, rng.choice((8, 32, 128, max_len))) for _ in range(k))
    hi_u = big_u if rng.random() < 0.03 else rng.choice((20, 80, 300, 1000))
    n_upd = rng.randint(1, hi_u)
    per_query = k * max(lengths) + n_upd
    hi_q = big_q if rng.random() < 0.03 else rng.choice((100, 400, 1600))
    hi_q = max(1, min(hi_q, work_budget // per_query))
    return WorkloadShape(k, lengths, n_upd, rng.randint(0, hi_q))


def test_acceptance_1_pinned_examples_run_fast():
    pinned = [
        test_sst.test_small_dense_array_queries,
        test_sst.test_lazy_build_step_by_step,
        test_sst.test_query_stops_early_when_carried_pair_decides,
        test_sst.test_delete_and_refill_promotes_best_descendant,
        test_sst.test_height_reaches_but_never_exceeds_log_bound,
        test_incremental.test_single_lookup_queries_on_running_example,
        test_incremental.test_insert_folds_transitive_consequences,
        test_dynamic.test_multi_hop_successor_and_delete,
        test_baselines.test_plain_trees_match_sparse_insert_only_order,
        test_satcheck.test_pinned_trace_rejects_first_candidate_then_accepts,
    ]
    t0 = time.perf_counter()
    for fn in pinned:
        fn()
    dt = time.perf_counter() - t0
    _report(1, dt < 1.0, f"{len(pinned)} pinned example tests in {dt:.2f}s, budget 1s")


def test_acceptance_2_insert_only_differential_battery():
    opts = FuzzOptions()
    rng = random.Random(20_001)
    t0 = time.perf_counter()
    for i in range(1000):
        run = DifferentialRun(
            2_000_000 + i, opts, backends=["csst-inc", "st", "vc"], shape=_shape(rng)
        )
        run.run()
        if run.failure:
            _report(2, False, f"workload {i}: {run.failure}")
    dt = time.perf_counter() - t0
    _report(
        2,
        dt < 300,
        f"1000 insert-only workloads, csst-inc tree heights swept after every "
        f"update, zero mismatches, {dt:.0f}s, budget 300s",
    )


def test_acceptance_3_delete_mix_differential_battery():
    opts = FuzzOptions(delete_frac=0.3)
    rng = random.Random(30_001)
    t0 = time.perf_counter()
    for i in range(1000):
        run = DifferentialRun(
            3_000_000 + i, opts, backends=["csst-dyn", "graph"], shape=_shape(rng)
        )
        run.run()
        if run.failure:
            _report(3, False, f"workload {i}: {run.failure}")
    dt = time.perf_counter() - t0
    _report(
        3,
        dt < 600,
        f"1000 delete-mix workloads, direct-minimum, density and height checks "
        f"after every update, zero mismatches, {dt:.0f}s, budget 600s",
    )


def test_acceptance_4_height_bound_holds_everywhere():
    rng = random.Random(40_001)
    t0 = time.perf_counter()
    insert_only = FuzzOptions()
    churn = FuzzOptions(delete_frac=0.3)
    for i in range(250):
        run = DifferentialRun(
            4_000_000 + i,
            insert_only,
            backends=["csst-dyn", "csst-inc"],
            shape=_shape(rng, max_len=256, big_u=1500, big_q=800, work_budget=400_000),
        )
        run.run()
        if run.failure:
            _report(4, False, f"insert-only workload {i}: {run.failure}")
        run = DifferentialRun(
            4_500_000 + i,
            churn,
            backends=["csst-dyn", "graph"],
            shape=_shape(rng, max_len=256, big_u=1500, big_q=800, work_budget=400_000),
        )
        run.run()
        if run.failure:
            _report(4, False, f"delete-mix workload {i}: {run.failure}")
    dt = time.perf_counter() - t0
    _report(4, True, f"500 workloads, height swept after every update, zero violations, {dt:.0f}s")


def test_acceptance_5_closure_settles_within_chain_count_rounds():
    opts = FuzzOptions(delete_frac=0.25)
    rng = random.Random(50_001)
    worst = 0
    t0 = time.perf_counter()
    for i in range(300):
        run = DifferentialRun(
            5_000_000 + i,
            opts,
            backends=["csst-dyn"],
            shape=_shape(rng, max_len=128, big_u=800, big_q=4000, work_budget=600_000),
        )
        run.run()
        if run.failure:
            _report(5, False, f"workload {i}: {run.failure}")
        worst = max(worst, run.observed_rounds)
    dt = time.perf_counter() - t0
    # the battery must actually exercise multi-round settling
    _report(
        5,
        worst >= 2,
        f"300 workloads, closure never exceeded k rounds (worst {worst}), "
        f"direct-minimum, density and height checks after every update, {dt:.0f}s",
    )


def test_acceptance_6_scaling_against_baselines():
    t0 = time.perf_counter()

    def row(backend, ell):
        return run_bench(
            BenchConfig(backend=backend, k=10, ell=ell, window=10_000,
                        insert_factor=20, queries=200_000, seed=61)
        )

    dyn_small = row("csst-dyn", 5_000)
    dyn_big = row("csst-dyn", 50_000)
    vc_big = row("vc", 50_000)
    inc_big = row("csst-inc", 50_000)
    dt = time.perf_counter() - t0

    growth = dyn_big.mean_insert_ns / dyn_small.mean_insert_ns
    vc_ratio = vc_big.mean_insert_ns / dyn_big.mean_insert_ns
    q_ratio = inc_big.mean_query_ns / vc_big.mean_query_ns
    detail = (
        f"insert growth x{growth:.2f} (cap 4), watermark-baseline insert "
        f"x{vc_ratio:.0f} slower (floor 3), query x{q_ratio:.2f} of "
        f"watermark (cap 10), {dt:.0f}s, budget 600s"
    )
    _report(6, growth <= 4.0 and vc_ratio >= 3.0 and q_ratio <= 10.0 and dt < 600, detail)


def test_acceptance_7_sparse_trees_beat_dense_trees_on_nodes():
    rng = random.Random(70_001)
    qualified = 0
    for i in range(60):
        k = rng.randint(3, 8)
        ell = rng.choice((32, 64, 128, 256))
        inc = IncrementalPartialOrder(k, [ell] * k)
        st = PlainStPO(k, [ell] * k)
        if rng.random() < 0.25:
            # a parallel ladder between one chain pair: every step-th source
            # carries a non-implied edge, so density lands at ell/step and
            # the filter below has real work to do
            t1 = rng.randrange(k)
            t2 = rng.randrange(k - 1)
            if t2 >= t1:
                t2 += 1
            step = rng.randint(1, 6)
            for j in range(0, ell, step):
                inc.insert_edge(NodeId(t1, j), NodeId(t2, j))
                st.insert_edge(NodeId(t1, j), NodeId(t2, j))
        else:
            guard = BruteForcePartialOrder(k, [ell] * k)
            n_edges = rng.randint(1, (k * ell) // 8)
            placed = 0
            for _ in range(n_edges * 2):
                if placed >= n_edges:
                    break
                t1 = rng.randrange(k)
                t2 = rng.randrange(k - 1)
                if t2 >= t1:
                    t2 += 1
                u = NodeId(t1, rng.randrange(ell))
                v = NodeId(t2, rng.randrange(ell))
                if guard.reachable(v, u) or guard.reachable(u, v):
                    continue
                guard.insert_edge(u, v)
                inc.insert_edge(u, v)
                st.insert_edge(u, v)
                placed += 1
        if inc.density_max() < ell / 4:
            qualified += 1
            if inc.node_count() >= st.node_count():
                _report(
                    7,
                    False,
                    f"workload {i}: sparse {inc.node_count()} nodes vs dense {st.node_count()}",
                )
    _report(7, 30 <= qualified < 60, f"{qualified}/60 workloads under the density bar, sparse always smaller")


def test_acceptance_8_consistency_checker_matches_exhaustive_search():
    rng = random.Random(80_001)
    t0 = time.perf_counter()
    consistent = 0
    for i in range(500):
        events, orders = test_satcheck.random_trace(rng, max_events=12)
        want = interleaving_consistent(events, orders)
        got = check(events, orders).consistent
        if got != want:
            _report(8, False, f"trace {i}: checker {got}, exhaustive {want}")
        consistent += want
    test_satcheck.test_pinned_trace_rejects_first_candidate_then_accepts()
    dt = time.perf_counter() - t0
    _report(
        8,
        dt < 120 and 50 < consistent < 450,
        f"500 random traces agree ({consistent} consistent) plus the pinned "
        f"trace, {dt:.0f}s, budget 120s",
    )


def test_acceptance_9_replay_and_bench_are_reproducible():
    # replay: same op log, same backend, byte-identical answers
    churn = DifferentialRun(90_001, FuzzOptions(delete_frac=0.3, max_updates=150, max_queries=200))
    churn.run()
    assert churn.failure is None
    records = parse_oplog(churn.oplog_text())
    for name in ("csst-dyn", "graph"):
        assert replay(records, name) == replay(records, name)
    assert replay(records, "csst-dyn") == replay(records, "oracle")

    ins_only = DifferentialRun(90_002, FuzzOptions(max_updates=120, max_queries=200))
    ins_only.run()
    assert ins_only.failure is None
    records = parse_oplog(ins_only.oplog_text())
    outs = {n: replay(records, n) for n in ("csst-dyn", "csst-inc", "vc", "graph", "st")}
    for name, lines in outs.items():
        assert lines == replay(records, name), name
        assert lines == outs["csst-dyn"], name

    # bench: timing-free rows are byte-identical; timed reruns agree on
    # everything except the timing columns
    base = dict(k=4, ell=300, window=60, insert_factor=3, queries=400, seed=17)
    for name in ("csst-dyn", "vc"):
        a = run_bench(BenchConfig(backend=name, no_timing=True, **base))
        b = run_bench(BenchConfig(backend=name, no_timing=True, **base))
        assert a.csv() == b.csv(), name
        t1 = run_bench(BenchConfig(backend=name, **base))
        t2 = run_bench(BenchConfig(backend=name, **base))
        assert (t1.inserted_edges, t1.density_max) == (t2.inserted_edges, t2.density_max) == (
            a.inserted_edges,
            a.density_max,
        ), name

    # workload generation itself is seed-determined
    again = DifferentialRun(90_001, FuzzOptions(delete_frac=0.3, max_updates=150, max_queries=200))
    again.run()
    assert again.ops == churn.ops
    _report(9, True, "replay and bench outputs byte-stable across same-seed reruns")
