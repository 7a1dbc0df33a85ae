"""csst benchmark: one closed-loop caller driving the public csst API.

    python3 perfbench/run.py --workload dyn-read --seed 1 --seconds 20 --trace 0

Run it from the root of a csst checkout; it imports csst from `src/` there
and from nowhere else. Each call is issued only after the previous one
returns, the way a race detector or consistency checker uses the library.

With --trace 0 the run issues ops for --seconds seconds of loop time, op
generation excluded, and prints the end-to-end metrics. `setup_s` is the
median of 13 set-ups, three before the ops and ten spread between them.

With --trace 1 it runs a fixed number of ops, whatever --seconds says, twice
from fresh set-ups: first plain, then with spans around every public layer
function. It prints the per-layer metrics and a block of `counter` lines
that is identical across runs with the same seed, and writes the spans to
perfbench/out/.

Both modes check a seeded sample of answers off the clock. Human-readable
lines come first; the last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import random
import resource
import statistics
import sys
import zlib
from pathlib import Path
from time import perf_counter_ns

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def import_csst() -> None:
    """Put the checkout's own sources first on the path, or exit with a message."""
    src = ROOT / "src"
    if not (src / "csst" / "__init__.py").is_file():
        sys.exit(f"perfbench: {src / 'csst'} not found; run from the root of a csst checkout")
    sys.path.insert(0, str(src))
    import csst

    if Path(csst.__file__).resolve().parent != src / "csst":
        sys.exit(f"perfbench: imported csst from {csst.__file__}, not from {src}")


class Hist:
    """Latency histogram in buckets 0.1% wide. Its size does not grow with
    the run, so neither does the process's memory."""

    STEP = math.log(1.001)

    def __init__(self):
        self.counts: dict[int, int] = {}
        self.n = 0

    def add(self, ns: int) -> None:
        b = int(math.log(ns) / self.STEP) if ns > 1 else 0
        self.counts[b] = self.counts.get(b, 0) + 1
        self.n += 1

    def merge(self, other: Hist) -> None:
        for b, c in other.counts.items():
            self.counts[b] = self.counts.get(b, 0) + c
        self.n += other.n

    def quantile(self, q: float) -> float:
        """Value at rank q * (n - 1), interpolated inside its bucket."""
        rank = q * (self.n - 1)
        seen = 0
        for b in sorted(self.counts):
            c = self.counts[b]
            if rank < seen + c:
                lo = math.exp(b * self.STEP)
                return lo + lo * 0.001 * (rank - seen + 0.5) / c
            seen += c
        raise ValueError("empty histogram")


class Tally:
    """What a pass over the ops produced: latency per op kind, ops that
    raised, answers judged wrong, and a fixed-size seeded reservoir of query
    answers for the reference replay. Filled between chunks, off the clock."""

    def __init__(self, wl, W, seed: int, keep_answers: bool = False):
        self.wl, self.W = wl, W
        self.hist = [Hist() for _ in W.KIND_NAMES]
        self.n = 0
        self.busy_ns = 0.0  # at the reference speed, see calibrate.py
        self.raw_busy_ns = 0
        self.raised: dict[str, int] = {}
        self.wrong = 0
        self.sample: dict[int, object] = {}
        self._slots: list[int] = []  # reservoir positions, for replacement
        self._queries = 0
        self._rng = random.Random(f"verify-{seed}")
        self.answers = [] if keep_answers else None

    def add(self, chunk: list, answers: list, lat: list, speed: float) -> None:
        W, wl, sample, budget = self.W, self.wl, self.sample, self.wl.verify_budget
        for op, answer, ns in zip(chunk, answers, lat):
            self.hist[op[0]].add(ns * speed)
            if answer is not W.FAILED:
                verdict = wl.judge(op, answer)
                if verdict is False:
                    self.wrong += 1
                elif verdict is None and op[0] in W.QUERY_KINDS:
                    slots = self._slots
                    if len(slots) < budget:
                        slots.append(self.n)
                        sample[self.n] = answer
                    else:
                        j = self._rng.randrange(self._queries + 1)
                        if j < budget:
                            del sample[slots[j]]
                            slots[j] = self.n
                            sample[self.n] = answer
                    self._queries += 1
            self.n += 1
        if self.answers is not None:
            self.answers.extend(answers)

    @property
    def ops_per_s(self) -> float:
        return self.n * 1e9 / self.busy_ns

    @property
    def raw_ops_per_s(self) -> float:
        return self.n * 1e9 / self.raw_busy_ns

    @property
    def failed(self) -> int:
        return sum(self.raised.values()) + self.wrong


def run_ops(wl, state, chunks, seconds: float | None, tally: Tally, observe=None, calib=None):
    """Issue ops one at a time until the chunks run out or `seconds` of loop
    time have passed; returns the state they ran on. Generating chunks,
    rebuilding the state when a chunk is None, tallying, `observe` and the
    calibration pass that scales each chunk's times all happen between
    chunks, off the clock."""
    failed_marker = tally.W.FAILED
    raised = tally.raised
    budget = None if seconds is None else int(seconds * 1e9)
    calls = wl.calls(state)
    gc.collect()
    for chunk in chunks:
        if chunk is None:
            state = calls = None
            gc.collect()
            state = wl.setup()
            calls = wl.calls(state)
            continue
        answers = []
        lat = []
        start = perf_counter_ns()
        for kind, x, y in chunk:
            t0 = perf_counter_ns()
            try:
                r = calls[kind](x, y)
            except Exception as e:  # counted as a failed op; the loop goes on
                r = failed_marker
                name = type(e).__name__
                raised[name] = raised.get(name, 0) + 1
            lat.append(perf_counter_ns() - t0)
            answers.append(r)
        busy = perf_counter_ns() - start
        speed = 1.0 if calib is None else calib.sample()
        tally.raw_busy_ns += busy
        tally.busy_ns += busy * speed
        tally.add(chunk, answers, lat, speed)
        if observe is not None:
            observe(tally)
        if budget is not None and tally.raw_busy_ns >= budget:
            break
    return state


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def timed_setup(wl, calib) -> tuple[object, float, float]:
    """Returns the state and its set-up time in s, raw and at the
    reference speed."""
    gc.collect()
    t0 = perf_counter_ns()
    state = wl.setup()
    raw = (perf_counter_ns() - t0) / 1e9
    return state, raw, raw * calib.sample()


def spaced_setups(wl, calib, times: list, seconds: float, count: int):
    """An observer for run_ops that times one more set-up, and drops it,
    each time another 1/count of the run's seconds has passed, so that
    set-ups meet the same machine as the ops."""
    step = seconds * 1e9 / count
    done = 0

    def observe(tally: Tally) -> None:
        nonlocal done
        if done < count and tally.raw_busy_ns >= (done + 1) * step:
            done += 1
            times.append(timed_setup(wl, calib)[1:])

    return observe


def report(name: str, value: float, unit: str, n: int, raw: float | None = None) -> None:
    extra = "" if raw is None else f"  raw {raw:.4f}"
    print(f"metric {name:<32} {value:>14.4f} {unit:<9} n={n}{extra}")


def end_to_end(wl, W, seconds: float, seed: int):
    """--trace 0: returns (metrics, attempted, failed). Times are scaled to
    the reference speed (see calibrate.py); `raw` columns are as timed."""
    from calibrate import Calibration

    calib = Calibration()
    setups = []  # (raw s, s at the reference speed)
    for _ in range(3):
        state = None  # let the previous copy go before building the next
        state, *t = timed_setup(wl, calib)
        setups.append(t)
    tally = Tally(wl, W, seed)
    observe = spaced_setups(wl, calib, setups, seconds, 10)
    run_ops(wl, state, wl.stream(), seconds, tally, observe, calib)
    state = None
    rss = peak_rss_mb()
    checked = len(tally.sample)
    tally.wrong += wl.verify(tally.n, tally.sample)
    every = Hist()
    for h in tally.hist:
        every.merge(h)
    n = tally.n
    metrics = {
        "setup_s": (statistics.median(t for _, t in setups), "s"),
        "ops_per_s": (tally.ops_per_s, "1/s"),
        "op_p50_us": (every.quantile(0.5) / 1e3, "us"),
        "op_p90_us": (every.quantile(0.9) / 1e3, "us"),
        "peak_rss_mb": (rss, "MB"),
    }
    raw = {
        "setup_s": statistics.median(t for t, _ in setups),
        "ops_per_s": tally.raw_ops_per_s,
    }
    counts = {"setup_s": len(setups), "peak_rss_mb": 1}
    for name, (value, unit) in metrics.items():
        report(name, value, unit, counts.get(name, n), raw.get(name))
    speed = calib.factors
    print(f"speed factor to the reference machine: median {statistics.median(speed):.4f}, "
          f"range {min(speed):.4f}..{max(speed):.4f} over {len(speed)} calibration passes")
    # Per-kind latencies, by the names the project's issues cite.
    queries = Hist()
    for k, h in enumerate(tally.hist):
        if not h.n:
            continue
        kind = W.KIND_NAMES[k]
        if k == W.CHECK:
            report("check_p50_ms", h.quantile(0.5) / 1e6, "ms", h.n)
            report("check_p90_ms", h.quantile(0.9) / 1e6, "ms", h.n)
        elif k in W.QUERY_KINDS:
            report(f"{kind}_p50_us", h.quantile(0.5) / 1e3, "us", h.n)
            queries.merge(h)
        else:
            report(f"{kind}_p50_us", h.quantile(0.5) / 1e3, "us", h.n)
            report(f"{kind}_p99_us", h.quantile(0.99) / 1e3, "us", h.n)
    if queries.n:
        report("query_p99_us", queries.quantile(0.99) / 1e3, "us", queries.n)
    report("failed_ops_frac", tally.failed / n, "fraction", n)
    print(f"checked {checked or n} answers: {tally.wrong} wrong; "
          f"ops raised: {tally.raised or 0}")
    return metrics, n, tally.failed


def same_chain_reach_ns(po) -> float:
    """Median over batches of the mean time of one same-chain `reachable`:
    argument validation and dispatch, no closure."""
    from csst import NodeId

    chain = max(range(po.k), key=lambda t: po.lengths[t])
    u, v = NodeId(chain, 0), NodeId(chain, po.lengths[chain] - 1)
    reach = po.reachable
    batch = 20000
    means = []
    for _ in range(7):
        t0 = perf_counter_ns()
        for _ in range(batch):
            reach(u, v)
        means.append((perf_counter_ns() - t0) / batch)
    return statistics.median(means)


def per_layer(wl, W, seed: int, tiny: bool, out_dir: Path):
    """--trace 1: returns (metrics, attempted, failed)."""
    from tracer import SpanStats, Tracer

    # The traced run is fixed-size and stops short of any rebuild, so its
    # counters depend on the seed alone.
    n_ops = min(wl.trace_ops, 200) if tiny else wl.trace_ops
    chunks = []
    ops = []
    for chunk in wl.stream():
        if chunk is None:
            break
        chunks.append(chunk[:n_ops - len(ops)])
        ops.extend(chunks[-1])
        if len(ops) >= n_ops:
            break

    plain = Tally(wl, W, seed, keep_answers=True)
    run_ops(wl, wl.setup(), chunks, None, plain)

    tr = Tracer()
    traced = Tally(wl, W, seed, keep_answers=True)
    po_seen = []
    observe = None
    if ops[0][0] == W.CHECK:
        # satcheck builds one csst-dyn per trace; look at each as it ends.
        observe = lambda _: po_seen.append(W.order_state(tr.last_dyn))
    tr.install()
    try:
        state = wl.setup()
        first = len(tr)
        tr.rounds.clear()
        state = run_ops(wl, state, chunks, None, traced, observe)
    finally:
        tr.remove()

    if po_seen:
        sizes = {name: sum(s[name] for s in po_seen) / len(po_seen) for name in po_seen[0]}
        sizes["sst.height_max"] = max(s["sst.height_max"] for s in po_seen)
        state = tr.last_dyn
    else:
        sizes = W.order_state(state)
    op, every = SpanStats(tr, first), SpanStats(tr)
    m = layer_metrics(op, every, tr.rounds, sizes, traced.busy_ns, len(ops))
    m["core.same_chain_reach_ns"] = (same_chain_reach_ns(state), "ns")
    m["trace.ops_per_s_untraced"] = (plain.ops_per_s, "1/s")
    m["trace.ops_per_s_traced"] = (traced.ops_per_s, "1/s")
    m["trace.overhead_x"] = (plain.ops_per_s / traced.ops_per_s, "ratio")
    for name, (value, unit) in m.items():
        report(name, value, unit, len(ops))

    # Correctness: a sample matches the reference, and the passes agree.
    checked = len(traced.sample) or len(ops)
    traced.wrong += wl.verify(len(ops), traced.sample)
    differ = sum(1 for a, b in zip(plain.answers, traced.answers)
                 if a is not W.FAILED and b is not W.FAILED and a != b)
    print(f"checked {checked} answers: {traced.wrong} wrong; {differ} differ between passes; "
          f"ops raised: {plain.raised or 0}, traced {traced.raised or 0}")

    for line in counter_lines(W, ops, tr.names, op, every, tr.rounds, m, traced.answers):
        print(f"counter {line}")

    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"{wl.name}-seed{seed}.spans.tsv.gz"
    tr.write(path)
    print(f"wrote {len(tr)} spans to {path}")
    return m, 2 * len(ops), plain.failed + traced.failed + differ


def layer_metrics(op, every, rounds: list, sizes: dict, busy_ns: int, n: int) -> dict:
    """Per-layer metrics from the spans of the ops (`op`) and of the whole
    traced run, set-up included (`every`). A layer the workload never calls
    reads 0."""

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    for fn in ("min_suffix", "argleq", "update"):
        m[f"sst.{fn}.calls_per_op"] = (op.count(f"sst.{fn}") / n, "count")
        m[f"sst.{fn}.ns"] = (every.mean_ns(f"sst.{fn}"), "ns")
    m["sst.time_share"] = (op.self_ns_of("sst.") / busy_ns, "fraction")
    m["sst.nodes"] = (sizes["sst.nodes"], "count")
    m["sst.height_max"] = (sizes["sst.height_max"], "count")
    m["dynamic.closure_rounds_mean"] = (ratio(sum(rounds), len(rounds)), "count")
    m["dynamic.closure_rounds_max"] = (max(rounds, default=0), "count")
    m["dynamic.self_time_share"] = (op.self_ns_of("dynamic.") / busy_ns, "fraction")
    m["dynamic.live_edges"] = (sizes["dynamic.live_edges"], "count")
    ins = "incremental.insert_edge"
    m["incremental.sst_calls_per_insert"] = (ratio(op.nested_count(ins, "sst."), op.count(ins)),
                                             "count")
    m["incremental.write_ratio"] = (
        ratio(op.nested_count(ins, "sst.update"), op.nested_count(ins, "sst.min_suffix")), "ratio")
    m["incremental.self_time_share"] = (op.self_ns_of("incremental.") / busy_ns, "fraction")
    checks = op.count("satcheck.check")
    check = op.index["satcheck.check"]
    inserts = op.count("dynamic.insert_edge") if checks else 0
    m["satcheck.reach_calls_per_trace"] = (ratio(op.count("dynamic.reachable"), checks), "count")
    m["satcheck.inserts_per_trace"] = (ratio(inserts, checks), "count")
    m["satcheck.rollback_ratio"] = (ratio(op.count("dynamic.delete_edge"), inserts), "ratio")
    m["satcheck.po_time_share"] = (
        ratio(op.nested_total_ns("satcheck.check", "dynamic."), op.total_ns[check]), "fraction")
    m["satcheck.search_self_ms"] = (ratio(op.self_ns[check], checks) / 1e6, "ms")
    m["harness.parse_trace_ms"] = (every.mean_ns("harness.parse_trace") / 1e6, "ms")
    return m


def counter_lines(W, ops, names, op, every, rounds, metrics, answers) -> list[str]:
    """Everything in the traced run that is a count, in a fixed order and
    format, so that the same seed gives the same bytes."""
    lines = [f"ops {len(ops)}"]
    for k, kind in enumerate(W.KIND_NAMES):
        c = sum(1 for o in ops if o[0] == k)
        if c:
            lines.append(f"ops.{kind} {c}")
    for i, name in enumerate(names):
        if every.calls[i]:
            lines.append(f"calls.{name} setup={every.calls[i] - op.calls[i]} "
                         f"ops={op.calls[i]} raised={op.raised[i]}")
    hist: dict[int, int] = {}
    for r in rounds:
        hist[r] = hist.get(r, 0) + 1
    lines += [f"dynamic.closure_rounds.hist.{r} {c}" for r, c in sorted(hist.items())]
    lines += [f"{name} {value:.6f}" for name, (value, unit) in metrics.items()
              if unit in ("count", "ratio") and not name.startswith("trace.")]
    text = "\n".join("FAILED" if a is W.FAILED else repr(a) for a in answers)
    lines.append(f"answers.crc32 {zlib.crc32(text.encode()):08x}")
    return lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    return bench(args.workload, args.seed, args.seconds, args.trace, tiny=False)


def bench(workload: str, seed: int, seconds: float, trace: int, tiny: bool) -> int:
    import_csst()
    import workloads as W

    if workload not in W.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {workload!r}; choose from {sorted(W.WORKLOADS)}")
    wl = W.WORKLOADS[workload](seed, tiny)
    print(f"workload {workload} seed={seed} {wl.desc} loop=closed callers=1"
          f" trace={trace}")
    if trace:
        metrics, attempted, failed = per_layer(wl, W, seed, tiny, HERE / "out")
    else:
        metrics, attempted, failed = end_to_end(wl, W, seconds, seed)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
