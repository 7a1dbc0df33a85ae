"""Command line front end.

    csst replay <oplog> --backend csst-dyn
    csst fuzz --seed 7 --runs 200 [--deletes 0.3]
    csst bench --backend csst-dyn --k 10 --ell 50000 --seed 1 [--no-timing]
    csst satcheck <trace>

Exit codes: 0 on success (including an INCONSISTENT satcheck verdict),
1 on usage or input errors (an input too large to allocate included),
2 when fuzzing finds a disagreement.
"""

from __future__ import annotations

import argparse
import sys

from .core import PoError
from .harness import (
    BACKENDS,
    BenchConfig,
    FuzzOptions,
    fuzz,
    parse_oplog,
    parse_trace,
    replay,
    run_bench,
)
from .satcheck import check


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage; the contract here reserves 2 for
    # failed checks, so remap usage errors to 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        sys.exit(1)


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _cmd_replay(args) -> int:
    records = parse_oplog(_read_text(args.oplog))
    for line in replay(records, args.backend):
        print(line)
    return 0


def _require_at_least(args, **least: int) -> None:
    """Reject an integer option below its least value, naming the option."""
    for name, low in least.items():
        value = getattr(args, name)
        if value < low:
            option = "--" + name.replace("_", "-")
            raise ValueError(f"{option} must be >= {low}, got {value}")


def _cmd_fuzz(args) -> int:
    if not 0.0 <= args.deletes <= 1.0:
        raise ValueError("--deletes must be within [0, 1]")
    _require_at_least(args, runs=0, max_k=2, max_len=1, max_updates=1, max_queries=0)
    opts = FuzzOptions(
        max_k=args.max_k,
        max_len=args.max_len,
        max_updates=args.max_updates,
        max_queries=args.max_queries,
        delete_frac=args.deletes,
    )
    backends = args.backends.split(",") if args.backends else None
    clean, report = fuzz(args.seed, args.runs, opts, backends)
    if report is not None:
        print(report)
        return 2
    print(f"ok: {clean} runs, no disagreements")
    return 0


def _cmd_bench(args) -> int:
    if args.k < 2:
        raise ValueError("bench needs at least two chains")
    _require_at_least(args, ell=1, window=0, factor=0, queries=0)
    cfg = BenchConfig(
        backend=args.backend,
        k=args.k,
        ell=args.ell,
        window=args.window,
        insert_factor=args.factor,
        queries=args.queries,
        seed=args.seed,
        no_timing=args.no_timing,
    )
    sys.stdout.write(run_bench(cfg).csv())
    return 0


def _cmd_satcheck(args) -> int:
    events, orders = parse_trace(_read_text(args.trace))
    result = check(events, orders)
    if result.consistent:
        print("CONSISTENT")
        for r, w in result.bindings:
            print(f"read {r.chain} {r.index} from {w.chain} {w.index}")
    else:
        print("INCONSISTENT")
    return 0


def main(argv=None) -> int:
    p = _Parser(prog="csst", description="chain partial orders: replay, fuzz, bench, satcheck")
    sub = p.add_subparsers(dest="cmd", required=True)

    rp = sub.add_parser("replay", help="apply an op log to one backend and print query answers")
    rp.add_argument("oplog", help="op-log file, or - for stdin")
    rp.add_argument("--backend", default="csst-dyn", choices=sorted(BACKENDS))

    fz = sub.add_parser("fuzz", help="race backends against a brute-force oracle on random workloads")
    fz.add_argument("--seed", type=int, required=True)
    fz.add_argument("--runs", type=int, default=100)
    fz.add_argument("--deletes", type=float, default=0.0, help="fraction of updates that delete")
    fz.add_argument("--max-k", type=int, default=6)
    fz.add_argument("--max-len", type=int, default=64)
    fz.add_argument("--max-updates", type=int, default=120)
    fz.add_argument("--max-queries", type=int, default=400)
    fz.add_argument("--backends", help="comma-separated backend subset (default depends on --deletes)")

    bn = sub.add_parser("bench", help="time inserts and reachability queries, print one CSV row")
    bn.add_argument("--backend", required=True, choices=sorted(BACKENDS))
    bn.add_argument("--k", type=int, required=True)
    bn.add_argument("--ell", type=int, required=True, help="events per chain")
    bn.add_argument("--window", type=int, default=10_000)
    bn.add_argument("--factor", type=int, default=20, help="insert attempts per chain event")
    bn.add_argument("--queries", type=int, default=1_000_000)
    bn.add_argument("--seed", type=int, required=True)
    bn.add_argument("--no-timing", action="store_true", help="zero the timing columns for reproducible output")

    sc = sub.add_parser("satcheck", help="check a read/write trace for an explaining interleaving")
    sc.add_argument("trace", help="trace file, or - for stdin")

    args = p.parse_args(argv)
    handlers = {
        "replay": _cmd_replay,
        "fuzz": _cmd_fuzz,
        "bench": _cmd_bench,
        "satcheck": _cmd_satcheck,
    }
    try:
        return handlers[args.cmd](args)
    except (PoError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory: the input asks for more space than can be allocated",
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
