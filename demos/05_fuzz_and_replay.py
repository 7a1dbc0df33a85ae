"""Differential fuzzing and op-log replay. A seeded workload races every
backend against the brute-force oracle; its op log replays byte-identically,
which is what makes failures shareable. A deliberately broken backend shows
the reproducer shrinking down to the essence."""

from csst import INF, harness
from csst.harness import BACKENDS, DifferentialRun, FuzzOptions, parse_oplog, replay, shrink_oplog


def main():
    run = DifferentialRun(1205, FuzzOptions(delete_frac=0.25, max_updates=30, max_queries=25))
    run.run()
    print("seeded workload, all backends agree:", run.failure is None)
    print("\nits op log:")
    text = run.oplog_text()
    print("\n".join("  " + l for l in text.splitlines()[:12]))
    print(f"  ... ({len(text.splitlines())} lines total)")

    records = parse_oplog(text)
    a = replay(records, "csst-dyn")
    b = replay(records, "csst-dyn")
    print("\nreplaying twice gives identical answers:", a == b)
    print("first answers:", a[:4])

    class OffByOne(BACKENDS["graph"]):
        def _successor(self, u, t2):
            r = super()._successor(u, t2)
            return r if r == INF else r + 1

    harness.BACKENDS["graph"] = OffByOne
    try:
        clean, report = harness.fuzz(7, 50, FuzzOptions(max_updates=25, max_queries=60))
        print("\nwith a planted off-by-one, fuzzing finds and shrinks it:")
        print("\n".join("  " + l for l in report.splitlines()))
    finally:
        harness.BACKENDS["graph"] = OffByOne.__bases__[0]


if __name__ == "__main__":
    main()
