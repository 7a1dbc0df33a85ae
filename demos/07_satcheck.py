"""Consistency checking as saturation: bind each read to a candidate write,
force the orderings that binding entails, and veto a candidate whose
orderings would close a cycle, read off the rows the forcing already holds. Deletion support is what makes the backtracking
cheap, bad candidates roll back their edges exactly."""

from csst.harness import parse_trace
from csst.satcheck import check

TRACE = """
# Three threads. The `o` records pin orderings that hold up front.
o 1 0 2 0
o 2 2 1 2
o 1 2 0 1
o 1 1 2 2
e 0 0 w x 1
e 1 0 w x 3
e 1 1 w y 4
e 1 2 w y 5
e 0 1 r y 5
e 2 0 w x 3
e 2 1 w y 4
e 2 2 r y 4
e 0 2 r x 3
"""


def main():
    events, orders = parse_trace(TRACE)
    res = check(events, orders)
    print("trace with two same-value writes of x; the read of x=3 tries the")
    print("earlier write first, which closes a cycle, then lands on the later one.\n")
    print("verdict:", "CONSISTENT" if res.consistent else "INCONSISTENT")
    for r, w in res.bindings:
        print(f"  read ({r.chain},{r.index}) observes write ({w.chain},{w.index})")

    # a minimal impossible trace: the only write of x=1 is overwritten,
    # and the read is pinned after the overwrite
    events2, orders2 = parse_trace(
        "e 0 0 w x 1\ne 0 1 w x 2\ne 1 0 r x 1\no 0 1 1 0\n"
    )
    res2 = check(events2, orders2)
    print("\nread pinned after the overwrite of its value:",
          "CONSISTENT" if res2.consistent else "INCONSISTENT")


if __name__ == "__main__":
    main()
