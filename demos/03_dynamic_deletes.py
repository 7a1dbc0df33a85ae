"""The dynamic backend supports deletion. Its arrays hold only direct edge
minima (one sorted list per source slot and target chain behind them), and
queries run a bounded fixpoint over the chains instead of reading a closed
form. Deleting an edge demotes the slot to the next-best direct edge."""

from csst import DynamicPartialOrder, NodeId


def main():
    po = DynamicPartialOrder(4, [3, 3, 3, 3])
    edges = [((0, 1), (1, 0)), ((0, 2), (3, 2)), ((1, 1), (2, 1)), ((2, 2), (3, 1))]
    for (t1, j1), (t2, j2) in edges:
        po.insert_edge(NodeId(t1, j1), NodeId(t2, j2))
        print(f"insert ({t1},{j1}) -> ({t2},{j2})")

    print("\nmulti-hop successor((0,0), chain 3):", po.successor(NodeId(0, 0), 3))
    print("settled in", po.last_closure_rounds, "rounds (bound is k =", str(po.k) + ")")
    print("reachable((0,0), (3,1)):", po.reachable(NodeId(0, 0), NodeId(3, 1)))

    print("\ntwo direct edges from (0,1) to chain 1, the array keeps the minimum:")
    po.insert_edge(NodeId(0, 1), NodeId(1, 2))
    print("  direct minimum:", po.direct_minimum(0, 1, 1))
    po.delete_edge(NodeId(0, 1), NodeId(1, 0))
    print("  after deleting the better edge:", po.direct_minimum(0, 1, 1))

    print("\ndeleting the bridge (2,2) -> (3,1) weakens chain 3 answers:")
    po.delete_edge(NodeId(2, 2), NodeId(3, 1))
    print("  successor((0,0), chain 3):", po.successor(NodeId(0, 0), 3))
    print("  reachable((0,0), (3,1)):", po.reachable(NodeId(0, 0), NodeId(3, 1)))

    print("\ncross-chain density (distinct sources per chain):", po.density())

    # csst-dyn accepts a cycle-closing edge and answers over the cycle
    cyc = DynamicPartialOrder(2, [2, 2])
    cyc.insert_edge(NodeId(0, 0), NodeId(1, 0))
    cyc.insert_edge(NodeId(1, 1), NodeId(0, 0))
    print("\ntwo-edge cycle (0,0) -> (1,0), (1,1) -> (0,0):")
    print("  reachable((1,1), (0,1)):", cyc.reachable(NodeId(1, 1), NodeId(0, 1)))
    print("  successors((1,1)):", cyc.successors(NodeId(1, 1)))


if __name__ == "__main__":
    main()
