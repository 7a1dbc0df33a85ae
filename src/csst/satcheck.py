"""Read-from consistency checking by saturating a dynamic partial order.

Input: per-thread writes and reads as `TraceEvent`s, which
`harness.parse_trace` reads from text, and orderings established up front;
`validate_trace` checks both. The checker decides whether every read can
observe a same-variable write of its value under SOME interleaving that
respects program order, the orderings, and write atomicity (a read sees
the latest write).

Method: reads are bound to candidate writes in trace order. Binding w to r
inserts w -> r, then forces, for every other write w' to the same variable:

    w  reaches w'  =>  r comes before w'   (insert r -> w')
    w' reaches r   =>  w' comes before w   (insert w' -> w)

Both tests read two rows per candidate: after w -> r, w's `successors` row
and r's `predecessors` row answer them for every w'. The checker decides
every cycle itself, and the order never has one:

- w -> r, and each up-front ordering u -> v, closes a cycle exactly when v
  reaches u, which one `reachable` tests before the insert.
- r -> w' is forced only where w reaches w', so it closes a cycle exactly
  when w' also reaches r, which r's row already says.
- w' -> w is forced only where w does not reach w', so it closes none.

A candidate whose edges would close a cycle, or contradict program order,
is dead: all edges inserted for it are rolled back (exact deletes restore
the prior direct edges) and the next candidate is tried, backtracking
across reads. A full binding is accepted once a search finds one concrete
interleaving, so the verdict matches exhaustive enumeration. An event fires
after every event on its `predecessors` row; a write to x also waits while
some read of x is unfired and its bound write fired. Whether an event may
fire then depends only on the fired set, a cut (one count per thread): the
search visits at most prod(n_t + 1) cuts and reads n `predecessors` rows
over n events (cf. Gibbons & Korach, "Testing Shared Memories", 1997).
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import le

from .core import NodeId, PartialOrderBase
from .dynamic import DynamicPartialOrder


@dataclass(frozen=True)
class TraceEvent:
    thread: int
    index: int
    kind: str  # "w" | "r"
    var: str
    value: int


def validate_trace(events: list[TraceEvent], orders=()) -> list[int]:
    """Raise ValueError unless every event is a write or a read, the events
    fill threads 0..T-1, each with indices 0..n-1 and no slot twice, and
    every ordering names two of them. Returns each thread's event count."""
    if not events:
        raise ValueError("empty trace")
    per: dict[int, set[int]] = {}
    for ev in events:
        if ev.kind not in ("w", "r"):
            raise ValueError(f"event {(ev.thread, ev.index)}: kind must be w or r, got {ev.kind!r}")
        idxs = per.setdefault(ev.thread, set())
        if ev.index in idxs:
            raise ValueError(f"duplicate event slot {(ev.thread, ev.index)}")
        idxs.add(ev.index)
    if set(per) != set(range(len(per))):
        got = f"got {len(per)} threads with ids {min(per)}..{max(per)}"
        raise ValueError(f"thread ids must run 0..T-1 with every thread present; {got}")
    for t, idxs in per.items():
        if idxs != set(range(len(idxs))):
            raise ValueError(f"thread {t}: event indices must be 0..n-1 with no gaps")
    for t1, j1, t2, j2 in orders:
        if j1 not in per.get(t1, ()) or j2 not in per.get(t2, ()):
            raise ValueError(f"ordering {(t1, j1, t2, j2)} names a missing event")
    return [len(per[t]) for t in range(len(per))]


@dataclass
class CheckResult:
    consistent: bool
    # (read, write) node pairs in trace order of the reads; empty when inconsistent
    bindings: list[tuple[NodeId, NodeId]]


class _Candidate:
    """Edges inserted on behalf of one tentative read binding."""

    def __init__(self, po: DynamicPartialOrder):
        self.po = po
        self.inserted: list[tuple[NodeId, NodeId]] = []

    def order(self, u: NodeId, v: NodeId) -> None:
        """Require u before v, which the caller knows closes no cycle (on
        one thread, u is already the earlier event)."""
        if u.chain != v.chain and not self.po.reachable(u, v):
            self.po.insert_edge(u, v)
            self.inserted.append((u, v))

    def order_checked(self, u: NodeId, v: NodeId) -> bool:
        """Require u before v; returns False when v already reaches u."""
        if u.chain == v.chain:
            return u.index < v.index
        if self.po.reachable(u, v):
            return True
        if self.po.reachable(v, u):
            return False
        self.po.insert_edge(u, v)
        self.inserted.append((u, v))
        return True

    def rollback(self) -> None:
        for u, v in reversed(self.inserted):
            self.po.delete_edge(u, v)
        self.inserted.clear()


def check(events: list[TraceEvent], orders=()) -> CheckResult:
    """Decide trace consistency. Raises ValueError if the events or
    orderings fail `validate_trace`, or if the up-front orderings already
    contradict program order or each other."""
    lengths = validate_trace(events, orders)
    po = DynamicPartialOrder(len(lengths), lengths)

    pre = _Candidate(po)
    for t1, j1, t2, j2 in orders:
        if not pre.order_checked(NodeId(t1, j1), NodeId(t2, j2)):
            raise ValueError(f"initial orderings are contradictory at {(t1, j1, t2, j2)}")

    # Per-event data is indexed by position in `events`.
    node = [NodeId(ev.thread, ev.index) for ev in events]
    writes_by_var: dict[str, list[int]] = {}
    for e, ev in enumerate(events):
        if ev.kind == "w":
            writes_by_var.setdefault(ev.var, []).append(e)
    reads = [e for e, ev in enumerate(events) if ev.kind == "r"]
    binding = [-1] * len(reads)  # binding[i]: position of the write reads[i] observes

    def try_bind(r: int, w: int) -> _Candidate | None:
        nw, nr = node[w], node[r]
        cand = _Candidate(po)
        if not cand.order_checked(nw, nr):
            return None
        # w's successor row and r's predecessor row, read once: o is after w
        # iff succ[o.chain] <= o.index, and before r iff o.index <= pred[o.chain].
        # Both stay exact while the loop inserts, as the order stays acyclic:
        # r -> o goes in only where w reaches o and o does not reach r, so w
        # gains no new successor; o -> w only where o reaches r, so r gains no
        # new predecessor.
        succ = po.successors(nw)
        pred = po.predecessors(nr)
        for o in writes_by_var[events[r].var]:
            if o == w:
                continue
            no = node[o]
            s, p = succ[no.chain], pred[no.chain]
            before_r = p is not None and no.index <= p
            if s is not None and s <= no.index:
                if before_r:  # r -> o would close a cycle through w -> r
                    cand.rollback()
                    return None
                cand.order(nr, no)
            elif before_r:
                cand.order(no, nw)
        return cand

    def assign() -> bool:
        """Bind reads in trace order, depth first, each to its same-value
        writes in trace order; True once a full binding is realizable. An
        explicit stack keeps long traces off the recursion limit."""
        cands: list[_Candidate] = []  # cands[i] holds the edges binding reads[i]
        tried = [0]  # tried[i]: how many of reads[i]'s writes were tried
        while True:
            i = len(cands)
            if i < len(reads):
                r = reads[i]
                ev = events[r]
                ws = writes_by_var.get(ev.var, ())
                while tried[i] < len(ws):
                    w = ws[tried[i]]
                    tried[i] += 1
                    if events[w].value != ev.value:
                        continue
                    cand = try_bind(r, w)
                    if cand is not None:
                        binding[i] = w
                        cands.append(cand)
                        tried.append(0)
                        break
                if len(cands) > i:
                    continue
            elif _realizable(po, events, node, reads, binding):
                return True
            # Nothing left to try at depth i: undo the binding of reads[i - 1].
            tried.pop()
            if not cands:
                return False
            cands.pop().rollback()

    if not assign():
        return CheckResult(False, [])
    return CheckResult(True, [(node[r], node[binding[i]]) for i, r in enumerate(reads)])


def _realizable(po: PartialOrderBase, events, node, reads, binding) -> bool:
    """One concrete interleaving exists: search the cuts from which each
    thread's next event may fire, as the module docstring sets out."""
    pairs: dict[str, list[tuple[NodeId, NodeId]]] = {}  # (bound write, read) per var
    for i, r in enumerate(reads):
        pairs.setdefault(events[r].var, []).append((node[binding[i]], node[r]))
    # at[u]: how many events of each other chain u needs fired, and a write's pairs
    at = {}
    for u, ev in zip(node, events):
        need = [0 if p is None else p + 1 for p in po.predecessors(u)]
        need[u.chain] = 0
        at[u] = (need, pairs.get(ev.var, []) if ev.kind == "w" else [])
    full = tuple(po.lengths)
    seen = set()  # no move leads back to the empty cut
    stack = [((0,) * len(full), 0)]  # depth first: (cut, first thread not yet tried)
    while stack:
        cut, first = stack.pop()
        if cut == full:
            return True
        for t, j in enumerate(cut[first:], first):
            if j == full[t]:
                continue
            need, waits = at[t, j]
            if not all(map(le, need, cut)) or waits and any(
                cut[w.chain] > w.index and cut[r.chain] <= r.index for w, r in waits
            ):
                continue
            nxt = cut[:t] + (j + 1,) + cut[t + 1 :]
            if nxt not in seen:
                seen.add(nxt)
                stack += [(cut, t + 1), (nxt, 0)]
                break
    return False
