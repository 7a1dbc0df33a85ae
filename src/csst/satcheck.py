"""Read-from consistency checking by saturating a dynamic partial order.

Input: a trace of per-thread write/read events (see `harness.parse_trace`),
optionally with orderings established up front. The checker decides whether
every read can observe a same-variable write of its value under SOME
interleaving that respects program order, the given orderings, and
write atomicity (a read sees the latest write).

Method: reads are bound to candidate writes in trace order. Binding w to r
inserts w -> r, then forces, for every other write w' to the same variable:

    w  reaches w'  =>  r comes before w'   (insert r -> w')
    w' reaches r   =>  w' comes before w   (insert w' -> w)

A forced ordering that contradicts program order or closes a cycle kills
the candidate; all edges inserted for it are rolled back (exact deletes
restore the prior direct edges) and the next candidate is tried,
backtracking across reads. An accepted assignment is finally validated by
searching for one concrete interleaving, so the verdict matches exhaustive
enumeration. That last search memoizes on (scheduled-set, last write per
variable) and is only meant for short traces.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import NodeId, PoError, PoErrorKind
from .dynamic import DynamicPartialOrder
from .harness import TraceEvent


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

    def order(self, u: NodeId, v: NodeId) -> bool:
        """Require u before v; returns False when that is impossible now."""
        if u.chain == v.chain:
            return u.index < v.index
        if self.po.reachable(u, v):
            return True
        try:
            self.po.insert_edge(u, v)
        except PoError as e:
            if e.kind is PoErrorKind.CYCLE_DETECTED:
                return False
            raise
        self.inserted.append((u, v))
        return True

    def rollback(self) -> None:
        for u, v in reversed(self.inserted):
            self.po.delete_edge(u, v)
        self.inserted.clear()


def check(events: list[TraceEvent], orders=()) -> CheckResult:
    """Decide trace consistency. Raises ValueError if the up-front
    orderings already contradict program order or each other."""
    k = max(ev.thread for ev in events) + 1
    lengths = [0] * k
    for ev in events:
        lengths[ev.thread] = max(lengths[ev.thread], ev.index + 1)
    po = DynamicPartialOrder(k, lengths, cycle_guard=True)

    pre = _Candidate(po)
    for t1, j1, t2, j2 in orders:
        if not pre.order(NodeId(t1, j1), NodeId(t2, j2)):
            raise ValueError(f"initial orderings are contradictory at {(t1, j1, t2, j2)}")

    node = {}
    for ev in events:
        node[ev] = NodeId(ev.thread, ev.index)
    writes_by_var: dict[str, list[TraceEvent]] = {}
    for ev in events:
        if ev.kind == "w":
            writes_by_var.setdefault(ev.var, []).append(ev)
    reads = [ev for ev in events if ev.kind == "r"]
    binding: list[TraceEvent | None] = [None] * len(reads)

    def try_bind(r: TraceEvent, w: TraceEvent) -> _Candidate | None:
        cand = _Candidate(po)
        if not cand.order(node[w], node[r]):
            cand.rollback()
            return None
        for other in writes_by_var.get(r.var, ()):
            if other is w:
                continue
            if po.reachable(node[w], node[other]):
                ok = cand.order(node[r], node[other])
            elif po.reachable(node[other], node[r]):
                ok = cand.order(node[other], node[w])
            else:
                continue
            if not ok:
                cand.rollback()
                return None
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
                ws = writes_by_var.get(r.var, ())
                while tried[i] < len(ws):
                    w = ws[tried[i]]
                    tried[i] += 1
                    if w.value != r.value:
                        continue
                    cand = try_bind(r, w)
                    if cand is not None:
                        binding[i] = w
                        cands.append(cand)
                        tried.append(0)
                        break
                if len(cands) > i:
                    continue
            elif _realizable(events, po, node, reads, binding):
                return True
            # Nothing left to try at depth i: undo the binding of reads[i - 1].
            tried.pop()
            if not cands:
                return False
            cands.pop().rollback()

    if assign():
        pairs = [(node[r], node[binding[i]]) for i, r in enumerate(reads)]
        return CheckResult(True, pairs)
    return CheckResult(False, [])


def _realizable(events, po, node, reads, binding) -> bool:
    """One concrete interleaving exists: schedule events respecting the
    saturated order, each read firing only while its bound write is the
    variable's latest."""
    n = len(events)
    pred_mask = [0] * n
    for a in range(n):
        for b in range(n):
            if a != b and po.reachable(node[events[a]], node[events[b]]):
                pred_mask[b] |= 1 << a
    vars_ = sorted({ev.var for ev in events})
    vat = {v: i for i, v in enumerate(vars_)}
    eid = {ev: i for i, ev in enumerate(events)}
    bound = {eid[r]: eid[binding[i]] for i, r in enumerate(reads)}
    full = (1 << n) - 1
    # Depth-first over (scheduled-set, last write per variable) states, with
    # an explicit stack; each frame is [mask, lastw, next event to try].
    start = (0, tuple([-1] * len(vars_)))
    seen = {start}
    stack = [[*start, 0]]
    while stack:
        frame = stack[-1]
        mask, lastw = frame[0], frame[1]
        if mask == full:
            return True
        for e in range(frame[2], n):
            bit = 1 << e
            if mask & bit or pred_mask[e] & ~mask:
                continue
            ev = events[e]
            if ev.kind == "r":
                if lastw[vat[ev.var]] != bound[e]:
                    continue
                nxt = lastw
            else:
                j = vat[ev.var]
                nxt = lastw[:j] + (e,) + lastw[j + 1 :]
            state = (mask | bit, nxt)
            if state in seen:
                continue
            seen.add(state)
            frame[2] = e + 1
            stack.append([*state, 0])
            break
        else:
            stack.pop()
    return False
