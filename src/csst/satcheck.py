"""Read-from consistency checking by saturating a dynamic partial order.

Input: a trace of per-thread write/read events (see `harness.parse_trace`),
optionally with orderings established up front. `check` validates both with
`harness.validate_trace` before it builds the order. The checker decides
whether every read can observe a same-variable write of its value under
SOME interleaving that respects program order, the given orderings, and
write atomicity (a read sees the latest write).

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
across reads. An accepted assignment is finally validated by searching for
one concrete interleaving, so the verdict matches exhaustive enumeration.
That search needs each event's predecessors as a bitmask;
`predecessor_masks` builds them from one `predecessors` row per event, n
row queries over n events. It memoizes on (scheduled-set, last write per
variable) and is only meant for short traces.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import NodeId, PartialOrderBase
from .dynamic import DynamicPartialOrder
from .harness import TraceEvent, validate_trace


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
    k = len(lengths)
    po = DynamicPartialOrder(k, lengths)

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
        # Both stay exact while the loop inserts, because the tests here keep
        # the order acyclic. r -> o goes in only where w reaches o and o does
        # not reach r, so all it adds to w's successors o already had; o -> w
        # only where o reaches r, so all it adds to r's predecessors already
        # reached r.
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
            elif _realizable(events, predecessor_masks(po, node), reads, binding):
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


def predecessor_masks(po: PartialOrderBase, nodes: list[NodeId]) -> list[int]:
    """masks[b] has bit a set iff a != b and nodes[a] reaches nodes[b].

    nodes must list every event of po exactly once. Chain t's events that
    reach a node form a prefix of t, so each node costs one `predecessors`
    row, each entry ORed in as a prefix bitmask.
    """
    prefix = [[0] * n for n in po.lengths]  # prefix[t][j]: bits of (t, 0..j)
    for e, (t, j) in enumerate(nodes):
        prefix[t][j] = 1 << e
    for row in prefix:
        for j in range(1, len(row)):
            row[j] |= row[j - 1]
    masks = []
    for e, u in enumerate(nodes):
        m = 0
        for c, p in enumerate(po.predecessors(u)):
            if p is not None:
                m |= prefix[c][p]
        masks.append(m & ~(1 << e))
    return masks


def _realizable(events, pred_mask, reads, binding) -> bool:
    """One concrete interleaving exists: schedule events respecting the
    saturated order (pred_mask from `predecessor_masks`), each read firing
    only while its bound write is the variable's latest."""
    n = len(events)
    vars_ = sorted({ev.var for ev in events})
    vat = {v: i for i, v in enumerate(vars_)}
    var_of = [vat[ev.var] for ev in events]
    is_read = [ev.kind == "r" for ev in events]
    bound = [-1] * n
    for i, r in enumerate(reads):
        bound[r] = binding[i]
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
            j = var_of[e]
            if is_read[e]:
                if lastw[j] != bound[e]:
                    continue
                nxt = lastw
            else:
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
