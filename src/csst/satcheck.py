"""Read-from consistency checking by saturating a dynamic partial order.

Input: per-thread writes and reads as `TraceEvent`s, which
`harness.parse_trace` reads from text, and orderings established up front;
`validate_trace` checks both. The checker decides whether every read can
observe a same-variable write of its value under SOME interleaving that
respects program order, the orderings, and write atomicity (a read sees
the latest write).

Method: reads are bound to candidate writes in trace order. Binding w to r
inserts w -> r, then forces, for every other write o to the same variable:

    w reaches o  =>  r comes before o   (insert r -> o)
    o reaches r  =>  o comes before w   (insert o -> w)

A candidate reads four rows, all before it inserts anything: the successor
and predecessor rows of w and of r, read through the order's row hooks in
their encoding (inf for a chain not reached forward, -1 for one with
nothing reaching back), with the node's own index in its own slot. Every
node is an event of the validated trace, so no row needs a range check.
The rows decide every edge:

- w -> r closes a cycle exactly when r reaches w, and is implied already
  when w reaches r.
- After w -> r, a write that r already reaches is after r, and one that
  already reaches w is before w, so only the writes w reaches and those
  that reach r can need an edge. As the order stays acyclic, the rows
  read before the insert find them exactly.
- The writes to each variable are kept sorted by index per thread. On each
  thread one bisect finds the earliest write o that w reaches: if o also
  reaches r, r -> o closes a cycle and the candidate is dead before any
  insert; otherwise r -> o is the one edge that thread needs, as its later
  writes follow by program order. A second bisect finds the latest write
  that reaches r, which w then does not reach, and gives the one o -> w.
- r's successor row drops every r -> o that is implied already, and w's
  predecessor row every o -> w. Neither row changes under the other kind
  of insert (that would take a cycle), but an insert can imply a later
  edge of its own kind, so only the second and later surviving edges of a
  kind take a `reachable`. A candidate makes at most 4 row queries and
  2(k - 2) `reachable` calls, however long the trace.

Each up-front ordering u -> v is refused when v already reaches u, so the
order never has a cycle. Every insert is recorded in the list of edges its
binding (or the up-front orderings) inserted, and a rollback deletes
exactly that list (exact deletes restore the prior direct edges); the next
candidate is then tried, backtracking across reads.

A full binding is accepted once a search finds one concrete interleaving,
so the verdict matches exhaustive enumeration. An event fires after its
program-order predecessor and after the source of every edge into it; a
write to x also waits while some read of x is unfired and its bound write
fired. The search carries that count of pending reads per variable (a
write adds the reads bound to it, a read takes itself off), so the wait
is one lookup. Whether an event may fire then depends only on the fired
set, a cut (one count per thread): the search visits at most
prod(n_t + 1) cuts (cf. Gibbons & Korach, "Testing Shared Memories", 1997).

The search asks the order nothing. The edges of the up-front orderings and
of the live candidates are the order's cross-chain edges, so on each cut
the search reaches, which is downward closed under program order and
those edges, "every direct predecessor fired" holds exactly when "the
whole `predecessors` row fired" does.

Once a full search has failed, each later candidate is first tested by
the same search over the reads bound so far: an unbound read adds no
edge, no wait and no count, so a failure there rules out every completion
and the candidate is dropped. A pruned binding is never realizable, so
the first witnessed binding is unchanged, and a check whose first search
succeeds never pays for the test.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from operator import le

from .core import NodeId
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


_Edges = list[tuple[NodeId, NodeId]]


def _force(po: DynamicPartialOrder, edges: _Edges, inserted: _Edges) -> None:
    """Insert each edge, none of which closes a cycle, and append it to
    `inserted`. The first is not yet implied; an insert may imply a later
    one, so each later one is tested first."""
    for n, (u, v) in enumerate(edges):
        if n == 0 or not po.reachable(u, v):
            po.insert_edge(u, v)
            inserted.append((u, v))


def _rollback(po: DynamicPartialOrder, inserted: _Edges) -> None:
    for u, v in reversed(inserted):
        po.delete_edge(u, v)


def _row(po: DynamicPartialOrder, fwd: bool, u: NodeId) -> list[int]:
    """u's successor (fwd) or predecessor row, read through the order's row
    hook in its encoding (inf for a chain u reaches nothing on, -1 for one
    with nothing reaching u), plus u's own index in its own slot. u comes
    from a validated trace."""
    row = list(po._successors(u) if fwd else po._predecessors(u))
    row[u.chain] = u.index
    return row


def _bind(po: DynamicPartialOrder, nw: NodeId, nr: NodeId, writes) -> _Edges | None:
    """Bind read nr to write nw: the edges inserted, or None when the
    binding is dead. `writes[c]`: the sorted indices of chain c's writes to
    their variable."""
    succ_w = _row(po, True, nw)
    pred_w = _row(po, False, nw)
    succ_r = _row(po, True, nr)
    pred_r = _row(po, False, nr)
    if succ_r[nw.chain] <= nw.index:  # r reaches w
        return None
    later, earlier = [], []  # the forced r -> o and o -> w
    for c, ix in enumerate(writes):
        # the earliest write w reaches, w itself excluded
        a = bisect_left(ix, succ_w[c] + (c == nw.chain))
        if a < len(ix):
            if ix[a] <= pred_r[c]:  # it reaches r: r -> o would close a cycle
                return None
            if ix[a] < succ_r[c]:
                later.append((nr, NodeId(c, ix[a])))
        # the latest write that reaches r, which w does not reach
        b = bisect_right(ix, pred_r[c])
        if b and c != nw.chain and ix[b - 1] > pred_w[c]:
            earlier.append((NodeId(c, ix[b - 1]), nw))
    inserted: _Edges = []
    if succ_w[nr.chain] > nr.index:
        po.insert_edge(nw, nr)
        inserted.append((nw, nr))
    if later:
        _force(po, later, inserted)
    if earlier:
        _force(po, earlier, inserted)
    return inserted


def check(events: list[TraceEvent], orders=()) -> CheckResult:
    """Decide trace consistency. Raises ValueError if the events or
    orderings fail `validate_trace`, or if the up-front orderings already
    contradict program order or each other."""
    lengths = validate_trace(events, orders)
    po = DynamicPartialOrder(len(lengths), lengths)

    pre: _Edges = []  # the up-front orderings' inserted edges
    for t1, j1, t2, j2 in orders:
        u, v = NodeId(t1, j1), NodeId(t2, j2)
        if u.chain == v.chain:
            if u.index < v.index:
                continue
        elif po.reachable(u, v):
            continue
        elif not po.reachable(v, u):
            po.insert_edge(u, v)
            pre.append((u, v))
            continue
        raise ValueError(f"initial orderings are contradictory at {(t1, j1, t2, j2)}")

    # Per-event data is indexed by position in `events`.
    node = [NodeId(ev.thread, ev.index) for ev in events]
    writes_on: dict[str, list[list[int]]] = {}  # per variable, per chain, sorted
    same_value: dict[tuple[str, int], list[int]] = {}  # positions, in trace order
    for e, ev in enumerate(events):
        if ev.kind == "w":
            writes_on.setdefault(ev.var, [[] for _ in lengths])[ev.thread].append(ev.index)
            same_value.setdefault((ev.var, ev.value), []).append(e)
    for chains in writes_on.values():
        for ix in chains:
            ix.sort()
    reads = [e for e, ev in enumerate(events) if ev.kind == "r"]
    binding = [-1] * len(reads)  # binding[i]: position of the write reads[i] observes

    def assign() -> bool:
        """Bind reads in trace order, depth first, each to its same-value
        writes in trace order; True once a full binding is realizable. An
        explicit stack keeps long traces off the recursion limit."""
        cands: list[_Edges] = []  # cands[i] holds the edges binding reads[i]
        tried = [0]  # tried[i]: how many of reads[i]'s writes were tried
        pruning = False  # set once a full search has failed: then test prefixes

        def realizable(n: int) -> bool:
            # The live edges: the up-front orderings' and each binding's.
            edges = [e for c in (pre, *cands) for e in c]
            return _realizable(lengths, edges, events, node, reads[:n], binding[:n])

        while True:
            i = len(cands)
            if i < len(reads):
                r = reads[i]
                ev = events[r]
                ws = same_value.get((ev.var, ev.value), ())
                while tried[i] < len(ws):
                    w = ws[tried[i]]
                    tried[i] += 1
                    cand = _bind(po, node[w], node[r], writes_on[ev.var])
                    if cand is None:
                        continue
                    binding[i] = w
                    cands.append(cand)
                    if pruning and i + 1 < len(reads) and not realizable(i + 1):
                        _rollback(po, cands.pop())
                        continue
                    tried.append(0)
                    break
                if len(cands) > i:
                    continue
            elif realizable(len(reads)):
                return True
            else:
                pruning = True
            # Nothing left to try at depth i: undo the binding of reads[i - 1].
            tried.pop()
            if not cands:
                return False
            _rollback(po, cands.pop())

    if not assign():
        return CheckResult(False, [])
    return CheckResult(True, [(node[r], node[binding[i]]) for i, r in enumerate(reads)])


def _realizable(lengths, edges, events, node, reads, binding) -> bool:
    """One concrete interleaving exists in which each of `reads` observes
    its write in `binding`: search the cuts from which each thread's next
    event may fire, given the order's cross-chain `edges`, as the module
    docstring sets out. A read missing from `reads` is unbound: it moves no
    count."""
    # needs[v]: how many events of each chain v needs fired; absent where
    # no edge enters v
    needs: dict[NodeId, list[int]] = {}
    for u, v in edges:
        need = needs.setdefault(v, [0] * len(lengths))
        if need[u.chain] <= u.index:
            need[u.chain] = u.index + 1
    # step[e]: how firing event e moves its variable's pending-read count
    step = [0] * len(events)
    for r, w in zip(reads, binding):
        step[w] += 1
        step[r] = -1
    var_id: dict[str, int] = {}
    # at[t][j]: event (t, j)'s needs (None when no edge enters it), its
    # variable, whether it waits, its step
    at = [[None] * n for n in lengths]
    for u, ev, d in zip(node, events, step):
        x = var_id.setdefault(ev.var, len(var_id))
        at[u.chain][u.index] = (needs.get(u), x, ev.kind == "w", d)
    full = tuple(lengths)
    k = len(full)
    seen = set()  # no move leads back to the empty cut
    # depth first: (cut, first thread not yet tried, pending reads per variable)
    stack = [((0,) * k, 0, (0,) * len(var_id))]
    while stack:
        cut, first, pending = stack.pop()
        if cut == full:
            return True
        for t in range(first, k):
            j = cut[t]
            if j == full[t]:
                continue
            need, x, waits, d = at[t][j]
            if waits and pending[x] or need is not None and not all(map(le, need, cut)):
                continue
            nxt = cut[:t] + (j + 1,) + cut[t + 1 :]
            if nxt not in seen:
                seen.add(nxt)
                moved = pending[:x] + (pending[x] + d,) + pending[x + 1 :] if d else pending
                stack += [(cut, t + 1, pending), (nxt, 0, moved)]
                break
    return False
