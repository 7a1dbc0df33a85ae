"""Fully dynamic partial order over k chains: edges come and go.

A ChainPairOrder: per ordered chain pair (t1, t2), a sparse suffix-minima
array stores only DIRECT edges: entry j1 holds the least j2 with a live edge
(t1,j1) -> (t2,j2). Behind each entry sits an ascending list of the
distinct live targets for that (t1, j1, t2) key (a repeated insert raises
DuplicateEdge), so deleting the current minimum promotes the next one in
O(log) time. Nothing transitive is cached, which is what makes deletion
cheap; queries instead run a small fixpoint (the closure) over the k chains,
one routine for both directions. Forward, min_suffix over the arrays leaving
each chain gives the least index of each chain that u reaches; backward,
argleq over the arrays entering each chain gives the largest index that
reaches u.

    round 0: best index of each chain one direct edge from u
    round r: one more cross-chain hop from each chain at a value it has
             not been expanded at

Each improvement is written in place at once, and each chain records the
value it was last expanded at, so none is expanded twice at one value. A
round expands a queue, in chain order: the chains improved since their last
expansion, each queued by the first such improvement. Round 1's queue is
seeded with the chains round 0 reached, in chain order, and a closure whose
round 0 reaches nothing returns at once, settled in zero rounds. One
improved in round r before its turn is expanded then at its latest value and
stays out of round r+1. A reachable() query returns at the probe that brings
its target chain to the target index or below, mid-round. Values are indices
actually reached and only improve, and a probe's answer only improves as its
argument does. So after round r every chain is at least as good as its best
witness path of at most r+1 cross-chain hops: the chain that path's last hop
leaves was at least as good after round r-1, and was expanded at that value
or a better one in round r or before. A shortest witness path alternates
chains at most k times, so the closure settles within k rounds;
max_closure_rounds records the worst query served so that bound can be
audited. A chain left out of round r+1 and improved during it waits for
round r+2, so a query's round count can rise while its probes fall.

Settled closures are memoised between edge changes. A query's round 0 is one
row per direction: min_suffix(j1) of each array leaving chain t1 (forward),
argleq(ju) of each array entering chain tu (backward), with the source
chain's own slot masked to None. On every other chain the least fixpoint
depends on the source index only through that row, even when the order has
cycles: a suffix minimum is constant between two indices that give equal
rows, so a path back into the source chain between them improves nothing. So
each direction keeps a dict from the masked row (the mask's position names
the source chain) to the settled closure tuple. A dict is looked up only
when it is non-empty: under churn every entry change empties both before the
next query. A hit answers without running a round: last_closure_rounds reads
0 and closure_memo_hits counts one. A miss runs the fixpoint and stores its
result only when it settled; a reachable() that stopped early stores
nothing. Both dicts are cleared exactly where an array entry changes (an
insert below the current direct minimum, a delete of it), never on grow() or
on edges that leave the entries alone. Rows only change where an entry sits,
so a chain holds at most (its distinct source indices + 1) forward keys and
(its distinct target indices + 1) backward keys: memory is bounded by the
live edges.

Queries share per-instance scratch buffers: callers need exclusive access
(no concurrent queries, even read-only ones).
"""

from __future__ import annotations

from bisect import bisect_left

from .core import ChainPairOrder, NodeId, PoError, PoErrorKind
from .sst import INF


class DynamicPartialOrder(ChainPairOrder):
    """arrays[t1 * k + t2] maps j1 -> least direct target on chain t2 of an
    edge leaving (t1, j1). Any edge may be inserted, cycle-closing ones
    included, and every query answers over the order as it stands. A row
    query (successors, predecessors) costs one closure, as does one entry."""

    def __init__(self, k: int, lengths):
        super().__init__(k, lengths)
        # (t1, j1, t2) -> ascending list of the distinct live target indices
        # (the direct edges backing the array entry).
        self._store: dict[tuple[int, int, int], list[int]] = {}
        self.last_closure_rounds = 0
        self.max_closure_rounds = 0
        self._clo: list = [INF] * k
        # Per chain, its (other chain, array) pairs: out[t] holds the arrays
        # of edges leaving chain t, inn[t] those of edges entering it.
        arrays = self.arrays
        self._out = [[(t2, arrays[t * k + t2]) for t2 in range(k) if t2 != t] for t in range(k)]
        self._in = [[(t1, arrays[t1 * k + t]) for t1 in range(k) if t1 != t] for t in range(k)]
        # Settled closures keyed by their round-0 row; see the module docstring.
        self._fwd_memo: dict[tuple, tuple] = {}
        self._bwd_memo: dict[tuple, tuple] = {}
        self.closure_memo_hits = 0

    # -- updates -----------------------------------------------------------------

    def _insert_edge(self, u: NodeId, v: NodeId) -> None:
        t1, j1 = u
        t2, j2 = v
        key = (t1, j1, t2)
        lst = self._store.get(key)
        if lst is None:
            self._store[key] = [j2]
            cur = INF
        else:
            i = bisect_left(lst, j2)
            if i < len(lst) and lst[i] == j2:
                raise PoError(PoErrorKind.DUPLICATE_EDGE, (u, v))
            cur = lst[0]
            lst.insert(i, j2)
        if j2 < cur:
            self._fwd_memo.clear()
            self._bwd_memo.clear()
            self.arrays[t1 * self.k + t2].update(j1, j2)

    def _delete_edge(self, u: NodeId, v: NodeId) -> None:
        t1, j1 = u
        t2, j2 = v
        key = (t1, j1, t2)
        lst = self._store.get(key)
        if lst is None:
            raise PoError(PoErrorKind.MISSING_EDGE, (u, v))
        i = bisect_left(lst, j2)
        if i >= len(lst) or lst[i] != j2:
            raise PoError(PoErrorKind.MISSING_EDGE, (u, v))
        lst.pop(i)
        if i == 0:
            # The array entry was this minimum; promote the next target.
            self._fwd_memo.clear()
            self._bwd_memo.clear()
            self.arrays[t1 * self.k + t2].update(j1, lst[0] if lst else INF)
        if not lst:
            del self._store[key]

    # -- closure -----------------------------------------------------------------

    def _closure(self, fwd: bool, tu: int, ju: int, tt: int = -1, tj: int = -1):
        """Closure of (tu, ju) along the out-links (fwd: per chain, the least
        index reached, inf when none) or the in-links (per chain, the largest
        index that reaches it, -1 when none). The source chain's slot holds
        no answer.

        With tt >= 0 (forward only), stops at the probe that first brings
        chain tt to an index <= tj (closure values only ever improve, so an
        early hit is final) and returns the scratch buffer, settled at tt
        only. Otherwise returns the settled closure, from the memo when it
        holds a key equal to round 0's row (looked up only when non-empty).
        Round 1's queue holds, in chain order, the chains round 0 reached; a
        closure whose round 0 reaches nothing is settled there, in zero
        rounds.
        """
        clo = self._clo
        if fwd:
            links = self._out
            for t, a in links[tu]:
                clo[t] = a.min_suffix(ju)
            if tt >= 0 and clo[tt] <= tj:
                self.last_closure_rounds = 0
                return clo
            memo, none = self._fwd_memo, INF
        else:
            links, memo, none = self._in, self._bwd_memo, -1
            for t, a in links[tu]:
                clo[t] = a.argleq(ju)
        clo[tu] = None
        key = tuple(clo)
        if memo:
            settled = memo.get(key)
            if settled is not None:
                self.closure_memo_hits += 1
                self.last_closure_rounds = 0
                return settled
        clo[tu] = ju
        queue = []
        for t, _a in links[tu]:
            if clo[t] != none:
                queue.append(t)
        if not queue:
            self.last_closure_rounds = 0
            settled = memo[key] = tuple(clo)
            return settled
        # done[t]: the value chain t was last expanded at (none before its
        # first expansion); round 0 expanded the source chain. A chain is
        # queued for a round only at a new value: the first improvement
        # after its last expansion queues it, and one improved again before
        # its turn is expanded at its latest value.
        done = [none] * self.k
        done[tu] = ju
        rounds = 0
        while queue:
            rounds += 1
            nxt = []
            if fwd:
                for t2 in queue:
                    c2 = done[t2] = clo[t2]
                    for t, a in links[t2]:
                        v = a.min_suffix(c2)
                        if v < clo[t]:
                            if clo[t] == done[t]:
                                nxt.append(t)
                            clo[t] = v
                            if t == tt and v <= tj:
                                self.last_closure_rounds = rounds
                                if rounds > self.max_closure_rounds:
                                    self.max_closure_rounds = rounds
                                return clo
            else:
                for t2 in queue:
                    c2 = done[t2] = clo[t2]
                    for t, a in links[t2]:
                        v = a.argleq(c2)
                        if v > clo[t]:
                            if clo[t] == done[t]:
                                nxt.append(t)
                            clo[t] = v
            # Any order settles the same closure; chain order keeps the
            # expansion sequence, and so round counts and probes, fixed.
            nxt.sort()
            queue = nxt
        self.last_closure_rounds = rounds
        if rounds > self.max_closure_rounds:
            self.max_closure_rounds = rounds
        settled = memo[key] = tuple(clo)
        return settled

    # -- queries -----------------------------------------------------------------

    def _successors(self, u: NodeId):
        return self._closure(True, u.chain, u.index)

    def _predecessors(self, u: NodeId):
        return self._closure(False, u.chain, u.index)

    def _reachable(self, u: NodeId, v: NodeId) -> bool:
        return self._closure(True, u.chain, u.index, v.chain, v.index)[v.chain] <= v.index

    # -- introspection -------------------------------------------------------------

    def density(self) -> int:
        """Cross-chain density: max per-chain count of edge-source indices."""
        nsrc = [0] * self.k
        for t1, _j1 in {key[:2] for key in self._store}:
            nsrc[t1] += 1
        return max(nsrc)

    def direct_minimum(self, t1: int, j1: int, t2: int):
        """Smallest live direct-edge target for the key, inf when none."""
        lst = self._store.get((t1, j1, t2))
        return lst[0] if lst else INF

    def edge_count(self) -> int:
        return sum(len(lst) for lst in self._store.values())
