"""Insert-only partial order over k chains with O(1)-lookup queries.

A ChainPairOrder: one sparse suffix-minima array per ordered chain pair
(t1, t2) stores, for each source index j1, the least index of chain t2
already known reachable from (t1, j1). The arrays are kept transitively
closed: every insert folds the new edge's consequences into all k*(k-1)
arrays immediately (at most 2k + 2k^2 array operations), after which

    successor(u, t2)   = one min_suffix lookup (reachable too)
    predecessor(u, t1) = one argleq lookup

Edges can only be added. Re-inserting an edge that is already implied is a
no-op. delete_edge always raises DeleteUnsupported.
"""

from __future__ import annotations

from .core import ChainPairOrder, NodeId, cycle_detected, delete_unsupported
from .sst import INF


class IncrementalPartialOrder(ChainPairOrder):
    """arrays[t1 * k + t2] maps j1 -> least index of chain t2 known reachable
    from (t1, j1), transitively closed after every insert."""

    # -- updates ---------------------------------------------------------------

    def _insert_edge(self, u: NodeId, v: NodeId) -> None:
        k = self.k
        arr = self.arrays
        t1, j1 = u
        t2, j2 = v
        if self.cycle_guard and self._reachable(v, u):
            raise cycle_detected(u, v)
        # Bind the frontier first: per chain, the latest predecessor of u and
        # the earliest successor of v. Folding the edge in afterwards cannot
        # disturb these bindings (new entries never land in the suffixes and
        # prefixes they were read from, as long as the order stays acyclic).
        preds = [0] * k
        succs = [0] * k
        for t in range(k):
            if t == t1:
                preds[t] = j1
            else:
                a = arr[t * k + t1]
                p = a.argleq(j1)
                preds[t] = -1 if p is None else p
            if t == t2:
                succs[t] = j2
            else:
                succs[t] = arr[t2 * k + t].min_suffix(j2)
        for ta in range(k):
            ja = preds[ta]
            if ja < 0:
                continue
            base = ta * k
            for tb in range(k):
                if tb == ta:
                    continue
                jb = succs[tb]
                if jb == INF:
                    continue
                a = arr[base + tb]
                if a.min_suffix(ja) > jb:
                    a.update(ja, jb)

    def _delete_edge(self, u: NodeId, v: NodeId) -> None:
        raise delete_unsupported(u, v)

    # -- queries ---------------------------------------------------------------

    def _reachable(self, u: NodeId, v: NodeId) -> bool:
        return self.arrays[u.chain * self.k + v.chain].min_suffix(u.index) <= v.index

    def _successor(self, u: NodeId, t2: int):
        r = self.arrays[u.chain * self.k + t2].min_suffix(u.index)
        return None if r == INF else r

    def _predecessor(self, u: NodeId, t1: int):
        return self.arrays[t1 * self.k + u.chain].argleq(u.index)
