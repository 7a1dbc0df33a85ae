"""Insert-only partial order over k chains; a query is one array call.

A ChainPairOrder: one sparse suffix-minima array per ordered chain pair
(t1, t2) stores, for each source index j1, the least index of chain t2
already known reachable from (t1, j1). The arrays are kept transitively
closed, so

    successor(u, t2)   = one min_suffix lookup (reachable too)
    predecessor(u, t1) = one argleq lookup

each O(min(log n, d)) for n the array's capacity and d its live entries.

The closure argument needs an acyclic order, so an insert u -> v that
would close a cycle raises CycleDetected before any write: v reaches u
exactly when v's successor on u's chain is at most u's index. Otherwise
the insert folds the edge's consequences in at once, in three steps:

1. Implied edge. If u already reaches v, return: one probe, no write.
2. Columns. For each chain t other than u's and v's, v's successor s on t
   is new to u's predecessors only where u itself does not reach (t, s)
   yet; whatever reaches u reaches what u reaches. Each live column is
   written into u's own row, then (j1, j2) is written.
3. Rows. For each chain ta other than u's and v's, u's predecessor p on ta
   gains nothing if it already reaches v, because it then reaches every
   successor of v too. A live row is written at v and probed at the live
   columns only.

Once the cycle test passes, v's successor on u's chain lies above u and
u's predecessor on v's chain below v, so neither chain can gain anything
and both are skipped.
By closure every probe skipped is one that could not write, so the set of
writes is exactly that of probing every (predecessor, successor) pair of
the frontier, at a fraction of the probes. An insert makes at most
1 + (k-1)^2 min_suffix, k-2 argleq and 1 + (k-1)(k-2) update calls
(2(k-1)^2 + 1 array operations), the cycle test included.

Edges can only be added. Re-inserting an edge that is already implied is
a no-op. delete_edge raises the base's DeleteUnsupported.
"""

from __future__ import annotations

from .core import ChainPairOrder, NodeId, PoError, PoErrorKind
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
        uv = arr[t1 * k + t2]
        if uv.min_suffix(j1) <= j2:
            return  # 1. implied: u, and so whatever reaches u, reaches v
        vrow = t2 * k
        if arr[vrow + t1].min_suffix(j2) <= j1:
            raise PoError(PoErrorKind.CYCLE_DETECTED, (u, v))  # v reaches u
        urow = t1 * k
        # 2. Columns: v's successor s on chain t. Whatever reaches u reaches
        # what u reaches, so (t, s) is new to u's predecessors only where u
        # itself misses it; u's own row takes it then.
        cols = []
        for t in range(k):
            if t == t1 or t == t2:
                continue
            s = arr[vrow + t].min_suffix(j2)
            if s == INF:
                continue
            a = arr[urow + t]
            if a.min_suffix(j1) <= s:
                continue
            a.update(j1, s)
            cols.append((t, s))
        uv.update(j1, j2)
        # 3. Rows: u's predecessor p on chain ta. A p that reaches v reaches
        # every successor of v, so only rows that miss v are written, and
        # only at live columns. On a closed order no skipped probe could
        # have written: the writes are those of probing every pair.
        # Each array is read before this insert writes it, so every read
        # sees the frontier as it was before the insert.
        for ta in range(k):
            if ta == t1 or ta == t2:
                continue
            row = ta * k
            p = arr[row + t1].argleq(j1)
            if p < 0:
                continue
            a = arr[row + t2]
            if a.min_suffix(p) <= j2:
                continue
            a.update(p, j2)
            for tb, s in cols:
                if tb != ta:
                    a = arr[row + tb]
                    if a.min_suffix(p) > s:
                        a.update(p, s)

    # -- queries ---------------------------------------------------------------

    def _successor(self, u: NodeId, t2: int):
        return self.arrays[u.chain * self.k + t2].min_suffix(u.index)

    def _predecessor(self, u: NodeId, t1: int):
        return self.arrays[t1 * self.k + u.chain].argleq(u.index)
