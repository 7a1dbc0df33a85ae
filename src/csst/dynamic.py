"""Fully dynamic partial order over k chains: edges come and go.

A ChainPairOrder: per ordered chain pair (t1, t2), a sparse suffix-minima
array stores only DIRECT edges: entry j1 holds the least j2 with a live edge
(t1,j1) -> (t2,j2). Behind each entry sits an ordered multiset of all live
targets for that (t1, j1, t2) key, so deleting the current minimum promotes
the next one in O(log) time. Nothing transitive is cached, which is what makes deletion
cheap; queries instead run a small fixpoint (the closure) over the k chains:

    round 0: best index of each chain reachable from u by one direct edge
    round r: extend by one more cross-chain hop, reading round r-1's values

A shortest chain-to-chain witness path alternates chains at most k times, so
the closure settles within k rounds; the instance records the rounds of the
worst query it has served (max_closure_rounds) so that bound can be audited.

Queries share per-instance scratch buffers: callers need exclusive access
(no concurrent queries, even read-only ones).
"""

from __future__ import annotations

from bisect import bisect_left

from .core import ChainPairOrder, NodeId, cycle_detected, duplicate_edge, missing_edge
from .sst import INF


class DynamicPartialOrder(ChainPairOrder):
    def __init__(self, k: int, lengths, cycle_guard: bool = False):
        super().__init__(k, lengths, cycle_guard)
        # (t1, j1, t2) -> ascending list of live target indices (the edge
        # multiset backing the array entry).
        self._store: dict[tuple[int, int, int], list[int]] = {}
        self.last_closure_rounds = 0
        self.max_closure_rounds = 0
        self._clo: list = [INF] * k
        self._pend: list = [INF] * k

    # -- updates -----------------------------------------------------------------

    def _insert_edge(self, u: NodeId, v: NodeId) -> None:
        t1, j1 = u
        t2, j2 = v
        key = (t1, j1, t2)
        lst = self._store.get(key)
        if lst is not None:
            i = bisect_left(lst, j2)
            if i < len(lst) and lst[i] == j2:
                raise duplicate_edge(u, v)
        if self.cycle_guard and self._reachable(v, u):
            raise cycle_detected(u, v)
        if lst is None:
            self._store[key] = [j2]
            cur = INF
        else:
            cur = lst[0]
            lst.insert(i, j2)
        if j2 < cur:
            self.arrays[t1 * self.k + t2].update(j1, j2)

    def _delete_edge(self, u: NodeId, v: NodeId) -> None:
        t1, j1 = u
        t2, j2 = v
        key = (t1, j1, t2)
        lst = self._store.get(key)
        if lst is None:
            raise missing_edge(u, v)
        i = bisect_left(lst, j2)
        if i >= len(lst) or lst[i] != j2:
            raise missing_edge(u, v)
        lst.pop(i)
        if i == 0:
            # The array entry was this minimum; promote the next target.
            self.arrays[t1 * self.k + t2].update(j1, lst[0] if lst else INF)
        if not lst:
            del self._store[key]

    # -- closure -----------------------------------------------------------------

    def _run_fwd(self, t1: int, j1: int, tt: int, tj: int) -> bool:
        """Forward closure from (t1, j1) into the scratch buffer.

        With tt >= 0, stops as soon as chain tt is reached at an index <= tj
        and returns that verdict (closure values only ever decrease, so an
        early hit is final). With tt = -1, runs to fixpoint and returns True;
        read per-chain results from self._clo afterwards.
        """
        k = self.k
        arr = self.arrays
        clo = self._clo
        base = t1 * k
        changed = []
        for t in range(k):
            if t == t1:
                clo[t] = j1
            else:
                v = arr[base + t].min_suffix(j1)
                clo[t] = v
                if v != INF:
                    changed.append(t)
        rounds = 0
        if tt >= 0 and clo[tt] <= tj:
            self.last_closure_rounds = rounds
            return True
        pend = self._pend
        while changed:
            rounds += 1
            touched = []
            for t2p in changed:
                c2 = clo[t2p]
                b2 = t2p * k
                for t1p in range(k):
                    if t1p == t2p:
                        continue
                    v = arr[b2 + t1p].min_suffix(c2)
                    if v < clo[t1p] and v < pend[t1p]:
                        if pend[t1p] == INF:
                            touched.append(t1p)
                        pend[t1p] = v
            changed = []
            for t in touched:
                v = pend[t]
                pend[t] = INF
                if v < clo[t]:
                    clo[t] = v
                    changed.append(t)
            if tt >= 0 and clo[tt] <= tj:
                self.last_closure_rounds = rounds
                if rounds > self.max_closure_rounds:
                    self.max_closure_rounds = rounds
                return True
        self.last_closure_rounds = rounds
        if rounds > self.max_closure_rounds:
            self.max_closure_rounds = rounds
        return tt < 0

    def _run_bwd(self, tu: int, ju: int) -> None:
        """Backward closure to (tu, ju): largest index of each chain that
        reaches it, -1 when none. Results in self._clo."""
        k = self.k
        arr = self.arrays
        clo = self._clo
        changed = []
        for t in range(k):
            if t == tu:
                clo[t] = ju
            else:
                r = arr[t * k + tu].argleq(ju)
                if r is None:
                    clo[t] = -1
                else:
                    clo[t] = r
                    changed.append(t)
        rounds = 0
        pend = self._pend
        while changed:
            rounds += 1
            touched = []
            for t2p in changed:
                c2 = clo[t2p]
                for t1p in range(k):
                    if t1p == t2p:
                        continue
                    r = arr[t1p * k + t2p].argleq(c2)
                    if r is not None and r > clo[t1p]:
                        if pend[t1p] == INF:
                            touched.append(t1p)
                            pend[t1p] = r
                        elif r > pend[t1p]:
                            pend[t1p] = r
            changed = []
            for t in touched:
                r = pend[t]
                pend[t] = INF
                if r > clo[t]:
                    clo[t] = r
                    changed.append(t)
        self.last_closure_rounds = rounds
        if rounds > self.max_closure_rounds:
            self.max_closure_rounds = rounds

    # -- queries -----------------------------------------------------------------

    def _successor(self, u: NodeId, t2: int):
        self._run_fwd(u.chain, u.index, -1, -1)
        r = self._clo[t2]
        return None if r == INF else r

    def _predecessor(self, u: NodeId, t1: int):
        self._run_bwd(u.chain, u.index)
        r = self._clo[t1]
        return None if r < 0 else r

    def _reachable(self, u: NodeId, v: NodeId) -> bool:
        return self._run_fwd(u.chain, u.index, v.chain, v.index)

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
