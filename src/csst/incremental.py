"""Insert-only partial order over k chains with O(1)-lookup queries.

One sparse suffix-minima array per ordered chain pair (t1, t2) stores, for
each source index j1, the least index of chain t2 already known reachable
from (t1, j1). The arrays are kept transitively closed: every insert folds
the new edge's consequences into all k*(k-1) arrays immediately (at most
2k + 2k^2 array operations), after which

    successor(u, t2)  = one min_suffix lookup
    predecessor(u, t1) = one argleq lookup

Edges can only be added. Re-inserting an edge that is already implied is a
no-op. delete_edge always raises DeleteUnsupported.
"""

from __future__ import annotations

from .core import NodeId, PartialOrderBase, cycle_detected, delete_unsupported
from .sst import INF, SuffixMinArray


class IncrementalPartialOrder(PartialOrderBase):
    def __init__(
        self,
        k: int,
        lengths,
        block_threshold: int = 32,
        cycle_guard: bool = False,
    ):
        super().__init__(k, lengths)
        self.cycle_guard = cycle_guard
        # arrays[t1 * k + t2] maps j1 -> least reachable index of chain t2;
        # diagonal slots stay None (same-chain answers are trivial).
        self.arrays: list[SuffixMinArray | None] = [
            self._new_array(self.lengths[t1], block_threshold) if t1 != t2 else None
            for t1 in range(k)
            for t2 in range(k)
        ]

    @staticmethod
    def _new_array(capacity: int, block_threshold: int) -> SuffixMinArray:
        """Build one chain-pair array; subclasses swap the array type here."""
        return SuffixMinArray(capacity, block_threshold)

    # -- updates ---------------------------------------------------------------

    def _insert_edge(self, u: NodeId, v: NodeId) -> None:
        k = self.k
        arr = self.arrays
        t1, j1 = u
        t2, j2 = v
        if self.cycle_guard and self._reaches(t2, j2, t1, j1):
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

    def _grow(self, chain: int, new_len: int) -> None:
        base = chain * self.k
        for t in range(self.k):
            if t != chain:
                self.arrays[base + t].grow(new_len)

    # -- queries ---------------------------------------------------------------

    def _reaches(self, t1: int, j1: int, t2: int, j2: int) -> bool:
        if t1 == t2:
            return j1 <= j2
        return self.arrays[t1 * self.k + t2].min_suffix(j1) <= j2

    def _successor(self, u: NodeId, t2: int):
        r = self.arrays[u.chain * self.k + t2].min_suffix(u.index)
        return None if r == INF else r

    def _predecessor(self, u: NodeId, t1: int):
        return self.arrays[t1 * self.k + u.chain].argleq(u.index)

    # -- introspection -----------------------------------------------------------

    def node_count(self) -> int:
        """Total allocated tree nodes across all chain-pair arrays."""
        return sum(a.node_count() for a in self.arrays if a is not None)

    def density_max(self) -> int:
        """Largest live-entry count among the chain-pair arrays."""
        return max((a.density() for a in self.arrays if a is not None), default=0)

    def height_max(self) -> int:
        return max((a.height() for a in self.arrays if a is not None), default=0)
