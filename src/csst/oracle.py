"""Brute-force arbiter: explicit edges, fresh breadth-first search per query.

Nothing is cached, pruned, or amortized; every query walks the graph node by
node. `reachable` stops its walk once it has reached its target; the row
queries walk everything reachable. That makes it slow (think k <= 8, chains
<= 2048) and easy to trust, which is its entire job in the differential tests.
"""

from __future__ import annotations

from collections import deque

from .core import NodeId, PartialOrderBase, PoError, PoErrorKind
from .sst import INF


class BruteForcePartialOrder(PartialOrderBase):
    def __init__(self, k: int, lengths):
        super().__init__(k, lengths)
        self._out: dict[tuple[int, int], list[tuple[int, int]]] = {}
        self._rev: dict[tuple[int, int], list[tuple[int, int]]] = {}

    def _insert_edge(self, u: NodeId, v: NodeId) -> None:
        a = (u.chain, u.index)
        b = (v.chain, v.index)
        outs = self._out.setdefault(a, [])
        if b in outs:
            raise PoError(PoErrorKind.DUPLICATE_EDGE, (u, v))
        outs.append(b)
        self._rev.setdefault(b, []).append(a)

    def _delete_edge(self, u: NodeId, v: NodeId) -> None:
        a = (u.chain, u.index)
        b = (v.chain, v.index)
        outs = self._out.get(a)
        if not outs or b not in outs:
            raise PoError(PoErrorKind.MISSING_EDGE, (u, v))
        outs.remove(b)
        self._rev[b].remove(a)

    def _visit_fwd(self, start: tuple[int, int], target: tuple[int, int] | None = None):
        seen = {start}
        q = deque([start])
        lengths = self.lengths
        out = self._out
        while q and target not in seen:  # with no target, visit everything
            node = q.popleft()
            t, i = node
            if i + 1 < lengths[t]:
                w = (t, i + 1)
                if w not in seen:
                    seen.add(w)
                    q.append(w)
            for w in out.get(node, ()):
                if w not in seen:
                    seen.add(w)
                    q.append(w)
        return seen

    def _visit_bwd(self, start: tuple[int, int]):
        seen = {start}
        q = deque([start])
        rev = self._rev
        while q:
            node = q.popleft()
            t, i = node
            if i > 0:
                w = (t, i - 1)
                if w not in seen:
                    seen.add(w)
                    q.append(w)
            for w in rev.get(node, ()):
                if w not in seen:
                    seen.add(w)
                    q.append(w)
        return seen

    def _reachable(self, u: NodeId, v: NodeId) -> bool:
        target = (v.chain, v.index)
        return target in self._visit_fwd((u.chain, u.index), target)

    def _successors(self, u: NodeId):
        row = [INF] * self.k
        for t, i in self._visit_fwd((u.chain, u.index)):
            if i < row[t]:
                row[t] = i
        return row

    def _predecessors(self, u: NodeId):
        row = [-1] * self.k
        for t, i in self._visit_bwd((u.chain, u.index)):
            if i > row[t]:
                row[t] = i
        return row
