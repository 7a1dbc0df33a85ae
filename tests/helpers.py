"""Shared test utilities: tiny reference models kept deliberately naive."""

from __future__ import annotations

import math
from collections import deque

from csst.sst import SuffixMinArray

INF = math.inf


class RefArray:
    """Dict-backed mirror of SuffixMinArray semantics."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.data: dict[int, int] = {}

    def update(self, i: int, v) -> None:
        assert 0 <= i < self.capacity
        if v == INF:
            self.data.pop(i, None)
        else:
            self.data[i] = v

    def grow(self, new_capacity: int) -> None:
        assert new_capacity >= self.capacity
        self.capacity = new_capacity

    def min_suffix(self, i: int):
        vals = [v for j, v in self.data.items() if j >= i]
        return min(vals) if vals else INF

    def argleq(self, v):
        idxs = [j for j, u in self.data.items() if u <= v]
        return max(idxs) if idxs else -1

    def density(self) -> int:
        return len(self.data)


class RefFold:
    """csst-inc's arrays under the unpruned fold: every insert binds the
    whole frontier, then probes every (ta, tb) pair of it.

    The reference for which array writes an insert makes; csst-inc prunes
    the probes, not the writes.
    """

    def __init__(self, k: int, lengths):
        self.k = k
        self.arrays = [
            SuffixMinArray(lengths[t1]) if t1 != t2 else None
            for t1 in range(k)
            for t2 in range(k)
        ]

    def grow(self, chain: int, new_len: int) -> None:
        for t in range(self.k):
            if t != chain:
                self.arrays[chain * self.k + t].grow(new_len)

    def insert_edge(self, u, v) -> None:
        k = self.k
        arr = self.arrays
        t1, j1 = u
        t2, j2 = v
        preds = [0] * k
        succs = [0] * k
        for t in range(k):
            if t == t1:
                preds[t] = j1
            else:
                preds[t] = arr[t * k + t1].argleq(j1)
            if t == t2:
                succs[t] = j2
            else:
                succs[t] = arr[t2 * k + t].min_suffix(j2)
        for ta in range(k):
            ja = preds[ta]
            if ja < 0:
                continue
            for tb in range(k):
                jb = succs[tb]
                if tb == ta or jb == INF:
                    continue
                a = arr[ta * k + tb]
                if a.min_suffix(ja) > jb:
                    a.update(ja, jb)


def tree_shape(arr) -> dict[tuple[int, int], tuple]:
    """Snapshot {(start, end): (min, pos)} of every node in a SuffixMinArray."""
    out = {}
    nd = arr._root
    stack = [nd] if nd is not None else []
    while stack:
        n = stack.pop()
        out[(n.start, n.end)] = (n.min, n.pos)
        if n.left is not None:
            stack.append(n.left)
        if n.right is not None:
            stack.append(n.right)
    return out


def check_tree(arr) -> None:
    """Assert the structural invariants of every node of a SuffixMinArray:
    each range is an aligned power of two inside [0, 2^ceil(log2 capacity)),
    the smallest aligned range over every valid index; mid is the last index
    of the left half (end for a one-index node); pos lies in the range; each
    child lies inside the correct half; each node's (min, pos) beats every
    descendant's (smaller min, or an equal min at a larger index); and the
    walk visits one node per live entry, the count node_count() reports."""
    root = arr._root
    visited = 0
    span = 1 << (arr.capacity - 1).bit_length()
    stack = [(root, ())] if root is not None else []
    while stack:
        nd, above = stack.pop()
        visited += 1
        lo, hi = nd.start, nd.end
        size = hi - lo + 1
        assert 0 <= lo <= hi < span
        assert size & (size - 1) == 0 and lo % size == 0
        assert nd.mid == (hi if size == 1 else lo + size // 2 - 1)
        assert lo <= nd.pos <= hi
        for mn, pos in above:
            assert mn < nd.min or (mn == nd.min and pos > nd.pos)
        above = above + ((nd.min, nd.pos),)
        for child, half_lo, half_hi in ((nd.left, lo, nd.mid), (nd.right, nd.mid + 1, hi)):
            if child is not None:
                assert size > 1
                assert half_lo <= child.start and child.end <= half_hi
                stack.append((child, above))
    assert visited == arr.density()


class RefOrder:
    """Naive partial order over k chains: explicit edge list + BFS per query.

    Kept free of any cleverness so it can arbitrate between the real
    implementations. Duplicate edges are rejected, deletes must match.
    """

    def __init__(self, k: int, lengths):
        self.k = k
        self.lengths = list(lengths)
        self.edges: set[tuple[int, int, int, int]] = set()

    def insert_edge(self, u, v) -> None:
        t = (u[0], u[1], v[0], v[1])
        assert t not in self.edges
        self.edges.add(t)

    def delete_edge(self, u, v) -> None:
        self.edges.remove((u[0], u[1], v[0], v[1]))

    def grow(self, chain: int, new_len: int) -> None:
        assert new_len >= self.lengths[chain]
        self.lengths[chain] = new_len

    def _fwd(self, u):
        """All nodes reachable from u (chain steps + cross edges)."""
        seen = {u}
        q = deque([u])
        out: dict[tuple[int, int], list] = {}
        for t1, j1, t2, j2 in self.edges:
            out.setdefault((t1, j1), []).append((t2, j2))
        while q:
            t, i = q.popleft()
            nxt = []
            if i + 1 < self.lengths[t]:
                nxt.append((t, i + 1))
            nxt.extend(out.get((t, i), ()))
            for w in nxt:
                if w not in seen:
                    seen.add(w)
                    q.append(w)
        return seen

    def _bwd(self, u):
        seen = {u}
        q = deque([u])
        rev: dict[tuple[int, int], list] = {}
        for t1, j1, t2, j2 in self.edges:
            rev.setdefault((t2, j2), []).append((t1, j1))
        while q:
            t, i = q.popleft()
            nxt = []
            if i - 1 >= 0:
                nxt.append((t, i - 1))
            nxt.extend(rev.get((t, i), ()))
            for w in nxt:
                if w not in seen:
                    seen.add(w)
                    q.append(w)
        return seen

    def reachable(self, u, v) -> bool:
        return (v[0], v[1]) in self._fwd((u[0], u[1]))

    def successor(self, u, t2):
        idxs = [i for t, i in self._fwd((u[0], u[1])) if t == t2]
        return min(idxs) if idxs else None

    def predecessor(self, u, t1):
        idxs = [i for t, i in self._bwd((u[0], u[1])) if t == t1]
        return max(idxs) if idxs else None


def _program_and_given_order(events, orders):
    """pred[i]: bits of the events that must come before events[i] by
    program order or by one of the given orderings."""
    id_of = {(ev.thread, ev.index): i for i, ev in enumerate(events)}
    pred = [0] * len(events)
    for i, ev in enumerate(events):
        if ev.index > 0:
            pred[i] |= 1 << id_of[(ev.thread, ev.index - 1)]
    for t1, j1, t2, j2 in orders:
        pred[id_of[(t2, j2)]] |= 1 << id_of[(t1, j1)]
    return pred


def interleaving_consistent(events, orders=()) -> bool:
    """Exhaustive trace check: does some total schedule respect program
    order and the given orderings while every read observes the latest
    same-variable write of its value? Memoizes on (scheduled-set, latest
    value per variable); only for short traces."""
    n = len(events)
    pred = _program_and_given_order(events, orders)
    vars_ = sorted({ev.var for ev in events})
    vat = {v: i for i, v in enumerate(vars_)}
    full = (1 << n) - 1
    seen = set()

    def go(mask, lastval):
        if mask == full:
            return True
        if (mask, lastval) in seen:
            return False
        seen.add((mask, lastval))
        for e in range(n):
            bit = 1 << e
            if mask & bit or pred[e] & ~mask:
                continue
            ev = events[e]
            if ev.kind == "r":
                if lastval[vat[ev.var]] != ev.value:
                    continue
                if go(mask | bit, lastval):
                    return True
            else:
                nxt = list(lastval)
                nxt[vat[ev.var]] = ev.value
                if go(mask | bit, tuple(nxt)):
                    return True
        return False

    return go(0, tuple([None] * len(vars_)))


def interleaving_with_binding(events, orders, bound) -> bool:
    """interleaving_consistent with each read's write fixed: bound[i] is the
    position of the write that the read events[i] must observe as the
    variable's latest write when it fires."""
    n = len(events)
    pred = _program_and_given_order(events, orders)
    vars_ = sorted({ev.var for ev in events})
    vat = {v: i for i, v in enumerate(vars_)}
    full = (1 << n) - 1
    seen = set()

    def go(mask, lastw):
        if mask == full:
            return True
        if (mask, lastw) in seen:
            return False
        seen.add((mask, lastw))
        for e in range(n):
            bit = 1 << e
            if mask & bit or pred[e] & ~mask:
                continue
            ev = events[e]
            j = vat[ev.var]
            if ev.kind == "r":
                if lastw[j] != bound[e]:
                    continue
                nxt = lastw
            else:
                nxt = lastw[:j] + (e,) + lastw[j + 1 :]
            if go(mask | bit, nxt):
                return True
        return False

    return go(0, tuple([None] * len(vars_)))
