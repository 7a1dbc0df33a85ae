"""Reference order implementations the tree-based ones are raced against.

VectorClockPO   insert-only; per-event clock rows with lazy dense prefixes
GraphPO         fully dynamic; explicit adjacency + pruned BFS per query
PlainStPO       insert-only; IncrementalPartialOrder's closure unchanged,
                over DenseMinArray (fully materialized segment trees) in
                place of the sparse SuffixMinArray

All three answer exactly the same queries as the tree-based orders; they
differ in cost, never in answers (the differential fuzzer enforces that).
"""

from __future__ import annotations

from bisect import bisect_left

from .core import NodeId, PartialOrderBase, PoError, PoErrorKind
from .incremental import IncrementalPartialOrder
from .sst import INF


class VectorClockPO(PartialOrderBase):
    """Vector clocks with a dense-prefix watermark per chain.

    Row (t, i) stores, per chain s, the largest index j with (s, j)
    reaching (t, i) (-1 when none). Rows exist only for the prefix
    [0, watermark); events past the watermark have no cross in-edges yet,
    so their implicit clock is the last materialized row plus their own
    chain entry. reachable() is then a single row lookup.

    insert_edge materializes BOTH endpoint chains up to the endpoint: the
    source event must own a row too, so that later clock growth below it
    re-propagates over its recorded out-edges.

    Edges cannot be deleted. Re-inserting an already-implied ordering
    changes no row (propagation stops on dominance immediately).
    """

    def __init__(self, k: int, lengths):
        super().__init__(k, lengths)
        self._rows: list[list[list[int]]] = [[] for _ in range(k)]
        # Recorded cross edges by source: _out[t][i] = [(t2, j2), ...]
        self._out: list[dict[int, list[tuple[int, int]]]] = [dict() for _ in range(k)]
        self.row_joins = 0  # counts row-merge operations (propagation work)

    # -- clock plumbing ------------------------------------------------------

    def _materialize(self, t: int, i: int) -> None:
        rows = self._rows[t]
        k = self.k
        while len(rows) <= i:
            j = len(rows)
            if j == 0:
                row = [-1] * k
            else:
                row = rows[j - 1].copy()
            row[t] = j
            rows.append(row)

    # -- updates ---------------------------------------------------------------

    def _insert_edge(self, u: NodeId, v: NodeId) -> None:
        t1, j1 = u
        t2, j2 = v
        self._materialize(t1, j1)
        self._materialize(t2, j2)
        outs = self._out[t1].setdefault(j1, [])
        if v not in outs:
            outs.append((t2, j2))
        src = self._rows[t1][j1]
        self._join_and_propagate(src, t2, j2)

    def _join_and_propagate(self, src_row: list[int], t: int, i: int) -> None:
        work = [(src_row, t, i)]
        rows = self._rows
        out = self._out
        k = self.k
        while work:
            src, t, i = work.pop()
            dst = rows[t][i]
            self.row_joins += 1
            changed = False
            for s in range(k):
                if src[s] > dst[s]:
                    dst[s] = src[s]
                    changed = True
            if not changed:
                continue  # dominance: nothing downstream can change either
            if i + 1 < len(rows[t]):
                work.append((dst, t, i + 1))
            hits = out[t].get(i)
            if hits:
                for t2, j2 in hits:
                    work.append((dst, t2, j2))

    # -- queries ---------------------------------------------------------------

    def _reachable(self, u: NodeId, v: NodeId) -> bool:
        return self._predecessors(v)[u.chain] >= u.index

    def _successor(self, u: NodeId, t2: int):
        # clock(t2, j)[u.chain] is nondecreasing in j: binary-search the
        # materialized prefix for the first row dominating u.
        t1, j1 = u
        rows = self._rows[t2]
        if not rows or rows[-1][t1] < j1:
            return INF
        return bisect_left(rows, j1, key=lambda row: row[t1])

    def _predecessors(self, u: NodeId):
        # u's clock row, without materializing anything.
        t, i = u
        rows = self._rows[t]
        return rows[min(i, len(rows) - 1)] if rows else [-1] * self.k

    # -- introspection -----------------------------------------------------------

    def materialized_rows(self) -> int:
        return sum(len(r) for r in self._rows)


class GraphPO(PartialOrderBase):
    """Adjacency lists plus breadth-first search, one search per query.

    The search walks chain suffixes in covered runs: per chain it remembers
    the lowest index already expanded and never walks an index twice, which
    is the usual dominance pruning for chain DAGs.
    """

    def __init__(self, k: int, lengths):
        super().__init__(k, lengths)
        self._out: list[dict[int, list[tuple[int, int]]]] = [dict() for _ in range(k)]
        self._rev: list[dict[int, list[tuple[int, int]]]] = [dict() for _ in range(k)]

    def _insert_edge(self, u: NodeId, v: NodeId) -> None:
        t1, j1 = u
        t2, j2 = v
        outs = self._out[t1].setdefault(j1, [])
        if (t2, j2) in outs:
            raise PoError(PoErrorKind.DUPLICATE_EDGE, (u, v))
        outs.append((t2, j2))
        self._rev[t2].setdefault(j2, []).append((t1, j1))

    def _delete_edge(self, u: NodeId, v: NodeId) -> None:
        t1, j1 = u
        t2, j2 = v
        outs = self._out[t1].get(j1)
        if not outs or (t2, j2) not in outs:
            raise PoError(PoErrorKind.MISSING_EDGE, (u, v))
        outs.remove((t2, j2))
        if not outs:
            del self._out[t1][j1]
        revs = self._rev[t2][j2]
        revs.remove((t1, j1))
        if not revs:
            del self._rev[t2][j2]

    # -- searches --------------------------------------------------------------

    def _flood_fwd(self, t0: int, i0: int, tt: int = -1, tj: int = -1):
        """covered[t] = least index of chain t reachable from (t0, i0).

        With tt >= 0, returns True as soon as (tt, <= tj) is reached,
        False after exhaustion; otherwise returns the covered list.
        """
        k = self.k
        covered = [INF] * k
        lengths = self.lengths
        out = self._out
        stack = [(t0, i0)]
        while stack:
            t, i = stack.pop()
            hi = covered[t]
            if i >= hi:
                continue
            covered[t] = i
            if tt >= 0 and t == tt and i <= tj:
                return True
            outs = out[t]
            end = lengths[t] if hi == INF else hi
            if outs:
                for j in range(i, end):
                    hits = outs.get(j)
                    if hits:
                        for t2, j2 in hits:
                            if j2 < covered[t2]:
                                stack.append((t2, j2))
        return False if tt >= 0 else covered

    def _flood_bwd(self, t0: int, i0: int):
        """covered[t] = greatest index of chain t reaching (t0, i0), or -1."""
        k = self.k
        covered = [-1] * k
        rev = self._rev
        stack = [(t0, i0)]
        while stack:
            t, i = stack.pop()
            lo = covered[t]
            if i <= lo:
                continue
            covered[t] = i
            revs = rev[t]
            if revs:
                for j in range(i, lo, -1):
                    hits = revs.get(j)
                    if hits:
                        for t1, j1 in hits:
                            if j1 > covered[t1]:
                                stack.append((t1, j1))
        return covered

    def _reachable(self, u: NodeId, v: NodeId) -> bool:
        return self._flood_fwd(u.chain, u.index, v.chain, v.index)

    def _successors(self, u: NodeId):
        return self._flood_fwd(u.chain, u.index)

    def _predecessors(self, u: NodeId):
        return self._flood_bwd(u.chain, u.index)


class DenseMinArray:
    """Suffix minima on a fully materialized heap-layout segment tree.

    Speaks SuffixMinArray's interface (update, min_suffix, argleq, grow,
    density, height, node_count) and its encoding (min_suffix gives inf on
    an empty suffix, argleq -1 when no entry qualifies), but every index of
    the power-of-two span owns a leaf and every interior node exists from
    construction on.
    tree[1] is the root; node n has children 2n and 2n + 1; leaf i sits at
    span + i. Indices are not range-checked: the order validates them.
    """

    __slots__ = ("_span", "_tree")

    def __init__(self, capacity: int):
        span = 1
        while span < capacity:
            span *= 2
        self._span = span
        self._tree = [INF] * (2 * span)

    def update(self, i: int, v) -> None:
        """Set A[i] = v; v = inf clears the entry."""
        tree = self._tree
        n = self._span + i
        tree[n] = v
        n >>= 1
        while n:
            l = tree[2 * n]
            r = tree[2 * n + 1]
            m = l if l <= r else r
            if tree[n] == m:
                break
            tree[n] = m
            n >>= 1

    def min_suffix(self, i: int):
        """min A[i:]; inf when the suffix holds no entry."""
        tree = self._tree
        res = INF
        lo = self._span + i
        hi = 2 * self._span
        while lo < hi:
            if lo & 1:
                if tree[lo] < res:
                    res = tree[lo]
                lo += 1
            if hi & 1:
                hi -= 1
                if tree[hi] < res:
                    res = tree[hi]
            lo >>= 1
            hi >>= 1
        return res

    def argleq(self, v) -> int:
        """Largest index whose entry is <= v; -1 when no entry qualifies."""
        tree = self._tree
        if tree[1] > v:
            return -1
        span = self._span
        n = 1
        while n < span:
            r = 2 * n + 1
            n = r if tree[r] <= v else 2 * n
        return n - span

    def grow(self, new_capacity: int) -> None:
        """Widen the span to cover new_capacity, keeping every leaf."""
        span = self._span
        if new_capacity <= span:
            return
        new_span = span
        while new_span < new_capacity:
            new_span *= 2
        tree = [INF] * (2 * new_span)
        tree[new_span : new_span + span] = self._tree[span : 2 * span]
        for n in range(new_span - 1, 0, -1):
            l = tree[2 * n]
            r = tree[2 * n + 1]
            tree[n] = l if l <= r else r
        self._span = new_span
        self._tree = tree

    def density(self) -> int:
        """Number of live (non-inf) leaves, counted by a scan."""
        return sum(1 for v in self._tree[self._span :] if v != INF)

    def height(self) -> int:
        """Depth of the leaves: log2 of the span."""
        return self._span.bit_length() - 1

    def node_count(self) -> int:
        """Allocated tree nodes: always 2 * span - 1."""
        return 2 * self._span - 1


class PlainStPO(IncrementalPartialOrder):
    """csst-inc's closure over DenseMinArray in place of SuffixMinArray.

    Insert, query and grow are inherited unchanged, so answers are identical;
    the footprint is what differs, which node_count() exposes.
    """

    @staticmethod
    def _new_array(capacity: int) -> DenseMinArray:
        return DenseMinArray(capacity)
