"""Sparse segment tree over the suffix minima of a mostly-empty array.

Maintains A: [0, capacity) -> {0, 1, 2, ...} u {inf} under point updates and
two queries:

    min_suffix(i) = min A[i:]
    argleq(v)     = max { i : A[i] <= v }   (-1 when no entry qualifies)

Entries with value inf are absent. A query over no entry answers with the
identity of its fold: inf for a minimum, -1 for a largest index. The tree
is lazy and path-compressed: nodes exist only where entries do, and
single-child chains are collapsed. There is one node kind, and each node
owns exactly one live entry, so node_count() == density() and an empty
array owns zero nodes.

Every node covers an aligned power-of-two index range and carries the pair
(min, pos) where min is the smallest entry value stored in its subtree and
pos the largest index attaining it; that pair is the entry the node owns,
so a node's pair never duplicates an ancestor's. A node stores its range
as (mid, end): mid is the last index of its left half (mid == end for a
one-index node), and start is derived from the two. Every descent reads
mid as stored; none recomputes the split. No range is fixed in advance:
the root is the lowest aligned range over the entries it has held, so
grow only raises capacity and changes no node. Both queries descend one
root-to-leaf path and can stop early as soon as the carried pair already
decides the answer, which is what makes point operations O(min(log n, d))
for d live entries.

Instances are single-writer: no concurrent mutation, and no concurrent
queries during a mutation.
"""

from __future__ import annotations

import math

INF = math.inf


class SstNode:
    """One tree node covering the aligned index range [start, end]: the
    (min, pos) pair it owns plus up to two children.

    The range is stored as (mid, end), where mid is the split index (the
    last index of the left half, or end itself for a one-index node), so a
    descent reads mid instead of recomputing it. start is derived; no hot
    path reads it."""

    __slots__ = ("mid", "end", "min", "pos", "left", "right")

    def __init__(self, mid: int, end: int, mn, pos: int):
        self.mid = mid
        self.end = end
        self.min = mn
        self.pos = pos
        self.left: SstNode | None = None
        self.right: SstNode | None = None

    @property
    def start(self) -> int:
        mid, end = self.mid, self.end
        return end if mid == end else 2 * mid - end + 1


def _better(mn_a, pos_a: int, mn_b, pos_b: int) -> bool:
    """True when pair a should sit above pair b: smaller value wins, equal
    values prefer the larger index (so min_suffix can stop early as often
    as possible)."""
    return mn_a < mn_b or (mn_a == mn_b and pos_a > pos_b)


class SuffixMinArray:
    """Sparse suffix-minima structure; see module docstring."""

    # _top is max(capacity, 1), min_suffix's exclusive index bound: index 0
    # stays valid on a capacity-0 array (its empty suffix has minimum inf).
    __slots__ = ("capacity", "_top", "_root", "_density")

    def __init__(self, capacity: int):
        if capacity < 0:
            raise ValueError("capacity must be >= 0")
        self.capacity = capacity
        self._top = max(capacity, 1)
        self._root: SstNode | None = None
        self._density = 0

    # -- queries -------------------------------------------------------------

    def min_suffix(self, i: int):
        """min A[i:]; inf when the suffix holds no entry."""
        if not 0 <= i < self._top:
            raise IndexError(f"index {i} out of range 0..{self.capacity - 1}")
        res = INF
        nd = self._root
        while nd is not None and i <= nd.end:
            if nd.pos >= i:
                # The carried minimum lies inside the suffix; nothing in
                # this subtree can beat it.
                m = nd.min
                return m if m < res else res
            if i <= nd.mid:
                r = nd.right
                if r is not None and r.min < res:
                    res = r.min
                nd = nd.left
            else:
                nd = nd.right
        return res

    def argleq(self, v) -> int:
        """Largest index whose entry is <= v; -1 when no entry qualifies."""
        best = -1
        nd = self._root
        while nd is not None and nd.min <= v:
            if nd.pos > best:
                best = nd.pos
            l, r = nd.left, nd.right
            if nd.pos >= (l.end if l is not None else -1) and nd.pos >= (
                r.end if r is not None else -1
            ):
                # The carried pair sits at or beyond every stored index in
                # this subtree, so it is already the rightmost candidate.
                break
            if r is not None and r.min <= v:
                nd = r
            else:
                nd = l
        return best

    def density(self) -> int:
        """Number of live (non-inf) entries."""
        return self._density

    def height(self) -> int:
        """Maximum node depth in edges; 0 for an empty or single-node tree."""
        if self._root is None:
            return 0
        h = 0
        stack = [(self._root, 0)]
        while stack:
            nd, d = stack.pop()
            if d > h:
                h = d
            if nd.left is not None:
                stack.append((nd.left, d + 1))
            if nd.right is not None:
                stack.append((nd.right, d + 1))
        return h

    def node_count(self) -> int:
        """Number of allocated nodes, found by walking the tree."""
        if self._root is None:
            return 0
        n = 0
        stack = [self._root]
        while stack:
            nd = stack.pop()
            n += 1
            if nd.left is not None:
                stack.append(nd.left)
            if nd.right is not None:
                stack.append(nd.right)
        return n

    def value_at(self, i: int):
        """Current entry at index i, inf when absent (point lookup)."""
        if not 0 <= i < self.capacity:
            raise IndexError(f"index {i} out of range 0..{self.capacity - 1}")
        # A subtree that does not cover i owns no entry at i, so descending
        # by mid until pos == i or the path ends needs no containment test.
        nd = self._root
        while nd is not None:
            if nd.pos == i:
                return nd.min
            nd = nd.left if i <= nd.mid else nd.right
        return INF

    def entries(self) -> dict[int, object]:
        """Snapshot {index: value} of all live entries (test/debug aid)."""
        out: dict[int, object] = {}
        if self._root is None:
            return out
        stack = [self._root]
        while stack:
            nd = stack.pop()
            out[nd.pos] = nd.min
            if nd.left is not None:
                stack.append(nd.left)
            if nd.right is not None:
                stack.append(nd.right)
        return out

    # -- updates -------------------------------------------------------------

    def update(self, i: int, v) -> None:
        """Set A[i] = v; v = inf removes the entry."""
        if not 0 <= i < self.capacity:
            raise IndexError(f"index {i} out of range 0..{self.capacity - 1}")
        if v != INF and not (isinstance(v, int) and v >= 0):
            raise ValueError("value must be a nonnegative int or inf")
        if self._delete_entry(i):
            self._density -= 1
        if v == INF:
            return
        self._density += 1
        self._insert(v, i)

    def grow(self, new_capacity: int) -> None:
        """Raise capacity; no node changes, so entries keep their indices,
        values and places."""
        if new_capacity < self.capacity:
            raise ValueError("grow cannot shrink")
        self.capacity = new_capacity
        self._top = max(new_capacity, 1)

    # -- internals -------------------------------------------------------------

    def _insert(self, val, pos: int) -> None:
        """Place a fresh entry at an index that holds none. Every link, the
        root included, follows one rule: a link with no node takes a
        one-index node; a node that covers the carried index passes it down;
        one that does not is glued to it under their lowest common range."""
        parent: SstNode | None = None
        on_left = False
        nd = self._root
        # pos lies in nd's range when it is at most size - 1 below end; size
        # is (end - mid) * 2, or 1 for a one-index node.
        while nd is not None and 0 <= nd.end - pos < ((nd.end - nd.mid) * 2 or 1):
            if _better(val, pos, nd.min, nd.pos):
                nd.min, nd.pos, val, pos = val, pos, nd.min, nd.pos
            parent, on_left = nd, pos <= nd.mid
            nd = nd.left if on_left else nd.right
        if nd is None:
            nd = SstNode(pos, pos, val, pos)
        else:
            nd = self._merge_under_lca(nd, val, pos)
        if parent is None:
            self._root = nd
        elif on_left:
            parent.left = nd
        else:
            parent.right = nd

    def _merge_under_lca(self, child: SstNode, val, pos: int) -> SstNode:
        """Glue a subtree and a new entry outside its range under their
        lowest common aligned range; returns the new subtree root."""
        size = (child.end - child.mid) * 2 or 1
        lo = child.end - size + 1
        while not (lo <= pos <= lo + size - 1):
            size *= 2
            lo = (lo // size) * size
        # Minimality of the doubling puts child and pos in different halves.
        mid = lo + size // 2 - 1
        lca = SstNode(mid, lo + size - 1, 0, 0)
        child_on_left = child.end <= mid
        if _better(val, pos, child.min, child.pos):
            lca.min, lca.pos = val, pos
            if child_on_left:
                lca.left = child
            else:
                lca.right = child
        else:
            lca.min, lca.pos = child.min, child.pos
            kept = None if self._refill(child) else child
            fresh = SstNode(pos, pos, val, pos)
            if child_on_left:
                lca.left = kept
                lca.right = fresh
            else:
                lca.right = kept
                lca.left = fresh
        return lca

    def _refill(self, nd: SstNode) -> bool:
        """nd's own pair was taken away; pull the best descendant pair up the
        chain. True iff nd itself ends up holding nothing (caller unlinks)."""
        cur = nd
        parent: SstNode | None = None
        while True:
            l, r = cur.left, cur.right
            best = l
            if r is not None and (
                best is None or _better(r.min, r.pos, best.min, best.pos)
            ):
                best = r
            if best is None:
                if parent is None:
                    return True
                # An interior node emptied mid-chain: unlink it.
                if parent.left is cur:
                    parent.left = None
                else:
                    parent.right = None
                return False
            cur.min, cur.pos = best.min, best.pos
            parent, cur = cur, best

    def _delete_entry(self, i: int) -> bool:
        """Remove the entry at index i if present; True when something was
        removed."""
        nd = self._root
        parent: SstNode | None = None
        on_left = False
        # As in value_at: a subtree that does not cover i owns no entry at i.
        while nd is not None:
            if nd.pos == i:
                break
            parent = nd
            on_left = i <= nd.mid
            nd = nd.left if on_left else nd.right
        else:
            return False
        if self._refill(nd):
            # Unlink the node that now holds nothing.
            if parent is None:
                self._root = None
            elif on_left:
                parent.left = None
            else:
                parent.right = None
        return True
