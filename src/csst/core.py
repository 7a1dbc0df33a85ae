"""Shared vocabulary for partial orders over collections of chains, and the
base class of the orders kept as one array per ordered chain pair.

Events are arranged in k chains (totally ordered sequences, e.g. per-thread
histories). A node is addressed by a (chain, index) pair. Within a chain,
node (t, i) always precedes (t, i+1); cross-chain edges are added and removed
explicitly. All order implementations in this package speak the interface
defined here.

Concurrency model: instances are single-writer. Mutating calls and queries
must not overlap from multiple threads; queries may also reuse per-instance
scratch state, so even concurrent read-only access is unsupported.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

from .sst import INF, SuffixMinArray


class NodeId(NamedTuple):
    """Address of one event: chain number and position within the chain."""

    chain: int
    index: int


class PoErrorKind(enum.Enum):
    OUT_OF_RANGE = "OutOfRange"
    SAME_CHAIN_UPDATE = "SameChainUpdate"
    DUPLICATE_EDGE = "DuplicateEdge"
    MISSING_EDGE = "MissingEdge"
    DELETE_UNSUPPORTED = "DeleteUnsupported"
    CYCLE_DETECTED = "CycleDetected"


class PoError(Exception):
    """Structured failure raised by partial-order operations.

    kind identifies the failure; nodes carries the offending NodeId(s) so
    callers (and the CLI) can report exactly which operands were bad.
    """

    def __init__(self, kind: PoErrorKind, nodes: tuple[NodeId, ...], detail: str = ""):
        self.kind = kind
        self.nodes = nodes
        msg = f"{kind.value}: {', '.join(map(str, nodes))}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class PartialOrderBase:
    """Common validation and trivia shared by every order implementation.

    The base keeps self.lengths (list[int], current chain lengths): it sets
    it in __init__, and grow updates it after the subclass's _grow has run.
    Subclasses implement _insert_edge and optionally _delete_edge and
    _grow. The base handles argument validation and the same-chain trivial
    cases; the query hooks see only valid cross-chain queries. An order
    that does not implement _delete_edge is insert-only: the base's raises
    DeleteUnsupported on every valid cross-chain delete, and the fuzzer
    reads insert-only from exactly that.
    Of each query pair, _successor/_successors and
    _predecessor/_predecessors, a backend overrides at least one: the one
    it answers natively. The base derives the other: a single entry is one
    slot of the row, and a row is one single-entry call per other chain.
    An order that overrides neither of a pair recurses without end.
    _reachable defaults to one _successor call.

    Hooks answer in one encoding, the identity of the query's fold on an
    empty set: _successor and _successors give inf where u reaches nothing,
    _predecessor and _predecessors give -1 where nothing reaches u. A row
    hook's own slot (u's chain) holds a number of no meaning, and the caller
    must not mutate the row it gets. The public methods alone turn inf and
    -1 into None and write u.index into a row's own slot.
    """

    def __init__(self, k: int, lengths: list[int] | tuple[int, ...]):
        if k < 1:
            raise ValueError("need at least one chain")
        if len(lengths) != k:
            raise ValueError("lengths must have one entry per chain")
        if any(n < 0 for n in lengths):
            raise ValueError("chain lengths must be >= 0")
        self.k = k
        self.lengths = list(lengths)

    # -- validation helpers ------------------------------------------------

    def _check_node(self, u: NodeId) -> None:
        if not (0 <= u.chain < self.k) or not (0 <= u.index < self.lengths[u.chain]):
            raise PoError(PoErrorKind.OUT_OF_RANGE, (u,))

    def _check_chain(self, t: int) -> None:
        if not (0 <= t < self.k):
            raise PoError(PoErrorKind.OUT_OF_RANGE, (NodeId(t, 0),), "no such chain")

    # -- public interface ----------------------------------------------------

    def insert_edge(self, u: NodeId, v: NodeId) -> None:
        """Record the cross-chain ordering u before v."""
        self._check_node(u)
        self._check_node(v)
        if u.chain == v.chain:
            raise PoError(PoErrorKind.SAME_CHAIN_UPDATE, (u, v))
        self._insert_edge(u, v)

    def delete_edge(self, u: NodeId, v: NodeId) -> None:
        """Remove the previously inserted edge u -> v."""
        self._check_node(u)
        self._check_node(v)
        if u.chain == v.chain:
            raise PoError(PoErrorKind.SAME_CHAIN_UPDATE, (u, v))
        self._delete_edge(u, v)

    def successor(self, u: NodeId, t2: int) -> int | None:
        """Smallest index j with u reaching (t2, j), or None.

        Within u's own chain the answer is u.index itself (u reaches u).
        """
        self._check_node(u)
        self._check_chain(t2)
        if t2 == u.chain:
            return u.index
        r = self._successor(u, t2)
        return None if r == INF else r

    def predecessor(self, u: NodeId, t1: int) -> int | None:
        """Largest index j with (t1, j) reaching u, or None."""
        self._check_node(u)
        self._check_chain(t1)
        if t1 == u.chain:
            return u.index
        r = self._predecessor(u, t1)
        return None if r < 0 else r

    def successors(self, u: NodeId) -> list[int | None]:
        """successor(u, t) for every chain t, as one k-list: u's own chain
        holds u.index, and a chain u reaches nothing on holds None."""
        self._check_node(u)
        row = [None if r == INF else r for r in self._successors(u)]
        row[u.chain] = u.index
        return row

    def predecessors(self, u: NodeId) -> list[int | None]:
        """predecessor(u, t) for every chain t, as one k-list: u's own chain
        holds u.index, and a chain with nothing reaching u holds None."""
        self._check_node(u)
        row = [None if r < 0 else r for r in self._predecessors(u)]
        row[u.chain] = u.index
        return row

    def reachable(self, u: NodeId, v: NodeId) -> bool:
        """True iff u precedes-or-equals v in the current order."""
        self._check_node(u)
        self._check_node(v)
        if u.chain == v.chain:
            return u.index <= v.index
        return self._reachable(u, v)

    def grow(self, chain: int, new_len: int) -> None:
        """Extend one chain to new_len events (never shrinks)."""
        self._check_chain(chain)
        if new_len < self.lengths[chain]:
            raise ValueError("grow cannot shrink a chain")
        if new_len == self.lengths[chain]:
            return
        self._grow(chain, new_len)
        self.lengths[chain] = new_len

    # -- hooks ---------------------------------------------------------------

    def _insert_edge(self, u: NodeId, v: NodeId) -> None:
        raise NotImplementedError

    def _delete_edge(self, u: NodeId, v: NodeId) -> None:
        raise PoError(PoErrorKind.DELETE_UNSUPPORTED, (u, v))

    def _successor(self, u: NodeId, t2: int):
        return self._successors(u)[t2]

    def _predecessor(self, u: NodeId, t1: int):
        return self._predecessors(u)[t1]

    def _successors(self, u: NodeId):
        # Default: one _successor per other chain.
        return [u.index if t == u.chain else self._successor(u, t) for t in range(self.k)]

    def _predecessors(self, u: NodeId):
        return [u.index if t == u.chain else self._predecessor(u, t) for t in range(self.k)]

    def _reachable(self, u: NodeId, v: NodeId) -> bool:
        return self._successor(u, v.chain) <= v.index

    def _grow(self, chain: int, new_len: int) -> None:
        # Default: nothing beyond the length bump in grow().
        return


class ChainPairOrder(PartialOrderBase):
    """An order kept as one suffix-minima array per ordered chain pair.

    arrays[t1 * k + t2] is indexed by positions of chain t1 (so its capacity
    follows chain t1's length); what an entry means is up to the subclass.
    Diagonal slots stay None: same-chain answers are trivial.
    """

    def __init__(self, k: int, lengths):
        super().__init__(k, lengths)
        self.arrays: list[SuffixMinArray | None] = [
            self._new_array(self.lengths[t1]) if t1 != t2 else None
            for t1 in range(k)
            for t2 in range(k)
        ]

    @staticmethod
    def _new_array(capacity: int) -> SuffixMinArray:
        """Build one chain-pair array; subclasses swap the array type here."""
        return SuffixMinArray(capacity)

    def _grow(self, chain: int, new_len: int) -> None:
        base = chain * self.k
        for t in range(self.k):
            if t != chain:
                self.arrays[base + t].grow(new_len)

    # -- introspection -----------------------------------------------------------

    def node_count(self) -> int:
        """Total allocated tree nodes across all chain-pair arrays."""
        return sum(a.node_count() for a in self.arrays if a is not None)

    def density_max(self) -> int:
        """Largest live-entry count among the chain-pair arrays."""
        return max((a.density() for a in self.arrays if a is not None), default=0)

    def height_max(self) -> int:
        return max((a.height() for a in self.arrays if a is not None), default=0)
