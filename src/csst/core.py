"""Shared vocabulary for partial orders over collections of chains.

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


def out_of_range(*nodes: NodeId, detail: str = "") -> PoError:
    return PoError(PoErrorKind.OUT_OF_RANGE, nodes, detail)


def same_chain_update(u: NodeId, v: NodeId) -> PoError:
    return PoError(PoErrorKind.SAME_CHAIN_UPDATE, (u, v))


def duplicate_edge(u: NodeId, v: NodeId) -> PoError:
    return PoError(PoErrorKind.DUPLICATE_EDGE, (u, v))


def missing_edge(u: NodeId, v: NodeId) -> PoError:
    return PoError(PoErrorKind.MISSING_EDGE, (u, v))


def delete_unsupported(u: NodeId, v: NodeId) -> PoError:
    return PoError(PoErrorKind.DELETE_UNSUPPORTED, (u, v))


def cycle_detected(u: NodeId, v: NodeId) -> PoError:
    return PoError(PoErrorKind.CYCLE_DETECTED, (u, v))


class PartialOrderBase:
    """Common validation and trivia shared by every order implementation.

    Subclasses maintain self.lengths (list[int], current chain lengths) and
    implement _insert_edge, _delete_edge, _successor, _predecessor, and
    optionally _grow. The base handles argument validation, the same-chain
    trivial cases, and reachable()'s reduction to successor().
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
            raise out_of_range(u)

    def _check_chain(self, t: int) -> None:
        if not (0 <= t < self.k):
            raise out_of_range(NodeId(t, 0), detail="no such chain")

    # -- public interface ----------------------------------------------------

    def insert_edge(self, u: NodeId, v: NodeId) -> None:
        """Record the cross-chain ordering u before v."""
        self._check_node(u)
        self._check_node(v)
        if u.chain == v.chain:
            raise same_chain_update(u, v)
        self._insert_edge(u, v)

    def delete_edge(self, u: NodeId, v: NodeId) -> None:
        """Remove one previously inserted copy of the edge u -> v."""
        self._check_node(u)
        self._check_node(v)
        if u.chain == v.chain:
            raise same_chain_update(u, v)
        self._delete_edge(u, v)

    def successor(self, u: NodeId, t2: int) -> int | None:
        """Smallest index j with u reaching (t2, j), or None.

        Within u's own chain the answer is u.index itself (u reaches u).
        """
        self._check_node(u)
        self._check_chain(t2)
        if t2 == u.chain:
            return u.index
        return self._successor(u, t2)

    def predecessor(self, u: NodeId, t1: int) -> int | None:
        """Largest index j with (t1, j) reaching u, or None."""
        self._check_node(u)
        self._check_chain(t1)
        if t1 == u.chain:
            return u.index
        return self._predecessor(u, t1)

    def reachable(self, u: NodeId, v: NodeId) -> bool:
        """True iff u precedes-or-equals v in the current order."""
        self._check_node(u)
        self._check_node(v)
        if u.chain == v.chain:
            return u.index <= v.index
        s = self._successor(u, v.chain)
        return s is not None and s <= v.index

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
        raise NotImplementedError

    def _successor(self, u: NodeId, t2: int) -> int | None:
        raise NotImplementedError

    def _predecessor(self, u: NodeId, t1: int) -> int | None:
        raise NotImplementedError

    def _grow(self, chain: int, new_len: int) -> None:
        # Default: nothing beyond the length bump in grow().
        return
