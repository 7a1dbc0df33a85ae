"""Machine-speed calibration for the timed metrics.

On a shared machine the same code can run 40% faster or slower from one
minute to the next, in phases that last seconds, and CPU time moves with
wall time. A run therefore times a fixed calibration kernel between chunks
of ops and scales each chunk's times to the reference speed, at which one
kernel pass takes exactly REFERENCE_NS.

The kernel is written to resemble the csst hot path. One half descends
trees of slotted nodes with block leaves, as `SuffixMinArray.min_suffix`
does, over 90 trees as in a k=10 order. The other half validates
NamedTuple node ids against chain lengths and scans short slot lists per
chain, as the public queries and the closure in `dynamic` do. It shares no
code with csst, so a change to csst moves the scaled times and leaves the
kernel alone.
"""

from __future__ import annotations

import random
import statistics
from time import perf_counter_ns
from typing import NamedTuple

REFERENCE_NS = 1_500_000
WINDOW = 5  # kernel passes the speed estimate is the median of
INF = float("inf")


class _Node:
    __slots__ = ("start", "end", "min", "pos", "left", "right", "block")

    def __init__(self, start, end, mn, pos):
        self.start, self.end, self.min, self.pos = start, end, mn, pos
        self.left = self.right = self.block = None


def _tree(rng: random.Random, lo: int, hi: int):
    nd = _Node(lo, hi, rng.randrange(5000), rng.randint(lo, hi))
    if hi - lo > 32:
        mid = (lo + hi) // 2
        if rng.random() < 0.8:
            nd.left = _tree(rng, lo, mid)
        if rng.random() < 0.8:
            nd.right = _tree(rng, mid + 1, hi)
    else:
        nd.block = [rng.randrange(5000) if rng.random() < 0.5 else INF for _ in range(32)]
    return nd


def _descend(nd, i):
    res = INF
    while nd is not None and i <= nd.end:
        if nd.pos >= i:
            m = nd.min
            return m if m < res else res
        if nd.block is not None:
            for v in nd.block[i - nd.start if i > nd.start else 0:]:
                if v < res:
                    res = v
            return res
        if i <= nd.start + (nd.end - nd.start) // 2:
            r = nd.right
            if r is not None and r.min < res:
                res = r.min
            nd = nd.left
        else:
            nd = nd.right
    return res


class _Id(NamedTuple):
    chain: int
    index: int


class _Chains:
    __slots__ = ("k", "lengths", "slots")

    def __init__(self, rng: random.Random, k: int):
        self.k = k
        self.lengths = [64] * k
        self.slots = [[rng.randrange(64) if rng.random() < 0.3 else INF for _ in range(32)]
                      for _ in range(k * k)]

    def _check(self, u: _Id) -> None:
        if not (0 <= u.chain < self.k) or not (0 <= u.index < self.lengths[u.chain]):
            raise IndexError(u)

    def reach(self, u: _Id, v: _Id) -> bool:
        self._check(u)
        self._check(v)
        k = self.k
        best = [INF] * k
        for t in range(k):
            blk = self.slots[u.chain * k + t]
            res = INF
            for off in range(u.index % 32, len(blk)):
                x = blk[off]
                if x < res:
                    res = x
            best[t] = res
        return best[v.chain] <= v.index


class Calibration:
    """Times kernel passes and turns the recent ones into a speed factor."""

    def __init__(self):
        rng = random.Random(20240326)  # fixed: the kernel is the same on every run
        roots = [_tree(rng, 0, 8191) for _ in range(90)]
        self._keys = [(roots[rng.randrange(90)], rng.randrange(8192)) for _ in range(1024)]
        self._chains = _Chains(rng, 4)
        ids = [_Id(rng.randrange(4), rng.randrange(64)) for _ in range(200)]
        self._pairs = list(zip(ids[::2], ids[1::2]))
        self._recent: list[int] = []
        self.factors: list[float] = []
        for _ in range(WINDOW):
            self.sample()

    def sample(self) -> float:
        """Time one kernel pass; returns the factor that scales times just
        measured to the reference speed."""
        descend = _descend
        reach = self._chains.reach
        t0 = perf_counter_ns()
        for root, i in self._keys:
            descend(root, i)
        for u, v in self._pairs:
            reach(u, v)
        self._recent.append(perf_counter_ns() - t0)
        del self._recent[:-WINDOW]
        f = REFERENCE_NS / statistics.median(self._recent)
        self.factors.append(f)
        return f
