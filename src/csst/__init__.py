"""Partial orders over collections of chains, maintained under edge updates.

Layers, roughly bottom to top:

    sst          sparse suffix-minima tree (the core index structure)
    core         NodeId / error vocabulary shared by all order variants,
                 and the chain-pair base of incremental, dynamic and st
    incremental  insert-only order, one O(min(log n, d)) array call per query
    dynamic      insert + delete order, small per-query fixpoint
    baselines    vector clocks, plain BFS graph, and csst-inc's closure
                 over dense segment trees
    oracle       brute-force arbiter for differential testing
    harness      op-log replay, fuzzing, benchmarking
    satcheck     trace consistency checking by order saturation
    cli          the `csst` command line
"""

from .core import (
    NodeId,
    PartialOrderBase,
    PoError,
    PoErrorKind,
)
from .sst import INF, SuffixMinArray
from .incremental import IncrementalPartialOrder
from .dynamic import DynamicPartialOrder
from .baselines import GraphPO, PlainStPO, VectorClockPO
from .oracle import BruteForcePartialOrder

__version__ = "0.1.0"

__all__ = [
    "NodeId",
    "PartialOrderBase",
    "PoError",
    "PoErrorKind",
    "INF",
    "SuffixMinArray",
    "IncrementalPartialOrder",
    "DynamicPartialOrder",
    "GraphPO",
    "PlainStPO",
    "VectorClockPO",
    "BruteForcePartialOrder",
]
