"""Runtime spans around the public functions of each csst layer.

The tracer replaces functions on their classes or modules while it is
installed and puts the originals back when removed; nothing under `src/`
knows about it. Spans live in flat in-memory arrays until `write`, one
entry per call: name, start, end, parent span (-1 at top level) and whether
the call raised.
A span's self time is its duration minus the durations of its children.
"""

from __future__ import annotations

import gzip
from array import array
from time import perf_counter_ns

from csst import DynamicPartialOrder, IncrementalPartialOrder, SuffixMinArray
from csst import harness, satcheck

ORDER_METHODS = ("insert_edge", "delete_edge", "reachable", "successor", "predecessor")
DYN_QUERIES = ("reachable", "successor", "predecessor")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name = array("b")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("l")
        self.raised = bytearray()
        self.stack = [-1]
        # Closure rounds of every cross-chain csst-dyn query, in call order.
        self.rounds: list[int] = []
        # The csst-dyn instance seen last, for state counters inside satcheck.
        self.last_dyn = None
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for fn in ("update", "min_suffix", "argleq"):
            self._wrap(SuffixMinArray, fn, f"sst.{fn}")
        for fn in ORDER_METHODS:
            after = self._dyn_query_done if fn in DYN_QUERIES else self._dyn_done
            self._wrap(DynamicPartialOrder, fn, f"dynamic.{fn}", after)
            self._wrap(IncrementalPartialOrder, fn, f"incremental.{fn}")
        self._wrap(satcheck, "check", "satcheck.check")
        self._wrap(harness, "parse_trace", "harness.parse_trace")

    def remove(self) -> None:
        for owner, attr, orig in reversed(self._saved):
            if orig is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, orig)
        self._saved.clear()

    def __len__(self) -> int:
        return len(self.start)

    def _wrap(self, owner, attr: str, name: str, after=None) -> None:
        fn = getattr(owner, attr)
        self._saved.append((owner, attr, owner.__dict__.get(attr)))
        nid = len(self.names)
        self.names.append(name)
        names, starts, ends, parents, raised = (
            self.name, self.start, self.end, self.parent, self.raised)
        stack = self.stack

        def traced(*args):
            i = len(starts)
            names.append(nid)
            starts.append(0)
            ends.append(0)
            parents.append(stack[-1])
            raised.append(0)
            stack.append(i)
            t0 = perf_counter_ns()
            try:
                result = fn(*args)
            except BaseException:
                raised[i] = 1
                raise
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                starts[i] = t0
                ends[i] = t1
            if after is not None:
                after(args)
            return result

        setattr(owner, attr, traced)

    def _dyn_done(self, args) -> None:
        self.last_dyn = args[0]

    def _dyn_query_done(self, args) -> None:
        po, u, target = args
        self.last_dyn = po
        # reachable takes a node, successor/predecessor a chain number;
        # same-chain calls return before the closure runs.
        chain = target.chain if isinstance(target, tuple) else target
        if chain != u.chain:
            self.rounds.append(po.last_closure_rounds)

    def write(self, path) -> None:
        """Spans as gzipped tab-separated text, one line per span: name id,
        start and duration in ns from the first span, parent line (-1 at
        top level) and 1 when the call raised. The header lists the names."""
        t0 = self.start[0] if len(self) else 0
        with gzip.open(path, "wt", encoding="ascii", compresslevel=1) as fh:
            fh.write("# names: " + " ".join(f"{i}={n}" for i, n in enumerate(self.names)) + "\n")
            fh.write("# name\tstart_ns\tdur_ns\tparent\traised\n")
            for i in range(len(self)):
                fh.write(f"{self.name[i]}\t{self.start[i] - t0}\t{self.end[i] - self.start[i]}"
                         f"\t{self.parent[i]}\t{self.raised[i]}\n")


class SpanStats:
    """Per-name totals over the spans from index `first` on."""

    def __init__(self, tr: Tracer, first: int = 0):
        n = len(tr)
        dur = [tr.end[i] - tr.start[i] for i in range(n)]
        child = [0] * n
        for i in range(first, n):
            p = tr.parent[i]
            if p >= 0:
                child[p] += dur[i]
        k = len(tr.names)
        self.calls = [0] * k
        self.raised = [0] * k
        self.total_ns = [0] * k
        self.self_ns = [0] * k
        # (parent name, child name) -> calls, for calls made directly inside
        # another traced call.
        self.nested: dict[tuple[str, str], int] = {}
        self.nested_ns: dict[tuple[str, str], int] = {}
        for i in range(first, n):
            nid = tr.name[i]
            self.calls[nid] += 1
            self.raised[nid] += tr.raised[i]
            self.total_ns[nid] += dur[i]
            self.self_ns[nid] += dur[i] - child[i]
            p = tr.parent[i]
            if p >= 0:
                key = (tr.names[tr.name[p]], tr.names[nid])
                self.nested[key] = self.nested.get(key, 0) + 1
                self.nested_ns[key] = self.nested_ns.get(key, 0) + dur[i]
        self.index = {name: i for i, name in enumerate(tr.names)}

    def count(self, name: str) -> int:
        return self.calls[self.index[name]]

    def mean_ns(self, name: str) -> float:
        i = self.index[name]
        return self.total_ns[i] / self.calls[i] if self.calls[i] else 0.0

    def self_ns_of(self, prefix: str) -> int:
        return sum(s for name, s in zip(self.index, self.self_ns) if name.startswith(prefix))

    def nested_count(self, parent: str, child_prefix: str) -> int:
        return sum(n for (p, c), n in self.nested.items()
                   if p == parent and c.startswith(child_prefix))

    def nested_total_ns(self, parent: str, child_prefix: str) -> int:
        return sum(n for (p, c), n in self.nested_ns.items()
                   if p == parent and c.startswith(child_prefix))
