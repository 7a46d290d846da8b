"""Host-speed calibration: host seconds expressed in reference seconds.

The bench host's speed drifts: level shifts of 20-40% that last minutes,
as other tenants come and go.  Medians over longer runs cannot remove a
shift that outlasts the run, so each measured pass is bracketed by
probes of a fixed reference workload — interpreter work of the kind the
simulator does (dict and set traffic, tuple hashing, sorting, an event
heap of float-timed closures, breadth-first search over objects) — and
the pass's host seconds are multiplied by ``REFERENCE_S / probe``.  A slow
period slows the probe as much as the pass and cancels; a change in the
program's own cost does not touch the probe and shows in full.

The garbage collector is off while the probe runs, so the program's heap
cannot change the probe's cost, and the probe keeps its structures small
(about 2 MB at its peak), below any workload's peak RSS.  A probe must run
where the pass runs: in the benchmark process for a scenario, and in
every worker at once for the sweep.

One blind spot: work the program leaves running in this process or on
the host between passes (a spinning thread, a stray child) slows the
probe too, and would cancel.  The raw host-second figures are printed
with every result for that reason.
"""

from __future__ import annotations

import gc
import heapq
import statistics
from collections import deque
from time import perf_counter
from typing import Optional

#: About the median of :func:`probe_seconds` on the 2-CPU bench host
#: (Python 3.11.7) when it is not slowed.  It only fixes the unit: a host
#: running at this speed reports reference seconds equal to its own.
REFERENCE_S = 0.0258


class _Node:
    """A graph vertex with instance attributes, as the simulator's are.
    Neighbours are held by index, so the probe leaves no reference cycles
    for the collector to find in the measured pass."""

    def __init__(self, ident: int) -> None:
        self.ident = ident
        self.out: list = []
        self.visits = 0


def _reference_work() -> int:
    # Small structures worked hard: the probe must add next to nothing to
    # the process's peak RSS, which the benchmark reports.
    counts: dict = {}
    for i in range(40_000):
        key = (i * 7919) % 5003
        counts[key] = counts.get(key, 0) + 1
    ranked = sorted(counts.items(), key=lambda item: (-item[1], item[0]))
    pairs = 0
    for round_ in range(3):
        table = {(i % 97, i % 89): i for i in range(4_000)}
        pairs += len(table) + round_
    members = frozenset(range(0, 3000, 3))
    hits = sum(1 for i in range(3000) if i in members)
    # Event-heap traffic with float times and closures, as a timed run has.
    fired = []
    for round_ in range(3):
        heap: list = []
        for i in range(2_000):
            heapq.heappush(heap, ((i * 0.37) % 11.0, i, lambda t, i=i: fired.append(t + i)))
        while heap:
            at, _, callback = heapq.heappop(heap)
            callback(at * 1.0005)
    # Breadth-first searches over a hypercube of objects, as routing and
    # planning do.
    nodes = [_Node(i) for i in range(1024)]
    for node in nodes:
        node.out = [node.ident ^ (1 << bit) for bit in range(10)]
    reached = 0
    for source in (0, 341, 682, 1023, 512, 100):
        parent = {source: None}
        queue = deque([nodes[source]])
        while queue:
            node = queue.popleft()
            node.visits += 1
            for neighbour in node.out:
                if neighbour not in parent:
                    parent[neighbour] = node.ident
                    queue.append(nodes[neighbour])
        reached += len(parent)
    return len(ranked) + pairs + hits + len(fired) + reached


def probe_seconds(repeats: int = 3) -> float:
    """Host seconds the reference workload takes right now: the median of
    ``repeats`` runs, so one preempted run cannot skew it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(repeats):
            started = perf_counter()
            _reference_work()
            times.append(perf_counter() - started)
        return statistics.median(times)
    finally:
        if enabled:
            gc.enable()


def reference_scale(before: float, after: float) -> float:
    """Factor from host seconds to reference seconds for a pass bracketed
    by probes of ``before`` and ``after`` host seconds."""
    return REFERENCE_S / ((before + after) / 2.0)


class Brackets:
    """Probes around back-to-back passes in this process: the probe that
    closes one pass also opens the next, so each pass costs one probe."""

    def __init__(self) -> None:
        self._last: Optional[float] = None

    def open(self) -> float:
        """The probe before a pass: the last one taken, or a new one."""
        if self._last is None:
            self._last = probe_seconds()
        return self._last

    def close(self, before: float) -> float:
        """Probe after a pass that ``open`` returned ``before`` for, and
        give the pass's factor from host to reference seconds."""
        self._last = probe_seconds()
        return reference_scale(before, self._last)
