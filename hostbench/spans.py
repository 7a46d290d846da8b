"""Per-layer spans, recorded from outside the program.

A :class:`LayerTracer` replaces the public entry points of each ``repro``
layer with timing wrappers, as class attributes of this process only, for
the duration of one traced pass; it restores the originals afterwards and
edits nothing under ``src/``.  Every wrapped call records one span: name,
start, end, parent span and request id.  Spans are kept in memory (packed
arrays, so a timed pass of a few hundred thousand spans stays small) and
written out once the run ends.

A span's *self time* is its duration minus the time its direct children
cover.  Calls are synchronous, so children never overlap and the sum of
child durations is exactly the covered part.  Whatever the traced wall
time is not covered by any top-level span belongs to the workload driver,
so the layers' self times plus the driver's add up to the traced wall.
"""

from __future__ import annotations

import json
from array import array
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core import MatchMaker
from repro.network import DeliveryPlanner, MessageStats, Network
from repro.processes import DistributedSystem
from repro.simtime import FifoResource, SimKernel, TimedOverlay
from repro.workload import WorkloadMetrics

#: The request entry point: each top-level call starts a new request id.
REQUEST_SPAN = "DistributedSystem.request"

#: Instrument writes on WorkloadMetrics: every ``observe_*`` plus the
#: per-hop link busy-time counter the timed overlay bumps.
_INSTRUMENTS = tuple(
    sorted(name for name in vars(WorkloadMetrics) if name.startswith("observe_"))
) + ("add_link_busy",)

#: (layer, class, public entry points), outermost layer first.  The
#: strategies layer is added per workload, because the class to wrap is the
#: strategy the scenario resolved to.
LAYERS: Tuple[Tuple[str, type, Tuple[str, ...]], ...] = (
    ("processes", DistributedSystem, (
        "request", "create_server", "retire_server", "migrate_server",
        "crash_node", "recover_node", "invalidate_caches", "refresh_server",
    )),
    ("matchmaker", MatchMaker, (
        "locate", "register_server", "deregister_server", "migrate_server",
    )),
    ("network", Network, ("deliver", "query", "post", "unpost", "send_payload")),
    ("network.stats", MessageStats, (
        "record", "record_delivery", "record_load", "record_plan_event",
    )),
    ("planner", DeliveryPlanner, ("plan", "routing_table", "spanning_tree")),
    ("simtime.kernel", SimKernel, ("run", "schedule")),
    ("simtime.queue", FifoResource, ("acquire", "depth", "prune")),
    ("simtime.overlay", TimedOverlay, (
        "begin_request", "finish_request", "on_delivery", "on_replies",
        "on_payload", "finalize",
    )),
    ("obs", WorkloadMetrics, _INSTRUMENTS),
)

#: Every layer a traced scenario reports, plus the driver remainder.
LAYER_NAMES = tuple(layer for layer, _, _ in LAYERS) + ("strategies", "driver")


def layers_for(strategy_class: type) -> Tuple[Tuple[str, type, Tuple[str, ...]], ...]:
    """:data:`LAYERS` plus the strategies layer for ``strategy_class``."""
    return LAYERS + (("strategies", strategy_class, ("post_set", "query_set")),)


class LayerTracer:
    """Wraps layer entry points while active and records their spans.

    Use as a context manager around exactly one traced pass::

        with LayerTracer(layers_for(type(driver.strategy))) as tracer:
            started = perf_counter()
            result = driver.run()
            wall = perf_counter() - started
        profile = tracer.profile(wall)
    """

    def __init__(self, layers: Sequence[Tuple[str, type, Tuple[str, ...]]]) -> None:
        self._targets: List[Tuple[type, str, int]] = []
        self.names: List[str] = []
        self.layer_of: List[str] = []
        for layer, cls, methods in layers:
            for method in methods:
                self._targets.append((cls, method, len(self.names)))
                self.names.append(f"{cls.__name__}.{method}")
                self.layer_of.append(layer)
        self._name = array("i")
        self._parent = array("i")
        self._request = array("i")
        self._start = array("d")
        self._end = array("d")
        self._current = -1
        self._request_id = -1
        self._requests = 0
        self._saved: List[Tuple[type, str, Optional[object]]] = []
        #: The DistributedSystem the traced requests ran on, for its public
        #: counters (the driver builds it privately).
        self.system: Optional[DistributedSystem] = None

    # -- installation ----------------------------------------------------------

    def __enter__(self) -> "LayerTracer":
        for cls, method, name_id in self._targets:
            self._saved.append((cls, method, cls.__dict__.get(method)))
            setattr(cls, method, self._wrap(getattr(cls, method), name_id))
        return self

    def __exit__(self, *exc_info) -> None:
        while self._saved:
            cls, method, original = self._saved.pop()
            if original is None:
                delattr(cls, method)  # the method was inherited
            else:
                setattr(cls, method, original)

    def _wrap(self, fn, name_id: int):
        tracer = self
        names, parents, requests = self._name, self._parent, self._request
        starts, ends = self._start, self._end
        # A top-level call into the processes layer opens a new context:
        # a request gets the next request id, a churn call gets -1.
        opens = 0
        if self.layer_of[name_id] == "processes":
            opens = 1 if self.names[name_id] == REQUEST_SPAN else 2

        def span(*args, **kwargs):
            parent = tracer._current
            if parent < 0 and opens:
                if opens == 1:
                    tracer._request_id = tracer._requests
                    tracer._requests += 1
                    tracer.system = args[0]
                else:
                    tracer._request_id = -1
            index = len(names)
            names.append(name_id)
            parents.append(parent)
            requests.append(tracer._request_id)
            ends.append(0.0)
            tracer._current = index
            starts.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = perf_counter()
                tracer._current = parent

        return span

    # -- analysis ----------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._name)

    def profile(self, wall_seconds: float) -> Dict[str, object]:
        """Self time per layer, call counts per span name and the host
        durations of every request span, over a pass of ``wall_seconds``.

        ``self_s["driver"]`` is the wall time no top-level span covers.
        """
        names, parents = self._name, self._parent
        starts, ends = self._start, self._end
        count = len(names)
        covered = [0.0] * count
        for index in range(count):
            parent = parents[index]
            if parent >= 0:
                covered[parent] += ends[index] - starts[index]
        request_name = self.names.index(REQUEST_SPAN)
        self_s: Dict[str, float] = defaultdict(float)
        top_level = 0.0
        request_durations: List[float] = []
        for index in range(count):
            duration = ends[index] - starts[index]
            name = names[index]
            self_s[self.layer_of[name]] += duration - covered[index]
            if parents[index] < 0:
                top_level += duration
            if name == request_name:
                request_durations.append(duration)
        self_s["driver"] = wall_seconds - top_level
        calls = Counter(self.names[name] for name in names)
        return {
            "self_s": {layer: self_s.get(layer, 0.0) for layer in LAYER_NAMES},
            "calls": dict(calls),
            "request_s": request_durations,
        }

    def write(self, path: Path) -> None:
        """Write the spans as JSON lines: one header, then one
        ``[name, start_us, end_us, parent, request]`` row per span, times
        relative to the first span's start."""
        origin = self._start[0] if len(self._start) else 0.0
        with open(path, "w", encoding="utf-8") as fp:
            fp.write(json.dumps({
                "names": self.names,
                "layers": self.layer_of,
                "columns": ["name", "start_us", "end_us", "parent", "request"],
            }) + "\n")
            for name, start, end, parent, request in zip(
                self._name, self._start, self._end, self._parent, self._request
            ):
                fp.write(
                    f"[{name},{(start - origin) * 1e6:.3f},"
                    f"{(end - origin) * 1e6:.3f},{parent},{request}]\n"
                )
