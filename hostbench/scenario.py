"""Measuring one scenario workload (``locate``, ``timed-burst``, ``churn``).

A *pass* builds a :class:`~repro.workload.WorkloadDriver` and runs the
scenario once.  The first pass is an unmeasured warm-up, and every later
pass must reproduce its digest.  After the measured passes that digest is
checked against the pinned one or, for a seed with no pin, against a
replay of one more pass's trace.
Untraced passes then repeat until the run's seconds are spent and give the
end-to-end metrics as medians, in reference seconds (see ``calibrate``); a
traced run alternates untraced and traced passes and gives the per-layer
metrics.
"""

from __future__ import annotations

import gc
import resource
import statistics
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from repro.network import plan_hit_rates
from repro.processes import DistributedSystem
from repro.workload import ScenarioSpec, WorkloadDriver, WorkloadResult, replay_trace

from calibrate import Brackets
from spans import LayerTracer, layers_for

#: Fewest measured passes a run makes, however short its seconds.
MIN_PASSES = 3


@dataclass
class Outcome:
    """What one benchmark run measured and whether its outputs held."""

    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    metrics: Dict[str, float] = field(default_factory=dict)
    #: Simulated outputs and digests, printed by name.
    outputs: Dict[str, object] = field(default_factory=dict)

    def count(self, requests: int, problem: Optional[str] = None) -> None:
        """Count ``requests`` attempted; ``problem`` marks them failed."""
        self.attempted += requests
        if problem is not None:
            self.failed += requests
            self.problems.append(problem)


def peak_rss_mb(children: bool = False) -> float:
    """Peak resident set size of this process (or its reaped children)."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def quantile(values: List[float], q: int) -> float:
    """The ``q``-th percentile of ``values`` (``statistics`` inclusive)."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def host_outputs(raw_per_s: List[float], scales: List[float]) -> Dict[str, float]:
    """The uncalibrated throughput and the host's speed relative to the
    reference, printed beside the calibrated metrics."""
    return {
        "raw_requests_per_host_s": round(statistics.median(raw_per_s), 1),
        "host_speed": round(statistics.median(scales), 3),
    }


def keep_going(deadline: float, *pass_seconds: List[float]) -> bool:
    """Whether to start another measured pass: always until
    :data:`MIN_PASSES`, then only while one more (of the median length so
    far) still ends before ``deadline``."""
    done = pass_seconds[0]
    if len(done) < MIN_PASSES:
        return True
    typical = sum(statistics.median(seconds) for seconds in pass_seconds if seconds)
    return perf_counter() + typical <= deadline


@dataclass(frozen=True)
class Pass:
    """One measured pass: requests, host seconds, and the factor from host
    to reference seconds (see ``calibrate``)."""

    requests: int
    loop_s: float
    setup_s: float
    total_s: float
    scale: float

    @property
    def requests_per_s(self) -> float:
        """Requests per reference second of the request loop."""
        return self.requests / (self.loop_s * self.scale)


def _run_pass(spec: ScenarioSpec, brackets: Brackets) -> Tuple[WorkloadResult, Pass]:
    """One pass, between two calibration probes.  The request loop is the
    driver's own ``wall_seconds``; set-up is the rest of driver
    construction plus ``run()``.

    Earlier passes' cyclic garbage is collected first, so each pass starts
    from the same heap and peak RSS is one pass's peak, whatever the
    number of passes the run's seconds allowed."""
    before = brackets.open()
    gc.collect()
    started = perf_counter()
    result = WorkloadDriver(spec).run()
    total = perf_counter() - started
    scale = brackets.close(before)
    loop = result.wall_seconds
    return result, Pass(result.metrics.requests, loop, total - loop, total, scale)


def _sim_outputs(result: WorkloadResult) -> Dict[str, object]:
    summary = result.metrics.summary()
    outputs = {
        "availability": summary["success_rate"],
        "locate_hops_p99": summary["locate_hops"]["p99"],
    }
    if "latency" in summary:
        outputs["latency_p50_us"] = summary["latency"]["p50"]
        outputs["latency_p99_us"] = summary["latency"]["p99"]
    return outputs


def _warm_up(
    spec: ScenarioSpec, brackets: Brackets, outcome: Outcome
) -> Optional[WorkloadResult]:
    """The unmeasured first pass, whose digest every later pass must
    reproduce; ``None`` when it raised."""
    try:
        result, _ = _run_pass(spec, brackets)
    except Exception:
        outcome.count(spec.operations, "warm-up pass raised:\n" + traceback.format_exc())
        return None
    outcome.count(result.metrics.requests)
    outcome.outputs.update(_sim_outputs(result))
    outcome.outputs["digest"] = result.digest()
    return result


def _check_digest(
    spec: ScenarioSpec, digest: str, pinned: Optional[str], outcome: Outcome
) -> None:
    """Check the run's ``digest`` against the pinned one or, for a seed with
    no pin, against a replay of one more pass's trace.  A mismatch fails
    every request of the run."""
    if pinned is not None:
        expected, how = pinned, "pinned digest"
    else:
        try:
            result = WorkloadDriver(spec).run()
            expected, how = replay_trace(result.trace).digest(), "trace replay"
        except Exception:
            expected, how = None, "trace replay"
            outcome.problems.append("replay check raised:\n" + traceback.format_exc())
    outcome.outputs["checked_against"] = how
    if digest != expected:
        outcome.problems.append(f"digest {digest} differs from the {how} {expected}")
        outcome.failed = outcome.attempted


def _checked_pass(
    spec: ScenarioSpec, digest: str, brackets: Brackets, outcome: Outcome,
    tracer=None,
) -> Optional[Pass]:
    """One measured pass whose digest must equal the reference's."""
    try:
        if tracer is None:
            result, measured = _run_pass(spec, brackets)
        else:
            with tracer:
                result, measured = _run_pass(spec, brackets)
    except Exception:
        outcome.count(spec.operations, "pass raised:\n" + traceback.format_exc())
        return None
    problem = None
    if result.digest() != digest:
        problem = f"pass digest {result.digest()} differs from {digest}"
    outcome.count(result.metrics.requests, problem)
    return measured


def measure(
    spec: ScenarioSpec,
    pinned: Optional[str],
    seconds: float,
    traced: bool,
    span_path: Path,
) -> Outcome:
    """Run ``spec`` for ``seconds`` and collect its metrics."""
    outcome = Outcome()
    brackets = Brackets()
    reference = _warm_up(spec, brackets, outcome)
    if reference is None:
        return outcome
    digest = str(outcome.outputs["digest"])
    layers = None
    if traced:
        layers = layers_for(type(WorkloadDriver(spec).strategy))
    else:
        # Only the traced metrics read the warm-up result; letting it go
        # keeps peak RSS one pass's own.
        reference = None
    deadline = perf_counter() + seconds
    passes: List[Pass] = []
    profiles: List[Dict[str, object]] = []
    untraced_s: List[float] = []
    first: Optional[LayerTracer] = None
    while keep_going(deadline, [p.total_s for p in passes], untraced_s):
        tracer = None
        if traced:
            plain = _checked_pass(spec, digest, brackets, outcome)
            if plain is None:
                return outcome
            untraced_s.append(plain.total_s)
            tracer = LayerTracer(layers)
        measured = _checked_pass(spec, digest, brackets, outcome, tracer)
        if measured is None:
            return outcome
        passes.append(measured)
        if tracer is not None:
            profiles.append(tracer.profile(measured.total_s))
            first = first or tracer
    # Read before the replay check, which holds a result and its replay.
    rss_mb = peak_rss_mb()
    _check_digest(spec, digest, pinned, outcome)
    if not traced:
        outcome.outputs.update(host_outputs(
            [p.requests / p.loop_s for p in passes],
            [p.scale for p in passes],
        ))
        outcome.metrics = {
            "requests_per_s": statistics.median(p.requests_per_s for p in passes),
            "setup_s": statistics.median(p.setup_s * p.scale for p in passes),
            "peak_rss_mb": rss_mb,
        }
        return outcome
    first.write(span_path)
    outcome.outputs["spans"] = f"{len(first)} spans -> {span_path}"
    outcome.metrics = layer_metrics(
        reference, first.system, profiles, [p.total_s for p in passes],
        untraced_s,
    )
    return outcome


def layer_metrics(
    reference: WorkloadResult,
    system: DistributedSystem,
    profiles: List[Dict[str, object]],
    traced_s: List[float],
    untraced_s: List[float],
) -> Dict[str, float]:
    """Per-layer metrics: self times as medians over the traced passes;
    counts and ratios from the first traced pass, on ``system``, and from
    the reference result (they repeat exactly)."""
    requests = reference.metrics.requests
    per_req = 1e6 / requests

    def self_us(layer: str) -> float:
        return statistics.median(p["self_s"][layer] for p in profiles) * per_req

    def host_us(q: int) -> float:
        return statistics.median(
            quantile(p["request_s"], q) for p in profiles
        ) * 1e6

    calls = profiles[0]["calls"]

    def calls_per_req(prefix: str) -> float:
        return sum(n for name, n in calls.items() if name.startswith(prefix)) / requests

    stats = system.network.stats
    pq = system.matchmaker.pq_cache_info()
    sent = sum(stats.delivered.values()) + sum(stats.dropped.values())
    rates = plan_hit_rates(reference.plan_cache)
    summary = reference.metrics.summary()
    queues = summary.get("queues", {})
    strategy = type(system.matchmaker.strategy).__name__
    return {
        "driver.self_us_per_req": self_us("driver"),
        "processes.self_us_per_req": self_us("processes"),
        "processes.request_host_us_p50": host_us(50),
        "processes.request_host_us_p99": host_us(99),
        "processes.stale_retries_per_req": system.stats.stale_addresses / requests,
        "matchmaker.self_us_per_req": self_us("matchmaker"),
        "matchmaker.pq_memo_hit_ratio": pq["hits"] / max(1, pq["hits"] + pq["misses"]),
        "strategies.self_us_per_req": self_us("strategies"),
        "strategies.pq_calls_per_req": calls_per_req(strategy + "."),
        "network.self_us_per_req": self_us("network"),
        "network.deliver_calls_per_req": calls_per_req("Network.deliver"),
        "network.stats.self_us_per_req": self_us("network.stats"),
        "network.stats.calls_per_req": calls_per_req("MessageStats."),
        "network.messages_per_req": stats.total_messages / requests,
        "network.dropped_share": sum(stats.dropped.values()) / max(1, sent),
        "planner.self_us_per_req": self_us("planner"),
        "planner.plan_hit_ratio": rates["plan"],
        "planner.route_hit_ratio": rates["route"],
        "planner.routing_table_calls_per_req": calls_per_req(
            "DeliveryPlanner.routing_table"
        ),
        "simtime.kernel.self_us_per_req": self_us("simtime.kernel"),
        "simtime.kernel.events_per_req": calls_per_req("SimKernel.schedule"),
        "simtime.queue.self_us_per_req": self_us("simtime.queue"),
        "simtime.queue.acquire_per_req": calls_per_req("FifoResource.acquire"),
        "simtime.overlay.self_us_per_req": self_us("simtime.overlay"),
        "simtime.queue_wait_p99_us": float(queues.get("wait_us", {}).get("p99", 0)),
        "simtime.timeouts": float(reference.metrics.message_timeouts),
        "obs.instrument_calls_per_req": calls_per_req("WorkloadMetrics."),
        "obs.self_us_per_req": self_us("obs"),
        "trace.wall_us_per_req": statistics.median(traced_s) * per_req,
        "trace.overhead_share": (
            statistics.median(traced_s) / statistics.median(untraced_s) - 1.0
        ),
    }
