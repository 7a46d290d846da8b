"""The benchmark's four workloads, as plain ``repro`` specs.

Each spec function takes the workload seed from the command line and returns the
spec the program runs; nothing else about a workload depends on the seed.
README.md in this directory records why each workload was chosen.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable, Dict, Optional, Union

from repro.simtime import LinkTiming, TimeModelSpec
from repro.workload import (
    ArrivalSpec,
    ChurnSpec,
    FaultRegimeSpec,
    MatrixSpec,
    PopularitySpec,
    ScenarioSpec,
    SloSpec,
)

#: The seed whose output digests are pinned in ``pinned.json``.
DEFAULT_SEED = 1985

#: Worker processes for the sweep: the bench host's CPU count.
SWEEP_WORKERS = 2

PINNED_PATH = Path(__file__).resolve().parent / "pinned.json"


def locate_spec(seed: int) -> ScenarioSpec:
    """The untimed read path: every request runs a hypercube locate."""
    return ScenarioSpec(
        name="hostbench/locate",
        topology="hypercube:8",
        strategy="hypercube",
        operations=16_000,
        clients=64,
        servers=8,
        ports=8,
        delivery_mode="unicast",
        seed=seed,
        cache_addresses=False,
        arrival=ArrivalSpec(kind="poisson", rate=2000.0),
        popularity=PopularitySpec(kind="zipf", zipf_exponent=1.1),
        churn=ChurnSpec(kind="migration", rate=1.0),
    )


def timed_burst_spec(seed: int) -> ScenarioSpec:
    """E20's burst cell on checkerboard, priced on the virtual clock with
    E21's SLO armed.  A 20 ms queue-wait timeout (twice the SLO's latency
    objective) drops about 2.5% of the messages at the default seed, so the
    timeout path runs too."""
    return ScenarioSpec(
        name="hostbench/timed-burst",
        topology="complete:36",
        strategy="checkerboard",
        operations=4_000,
        clients=36,
        servers=6,
        ports=6,
        seed=seed,
        cache_addresses=False,
        arrival=ArrivalSpec(kind="burst", burst_size=80, burst_gap=0.05),
        popularity=PopularitySpec(kind="zipf", zipf_exponent=1.1),
        time_model=TimeModelSpec(
            default_link=LinkTiming(latency=0.0005, jitter=0.0001),
            node_service=0.0008,
            timeout=0.02,
        ),
        slo=SloSpec(latency_objective=0.01, latency_target=0.99,
                    availability_target=0.999, window=0.5),
    )


def churn_spec(seed: int) -> ScenarioSpec:
    """Writes and misses: mixed churn plus link flaps on a Manhattan grid."""
    return ScenarioSpec(
        name="hostbench/churn",
        topology="manhattan:8",
        strategy="manhattan",
        operations=16_000,
        clients=32,
        servers=8,
        ports=8,
        delivery_mode="unicast",
        seed=seed,
        cache_addresses=True,
        arrival=ArrivalSpec(kind="poisson", rate=1000.0),
        popularity=PopularitySpec(kind="hotspot", hotspot_fraction=0.7),
        churn=ChurnSpec(kind="mixed", rate=40.0, downtime=0.5),
        faults=FaultRegimeSpec(kind="flaps", events=40, start=0.5,
                               period=0.4, downtime=0.2),
    )


def sweep_spec(seed: int) -> MatrixSpec:
    """A 54-cell untimed unicast grid: 3 topologies x 3 strategies x 3
    fault regimes x 2 arrival programs."""
    return MatrixSpec(
        name="hostbench/sweep",
        topologies=("complete:36", "manhattan:6", "hypercube:5"),
        strategies=("checkerboard", "hash-locate", "centralized"),
        fault_regimes=(
            FaultRegimeSpec(),
            FaultRegimeSpec(kind="flaps", events=4, start=0.05, period=0.12,
                            downtime=0.08),
            FaultRegimeSpec(kind="waves", events=3, size=2, start=0.08,
                            period=0.15, downtime=0.1),
        ),
        arrivals=(
            ArrivalSpec(kind="poisson", rate=1500.0),
            ArrivalSpec(kind="burst", burst_size=40, burst_gap=0.05),
        ),
        base=ScenarioSpec(
            operations=500,
            clients=12,
            servers=8,
            ports=4,
            delivery_mode="unicast",
            seed=seed,
            popularity=PopularitySpec(kind="zipf", zipf_exponent=1.1),
        ),
    )


#: Workload name -> spec function; every workload but ``sweep`` is a scenario.
WORKLOADS: Dict[str, Callable[[int], Union[ScenarioSpec, MatrixSpec]]] = {
    "locate": locate_spec,
    "timed-burst": timed_burst_spec,
    "churn": churn_spec,
    "sweep": sweep_spec,
}


def pinned_digest(workload: str, seed: int) -> Optional[str]:
    """The pinned output digest of ``workload`` at ``seed``, if any."""
    pins = json.loads(PINNED_PATH.read_text(encoding="utf-8"))
    entry = pins.get(workload, {})
    return entry.get("digest") if entry.get("seed") == seed else None
