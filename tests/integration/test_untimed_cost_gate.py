"""Deterministic cost gate for the untimed locate path.

Wall clock on a shared host moves by tens of percent between runs, so this
gate counts work instead: cProfile call counts per request over one run of
a reduced locate-shaped scenario (hypercube locates, address caching off,
migration churn).  The counts repeat to within 0.01% across runs and hash
seeds, so the bands can be tight.

Only calls into functions defined under ``repro/`` are counted, so a
stdlib change in an interpreter patch release cannot move the gate.  Each
ceiling sits a small margin above the count measured on Python 3.11 when
the untimed core was made to do its bookkeeping once; 3.12 inlines list
comprehensions and so counts fewer calls, never more.  A change that pushes a count over its ceiling has put
work back on the request path; a change that lowers a count should lower
its ceiling with it.
"""

import cProfile
import pstats

import pytest

from repro.workload import (
    ArrivalSpec,
    ChurnSpec,
    PopularitySpec,
    ScenarioSpec,
    WorkloadDriver,
)

OPERATIONS = 2_000

#: Calls per request: measured value, and the ceiling the gate allows.
#: Before the lean core the same scenario measured 272.1 ``repro`` calls,
#: 21.2 ``node_is_up`` calls and 12.0 ``MessageStats`` calls per request.
ALL_CALLS = (130.7, 133.0)
NODE_IS_UP_CALLS = (6.17, 6.25)
STATS_CALLS = (5.01, 5.05)


def locate_shaped_spec() -> ScenarioSpec:
    return ScenarioSpec(
        name="cost-gate/locate",
        topology="hypercube:8",
        strategy="hypercube",
        operations=OPERATIONS,
        clients=64,
        servers=8,
        ports=8,
        delivery_mode="unicast",
        seed=1985,
        cache_addresses=False,
        arrival=ArrivalSpec(kind="poisson", rate=2000.0),
        popularity=PopularitySpec(kind="zipf", zipf_exponent=1.1),
        churn=ChurnSpec(kind="migration", rate=1.0),
    )


@pytest.fixture(scope="module")
def calls_per_request():
    driver = WorkloadDriver(locate_shaped_spec())
    profiler = cProfile.Profile()
    profiler.enable()
    result = driver.run()
    profiler.disable()
    assert result.summary()["requests"] > 0
    counts = pstats.Stats(profiler).stats
    totals = {"all": 0, "node_is_up": 0, "stats": 0}
    for (filename, _, function), row in counts.items():
        path = filename.replace("\\", "/")
        if "/repro/" not in path:
            continue  # stdlib and builtins vary with the interpreter release
        calls = row[1]
        totals["all"] += calls
        if path.endswith("repro/network/simulator.py") and function == "node_is_up":
            totals["node_is_up"] += calls
        if path.endswith("repro/network/stats.py"):
            totals["stats"] += calls
    return {name: count / OPERATIONS for name, count in totals.items()}


@pytest.mark.parametrize(
    "name, band",
    [("all", ALL_CALLS), ("node_is_up", NODE_IS_UP_CALLS), ("stats", STATS_CALLS)],
)
def test_calls_per_request_within_band(calls_per_request, name, band):
    measured, ceiling = band
    assert calls_per_request[name] <= ceiling, (
        f"{name}: {calls_per_request[name]:.3f} calls/request exceeds the "
        f"ceiling {ceiling} (measured {measured} when the gate was set)"
    )
