"""NaN and infinity are rejected at the spec boundary, field by field."""

import math

import pytest

from repro.simtime import LinkTiming, TimeModelSpec
from repro.workload import (
    ArrivalSpec,
    ChurnSpec,
    FaultRegimeSpec,
    PopularitySpec,
    ScenarioSpec,
    SloSpec,
)

NAN = float("nan")
INF = float("inf")

FIELDS = [
    (ArrivalSpec, "rate"),
    (ArrivalSpec, "think_time"),
    (ArrivalSpec, "burst_size"),
    (ArrivalSpec, "burst_gap"),
    (PopularitySpec, "zipf_exponent"),
    (PopularitySpec, "hotspot_fraction"),
    (PopularitySpec, "hotspot_interval"),
    (ChurnSpec, "rate"),
    (ChurnSpec, "downtime"),
    (ChurnSpec, "storm_fraction"),
    (FaultRegimeSpec, "events"),
    (FaultRegimeSpec, "size"),
    (FaultRegimeSpec, "start"),
    (FaultRegimeSpec, "period"),
    (FaultRegimeSpec, "downtime"),
    (SloSpec, "latency_objective"),
    (SloSpec, "latency_target"),
    (SloSpec, "availability_target"),
    (SloSpec, "window"),
    (LinkTiming, "latency"),
    (LinkTiming, "jitter"),
    (LinkTiming, "capacity"),
    (TimeModelSpec, "node_service"),
    (TimeModelSpec, "timeout"),
    (ScenarioSpec, "operations"),
]


@pytest.mark.parametrize("value", [NAN, INF, -INF], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "spec_class, name", FIELDS, ids=[f"{c.__name__}.{n}" for c, n in FIELDS]
)
def test_non_finite_field_rejected(spec_class, name, value):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        spec_class(**{name: value})


@pytest.mark.parametrize("value", [NAN, INF], ids=["nan", "inf"])
def test_non_finite_node_override_rejected(value):
    with pytest.raises(ValueError, match=r"node_overrides\['3'\] must be finite"):
        TimeModelSpec(node_overrides=(("3", value),))


@pytest.mark.parametrize("value", [NAN, INF], ids=["nan", "inf"])
def test_non_finite_list_form_node_override_rejected(value):
    with pytest.raises(ValueError, match=r"node_overrides\['3'\] must be finite"):
        TimeModelSpec(node_overrides=[("3", value)])
    with pytest.raises(ValueError, match=r"node_overrides\['3'\] must be finite"):
        TimeModelSpec(node_overrides=[["3", value]])


def test_finite_values_still_accepted():
    spec = ScenarioSpec(
        arrival=ArrivalSpec(kind="poisson", rate=1e9),
        time_model=TimeModelSpec(
            default_link=LinkTiming(latency=1e-9),
            node_overrides=(("3", 0.0),),
        ),
    )
    assert math.isfinite(spec.arrival.rate)


def test_scenario_from_dict_inherits_the_check():
    data = ScenarioSpec().to_dict()
    data["arrival"] = dict(data["arrival"], rate=NAN)
    with pytest.raises(ValueError, match="rate must be finite"):
        ScenarioSpec.from_dict(data)


def test_time_model_from_dict_inherits_the_check():
    data = TimeModelSpec().to_dict()
    data["default_link"] = dict(data["default_link"], latency=INF)
    with pytest.raises(ValueError, match="latency must be finite"):
        TimeModelSpec.from_dict(data)
    data = TimeModelSpec().to_dict()
    data["node_service"] = NAN
    with pytest.raises(ValueError, match="node_service must be finite"):
        TimeModelSpec.from_dict(data)


def test_sequence_fields_of_any_shape_are_checked():
    from dataclasses import dataclass

    from repro.core.types import require_finite

    @dataclass(frozen=True)
    class Shapes:
        values: tuple = ()
        triples: list = ()

    require_finite(Shapes(values=(1.0, 2), triples=[(1, 2.0, 3.0)]))
    with pytest.raises(ValueError, match=r"Shapes\.values\[1\] must be finite"):
        require_finite(Shapes(values=(1.0, NAN)))
    with pytest.raises(ValueError, match=r"Shapes\.triples\[0\] must be finite"):
        require_finite(Shapes(triples=[(1, 2.0, INF)]))
