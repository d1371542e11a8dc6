"""Network model invariants and scenario-to-capacity folding."""

import math

import pytest

from plantflow.errors import MappingError, PlantDataError
from plantflow.flow import BACKENDS, apply_scenario, max_processable_flow
from plantflow.model import (
    EDGE_MAX,
    EDGE_MIN,
    STATION_THROUGHPUT,
    ComponentModel,
    Edge,
    PlantNetwork,
    RandomVariable,
    validate_model,
    validate_network,
)


def tiny_net() -> PlantNetwork:
    # two stages, one station each, one connecting edge
    return PlantNetwork(
        num_nodes=3,
        num_stages=2,
        stations=((1,), (3,)),
        node_capacity={1: 0.7, 3: 0.9},
        edges=(
            Edge("e1", 1, 2, 1, 1.0),
            Edge("e2", 2, 3, 1, 0.8),
        ),
    )


def tiny_model() -> ComponentModel:
    return ComponentModel(rvs=(
        RandomVariable("s1", 0.1, (1,)),
        RandomVariable("mid", 0.1, (2,)),
        RandomVariable("link", 0.1, ("e1", "e2")),
    ))


def test_station_stage_lookup():
    net = tiny_net()
    assert net.station_stage == {1: 1, 3: 2}


def test_edge_index_in_listing_order():
    net = tiny_net()
    assert list(net.edge_index) == ["e1", "e2"]


def test_resolved_node_capacity_defaults_to_max_incident():
    net = tiny_net()
    assert net.resolved_node_capacity(1) == 0.7
    assert net.resolved_node_capacity(3) == 0.9
    # node 2 has no explicit capacity: max of incident edge caps
    assert net.resolved_node_capacity(2) == 1.0


def test_all_up_assignment():
    model = tiny_model()
    assert model.all_up() == {"s1": 1, "mid": 1, "link": 1}


def test_apply_scenario_station_throughput_keeps_raw_edges():
    net, model = tiny_net(), tiny_model()
    caps = apply_scenario(net, model, model.all_up(), STATION_THROUGHPUT)
    assert caps.mode == STATION_THROUGHPUT
    assert caps.edge_cap == {"e1": 1.0, "e2": 0.8}
    assert caps.station_cap == {1: 0.7, 3: 0.9}


def test_apply_scenario_zeroes_failed_assets():
    net, model = tiny_net(), tiny_model()
    a = model.all_up()
    a["link"] = 0
    caps = apply_scenario(net, model, a, STATION_THROUGHPUT)
    # one RV owns both edges; they fail together
    assert caps.edge_cap == {"e1": 0.0, "e2": 0.0}
    assert caps.station_cap == {1: 0.7, 3: 0.9}


def test_edge_min_folds_node_capacities():
    net, model = tiny_net(), tiny_model()
    caps = apply_scenario(net, model, model.all_up(), EDGE_MIN)
    # e1 touches station 1 (0.7); e2 touches station 3 (0.8 vs 0.9)
    assert caps.edge_cap == {"e1": 0.7, "e2": 0.8}


def test_edge_min_failed_station_chokes_incident_edges():
    net, model = tiny_net(), tiny_model()
    a = model.all_up()
    a["s1"] = 0
    caps = apply_scenario(net, model, a, EDGE_MIN)
    assert caps.edge_cap["e1"] == 0.0


def test_edge_max_failed_station_never_throttles():
    net, model = tiny_net(), tiny_model()
    a = model.all_up()
    a["s1"] = 0
    caps = apply_scenario(net, model, a, EDGE_MAX)
    # max fold: surviving edge keeps at least its own capacity
    assert caps.edge_cap["e1"] == 1.0


def test_unknown_mode_rejected():
    net, model = tiny_net(), tiny_model()
    with pytest.raises(PlantDataError, match="mode"):
        apply_scenario(net, model, model.all_up(), "edge-avg")


def test_assignment_must_cover_model():
    net, model = tiny_net(), tiny_model()
    with pytest.raises(MappingError, match="s1"):
        apply_scenario(net, model, {"mid": 1, "link": 1})


def test_assignment_extra_key_rejected():
    net, model = tiny_net(), tiny_model()
    a = model.all_up()
    a["ghost"] = 1
    with pytest.raises(MappingError, match="ghost"):
        apply_scenario(net, model, a)


def test_assignment_states_binary():
    net, model = tiny_net(), tiny_model()
    a = model.all_up()
    a["s1"] = 2
    with pytest.raises(MappingError):
        apply_scenario(net, model, a)


def test_rv_referencing_unknown_asset_rejected():
    net = tiny_net()
    model = ComponentModel(rvs=(RandomVariable("bad", 0.1, ("e99",)),))
    with pytest.raises(MappingError, match="e99"):
        apply_scenario(net, model, model.all_up())


def test_validate_network_flags_non_finite_capacities():
    net = tiny_net()
    bad = PlantNetwork(
        num_nodes=net.num_nodes, num_stages=net.num_stages, stations=net.stations,
        node_capacity={1: math.nan, 3: 0.9},
        edges=(Edge("e1", 1, 2, 1, math.inf), net.edges[1]),
    )
    report = validate_network(bad)
    codes = [v.code for v in report.violations]
    assert codes == ["non-finite-capacity", "non-finite-capacity"]
    assert "node 1" in report.violations[0].message
    assert "edge e1" in report.violations[1].message


def test_asset_governed_by_two_rvs_rejected():
    # which RV decides the asset would depend on the order of the model
    net = tiny_net()
    model = ComponentModel(rvs=(
        RandomVariable("a", 0.1, ("e1",)),
        RandomVariable("b", 0.1, ("e1",)),
    ))
    with pytest.raises(MappingError, match="governed by both a and b"):
        apply_scenario(net, model, {"a": 0, "b": 1})


def test_validate_model_reports_every_violation_in_model_order():
    model = ComponentModel(rvs=(
        RandomVariable("a", 0.1, ("e1", "e99")),
        RandomVariable("b", 1.5, ("e1",)),
        RandomVariable("a", 0.1, (7,)),
    ))
    report = validate_model(tiny_net(), model)
    assert [v.code for v in report.violations] == [
        "unknown-asset", "probability", "shared-asset", "duplicate-rv-id", "unknown-asset"]
    assert report.violations[2].message == "asset 'e1' governed by both a and b"


@pytest.mark.parametrize("backend", BACKENDS)
def test_passive_node_binds_only_when_folded(backend):
    # station-throughput bounds only station conversion, so neither a failed
    # component on passive node 2 nor an explicit capacity there binds
    net, model = tiny_net(), tiny_model()
    a = model.all_up()
    a["mid"] = 0

    def u_star(net, assignment, mode):
        return max_processable_flow(net, model, assignment, mode=mode, backend=backend).value

    assert u_star(net, a, STATION_THROUGHPUT) == pytest.approx(0.7)
    capped = PlantNetwork(net.num_nodes, net.num_stages, net.stations,
                          {**net.node_capacity, 2: 0.1}, net.edges)
    assert u_star(capped, model.all_up(), STATION_THROUGHPUT) == pytest.approx(0.7)
    # edge-min folds node 2 into both of its edges
    assert u_star(net, a, EDGE_MIN) == 0.0
