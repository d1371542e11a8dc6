"""Flow engine: frozen teaching-network optima, layered-graph structure,
backend agreement, and feasibility of returned flows.

The 3x3 mode/scenario matrix below was derived by hand from the teaching
network before any solver ran, then cross-checked with an exact rational
solver and an external LP library. It is the anchor the backends are
measured against.
"""

import copy
import gc
import math
import pickle
import random
import re
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from plantflow import datasets, dinic, model as model_module
from plantflow.dinic import max_flow as dinic_max_flow
from plantflow.errors import MappingError, PlantDataError
from plantflow.flow import (
    BACKENDS,
    LayeredGraph,
    SystemFunction,
    apply_scenario,
    build_flow_lp,
    build_layered_graph,
    compile_system,
    max_processable_flow,
)
from plantflow.lp import OPTIMAL, solve_lp
from plantflow.model import (
    EDGE_MAX,
    EDGE_MIN,
    MODES,
    STATION_THROUGHPUT,
    ComponentModel,
    Edge,
    PlantNetwork,
    RandomVariable,
    validate_model,
)
from plantflow.reliability import ReliabilityQuery, birnbaum_importance, estimate_failure_probability

NOMINAL = {}
STORAGE_REROUTED = {"n9": 0, "p8_9": 0}   # station 9 and pipe (8,9) down
STORAGE_SEVERED = {"n9": 0, "p4_5": 0}    # station 9 and pipe (4,5) down

# (scenario, mode) -> u*, derived by hand before implementation
ORACLE = {
    ("nominal", STATION_THROUGHPUT): 1.0,
    ("rerouted", STATION_THROUGHPUT): 1.0,
    ("severed", STATION_THROUGHPUT): 0.5,
    ("nominal", EDGE_MIN): 0.5,
    ("rerouted", EDGE_MIN): 0.5,
    ("severed", EDGE_MIN): 0.5,
    ("nominal", EDGE_MAX): 1.0,
    ("rerouted", EDGE_MAX): 1.0,
    ("severed", EDGE_MAX): 1.0,
}
_SCENARIOS = {"nominal": NOMINAL, "rerouted": STORAGE_REROUTED,
              "severed": STORAGE_SEVERED}


def didactic_assignment(failed):
    doc = datasets.builtin("didactic")
    a = doc.model.all_up()
    a.update(failed)
    return doc, a


@pytest.mark.parametrize("scenario", sorted(_SCENARIOS))
@pytest.mark.parametrize("mode", [STATION_THROUGHPUT, EDGE_MIN, EDGE_MAX])
@pytest.mark.parametrize("backend", ["lp", "maxflow"])
def test_didactic_matrix(scenario, mode, backend):
    doc, a = didactic_assignment(_SCENARIOS[scenario])
    sol = max_processable_flow(doc.network, doc.model, a,
                               mode=mode, backend=backend)
    assert sol.value == pytest.approx(ORACLE[(scenario, mode)], abs=1e-9)


def test_semantics_contrast_is_visible():
    # the two non-default folds disagree with the default on purpose:
    # min-folding chokes the nominal plant, max-folding hides the severed one
    assert ORACLE[("nominal", EDGE_MIN)] < ORACLE[("nominal", STATION_THROUGHPUT)]
    assert ORACLE[("severed", EDGE_MAX)] > ORACLE[("severed", STATION_THROUGHPUT)]


def test_unknown_backend_rejected():
    doc = datasets.builtin("didactic")
    with pytest.raises(PlantDataError, match="backend"):
        max_processable_flow(doc.network, backend="magic")


def test_assignment_without_model_rejected():
    doc = datasets.builtin("didactic")
    with pytest.raises(PlantDataError):
        max_processable_flow(doc.network, None, {"n1": 0})


# ---------------------------------------------------------------------------
# layered graph structure


def arc_roles(g, net) -> list[str]:
    """Each arc's role, read off its endpoints and its position."""
    t, m = g.topology, len(net.edges)
    return ["source" if tail == t.source else "sink" if head == t.sink
            else "edge" if a < m else "bridge"
            for a, (tail, head) in enumerate(zip(g.tails, g.heads))]


def test_didactic_layered_graph_shape():
    doc = datasets.builtin("didactic")
    g = build_layered_graph(doc.network, doc.model)
    unit = 2 ** g.shift
    caps = [c / unit for c in g.capacities(np.ones(len(doc.model)))]
    # 3 transition layers x 14 nodes + super source and sink
    assert g.topology.num_vertices == 3 * 14 + 2
    kinds = {}
    for kind, ref, cap in zip(arc_roles(g, doc.network), g.refs, caps):
        kinds.setdefault(kind, []).append((ref, cap))
    assert len(kinds["edge"]) == 21
    assert len(kinds["source"]) == 2
    assert {ref for ref, _ in kinds["source"]} == {1, 2}
    assert all(cap == 0.5 for _, cap in kinds["source"])
    assert {ref for ref, _ in kinds["bridge"]} == {5, 7, 9, 10, 12}
    assert all(cap == 0.5 for _, cap in kinds["bridge"])
    assert [ref for ref, _ in kinds["sink"]] == [14]
    assert kinds["sink"][0][1] == 1.0


def test_untouched_nodes_get_no_vertices():
    # node_count 10**5 on didactic's 14 touched nodes: 3 layers x 14 + 2, not 3 x 10**5 + 2
    doc = datasets.builtin("didactic")
    wide = replace(doc, network=replace(doc.network, num_nodes=10 ** 5))
    assert build_layered_graph(wide.network, wide.model).topology.num_vertices == 3 * 14 + 2
    assert max_processable_flow(wide.network, wide.model).value == 1.0
    assert datasets.parse_text(datasets.to_text(wide)) == wide


def test_layered_graph_arcs_map_back_to_the_network():
    doc = datasets.builtin("gas")
    net = doc.network
    g = build_layered_graph(net, doc.model)
    m = len(net.edges)
    assert g.refs[:m] == tuple(e.edge_id for e in net.edges)
    assert arc_roles(g, net)[:m] == ["edge"] * m
    # an edge arc joins its end nodes' copies in the layer of its stage label
    layer = [(e.stage - 1) * net.num_nodes - 1 for e in net.edges]
    assert g.tails[:m].tolist() == [base + e.tail for base, e in zip(layer, net.edges)]
    assert g.heads[:m].tolist() == [base + e.head for base, e in zip(layer, net.edges)]
    assert g.refs[m:] == tuple(s for members in net.stations for s in members)
    for a, ref in enumerate(g.refs):
        if g.owners[a] >= 0:
            assert ref in doc.model.rvs[g.owners[a]].assets


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", datasets.BUILTINS)
def test_lp_columns_follow_the_arc_order(name, mode):
    # column j is arc j of the layered graph, u the last; with distinct
    # capacities (edge i: i + 1, station s: 1000 + s) the bounds tell them apart
    doc = datasets.builtin(name)
    edges = tuple(replace(e, capacity=i + 1.0) for i, e in enumerate(doc.network.edges))
    net = replace(doc.network, edges=edges,
                  node_capacity={s: 1000.0 + s for s in doc.network.station_stage})
    g = build_layered_graph(net, doc.model, mode)
    caps = g.effective(np.ones(len(doc.model)))
    lp = build_flow_lp(net, caps)
    m = len(net.edges)
    assert lp.num_vars == len(g.refs) + 1
    assert lp.upper[:m] == tuple(caps.edge_cap[ref] for ref in g.refs[:m])
    assert lp.upper[m:-1] == tuple(caps.station_cap[ref] for ref in g.refs[m:])
    assert lp.upper[-1] == math.inf
    assert lp.objective == (0.0,) * len(g.refs) + (1.0,)
    if mode != EDGE_MAX:  # a max fold can tie edges
        assert len(set(lp.upper[:m])) == m
    if mode == STATION_THROUGHPUT:  # elsewhere every station is bounded by math.inf
        assert len(set(lp.upper[m:-1])) == len(g.refs) - m


def test_compile_rejects_unknown_mode():
    doc = datasets.builtin("didactic")
    with pytest.raises(PlantDataError, match="mode"):
        compile_system(doc.network, doc.model, target=1.0, mode="edge-avg")


@pytest.mark.parametrize("target", [math.nan, math.inf])
def test_compile_names_a_non_finite_target(target):
    doc = datasets.builtin("didactic")
    with pytest.raises(PlantDataError, match="target"):
        compile_system(doc.network, doc.model, target)


@pytest.mark.parametrize("asset", ["p99_98", 99])
def test_compile_rejects_rv_with_unknown_asset(asset):
    doc = datasets.builtin("didactic")
    model = ComponentModel(rvs=doc.model.rvs + (RandomVariable("ghost", 0.1, (asset,)),))
    with pytest.raises(MappingError, match="ghost"):
        compile_system(doc.network, model, target=1.0)


@pytest.mark.parametrize("change, match", [
    ({"n9": None}, "missing"),
    ({"ghost": 0}, "unknown"),
    ({"n9": 2}, "non-binary"),
])
def test_maxflow_backend_rejects_bad_assignments(change, match):
    doc = datasets.builtin("didactic")
    a = doc.model.all_up()
    for rv_id, state in change.items():
        if state is None:
            del a[rv_id]
        else:
            a[rv_id] = state
    with pytest.raises(MappingError, match=match):
        max_processable_flow(doc.network, doc.model, a, backend="maxflow")


def test_all_mid_stage_stations_failed_cuts_everything():
    doc, a = didactic_assignment({"n5": 0, "n7": 0, "n9": 0})
    for backend in ("lp", "maxflow"):
        sol = max_processable_flow(doc.network, doc.model, a, backend=backend)
        assert sol.value == pytest.approx(0.0, abs=1e-9)


def test_all_intake_stations_failed_cuts_everything():
    doc, a = didactic_assignment({"n1": 0, "n2": 0})
    sol = max_processable_flow(doc.network, doc.model, a)
    assert sol.value == pytest.approx(0.0, abs=1e-9)


# edge-max folds max(edge, tail node, head node): a failed edge gets back its
# larger end-node capacity, and a passive end node that no RV governs never
# fails, so with every component down these plants still deliver
EDGE_MAX_ALL_DOWN = {"didactic": 1.0, "pressure-original": 55.0,
                     "pressure-expanded": 420.0, "gas": 1.0}


@pytest.mark.parametrize("name", sorted(EDGE_MAX_ALL_DOWN))
@pytest.mark.parametrize("backend", ["lp", "maxflow"])
def test_edge_max_keeps_flow_with_every_component_down(name, backend):
    doc = datasets.builtin(name)
    all_down = {rv.rv_id: 0 for rv in doc.model.rvs}
    sol = max_processable_flow(doc.network, doc.model, all_down, mode=EDGE_MAX, backend=backend)
    assert sol.value == pytest.approx(EDGE_MAX_ALL_DOWN[name], abs=1e-9)


def test_full_dinic_equals_max_processable_flow():
    # Dinic over every compiled arc, called directly on the graph's topology,
    # gives max_processable_flow's optimum and arc flows bit for bit, once
    # its whole 2**-shift units are divided back into floats
    doc = datasets.builtin("didactic")
    rnd = random.Random(11)
    for mode in (STATION_THROUGHPUT, EDGE_MIN, EDGE_MAX):
        g = build_layered_graph(doc.network, doc.model, mode)
        unit = 2 ** g.shift
        for _ in range(25):
            a = {rv.rv_id: (0 if rnd.random() < 0.2 else 1)
                 for rv in doc.model.rvs}
            caps = g.capacities([a[rv.rv_id] for rv in doc.model.rvs])
            full = dinic_max_flow(g.topology, caps=caps)
            sol = max_processable_flow(doc.network, doc.model, a, mode=mode)
            assert full.value / unit == sol.value
            assert [f / unit for f in full.arc_flow] == \
                [*sol.edge_flow.values(), *sol.station_flow.values()]


def test_dinic_call_contract_read_by_the_benchmark_trace(monkeypatch):
    # the benchmark's traced run (bench/spans.py) wraps dinic.max_flow and
    # reads each call's arc count from the `caps` keyword, its cutoff from
    # the `cutoff` keyword and the result's .value; pin exactly that. The
    # cutoff and the value are ints in the graph's 2**-shift units
    calls = []
    real = dinic.max_flow

    def recorder(*args, **kwargs):
        out = real(*args, **kwargs)
        calls.append((args, kwargs, out))
        return out

    monkeypatch.setattr(dinic, "max_flow", recorder)
    doc = datasets.builtin("gas")
    fn = compile_system(doc.network, doc.model, target=0.5)
    states = np.ones(len(doc.model))
    fn.evaluate(states)
    fn.arc_profile(states)
    max_processable_flow(doc.network, doc.model)
    assert len(calls) == 3
    assert fn.cutoff == 0.5 * 2 ** fn.graph.shift
    for (_, kwargs, out), cutoff in zip(calls, (fn.cutoff, None, None)):
        assert set(kwargs) == {"caps", "cutoff"}
        assert kwargs["cutoff"] == cutoff
        assert len(kwargs["caps"]) == fn.graph.tails.size
        assert isinstance(out.value, int)


# ---------------------------------------------------------------------------
# tiny two-stage plant: single path, bottleneck 0.7


def micro_plant():
    net = PlantNetwork(
        num_nodes=2, num_stages=2, stations=((1,), (2,)),
        node_capacity={1: 1.0, 2: 1.0},
        edges=(Edge("e1", 1, 2, 1, 0.7),),
    )
    return net


def test_micro_plant_bottleneck():
    net = micro_plant()
    for backend in ("lp", "maxflow"):
        assert max_processable_flow(net, backend=backend).value == \
            pytest.approx(0.7, abs=1e-9)


def test_micro_plant_lp_shape():
    net = micro_plant()
    caps = apply_scenario(net, ComponentModel(rvs=()), {})
    lp = build_flow_lp(net, caps)
    # one edge variable, one station slack per station, and u
    assert lp.num_vars == 1 + 2 + 1
    sol = solve_lp(lp)
    assert sol.status == OPTIMAL
    assert sol.objective_value == pytest.approx(0.7, abs=1e-9)


def test_didactic_lp_shape():
    doc = datasets.builtin("didactic")
    caps = apply_scenario(doc.network, doc.model, doc.model.all_up())
    lp = build_flow_lp(doc.network, caps)
    assert len(caps.edge_cap) == 21
    assert len(caps.station_cap) == 8
    assert lp.num_vars == 21 + 8 + 1
    assert lp.upper == (*caps.edge_cap.values(), *caps.station_cap.values(), math.inf)


@pytest.mark.parametrize("mode", MODES)
def test_lp_station_bounds_are_the_station_capacities(mode):
    doc, a = didactic_assignment(STORAGE_REROUTED)
    caps = apply_scenario(doc.network, doc.model, a, mode)
    if mode != STATION_THROUGHPUT:
        # node limits are folded into the edges, so stations bound nothing
        assert set(caps.station_cap.values()) == {math.inf}
    lp = build_flow_lp(doc.network, caps)
    m = len(doc.network.edges)
    assert dict(zip(doc.network.station_stage, lp.upper[m:-1])) == caps.station_cap


def test_zero_capacity_stage_is_legal():
    net = PlantNetwork(
        num_nodes=2, num_stages=2, stations=((1,), (2,)),
        node_capacity={1: 0.0, 2: 1.0},
        edges=(Edge("e1", 1, 2, 1, 0.7),),
    )
    for backend in ("lp", "maxflow"):
        assert max_processable_flow(net, backend=backend).value == \
            pytest.approx(0.0, abs=1e-9)


# ---------------------------------------------------------------------------
# bounds and feasibility


@pytest.mark.parametrize("name", datasets.BUILTINS)
def test_stage_bottleneck_bound(name):
    doc = datasets.builtin(name)
    net = doc.network
    u = max_processable_flow(net, doc.model).value
    for stage_stations in net.stations:
        total = sum(net.node_capacity[s] for s in stage_stations)
        assert u <= total + 1e-9


def test_station_layer_cuts_bound_the_optimum():
    # every station layer of the layered graph is an S-T cut
    doc = datasets.builtin("gas")
    g = build_layered_graph(doc.network, doc.model)
    caps = g.capacities(np.ones(len(doc.model)))
    u = max_processable_flow(doc.network, doc.model).value
    for kind in ("source", "bridge", "sink"):
        by_stage = {}
        for arc_kind, ref, cap in zip(arc_roles(g, doc.network), g.refs, caps):
            if arc_kind == kind:
                stage = doc.network.station_stage[ref]
                by_stage.setdefault(stage, 0.0)
                by_stage[stage] += cap
        for cut_cap in by_stage.values():
            assert u <= cut_cap + 1e-9


def _residuals(net, caps, sol):
    """Plug a solution back into the balance rows; return worst violation."""
    lp = build_flow_lp(net, caps)
    # columns: edges in listing order, stations in stage order, then u
    x = [*(sol.edge_flow[e.edge_id] for e in net.edges),
         *(sol.station_flow[s] for s in net.station_stage), sol.value]
    assert len(x) == lp.num_vars
    worst = 0.0
    for row, rhs in zip(lp.rows, lp.rhs):
        worst = max(worst, abs(sum(c * x[j] for j, c in row) - rhs))
    for j, (lo, hi) in enumerate(zip(lp.lower, lp.upper)):
        worst = max(worst, lo - x[j], x[j] - hi)
    return worst


@pytest.mark.parametrize("backend", ["lp", "maxflow"])
@pytest.mark.parametrize("name", ["didactic", "gas"])
def test_returned_flows_are_feasible(name, backend):
    doc = datasets.builtin(name)
    rnd = random.Random(23)
    for _ in range(10):
        a = {rv.rv_id: (0 if rnd.random() < 0.15 else 1)
             for rv in doc.model.rvs}
        caps = apply_scenario(doc.network, doc.model, a)
        sol = max_processable_flow(doc.network, doc.model, a, backend=backend)
        assert _residuals(doc.network, caps, sol) <= 1e-9


@pytest.mark.parametrize("mode", [STATION_THROUGHPUT, EDGE_MIN, EDGE_MAX])
def test_backend_agreement_random_scenarios(mode):
    rnd = random.Random(7)
    for name in datasets.BUILTINS:
        doc = datasets.builtin(name)
        for _ in range(10):
            a = {rv.rv_id: (0 if rnd.random() < 0.15 else 1)
                 for rv in doc.model.rvs}
            lp_v = max_processable_flow(doc.network, doc.model, a,
                                        mode=mode, backend="lp").value
            mf_v = max_processable_flow(doc.network, doc.model, a,
                                        mode=mode, backend="maxflow").value
            assert abs(lp_v - mf_v) <= 1e-9


def test_repairing_never_hurts():
    doc = datasets.builtin("didactic")
    rnd = random.Random(5)
    for _ in range(20):
        a = {rv.rv_id: (0 if rnd.random() < 0.3 else 1)
             for rv in doc.model.rvs}
        base = max_processable_flow(doc.network, doc.model, a).value
        failed = [k for k, v in a.items() if v == 0]
        if not failed:
            continue
        pick = rnd.choice(failed)
        repaired = dict(a, **{pick: 1})
        better = max_processable_flow(doc.network, doc.model, repaired).value
        assert better >= base - 1e-12


# ---------------------------------------------------------------------------
# compiled system function


def test_system_function_matches_direct_solves():
    doc = datasets.builtin("gas")
    fn = compile_system(doc.network, doc.model, target=0.5)
    rnd = random.Random(31)
    for _ in range(25):
        states = np.array([0.0 if rnd.random() < 0.1 else 1.0
                           for _ in doc.model.rvs])
        a = {rv.rv_id: int(s) for rv, s in zip(doc.model.rvs, states)}
        direct = max_processable_flow(doc.network, doc.model, a)
        assert fn.flow_value(states) == pytest.approx(direct.value, abs=1e-9)
        assert fn.evaluate(states) == (direct.value >= 0.5)


def test_system_function_cutoff_consistent_with_full_value():
    doc = datasets.builtin("didactic")
    fn = compile_system(doc.network, doc.model, target=1.0)
    up = np.ones(len(doc.model.rvs))
    assert fn.evaluate(up)
    down = up.copy()
    down[doc.model.rv_index["n14"]] = 0.0
    assert not fn.evaluate(down)


def test_system_function_lp_backend_agrees():
    doc = datasets.builtin("didactic")
    rnd = random.Random(17)
    for mode in (STATION_THROUGHPUT, EDGE_MIN, EDGE_MAX):
        fast = compile_system(doc.network, doc.model, target=1.0, mode=mode)
        slow = compile_system(doc.network, doc.model, target=1.0, mode=mode,
                              backend="lp")
        for _ in range(8):
            states = np.array([0.0 if rnd.random() < 0.2 else 1.0
                               for _ in doc.model.rvs])
            assert abs(fast.flow_value(states) - slow.flow_value(states)) <= 1e-9


@pytest.mark.parametrize("backend", ["lp", "maxflow"])
@pytest.mark.parametrize("states", [
    np.full(22, 2.0),        # would double every owned capacity
    np.full(22, 0.5),        # would truncate to all down
    np.r_[np.ones(21), np.nan],
    np.ones(23),
    np.ones(3),
    np.ones((1, 22)),
])
def test_state_vectors_hold_one_0_or_1_per_rv(backend, states):
    doc = datasets.builtin("didactic")
    assert len(doc.model) == 22
    fn = compile_system(doc.network, doc.model, target=1.0, backend=backend)
    for query in (fn.flow_value, fn.evaluate):
        with pytest.raises(PlantDataError, match="22 entries"):
            query(states)
    # the accepted forms: 0/1 floats or ints, and bools
    for good in (np.ones(22), [1] * 22, np.ones(22, dtype=bool)):
        assert fn.evaluate(good)


@pytest.mark.parametrize("name", datasets.BUILTINS)
def test_every_builtin_has_exact_arithmetic(name):
    # the compile step holds every capacity as a whole number of 2**-shift
    # units, and each divides back to the document's float exactly
    doc = datasets.builtin(name)
    net = doc.network
    m = len(net.edges)
    for mode in MODES:
        g = compile_system(net, doc.model, doc.defaults.target_flow, mode=mode).graph
        unit = 2 ** g.shift
        assert g.terms.dtype == np.int64  # every count fits
        terms = g.terms.reshape(-1, g.tails.size)
        assert [c / unit for c in terms[0][:m]] == [e.capacity for e in net.edges]
        if mode != STATION_THROUGHPUT:  # only the fold modes read the end caps
            assert [c / unit for c in terms[1][:m]] == \
                [net.resolved_node_capacity(e.tail) for e in net.edges]
            assert [c / unit for c in terms[2][:m]] == \
                [net.resolved_node_capacity(e.head) for e in net.edges]
    # the lp backend gives verdicts only, never a witness or an arc profile
    slow = compile_system(net, doc.model, doc.defaults.target_flow, backend="lp")
    with pytest.raises(PlantDataError, match="maxflow"):
        slow.decide(np.ones(len(doc.model)))
    with pytest.raises(PlantDataError, match="maxflow"):
        slow.arc_profile(np.ones(len(doc.model)))


def test_verdict_is_exact_where_float_sums_round():
    # 0.1 + 0.2 rounds up in floats; the exact sum of the two capacities
    # falls short of it, so the plant fails, while the reported throughput
    # is the nearest float to that exact sum
    net = PlantNetwork(num_nodes=2, num_stages=2, stations=((1,), (2,)),
                       node_capacity={1: 1.0, 2: 1.0},
                       edges=(Edge("a", 1, 2, 1, 0.1), Edge("b", 1, 2, 1, 0.2)))
    model = ComponentModel(rvs=(RandomVariable("a", 0.1, ("a",)),
                                RandomVariable("b", 0.1, ("b",))))
    assert max_processable_flow(net, model).value == 0.30000000000000004 == 0.1 + 0.2
    fn = compile_system(net, model, target=0.1 + 0.2)
    assert fn.flow_value(np.ones(2)) == 0.1 + 0.2
    assert not fn.evaluate(np.ones(2))
    # the lp backend compares its float optimum, 0.1 + 0.2, so there it survives
    assert compile_system(net, model, target=0.1 + 0.2, backend="lp").evaluate(np.ones(2))
    up, members = fn.decide(np.ones(2))
    assert up is False  # the empty cut set: nothing survives
    assert members.dtype == bool and members.tolist() == [False, False]
    assert compile_system(net, model, target=0.3).evaluate(np.ones(2))


def test_unbounded_station_arcs_exceed_the_exact_edge_sum():
    # under edge-max the station arcs stand in for "unbounded"; 2**100 + 2**47
    # + 2**47 rounds to 2**100 as a float sum, so a float stand-in would cap
    # u* = 2**100 + 2**48 (a float) at 2**100 (the float LP returns 2**100 too)
    net = PlantNetwork(num_nodes=2, num_stages=2, stations=((1,), (2,)),
                       node_capacity={1: 1.0, 2: 1.0},
                       edges=(Edge("a", 1, 2, 1, 2.0 ** 100), Edge("b", 1, 2, 1, 2.0 ** 47),
                              Edge("c", 1, 2, 1, 2.0 ** 47)))
    model = ComponentModel(rvs=())
    exact = 2 ** 100 + 2 ** 48
    assert max_processable_flow(net, model, mode=EDGE_MAX).value == exact
    assert compile_system(net, model, exact, mode=EDGE_MAX).evaluate([])


def test_tiny_capacity_still_carries_flow():
    # no residual counts as saturated before it is 0
    net = PlantNetwork(num_nodes=2, num_stages=2, stations=((1,), (2,)),
                       node_capacity={1: 1.0, 2: 1.0},
                       edges=(Edge("e1", 1, 2, 1, 1e-13),))
    model = ComponentModel(rvs=(RandomVariable("e", 0.1, ("e1",)),))
    for backend in ("lp", "maxflow"):
        assert max_processable_flow(net, model, backend=backend).value == 1e-13
    fn = compile_system(net, model, target=1e-13)
    assert fn.evaluate(np.ones(1))
    assert not fn.evaluate(np.zeros(1))
    # the cutoff rounds a target between two unit counts up, never down
    above = compile_system(net, model, target=math.nextafter(1e-13, 1.0))
    assert not above.evaluate(np.ones(1))


@pytest.mark.parametrize("name", datasets.BUILTINS)
@pytest.mark.parametrize("mode", MODES)
def test_decide_witnesses_hold_at_their_extremes(name, mode):
    # a path set must survive with only its RVs up, a cut set must fail with
    # only its RVs down: the weakest vectors each witness claims to decide
    doc = datasets.builtin(name)
    fn = compile_system(doc.network, doc.model, doc.defaults.target_flow, mode=mode)
    n = len(doc.model)
    rnd = random.Random(f"{name}/{mode}")
    for rate in (0.05, 0.2, 0.5):
        for _ in range(10):
            states = np.array([0.0 if rnd.random() < rate else 1.0 for _ in range(n)])
            up, members = fn.decide(states)
            assert up == fn.evaluate(states)
            assert members.dtype == bool and members.shape == (n,)
            if up:
                assert (states[members] == 1.0).all()
                assert fn.evaluate(members.astype(float))
            else:
                assert (states[members] == 0.0).all()
                assert not fn.evaluate((~members).astype(float))


@pytest.mark.parametrize("mode", MODES)
def test_reads_cover_every_capacity_dependence(mode):
    # a witness is only as sound as this map: an arc whose capacity moves
    # with an RV must list that RV
    for name in datasets.BUILTINS:
        doc = datasets.builtin(name)
        g = build_layered_graph(doc.network, doc.model, mode)
        n = len(doc.model)
        reads = g.reads()
        assert reads.shape == (g.tails.size, n)
        rnd = random.Random(f"{name}/{mode}")
        for _ in range(20):
            states = np.array([0.0 if rnd.random() < 0.3 else 1.0 for _ in range(n)])
            base = g.capacities(states)
            for j in range(n):
                flipped = states.copy()
                flipped[j] = 1.0 - flipped[j]
                moved = g.capacities(flipped) != base
                assert not (moved & ~reads[:, j]).any()


# ---------------------------------------------------------------------------
# invalid plants


def _line_plant(**change) -> PlantNetwork:
    """Three stages of one station each, joined by edges a and b; u* = 1."""
    fields = dict(num_nodes=3, num_stages=3, stations=((1,), (2,), (3,)),
                  node_capacity={1: 1.0, 2: 1.0, 3: 1.0},
                  edges=(Edge("a", 1, 2, 1, 1.0), Edge("b", 2, 3, 2, 1.0)))
    return PlantNetwork(**{**fields, **change})


# each breaks one rule of validate_network; unchecked, every one gave a
# throughput or a solver error for a plant that does not exist, and the first
# two put an arc on a negative vertex index, which wraps to another vertex
INVALID_PLANTS = [
    pytest.param(_line_plant(edges=(Edge("a", 1, 2, 0, 1.0), Edge("b", 2, 3, 2, 1.0))),
                 "edge a stage 0 outside 1..2", id="stage-label"),
    pytest.param(_line_plant(edges=(Edge("a", 0, 2, 1, 1.0), Edge("b", 2, 3, 2, 1.0))),
                 "edge a endpoints (0,2) out of range", id="node-range"),
    pytest.param(_line_plant(stations=((1,), (1, 2), (3,))),
                 "node 1 is a station of stages 1 and 2", id="multi-stage"),
    pytest.param(_line_plant(edges=(Edge("a", 1, 2, 1, -1.0), Edge("b", 2, 3, 2, 1.0))),
                 "edge a capacity -1.0 < 0", id="negative-capacity"),
    pytest.param(_line_plant(node_capacity={1: 1.0, 2: 1.0}),
                 "station 3 has no explicit capacity", id="station-capacity"),
    pytest.param(_line_plant(edges=(Edge("a", 1, 2, 1, 1.0), Edge("a", 2, 3, 2, 1.0))),
                 "edge id 'a' used twice", id="duplicate-edge-id"),
    pytest.param(_line_plant(num_stages=1, stations=((1, 2, 3),)),
                 "need at least 2 stages, got 1", id="stages"),
    pytest.param(_line_plant(stations=((1,), (2,))),
                 "stations lists 2 stages, network declares 3", id="stations"),
    pytest.param(_line_plant(stations=((1,), (), (3,))),
                 "stage 2 has no stations", id="empty-stage"),
    pytest.param(_line_plant(stations=((1,), (2,), (4,))),
                 "stage 3 station 4 outside 1..3", id="station-node-range"),
    pytest.param(_line_plant(node_capacity={1: 1.0, 2: 1.0, 3: 1.0, 7: 1.0}),
                 "capacity given for unknown node 7", id="capacity-node-range"),
    pytest.param(_line_plant(node_capacity={1: 1.0, 2: -1.0, 3: 1.0}),
                 "node 2 capacity -1.0 < 0", id="negative-node-capacity"),
    pytest.param(_line_plant(edges=(Edge("a", 1, 2, 1, 1.0), Edge("b", 2, 2, 2, 1.0))),
                 "edge b is a self-loop at node 2", id="self-loop"),
]


def every_evaluator_refuses(net, model, error, message):
    refused = partial(pytest.raises, error, match=re.escape(message))
    with refused():
        build_layered_graph(net, model)
    for backend in BACKENDS:
        with refused():
            max_processable_flow(net, model, backend=backend)
    with refused():
        compile_system(net, model, 0.5)
    query = ReliabilityQuery(target_flow=0.5, samples=20)
    for estimate in (estimate_failure_probability, birnbaum_importance):
        with refused():
            estimate(net, model, query)


@pytest.mark.parametrize("net, message", INVALID_PLANTS)
def test_every_evaluator_refuses_an_invalid_plant(net, message):
    model = ComponentModel(tuple(RandomVariable(f"x{k}", 0.1, (k,)) for k in (1, 2, 3)))
    every_evaluator_refuses(net, model, PlantDataError, message)


def test_every_evaluator_refuses_a_duplicate_rv_id():
    # left to compile, assignment_states would read {'x': 0} as both RVs down,
    # while the estimators sample the two independently and list x twice
    net = _line_plant()
    model = ComponentModel((RandomVariable("x", 0.1, (1,)), RandomVariable("x", 0.2, (3,))))
    message = "rv id 'x' used twice"
    assert [v.message for v in validate_model(net, model).violations] == [message]
    every_evaluator_refuses(net, model, MappingError, message)


def test_a_network_is_checked_once(monkeypatch):
    calls = []
    real = model_module.validate_network
    monkeypatch.setattr(model_module, "validate_network", lambda net: calls.append(net) or real(net))
    doc = datasets.builtin("gas")
    for backend in BACKENDS:
        max_processable_flow(doc.network, doc.model, backend=backend)
    compile_system(doc.network, doc.model, 0.5)
    assert calls == [doc.network]


# ---------------------------------------------------------------------------
# the compile memo: one graph per (network, model, mode), reused across calls


def test_a_compiled_graph_is_read_only():
    # every call with the same network, model and mode shares one graph
    doc = datasets.builtin("gas")
    g = build_layered_graph(doc.network, doc.model)
    assert build_layered_graph(doc.network, doc.model) is g
    for name in ("tails", "heads", "terms", "owners"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(g, name)[0] = 0


def test_the_compile_memo_answers_like_a_cold_compile():
    # three models and all three modes interleave on one network, so every
    # slot sees its model change; each answer must equal the answer of a
    # copy of the network, which compiles afresh
    doc = datasets.builtin("gas")
    net, shipped = doc.network, doc.model
    # without the first RV that owns an edge, that edge's arc has no owner
    k = next(i for i, rv in enumerate(shipped.rvs) if any(isinstance(a, str) for a in rv.assets))
    dropped = ComponentModel(shipped.rvs[:k] + shipped.rvs[k + 1:])
    equal = copy.deepcopy(shipped)
    # the pickle round trip is how a network reaches a worker process
    shipped_net, shipped_copy = pickle.loads(pickle.dumps((net, shipped)))
    cases = [(net, shipped), (net, dropped), (net, equal), (shipped_net, shipped_copy),
             (net, shipped_copy), (shipped_net, dropped)]
    target = doc.defaults.target_flow
    rnd = random.Random(21)

    def answers(net, model, mode, states):
        a = dict(zip((rv.rv_id for rv in model.rvs), states))
        flows = [max_processable_flow(net, model, a, mode=mode, backend=backend)
                 for backend in BACKENDS]
        fn = compile_system(net, model, target, mode=mode)
        return ([(f.value, f.edge_flow, f.station_flow) for f in flows],
                fn.evaluate(states), fn.flow_value(states))

    for _ in range(2):
        for mode in MODES:
            for n, model in cases:
                states = [0 if rnd.random() < 0.2 else 1 for _ in model.rvs]
                assert answers(n, model, mode, states) == \
                    answers(copy.copy(n), model, mode, states), (mode, len(model))


def _graphs_alive() -> int:
    gc.collect()
    return sum(isinstance(o, LayeredGraph) for o in gc.get_objects())


def test_the_compile_memo_stays_bounded():
    doc = datasets.builtin("didactic")
    net = copy.copy(doc.network)
    before = _graphs_alive()
    for _ in range(1000):  # each call makes its own empty model
        max_processable_flow(net)
    assert _graphs_alive() - before <= 1
    models = (doc.model, ComponentModel(doc.model.rvs[1:]))
    for k in range(200):
        max_processable_flow(net, models[k % 2], mode=MODES[k % 3])
    assert _graphs_alive() - before <= len(MODES)
