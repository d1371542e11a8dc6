"""Generated small staged plants: four solvers agree, the system function is
monotone, and the learned sets change no count.

Capacities mix multiples of 1/4 with decimals such as 0.1 and 1.1, which
binary floats cannot hold exactly. Dinic still computes exactly, in whole
units of the plant's 2**-k, so the estimators learn witnesses on every
plant and at any target; the sampling properties compare them with plain
evaluation of every state vector. Dinic's throughput is the exact optimum
rounded once to the nearest float, as is the exact-rational simplex's, so
the two agree to the bit.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings
from hypothesis import strategies as st

from plantflow.dinic import max_flow
from plantflow.flow import apply_scenario, build_flow_lp, compile_system, max_processable_flow
from plantflow.lp import OPTIMAL
from plantflow.model import (
    MODES,
    STATION_THROUGHPUT,
    ComponentModel,
    Edge,
    PlantNetwork,
    RandomVariable,
)
from plantflow.reliability import (
    DIRECT_METHOD,
    MARGINS_METHOD,
    ReliabilityQuery,
    birnbaum_importance,
    estimate_failure_probability,
    sample_states,
)
from fold_reference import apply_scenario as reference_fold
from lp_exact import solve_lp_exact
from test_model import tiny_model, tiny_net

POSITIVE = st.sampled_from([0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 0.1, 0.3, 1.1])
CAPACITIES = st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 0.1, 0.3, 1.1])
CHECKS = settings(max_examples=100, deadline=None, derandomize=True, database=None)


@st.composite
def staged_plants(draw):
    """(network, model, target, mode): 2-3 stages, 1-2 stations each, a few passive nodes.

    A stage-m edge runs from a stage-m station or passive node to a
    stage-(m+1) station or passive node, and the first edges join stations
    across every stage transition; each asset belongs to at most one RV, and an RV
    may govern several assets.
    """
    num_stages = draw(st.integers(2, 3))
    stations, last = [], 0
    for _ in range(num_stages):
        k = draw(st.integers(1, 2))
        stations.append(tuple(range(last + 1, last + k + 1)))
        last += k
    passive = list(range(last + 1, last + 1 + draw(st.integers(0, 2))))
    num_nodes = last + len(passive)
    node_capacity = {v: draw(POSITIVE) for group in stations for v in group}
    for v in passive:
        if draw(st.booleans()):
            node_capacity[v] = draw(CAPACITIES)

    edges = []
    for i in range(draw(st.integers(num_stages - 1, 8))):
        first = i < num_stages - 1  # station to station, one per transition
        m = i + 1 if first else draw(st.integers(1, num_stages - 1))
        tail = draw(st.sampled_from(stations[m - 1] + (() if first else tuple(passive))))
        head = draw(st.sampled_from(stations[m] + (() if first else tuple(passive))))
        if head != tail:
            edges.append(Edge(f"e{i}", tail, head, m, draw(CAPACITIES)))
    net = PlantNetwork(num_nodes, num_stages, tuple(stations), node_capacity, tuple(edges))

    assets = [e.edge_id for e in edges] + list(range(1, num_nodes + 1))
    slots = len(assets)
    owners = [draw(st.integers(-1, slots - 1)) for _ in assets]
    rvs = tuple(
        RandomVariable(f"x{k}", draw(st.sampled_from([0.05, 0.2, 0.5])),
                       tuple(a for a, o in zip(assets, owners) if o == k))
        for k in range(slots) if k in owners)
    target = draw(st.sampled_from([0.25, 0.5, 1.0, 1.5, 0.3, 1.1]))
    return net, ComponentModel(rvs=rvs), target, draw(st.sampled_from(MODES))


@CHECKS
@given(staged_plants(), st.data())
def test_dinic_float_lp_and_exact_lp_agree_in_every_mode(plant, data):
    net, model, _, _ = plant
    assignment = {rv.rv_id: data.draw(st.integers(0, 1)) for rv in model.rvs}
    for mode in MODES:
        u_dinic = max_processable_flow(net, model, assignment, mode=mode).value
        # the LP backend raises unless the float simplex ends optimal
        u_lp = max_processable_flow(net, model, assignment, mode=mode, backend="lp").value
        exact = solve_lp_exact(build_flow_lp(net, apply_scenario(net, model, assignment, mode)))
        assert exact.status == OPTIMAL
        assert abs(u_lp - u_dinic) <= 1e-9
        assert exact.objective_value == u_dinic


@CHECKS
@given(staged_plants(), st.integers(0, 2 ** 64 - 1))
# the passive node's RV "mid" down: edge-min closes both of its edges, while
# station-throughput and edge-max leave every capacity as it was
@example((tiny_net(), tiny_model(), 0.5, STATION_THROUGHPUT), 0b101)
def test_scenario_fold_equals_the_reference_dict_fold(plant, bits):
    net, model, _, _ = plant
    assignment = {rv.rv_id: bits >> k & 1 for k, rv in enumerate(model.rvs)}
    for mode in MODES:
        caps = apply_scenario(net, model, assignment, mode)
        ref = reference_fold(net, model, assignment, mode)
        assert caps.edge_cap == ref.edge_cap
        if mode == STATION_THROUGHPUT:
            assert caps.station_cap == ref.station_cap


@CHECKS
@given(staged_plants(), st.integers(0, 2 ** 32 - 1))
def test_learned_sets_count_like_direct_evaluation(plant, seed):
    net, model, target, mode = plant
    fn = compile_system(net, model, target, mode=mode)
    q = ReliabilityQuery(target, mode=mode, samples=80, seed=seed)
    rep = estimate_failure_probability(net, model, q)
    direct = sum(not fn.evaluate(sample_states(model, seed, i)) for i in range(q.samples))
    assert rep.failures == direct


@CHECKS
@given(staged_plants(), st.integers(0, 2 ** 32 - 1))
def test_margins_importance_equals_direct_importance(plant, seed):
    net, model, target, mode = plant
    q = ReliabilityQuery(target, mode=mode, samples=40, seed=seed)
    margins = birnbaum_importance(net, model, q, method=MARGINS_METHOD)
    direct = birnbaum_importance(net, model, q, method=DIRECT_METHOD)
    assert margins.entries == direct.entries


@CHECKS
@given(staged_plants(), st.data())
def test_raising_a_failed_component_never_hurts(plant, data):
    # every learned cut set and path set rests on this monotonicity
    net, model, target, mode = plant
    fn = compile_system(net, model, target, mode=mode)
    states = np.array([data.draw(st.sampled_from([0.0, 1.0])) for _ in model.rvs])
    down = np.flatnonzero(states == 0.0)
    if not down.size:
        return
    raised = states.copy()
    raised[data.draw(st.sampled_from(down.tolist()))] = 1.0
    assert fn.flow_value(raised) >= fn.flow_value(states)
    assert fn.evaluate(raised) >= fn.evaluate(states)


@CHECKS
@given(staged_plants(), st.data())
def test_failure_witness_is_the_smaller_extreme_cut(plant, data):
    # never more failed RVs than the source-side cut reads, and still a cut set
    net, model, target, _ = plant
    states = np.array([data.draw(st.sampled_from([0.0, 1.0])) for _ in model.rvs])
    for mode in MODES:
        fn = compile_system(net, model, target, mode=mode)
        up, members = fn.decide(states)
        if up:
            continue
        g = fn.graph
        side = np.array(max_flow(g.topology, caps=g.capacities(states), cutoff=fn.cutoff)
                        .source_side, dtype=bool)
        leaving = side[g.tails] & ~side[g.heads]
        source_set = g.reads()[leaving].any(axis=0) & (states == 0.0)
        assert (states[members] == 0.0).all()
        assert np.count_nonzero(members) <= np.count_nonzero(source_set)
        assert not fn.evaluate((~members).astype(float))


@CHECKS
@given(staged_plants(), st.data())
def test_scipy_highs_agrees_with_dinic_in_every_mode(plant, data):
    optimize = pytest.importorskip("scipy.optimize")
    net, model, _, _ = plant
    assignment = {rv.rv_id: data.draw(st.integers(0, 1)) for rv in model.rvs}
    for mode in MODES:
        lp = build_flow_lp(net, apply_scenario(net, model, assignment, mode))
        a_eq = np.zeros((len(lp.rows), lp.num_vars))
        for i, row in enumerate(lp.rows):
            for j, c in row:
                a_eq[i, j] += c
        out = optimize.linprog(-np.array(lp.objective), A_eq=a_eq, b_eq=lp.rhs,
                               bounds=list(zip(lp.lower, lp.upper)), method="highs")
        assert out.status == 0
        u_dinic = max_processable_flow(net, model, assignment, mode=mode).value
        assert abs(-out.fun - u_dinic) <= 1e-9
