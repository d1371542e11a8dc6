"""Maximum processable flow through a staged plant.

Two interchangeable backends compute the same quantity:

- "lp": an equality-form linear program over per-edge flows plus one
  processing variable per station (intake at the first stage, bridged
  throughput at middle stages, delivery at the last stage) and the objective
  variable u, in that column order: build_flow_lp returns a plain
  LinearProgram. Flow is conserved per node and per stage label, so material
  on an m-labelled edge stays m-labelled until a stage-(m+1) station
  processes it.
- "maxflow": the equivalent layered graph, one copy per stage label of every
  node an edge or station touches, with edges as intra-layer arcs and
  stations as source, bridge, or sink arcs. A station's capacity bounds its
  arc; Dinic's algorithm does the rest, in exact integer arithmetic (see
  LayeredGraph), and its results leave this module as the nearest floats.

Both backends honour the three node-capacity semantics described at
apply_scenario through one scenario fold, LayeredGraph.capacities: max flow
reads its integer arc capacities, the LP reads the same capacities as floats
through LayeredGraph.effective. Agreement between them to 1e-9 is part of
the test suite; if they ever split, trust neither and look for a modelling
bug.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import dinic
from .errors import PlantDataError
from .lp import OPTIMAL, LinearProgram, compile_rows, solve_lp
from .model import (
    EDGE_MAX,
    STATION_THROUGHPUT,
    ComponentModel,
    PlantNetwork,
    asset_owners,
    assignment_states,
    check_mode,
)

LP_BACKEND = "lp"
MAXFLOW_BACKEND = "maxflow"
BACKENDS = (LP_BACKEND, MAXFLOW_BACKEND)


def _check_backend(backend: str) -> None:
    if backend not in BACKENDS:
        raise PlantDataError(f"unknown backend {backend!r}; expected one of {BACKENDS}")


# ---------------------------------------------------------------------------
# LP formulation


@dataclass(frozen=True)
class EffectiveCapacities:
    """Capacities after a scenario is applied, under one semantics mode.

    edge_cap has one entry per edge and station_cap one per station. In mode
    ``station-throughput`` edge_cap is the raw (possibly zeroed) edge
    capacity and station_cap bounds each station's processing separately.
    In mode ``edge-min`` / ``edge-max`` the end-node capacities are already
    folded into edge_cap (by min or max), so stations bound nothing and every
    station_cap is math.inf.
    """

    mode: str
    edge_cap: dict[str, float]
    station_cap: dict[int, float]


def build_flow_lp(net: PlantNetwork, caps: EffectiveCapacities) -> LinearProgram:
    """Assemble the throughput LP for one set of effective capacities.

    Columns: the edge flows in listing order, then the station flows in
    stage order (the layered graph's arcs, in LayeredGraph.refs order), then
    u, the objective. Edge columns are bounded by edge_cap and station
    columns by station_cap, which is math.inf in the modes that fold node
    limits into the edge bounds. Only those bounds depend on caps; the rest,
    with the tableau rows solve_lp builds from it (lp.compile_rows), is
    compiled once per network, in the memo build_layered_graph keeps there.
    """
    if (skeleton := net._compiled.get(LP_BACKEND)) is None:
        skeleton = net._compiled[LP_BACKEND] = compile_rows(_lp_skeleton(net))
    upper = [caps.edge_cap[e.edge_id] for e in net.edges]
    upper += [caps.station_cap[s] for s in net.station_stage]
    return replace(skeleton, upper=(*upper, math.inf))


def _lp_skeleton(net: PlantNetwork) -> LinearProgram:
    """The network's flow LP with every upper bound at math.inf."""
    m = len(net.edges)
    n_vars = m + len(net.station_stage) + 1
    u = n_vars - 1
    objective = [0.0] * n_vars
    objective[u] = 1.0

    # Per (node, stage label) balance: net outflow minus the station term.
    balance: dict[tuple[int, int], list[tuple[int, float]]] = {}
    for j, e in enumerate(net.edges):
        balance.setdefault((e.tail, e.stage), []).append((j, 1.0))
        balance.setdefault((e.head, e.stage), []).append((j, -1.0))
    last = net.num_stages
    intake, delivery = [], []
    for j, (s, stage) in enumerate(net.station_stage.items(), start=m):
        if stage == 1:
            balance.setdefault((s, 1), []).append((j, -1.0))
            intake.append((j, 1.0))
        elif stage == last:
            balance.setdefault((s, last - 1), []).append((j, 1.0))
            delivery.append((j, 1.0))
        else:
            balance.setdefault((s, stage - 1), []).append((j, 1.0))
            balance.setdefault((s, stage), []).append((j, -1.0))

    rows = [tuple(terms) for _, terms in sorted(balance.items())]
    rows += [(*intake, (u, -1.0)), (*delivery, (u, -1.0))]
    return LinearProgram(objective=tuple(objective), rows=tuple(rows), rhs=(0.0,) * len(rows),
                         lower=(0.0,) * n_vars, upper=(math.inf,) * n_vars)


# ---------------------------------------------------------------------------
# Layered-graph reduction


@dataclass(frozen=True, eq=False)
class LayeredGraph:
    """The layered max-flow graph of one (network, model, mode): built once, shared, read-only.

    Arcs are the network's edges in listing order (num_edges of them), then
    one source, bridge or sink arc per station in stage order. Arc a runs
    tails[a] -> heads[a], and topology compiles those arcs for Dinic: source
    arcs leave topology.source, sink arcs enter topology.sink, and bridges
    follow the edges. num_rvs is the length of the model's state vectors.

    An arc's capacity folds its terms by fold. Term k of arc a, at index
    k * len(tails) + a, is a capacity in terms, zeroed when its RV in owners
    fails (-1: no RV). Station-throughput gives each arc one term, its own.
    Edge-min (fold np.minimum) and edge-max (np.maximum) give each edge its
    own, its tail's and its head's, and each station arc terms owned by no
    RV that stand in for "unbounded": one unit more than the sum, over the
    edges, of each edge's largest term.

    Every finite float is an integer times a power of two, so terms holds
    whole numbers of 2**-shift units, with shift the smallest that makes
    every edge and node capacity whole: int64 when every count fits, Python
    ints in an object array otherwise. Dinic receives them as Python ints,
    so its arithmetic is exact.
    """

    topology: dinic.Topology
    tails: np.ndarray
    heads: np.ndarray
    mode: str
    shift: int
    terms: np.ndarray
    owners: np.ndarray
    fold: np.ufunc
    refs: tuple[int | str, ...]  # edge id for edge arcs, station node otherwise
    num_edges: int
    num_rvs: int

    def __post_init__(self):
        for a in (self.tails, self.heads, self.terms, self.owners):
            a.flags.writeable = False

    def capacities(self, states) -> np.ndarray:
        """Arc capacities, in 2**-shift units, under a 0/1 state vector ordered like the model;
        PlantDataError for any other vector (bools, the estimators' own, skip the value scan)."""
        states = np.asarray(states)
        if states.shape != (self.num_rvs,) or (
                states.dtype != bool and not ((states == 0) | (states == 1)).all()):
            raise PlantDataError(f"a state vector holds {self.num_rvs} entries, each 0 or 1")
        ext = np.ones(self.num_rvs + 1, dtype=np.int64)  # ext[-1] = 1 serves terms no RV owns
        ext[:-1] = states
        caps = self.terms * ext[self.owners]
        if len(caps) > len(self.tails):  # more terms than arcs: fold each arc's terms
            caps = self.fold.reduce(caps.reshape(-1, len(self.tails)))
        return caps

    def _readout(self, counts) -> tuple[dict[str, float], dict[int, float]]:
        """Arc-ordered counts of 2**-shift units as floats keyed by edge id and by station
        node; the counts are Python ints, so each division rounds once."""
        unit, m = 2 ** self.shift, self.num_edges
        values = [c / unit for c in counts]
        return dict(zip(self.refs[:m], values[:m])), dict(zip(self.refs[m:], values[m:]))

    def effective(self, states) -> EffectiveCapacities:
        """capacities(states) as floats keyed by edge id and station node.

        Each count divides back to the document's float exactly. Station
        arcs bound nothing in the edge-min and edge-max modes, so there a
        station's capacity is math.inf.
        """
        edge_cap, station_cap = self._readout(self.capacities(states).tolist())
        if self.mode != STATION_THROUGHPUT:
            station_cap = dict.fromkeys(station_cap, math.inf)
        return EffectiveCapacities(self.mode, edge_cap, station_cap)

    def reads(self) -> np.ndarray:
        """reads[a, j]: capacities(states)[a] depends on states[j]."""
        out = np.zeros((self.tails.size, self.num_rvs + 1), dtype=bool)  # column -1: no RV
        out[np.arange(self.owners.size) % self.tails.size, self.owners] = True
        return out[:, :-1]


def build_layered_graph(
    net: PlantNetwork,
    model: ComponentModel,
    mode: str = STATION_THROUGHPUT,
) -> LayeredGraph:
    """One vertex per (node, stage label), plus a super source and sink.

    Only the nodes that an edge or a station touches get vertices, so a
    node_count beyond them costs nothing.

    Memoised on the network, one slot per mode: a call whose model equals
    (==) the slot's reuses its graph, any other compiles and takes the slot,
    which relies on PlantNetwork and ComponentModel being immutable.

    Raises PlantDataError for an unknown mode or a network validate_network
    refuses (naming its first violation), MappingError as asset_owners does.
    A refused compile stores nothing, so every such call refuses.
    """
    check_mode(mode)
    if (slot := net._compiled.get(mode)) and slot[0] == model:
        return slot[1]
    if bad := net._violations:
        raise PlantDataError(bad[0].message)
    owner = asset_owners(net, model)
    edges = net.edges
    index = {v: i for i, v in enumerate(sorted({*net.station_stage, *(e.tail for e in edges),
                                                *(e.head for e in edges)}))}
    n, layers = len(index), net.num_stages - 1
    source = layers * n
    sink = source + 1

    def vertex(node: int, label: int) -> int:
        return (label - 1) * n + index[node]

    node_cap = {v: net.resolved_node_capacity(v) for v in index}
    tails = [vertex(e.tail, e.stage) for e in edges]
    heads = [vertex(e.head, e.stage) for e in edges]
    refs: list[int | str] = [e.edge_id for e in edges]
    last = net.num_stages
    for stage, members in enumerate(net.stations, start=1):
        for s in members:
            tails.append(source if stage == 1 else vertex(s, stage - 1))
            heads.append(sink if stage == last else vertex(s, stage))
            refs.append(s)

    # every denominator is a power of 2
    ratios = {c: float(c).as_integer_ratio() for c in {*(e.capacity for e in edges),
                                                        *node_cap.values()}}
    shift = max(den.bit_length() - 1 for _, den in ratios.values())
    units = {c: num << (shift - den.bit_length() + 1) for c, (num, den) in ratios.items()}

    def term(asset: int | str, cap: float) -> tuple[int, int]:
        return units[cap], owner.get(asset, -1)

    # one row per term, each over every arc
    rows = [[term(e.edge_id, e.capacity) for e in edges]]
    if mode == STATION_THROUGHPUT:
        rows[0] += [term(s, node_cap[s]) for s in refs[len(edges):]]
    else:
        rows += [[term(e.tail, node_cap[e.tail]) for e in edges],
                 [term(e.head, node_cap[e.head]) for e in edges]]
        # more than any flow, since every unit of flow crosses an edge
        unbounded = 1 + sum(max(cap for cap, _ in arc) for arc in zip(*rows))
        rows = [row + [(unbounded, -1)] * (len(refs) - len(edges)) for row in rows]
    caps, rvs = zip(*(t for row in rows for t in row))
    # int64 folds fastest; Python ints (object) hold any larger count exactly
    dtype = np.int64 if max(caps) < 2 ** 63 else object
    graph = LayeredGraph(
        topology=dinic.build_topology(layers * n + 2, source, sink, tails, heads),
        tails=np.array(tails), heads=np.array(heads), mode=mode, shift=shift,
        terms=np.array(caps, dtype=dtype), owners=np.array(rvs, dtype=np.int64),
        fold=np.maximum if mode == EDGE_MAX else np.minimum,
        refs=tuple(refs), num_edges=len(edges), num_rvs=len(model))
    net._compiled[mode] = (model, graph)
    return graph


def _solve(graph: LayeredGraph, states, cutoff: int | None = None) -> dinic.MaxFlowResult:
    """Dinic on the compiled topology, in 2**-shift units; each call resets only the residuals."""
    return dinic.max_flow(graph.topology, caps=graph.capacities(states), cutoff=cutoff)


def apply_scenario(
    net: PlantNetwork,
    model: ComponentModel,
    assignment: dict[str, int],
    mode: str = STATION_THROUGHPUT,
) -> EffectiveCapacities:
    """Turn a component assignment into effective capacities.

    Every asset of a failed RV (state 0) first gets capacity 0; everything
    else keeps its nominal value. The semantics mode then decides how node
    capacities act on flow bounds, and under edge-max a failed edge can get
    capacity back from its end nodes (see that bullet):

    - ``station-throughput``: edges keep their own capacities and station
      capacities separately bound each station's bridged throughput. A
      passive (non-station) node's capacity bounds nothing here, so neither
      its explicit capacity nor the failure of an RV governing it has an
      effect.
    - ``edge-min``: each edge bound becomes min(edge, tail node, head node),
      reading a node capacity as a limit on everything touching the node.
    - ``edge-max``: the same fold with max, under which a failed station
      never throttles a surviving edge, and a failed edge still carries
      max(tail node, head node). A passive node without an explicit
      capacity resolves to its largest incident edge's nominal capacity
      and no RV governs it, so it keeps a failed edge open: with every
      component down, didactic and gas still deliver 1, pressure-original
      55 and pressure-expanded 420.

    The fold is LayeredGraph.capacities, the one max flow reads.

    Raises
    ------
    PlantDataError
        If the mode is unknown.
    MappingError
        If the assignment does not cover the model's RVs exactly, or an RV
        references an asset the network does not have or another RV governs.
    """
    return build_layered_graph(net, model, mode).effective(assignment_states(model, assignment))


def _lp_optimum(lp: LinearProgram):
    sol = solve_lp(lp)
    if sol.status != OPTIMAL:
        raise RuntimeError(f"throughput LP ended {sol.status}, expected optimal")
    return sol


# ---------------------------------------------------------------------------
# Public entry point


@dataclass(frozen=True)
class FlowSolution:
    """Throughput plus how it moves: per-edge flow and per-station load."""

    value: float
    mode: str
    backend: str
    edge_flow: dict[str, float]
    station_flow: dict[int, float]


def max_processable_flow(
    net: PlantNetwork,
    model: ComponentModel | None = None,
    assignment: dict[str, int] | None = None,
    *,
    mode: str = STATION_THROUGHPUT,
    backend: str = MAXFLOW_BACKEND,
) -> FlowSolution:
    """Maximum end-to-end throughput for one scenario.

    With no model the plant is taken as fully operational; with a model and
    no assignment, every component is up. The two backends are exchangeable;
    "maxflow" is the faster default, "lp" the transparent reference.
    """
    _check_backend(backend)
    if model is None:
        if assignment:
            raise PlantDataError("assignment given without a component model")
        model = ComponentModel(rvs=())
    if assignment is None:
        assignment = model.all_up()

    if backend == LP_BACKEND:
        sol = _lp_optimum(build_flow_lp(net, apply_scenario(net, model, assignment, mode)))
        x, m = sol.x, len(net.edges)
        edge_flow = {e.edge_id: f for e, f in zip(net.edges, x[:m])}
        station_flow = dict(zip(net.station_stage, x[m:-1]))
        return FlowSolution(sol.objective_value, mode, backend, edge_flow, station_flow)

    graph = build_layered_graph(net, model, mode)
    result = _solve(graph, assignment_states(model, assignment))
    edge_flow, station_flow = graph._readout(result.arc_flow)
    return FlowSolution(result.value / 2 ** graph.shift, mode, backend, edge_flow, station_flow)


# ---------------------------------------------------------------------------
# Compiled evaluator for repeated scenario queries


class SystemFunction:
    """Survival predicate over component states, compiled once per model.

    evaluate() answers "does throughput reach the target" for a 0/1 state
    vector in model order. The maxflow backend vectorises capacity
    updates and lets Dinic stop at the target; the lp backend re-solves the
    program each call and exists as a slow cross-check.

    The maxflow verdict compares exact integers, Dinic's flow in units of
    2**-graph.shift against cutoff, the least such integer >= target; its
    values that leave this class (flow_value, arc_profile) are the nearest
    floats. The lp verdict compares the float optimum with target instead,
    so edges 0.1 and 0.2 reach target 0.1 + 0.2 under lp, not maxflow.
    decide() gives the maxflow verdict plus the set of RVs that proves it.
    """

    def __init__(
        self,
        net: PlantNetwork,
        model: ComponentModel,
        target: float,
        *,
        mode: str = STATION_THROUGHPUT,
        backend: str = MAXFLOW_BACKEND,
    ):
        _check_backend(backend)
        # the graph build also validates mode and the model/network pairing
        self.graph = build_layered_graph(net, model, mode)
        self.net = net
        self.target = float(target)
        if not math.isfinite(self.target):
            raise PlantDataError(f"target must be a finite number, got {target!r}")
        self.backend = backend
        num, den = self.target.as_integer_ratio()
        self.cutoff = -((-num << self.graph.shift) // den)  # ceil(target * 2**shift)
        self._unit = 2 ** self.graph.shift
        self._reads = self.graph.reads()

    def flow_value(self, states) -> float:
        """Throughput for one state vector."""
        if self.backend == LP_BACKEND:
            return self._lp_value(states)
        return _solve(self.graph, states).value / self._unit

    def arc_profile(self, states) -> tuple[float, np.ndarray]:
        """Full maximum flow and the per-arc flows achieving it."""
        if self.backend == LP_BACKEND:
            raise PlantDataError("arc profiles need the maxflow backend")
        result = _solve(self.graph, states)
        return result.value / self._unit, np.array([f / self._unit for f in result.arc_flow])

    def evaluate(self, states) -> bool:
        """True when the plant still reaches its target throughput."""
        if self.backend == LP_BACKEND:
            return self._lp_value(states) >= self.target
        return _solve(self.graph, states, self.cutoff).value >= self.cutoff

    def decide(self, states) -> tuple[bool, np.ndarray]:
        """evaluate() plus the RVs that prove it, as one bool per RV.

        A survivor's set holds the up RVs read by the arcs that carry its
        flow: a path set, since that flow stays feasible in any state vector
        with those RVs up, so every such vector survives. A failure's set
        holds the failed RVs read by the extreme minimum cut with fewer
        failed components: the arcs entering the sink side or, on a tie, the
        arcs leaving the source side. Either is a cut set, whose capacity no
        vector with those RVs down can raise above this flow, so every such
        vector fails. An arc reads the RVs that own its terms. Both arguments
        rest on the exact integer arithmetic.
        """
        if self.backend == LP_BACKEND:
            raise PlantDataError("witnesses need the maxflow backend")
        result = _solve(self.graph, states, self.cutoff)
        up = result.value >= self.cutoff
        held = np.asarray(states) == up
        if up:
            return up, self._reads[np.fromiter(result.arc_flow, dtype=bool)].any(axis=0) & held
        source, sink = (np.frombuffer(bytes(side), dtype=bool)
                        for side in (result.source_side, result.sink_side))
        tails, heads = self.graph.tails, self.graph.heads
        first = self._reads[source[tails] & ~source[heads]].any(axis=0) & held
        last = self._reads[~sink[tails] & sink[heads]].any(axis=0) & held
        return up, last if np.count_nonzero(last) < np.count_nonzero(first) else first

    def _lp_value(self, states) -> float:
        return _lp_optimum(build_flow_lp(self.net, self.graph.effective(states))).objective_value


# reliability builds its system through this name, and the benchmark's
# flow.compile_system span wraps it there
compile_system = SystemFunction
