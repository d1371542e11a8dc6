"""Plant network model: stages, stations, stage-labelled edges, component RVs.

A plant processes flow in M ordered stages. Stations are the nodes that perform
a stage's processing step; every other node is passive plumbing. A directed
edge carries flow belonging to exactly one stage transition m (from stage m
toward stage m+1), so the same physical pipe may appear several times with
different stage labels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from functools import cached_property

import numpy as np

from . import rng
from .errors import MappingError, PlantDataError

STATION_THROUGHPUT = "station-throughput"
EDGE_MIN = "edge-min"
EDGE_MAX = "edge-max"
MODES = (STATION_THROUGHPUT, EDGE_MIN, EDGE_MAX)


@dataclass(frozen=True)
class Edge:
    """Directed stage-labelled edge with a nominal capacity."""

    edge_id: str
    tail: int
    head: int
    stage: int
    capacity: float


@dataclass(frozen=True)
class PlantNetwork:
    """Immutable plant description.

    Parameters
    ----------
    num_nodes : int
        Nodes are indexed 1..num_nodes.
    num_stages : int
        Number of processing stages M; edge stage labels lie in 1..M-1.
    stations : tuple[tuple[int, ...], ...]
        stations[m-1] lists the station nodes of stage m, in a fixed order.
    node_capacity : dict[int, float]
        Explicit node capacities. Stations must have one; non-station nodes
        may be omitted and then default to the largest capacity among their
        incident edges.
    edges : tuple[Edge, ...]
        Stage-labelled edges in a fixed order. Edge ids must be unique.
    """

    num_nodes: int
    num_stages: int
    stations: tuple[tuple[int, ...], ...]
    node_capacity: dict[int, float]
    edges: tuple[Edge, ...]

    @cached_property
    def station_stage(self) -> dict[int, int]:
        """Map station node -> its stage."""
        out: dict[int, int] = {}
        for m, nodes in enumerate(self.stations, start=1):
            for k in nodes:
                out.setdefault(k, m)
        return out

    @cached_property
    def _violations(self) -> tuple[Violation, ...]:
        """validate_network(self).violations, found once per network."""
        return validate_network(self).violations

    @cached_property
    def _compiled(self) -> dict:
        """flow's memo: the last (model, LayeredGraph) per mode, and the LP skeleton."""
        return {}

    def __getstate__(self) -> dict:
        """A copy or a pickle holds the fields alone and derives the rest afresh."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @cached_property
    def edge_index(self) -> dict[str, int]:
        """Map edge_id -> position in the edges tuple."""
        return {e.edge_id: i for i, e in enumerate(self.edges)}

    @cached_property
    def _max_incident(self) -> dict[int, float]:
        out: dict[int, float] = {}
        for e in self.edges:
            for k in (e.tail, e.head):
                if e.capacity > out.get(k, 0.0):
                    out[k] = e.capacity
        return out

    def resolved_node_capacity(self, node: int) -> float:
        """Explicit capacity, or the max incident edge capacity for passive nodes."""
        cap = self.node_capacity.get(node)
        if cap is not None:
            return cap
        return self._max_incident.get(node, 0.0)


@dataclass(frozen=True)
class RandomVariable:
    """Binary component RV: state 1 works, state 0 failed.

    One RV may govern several assets at once (e.g. both directions of a
    physical pipe), in which case they fail together.
    """

    rv_id: str
    p_fail: float
    assets: tuple[int | str, ...]  # node index (int) or edge_id (str)


@dataclass(frozen=True)
class ComponentModel:
    """Ordered collection of component RVs for a network."""

    rvs: tuple[RandomVariable, ...]

    @cached_property
    def rv_index(self) -> dict[str, int]:
        return {rv.rv_id: i for i, rv in enumerate(self.rvs)}

    @cached_property
    def fail_limits(self) -> np.ndarray:
        """rng.word_limit(p_fail) per RV, read-only uint64: word k fails the RV when k < limit.

        PlantDataError when a p_fail breaks the probability rule; nothing is
        cached then, so every access refuses it.
        """
        if bad := probability_violations(self):
            raise PlantDataError(bad[0][1].message)
        limits = np.array([rng.word_limit(rv.p_fail) for rv in self.rvs], dtype=np.uint64)
        limits.flags.writeable = False
        return limits

    def __len__(self) -> int:
        return len(self.rvs)

    def all_up(self) -> dict[str, int]:
        """Assignment with every component functional."""
        return {rv.rv_id: 1 for rv in self.rvs}


@dataclass(frozen=True)
class Violation:
    code: str
    message: str


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...] = field(default_factory=tuple)

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self) -> str:
        if self.ok:
            return "network ok"
        return "\n".join(f"[{v.code}] {v.message}" for v in self.violations)


def validate_network(net: PlantNetwork) -> ValidationReport:
    """Check the structural invariants of a plant network.

    Returns a report listing every violation found; an empty report means the
    network is well formed. Checked invariants: at least one station per
    stage, no node in two stages, stations carry explicit capacities, edge
    stage labels in 1..M-1, node indices in range, finite nonnegative
    capacities, unique edge ids, no self-loops.
    """
    bad: list[Violation] = []

    def node_ok(k: int) -> bool:
        return 1 <= k <= net.num_nodes

    if net.num_stages < 2:
        bad.append(Violation("stages", f"need at least 2 stages, got {net.num_stages}"))
    if len(net.stations) != net.num_stages:
        bad.append(Violation(
            "stations",
            f"stations lists {len(net.stations)} stages, network declares {net.num_stages}",
        ))
    seen_station: dict[int, int] = {}
    for m, nodes in enumerate(net.stations, start=1):
        if not nodes:
            bad.append(Violation("empty-stage", f"stage {m} has no stations"))
        for k in nodes:
            if not node_ok(k):
                bad.append(Violation("node-range", f"stage {m} station {k} outside 1..{net.num_nodes}"))
            elif k in seen_station:
                bad.append(Violation(
                    "multi-stage", f"node {k} is a station of stages {seen_station[k]} and {m}"))
            else:
                seen_station[k] = m
            if k not in net.node_capacity:
                bad.append(Violation("station-capacity", f"station {k} has no explicit capacity"))

    for k, cap in net.node_capacity.items():
        if not node_ok(k):
            bad.append(Violation("node-range", f"capacity given for unknown node {k}"))
        if not math.isfinite(cap):
            bad.append(Violation("non-finite-capacity", f"node {k} capacity {cap} is not finite"))
        elif cap < 0:
            bad.append(Violation("negative-capacity", f"node {k} capacity {cap} < 0"))

    seen_edge: set[str] = set()
    for e in net.edges:
        if e.edge_id in seen_edge:
            bad.append(Violation("duplicate-edge-id", f"edge id {e.edge_id!r} used twice"))
        seen_edge.add(e.edge_id)
        if not node_ok(e.tail) or not node_ok(e.head):
            bad.append(Violation("node-range", f"edge {e.edge_id} endpoints ({e.tail},{e.head}) out of range"))
        if e.tail == e.head:
            bad.append(Violation("self-loop", f"edge {e.edge_id} is a self-loop at node {e.tail}"))
        if not 1 <= e.stage <= net.num_stages - 1:
            bad.append(Violation(
                "stage-label", f"edge {e.edge_id} stage {e.stage} outside 1..{net.num_stages - 1}"))
        if not math.isfinite(e.capacity):
            bad.append(Violation("non-finite-capacity", f"edge {e.edge_id} capacity {e.capacity} is not finite"))
        elif e.capacity < 0:
            bad.append(Violation("negative-capacity", f"edge {e.edge_id} capacity {e.capacity} < 0"))

    return ValidationReport(tuple(bad))


def validate_model(net: PlantNetwork, model: ComponentModel) -> ValidationReport:
    """Check a component model against its network.

    Every asset must exist in the network, no asset may be governed by two
    RVs, rv ids must be unique, and failure probabilities must lie in [0, 1].
    """
    # stable by RV: each RV's own checks come before its asset checks
    bad = sorted(_duplicate_ids(model) + probability_violations(model)
                 + _walk_assets(net, model)[1], key=lambda iv: iv[0])
    return ValidationReport(tuple(v for _, v in bad))


def _duplicate_ids(model: ComponentModel) -> list[tuple[int, Violation]]:
    """The id rule: each rv id names one RV."""
    first: dict[str, int] = {}
    return [(i, Violation("duplicate-rv-id", f"rv id {rv.rv_id!r} used twice"))
            for i, rv in enumerate(model.rvs) if first.setdefault(rv.rv_id, i) != i]


def probability_violations(model: ComponentModel) -> list[tuple[int, Violation]]:
    """The probability rule: each p_fail lies in [0, 1], which NaN does not."""
    return [(i, Violation("probability", f"rv {rv.rv_id} p_fail {rv.p_fail} outside [0,1]"))
            for i, rv in enumerate(model.rvs) if not 0.0 <= rv.p_fail <= 1.0]


def check_mode(mode: str) -> None:
    if mode not in MODES:
        raise PlantDataError(f"unknown semantics mode {mode!r}; expected one of {MODES}")


def _walk_assets(
    net: PlantNetwork, model: ComponentModel,
) -> tuple[dict[int | str, int], list[tuple[int, Violation]]]:
    """The asset-ownership rule: every asset exists and has exactly one RV.

    Returns the map asset -> index of its first RV, and an (RV index,
    violation) pair for each unknown or shared asset, in model order.
    """
    owners: dict[int | str, int] = {}
    bad: list[tuple[int, Violation]] = []
    for i, rv in enumerate(model.rvs):
        for asset in rv.assets:
            if isinstance(asset, str):
                if asset not in net.edge_index:
                    bad.append((i, Violation(
                        "unknown-asset", f"rv {rv.rv_id} references unknown edge {asset!r}")))
            elif not 1 <= asset <= net.num_nodes:
                bad.append((i, Violation(
                    "unknown-asset", f"rv {rv.rv_id} references unknown node {asset}")))
            if asset in owners:
                bad.append((i, Violation(
                    "shared-asset",
                    f"asset {asset!r} governed by both {model.rvs[owners[asset]].rv_id} and {rv.rv_id}")))
            else:
                owners[asset] = i
    return owners, bad


def asset_owners(net: PlantNetwork, model: ComponentModel) -> dict[int | str, int]:
    """Asset -> index of its RV; MappingError on a repeated rv id or an unknown or shared asset."""
    owners, bad = _walk_assets(net, model)
    if bad := sorted(_duplicate_ids(model) + bad, key=lambda iv: iv[0]):
        raise MappingError(bad[0][1].message)
    return owners


def assignment_states(model: ComponentModel, assignment: dict[str, int]) -> list[int]:
    """The assignment as a 0/1 state per RV, in model order.

    Raises MappingError if the assignment does not cover the model's RVs
    exactly or gives an RV a state other than 0 or 1.
    """
    known = model.rv_index
    missing = [rv_id for rv_id in known if rv_id not in assignment]
    if missing:
        raise MappingError(f"assignment missing rv ids: {missing}")
    unknown = [rv_id for rv_id in assignment if rv_id not in known]
    if unknown:
        raise MappingError(f"assignment has unknown rv ids: {unknown}")
    states = [assignment[rv.rv_id] for rv in model.rvs]
    for rv, state in zip(model.rvs, states):
        if state not in (0, 1):
            raise MappingError(f"rv {rv.rv_id} has non-binary state {state!r}")
    return states
