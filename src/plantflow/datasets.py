"""Built-in plant datasets and the canonical network document format.

Three plant families ship with the package: a small four-stage teaching
network (``didactic``), a five-stage pressure regularisation plant in its
as-built and expanded layouts (``pressure-original`` / ``pressure-expanded``),
and a four-stage gas supply plant (``gas``). One helper assembles all four
from their stations and edges, and one component rule gives each its RVs:
one per station, in stage order, then one per physical pipe, whose directed,
stage-labelled edges between the same two nodes fail together. All of them
can be serialised to a single JSON document schema and read back losslessly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import partial

from .errors import DataFormatError
from .model import (
    MODES,
    STATION_THROUGHPUT,
    ComponentModel,
    Edge,
    PlantNetwork,
    RandomVariable,
    validate_model,
    validate_network,
)

FORMAT_VERSION = 1


@dataclass(frozen=True)
class AnalysisDefaults:
    """Per-dataset defaults for reliability runs."""

    target_flow: float
    mode: str = STATION_THROUGHPUT


@dataclass(frozen=True)
class NetworkDocument:
    """A complete analysis input: network, component model, defaults."""

    network: PlantNetwork
    model: ComponentModel
    defaults: AnalysisDefaults


# --------------------------------------------------------------------------
# one assembly and one component rule for every built-in
# --------------------------------------------------------------------------


def _document(layers, p_fail: float, target_flow: float, name=None) -> NetworkDocument:
    """Assemble a built-in plant and its component model.

    Each layer is ``(stations, edges)``: ``stations[m-1]`` holds stage m's
    ``(node, capacity)`` pairs, and each edge is ``(tail, head, stage,
    capacity)``. A later layer adds its stations to the same stages and its
    edges after the earlier ones; edge ids run e1, e2, ... in listing order.
    The plant's nodes are 1 up to the highest node an edge touches.

    The component rule gives each layer one RV per station, in stage order,
    then one RV per physical pipe: the edges between the same two nodes, in
    either direction and at any stage label, fail together, and pipes come
    in order of first appearance. RVs are X1, X2, ... unless ``name(key)``
    names each by its station node or its pipe's sorted node pair. A parallel
    copy of a pipe that fails on its own must not be listed through this
    rule, which would merge it into the existing pipe's RV.
    """
    stations: list[list[int]] = [[] for _ in layers[0][0]]
    node_capacity: dict[int, float] = {}
    edges: list[Edge] = []
    groups: list[tuple[int | tuple[int, int], tuple[int | str, ...]]] = []
    for layer_stations, layer_edges in layers:
        for row, pairs in zip(stations, layer_stations):
            for k, cap in pairs:
                row.append(k)
                node_capacity[k] = float(cap)
                groups.append((k, (k,)))
        pipes: dict[tuple[int, int], list[str]] = {}
        for tail, head, stage, cap in layer_edges:
            edges.append(Edge(f"e{len(edges) + 1}", tail, head, stage, float(cap)))
            pipes.setdefault((min(tail, head), max(tail, head)), []).append(edges[-1].edge_id)
        groups += [(pair, tuple(ids)) for pair, ids in pipes.items()]
    net = PlantNetwork(
        num_nodes=max(max(e.tail, e.head) for e in edges), num_stages=len(stations),
        stations=tuple(map(tuple, stations)), node_capacity=node_capacity, edges=tuple(edges),
    )
    rvs = tuple(RandomVariable(name(key) if name else f"X{i}", p_fail, assets)
                for i, (key, assets) in enumerate(groups, start=1))
    return NetworkDocument(net, ComponentModel(rvs), AnalysisDefaults(target_flow))


# --------------------------------------------------------------------------
# didactic network
# --------------------------------------------------------------------------

# (tail, head, stage); all capacities 1.0. Edge ids e1..e21 in listing order.
# The (10,11) edge carries the stage-3 transition: its outflow originates at
# the stage-3 station n10, and with any lower label n10 would have no outlet
# and the fully functional plant could never reach its nominal throughput.
_DIDACTIC_EDGES = (
    (1, 3, 1), (2, 3, 1), (3, 4, 1), (4, 5, 1), (5, 4, 2),
    (4, 6, 1), (4, 6, 2), (6, 4, 2), (4, 10, 2), (6, 7, 1),
    (7, 6, 2), (6, 8, 1), (6, 8, 2), (8, 6, 2), (8, 9, 1),
    (9, 8, 2), (8, 12, 2), (10, 11, 3), (11, 12, 3), (12, 13, 3),
    (13, 14, 3),
)

_DIDACTIC_STATIONS = (
    ((1, 2), 0.5),
    ((5, 7, 9), 0.5),
    ((10, 12), 0.5),
    ((14,), 1.0),
)


def didactic(p_fail: float = 0.03) -> NetworkDocument:
    """Four-stage teaching network: 14 nodes, 21 stage-labelled edges.

    The component model has one RV per station node, named ``n{k}``, and one
    per physical pipe, named ``p{a}_{b}`` (14 pipes after merging directional
    and stage variants), all with the same failure probability.
    """
    stations = tuple(tuple((k, cap) for k in nodes) for nodes, cap in _DIDACTIC_STATIONS)
    edges = tuple((tail, head, stage, 1.0) for tail, head, stage in _DIDACTIC_EDGES)
    return _document([(stations, edges)], p_fail, target_flow=1.0,
                     name=lambda key: f"n{key}" if isinstance(key, int) else "p{}_{}".format(*key))


# --------------------------------------------------------------------------
# pressure regularisation plant (original and expanded layouts)
# --------------------------------------------------------------------------

# (tail, head, stage, capacity), ids e1..e55; e30..e55 belong to the expansion.
_PRESSURE_EDGES = (
    (1, 3, 1, 595), (2, 3, 1, 595), (3, 4, 1, 595), (4, 5, 1, 595),
    (5, 6, 1, 595), (6, 7, 1, 90), (6, 8, 1, 90), (6, 9, 1, 90),
    (7, 10, 2, 90), (8, 11, 2, 90), (9, 12, 2, 90), (10, 13, 2, 180),
    (11, 10, 2, 90), (11, 12, 2, 90), (12, 14, 2, 180), (13, 15, 2, 90),
    (13, 16, 2, 90), (14, 17, 2, 90), (14, 18, 2, 90), (15, 19, 3, 90),
    (16, 19, 3, 90), (17, 21, 3, 55), (18, 21, 3, 55), (19, 20, 3, 90),
    (20, 22, 4, 90), (20, 24, 4, 90), (21, 22, 3, 90), (22, 23, 4, 55),
    (23, 25, 4, 55), (26, 28, 1, 595), (27, 28, 1, 595), (28, 5, 1, 595),
    (6, 29, 1, 210), (6, 30, 1, 210), (6, 31, 1, 90), (29, 32, 2, 210),
    (30, 32, 2, 210), (31, 32, 2, 90), (32, 33, 2, 420), (33, 34, 2, 30),
    (33, 35, 2, 30), (33, 36, 2, 420), (33, 37, 2, 420), (33, 38, 2, 420),
    (34, 39, 3, 30), (35, 39, 3, 30), (36, 40, 3, 420), (37, 40, 3, 420),
    (38, 40, 3, 420), (39, 41, 3, 30), (40, 42, 3, 420), (41, 43, 4, 30),
    (42, 44, 4, 420), (43, 23, 4, 420), (44, 43, 4, 420),
)

# stage -> ((node, capacity), ...), original layout then expansion extras
_PRESSURE_STATIONS = (
    ((1, 595), (2, 595)),
    ((7, 90), (8, 90), (9, 90)),
    ((15, 90), (16, 90), (17, 90), (18, 90)),
    ((20, 110), (22, 110)),
    ((24, 90), (25, 55)),
)
_PRESSURE_EXPANSION_STATIONS = (
    ((26, 595), (27, 595)),
    ((29, 210), (30, 210), (31, 90)),
    ((34, 30), (35, 30), (36, 420), (37, 420), (38, 420)),
    ((41, 30), (42, 420)),
    (),
)


def pressure(expanded: bool, p_fail: float = 0.03) -> NetworkDocument:
    """Five-stage pressure regularisation plant.

    The original layout has 25 nodes, 29 edges and 42 component RVs; the
    expanded layout adds nodes 26..44, edges e30..e55 and their RVs (80 in
    total). No two edges share their end nodes, so every RV covers exactly
    one asset.
    """
    layers = [(_PRESSURE_STATIONS, _PRESSURE_EDGES[:29])]
    if expanded:
        layers.append((_PRESSURE_EXPANSION_STATIONS, _PRESSURE_EDGES[29:]))
    return _document(layers, p_fail, target_flow=90.0)


# --------------------------------------------------------------------------
# gas supply plant
# --------------------------------------------------------------------------

# (tail, head, stage), ids e1..e102; all capacities 1.0.
_GAS_EDGES = (
    (1, 3, 1), (2, 3, 1), (3, 4, 1), (4, 5, 1),
    (5, 4, 2), (4, 6, 1), (6, 7, 1), (7, 6, 2),
    (7, 8, 1), (8, 7, 2), (7, 9, 1), (9, 7, 2),
    (9, 10, 1), (10, 9, 2), (9, 11, 1), (11, 9, 2),
    (11, 12, 1), (12, 11, 2), (11, 13, 1), (13, 11, 2),
    (13, 14, 1), (14, 13, 2), (13, 15, 1), (15, 13, 2),
    (15, 16, 1), (16, 15, 2), (6, 17, 1), (17, 18, 1),
    (18, 17, 2), (18, 19, 1), (19, 18, 2), (18, 20, 1),
    (20, 18, 2), (20, 21, 1), (21, 20, 2), (17, 22, 1),
    (22, 17, 2), (22, 23, 1), (23, 22, 2), (22, 24, 1),
    (24, 22, 2), (24, 25, 1), (25, 24, 2), (24, 26, 1),
    (26, 24, 2), (26, 27, 1), (27, 26, 2), (26, 28, 1),
    (28, 26, 2), (28, 29, 1), (29, 28, 2), (28, 30, 1),
    (30, 28, 2), (30, 31, 1), (31, 30, 2), (17, 32, 1),
    (32, 33, 1), (33, 32, 2), (33, 34, 1), (34, 33, 2),
    (33, 35, 1), (35, 33, 2), (35, 36, 1), (36, 35, 2),
    (35, 37, 1), (37, 35, 2), (37, 38, 1), (38, 37, 2),
    (32, 39, 1), (39, 32, 2), (39, 40, 1), (40, 39, 2),
    (39, 41, 1), (41, 39, 2), (41, 42, 1), (42, 41, 2),
    (41, 43, 1), (43, 41, 2), (41, 44, 1), (44, 41, 2),
    (44, 45, 1), (45, 44, 2), (44, 46, 1), (46, 44, 2),
    (44, 47, 1), (47, 44, 2), (47, 48, 1), (48, 47, 2),
    (47, 49, 1), (49, 47, 2), (47, 50, 1), (50, 47, 2),
    (50, 51, 1), (51, 50, 2), (50, 52, 1), (52, 50, 2),
    (37, 53, 2), (32, 55, 2), (53, 54, 3), (54, 56, 3),
    (55, 56, 3), (56, 57, 3),
)

_GAS_STAGE2_STATIONS = (
    5, 8, 10, 12, 14, 16, 19, 21, 23, 25,
    27, 29, 31, 34, 36, 38, 40, 42, 43, 45,
    46, 48, 49, 51, 52,
)



def gas(p_fail: float = 0.03) -> NetworkDocument:
    """Four-stage gas supply plant: 57 nodes, 102 edges, 87 component RVs."""
    stage2 = tuple((k, 0.25) for k in _GAS_STAGE2_STATIONS)
    stations = (((1, 0.5), (2, 0.5)), stage2, ((53, 0.5), (55, 0.5)), ((57, 1.0),))
    edges = tuple((tail, head, stage, 1.0) for tail, head, stage in _GAS_EDGES)
    return _document([(stations, edges)], p_fail, target_flow=0.5)


_BUILDERS = {"didactic": didactic, "pressure-original": partial(pressure, expanded=False),
             "pressure-expanded": partial(pressure, expanded=True), "gas": gas}
BUILTINS = tuple(_BUILDERS)


def builtin(name: str) -> NetworkDocument:
    """Return a built-in dataset by name; see BUILTINS for valid names."""
    if name not in BUILTINS:
        raise DataFormatError(f"unknown builtin dataset {name!r}; expected one of {BUILTINS}")
    return _BUILDERS[name]()


# --------------------------------------------------------------------------
# canonical document format (JSON)
# --------------------------------------------------------------------------


def to_text(doc: NetworkDocument) -> str:
    """Render a document in the canonical JSON form."""
    net, model, defaults = doc.network, doc.model, doc.defaults
    nodes = []
    for k in sorted({*net.station_stage, *net.node_capacity}):
        entry: dict = {"id": k}
        stage = net.station_stage.get(k)
        if stage is not None:
            entry["stage"] = stage
        cap = net.node_capacity.get(k)
        if cap is not None:
            entry["capacity"] = cap
        nodes.append(entry)
    payload = {
        "format_version": FORMAT_VERSION,
        "node_count": net.num_nodes,
        "stage_count": net.num_stages,
        "nodes": nodes,
        "edges": [
            {"id": e.edge_id, "tail": e.tail, "head": e.head,
             "stage": e.stage, "capacity": e.capacity}
            for e in net.edges
        ],
        "components": [
            {"id": rv.rv_id, "p_fail": rv.p_fail, "assets": list(rv.assets)}
            for rv in model.rvs
        ],
        "defaults": {"target_flow": defaults.target_flow, "mode": defaults.mode},
    }
    return json.dumps(payload, indent=2) + "\n"


def save_network(doc: NetworkDocument, path) -> None:
    """Write a document to a file in the canonical JSON form."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(to_text(doc))


class _Reader:
    """Strict schema walker: every unknown or ill-typed field is an error
    naming its JSON path."""

    def __init__(self, data, path: str):
        if not isinstance(data, dict):
            raise DataFormatError(f"{path}: expected an object, got {type(data).__name__}")
        self.data = data
        self.path = path
        self.seen: set[str] = set()

    def take(self, key: str, kind, required: bool = True):
        self.seen.add(key)
        if key not in self.data:
            if required:
                raise DataFormatError(f"{self.path}: missing required field {key!r}")
            return None
        value = self.data[key]
        if kind is float:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise DataFormatError(f"{self.path}.{key}: expected a number, got {value!r}")
            try:
                number = float(value)
            except OverflowError:  # an integer past the float range; its digits may run long
                raise DataFormatError(f"{self.path}.{key}: expected a finite number, "
                                      f"got an integer of {len(str(abs(value)))} digits") from None
            if not math.isfinite(number):
                raise DataFormatError(f"{self.path}.{key}: expected a finite number, got {value!r}")
            return number
        if kind is int:
            if isinstance(value, bool) or not isinstance(value, int):
                raise DataFormatError(f"{self.path}.{key}: expected an integer, got {value!r}")
            return value
        if not isinstance(value, kind):
            raise DataFormatError(
                f"{self.path}.{key}: expected {kind.__name__}, got {type(value).__name__}")
        return value

    def close(self) -> None:
        unknown = sorted(set(self.data) - self.seen)
        if unknown:
            raise DataFormatError(f"{self.path}: unknown field(s) {unknown}")


def parse_text(text: str) -> NetworkDocument:
    """Parse the canonical JSON form.

    Unknown fields, wrong types, or a network that fails validation are all
    rejected with errors naming the offending JSON path.
    """
    try:
        data = json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an integer past the int-string limit
        raise DataFormatError(f"not valid JSON: {exc}") from None

    top = _Reader(data, "document")
    version = top.take("format_version", int)
    if version != FORMAT_VERSION:
        raise DataFormatError(
            f"document.format_version: unsupported version {version}, expected {FORMAT_VERSION}")
    num_nodes = top.take("node_count", int)
    num_stages = top.take("stage_count", int)
    node_items = top.take("nodes", list)
    edge_items = top.take("edges", list)
    comp_items = top.take("components", list)
    defaults_obj = top.take("defaults", dict)
    top.close()
    # every stage needs a station, and every station is a node entry
    if num_stages > len(node_items):
        raise DataFormatError(
            f"document.stage_count: {num_stages} stages but only {len(node_items)} node entries")

    stage_nodes: dict[int, list[int]] = {m: [] for m in range(1, num_stages + 1)}
    node_capacity: dict[int, float] = {}
    entry_of: dict[int, int] = {}  # node id -> index of its entry
    for i, item in enumerate(node_items):
        r = _Reader(item, f"nodes[{i}]")
        node = r.take("id", int)
        stage = r.take("stage", int, required=False)
        cap = r.take("capacity", float, required=False)
        r.close()
        if not 1 <= node <= num_nodes:
            raise DataFormatError(f"nodes[{i}].id: {node} outside 1..{num_nodes}")
        if entry_of.setdefault(node, i) != i:
            raise DataFormatError(f"nodes[{i}].id: node {node} already listed at nodes[{entry_of[node]}]")
        if stage is not None:
            if not 1 <= stage <= num_stages:
                raise DataFormatError(
                    f"nodes[{i}].stage: {stage} outside 1..{num_stages}")
            stage_nodes[stage].append(node)
        if cap is not None:
            node_capacity[node] = cap

    edges = []
    for i, item in enumerate(edge_items):
        r = _Reader(item, f"edges[{i}]")
        edges.append(Edge(
            edge_id=r.take("id", str),
            tail=r.take("tail", int),
            head=r.take("head", int),
            stage=r.take("stage", int),
            capacity=r.take("capacity", float),
        ))
        r.close()

    rvs = []
    for i, item in enumerate(comp_items):
        r = _Reader(item, f"components[{i}]")
        rv_id = r.take("id", str)
        p_fail = r.take("p_fail", float)
        assets_raw = r.take("assets", list)
        r.close()
        assets: list[int | str] = []
        for j, asset in enumerate(assets_raw):
            if isinstance(asset, str) or (isinstance(asset, int) and not isinstance(asset, bool)):
                assets.append(asset)
            else:
                raise DataFormatError(
                    f"components[{i}].assets[{j}]: expected a node index or edge id, got {asset!r}")
        rvs.append(RandomVariable(rv_id, p_fail, tuple(assets)))

    r = _Reader(defaults_obj, "defaults")
    defaults = AnalysisDefaults(
        target_flow=r.take("target_flow", float),
        mode=r.take("mode", str),
    )
    r.close()
    if defaults.mode not in MODES:
        raise DataFormatError(f"defaults.mode: unknown mode {defaults.mode!r}")

    net = PlantNetwork(
        num_nodes=num_nodes, num_stages=num_stages,
        stations=tuple(tuple(stage_nodes[m]) for m in range(1, num_stages + 1)),
        node_capacity=node_capacity, edges=tuple(edges),
    )
    model = ComponentModel(tuple(rvs))
    report = validate_network(net)
    if not report.ok:
        raise DataFormatError(f"document describes an invalid network:\n{report}")
    report = validate_model(net, model)
    if not report.ok:
        raise DataFormatError(f"document describes an invalid component model:\n{report}")
    return NetworkDocument(network=net, model=model, defaults=defaults)


def load_network(path) -> NetworkDocument:
    """Read a document file in the canonical JSON form."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_text(fh.read())
