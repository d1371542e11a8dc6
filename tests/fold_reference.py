"""Reference scenario fold, an independent oracle for flow.apply_scenario.

This is the dict fold the LP used to read, kept unchanged. It works on
floats keyed by asset, while flow.apply_scenario reads LayeredGraph's fold
over whole 2**-shift units per arc, so a slip in either (min for max, an
RV applied to the wrong asset) shows up as a mismatch. In the edge-min and
edge-max modes its station_cap carries the node capacities for reference,
where flow.apply_scenario gives math.inf.
"""

from __future__ import annotations

from plantflow.flow import EffectiveCapacities
from plantflow.model import (
    EDGE_MAX,
    EDGE_MIN,
    STATION_THROUGHPUT,
    ComponentModel,
    PlantNetwork,
    asset_owners,
    assignment_states,
    check_mode,
)


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

    Raises
    ------
    PlantDataError
        If the mode is unknown.
    MappingError
        If the assignment does not cover the model's RVs exactly, or an RV
        references an asset the network does not have or another RV governs.
    """
    check_mode(mode)
    states = assignment_states(model, assignment)

    node_cap = {k: net.resolved_node_capacity(k) for k in range(1, net.num_nodes + 1)}
    edge_cap = {e.edge_id: e.capacity for e in net.edges}
    for asset, i in asset_owners(net, model).items():
        if states[i] == 0:
            if isinstance(asset, str):
                edge_cap[asset] = 0.0
            else:
                node_cap[asset] = 0.0

    if mode == EDGE_MIN:
        edge_cap = {
            e.edge_id: min(edge_cap[e.edge_id], node_cap[e.tail], node_cap[e.head])
            for e in net.edges
        }
    elif mode == EDGE_MAX:
        edge_cap = {
            e.edge_id: max(edge_cap[e.edge_id], node_cap[e.tail], node_cap[e.head])
            for e in net.edges
        }

    station_cap = {k: node_cap[k] for k in net.station_stage}
    return EffectiveCapacities(mode=mode, edge_cap=edge_cap, station_cap=station_cap)
