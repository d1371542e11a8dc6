"""Dinic maximum flow over a compiled topology and a flat residual list.

Sized for the graphs this package builds (tens to a few hundred arcs), so it
uses plain Python lists. The adjacency is compiled once into a Topology; each
max_flow call only fills a fresh residual list from its capacities, so no
state carries over between solves. The blocking-flow search is iterative with
current-arc pointers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True, eq=False)
class Topology:
    """The capacity-free part of a max-flow instance.

    Residual arc 2a is the forward copy of input arc a and 2a+1 its reverse;
    to[r] is the vertex arc r enters; adj[v] lists the arcs leaving v in input
    order. A zero-capacity arc has residual 0 both ways and carries 0.
    """

    num_vertices: int
    source: int
    sink: int
    to: tuple[int, ...]
    adj: tuple[tuple[int, ...], ...]


def build_topology(num_vertices: int, source: int, sink: int, tails, heads) -> Topology:
    """Compile input arcs tails[a] -> heads[a] (int vertices; parallel arcs are fine)."""
    to: list[int] = []
    adj: list[list[int]] = [[] for _ in range(num_vertices)]
    for a, (t, h) in enumerate(zip(tails, heads)):
        to += (h, t)
        adj[t].append(2 * a)
        adj[h].append(2 * a + 1)
    return Topology(num_vertices, source, sink, tuple(to), tuple(map(tuple, adj)))


@dataclass(frozen=True)
class MaxFlowResult:
    """value is the flow found; arc_flow[a] is the flow on input arc a.

    Both are in the units of the capacities given. source_side[v] says
    whether vertex v was reached from the source by the final search, which
    found no augmenting path; sink_side[v] whether v can still reach the
    sink in the final residual graph. With exact arithmetic (integer
    capacities) each side gives a minimum cut, its two extremes: the arcs
    leaving the source side, closest to the source, and the arcs entering
    the sink side, closest to the sink. Both are saturated and carry value.
    When a cutoff stops the search early, value is the flow at the moment
    the cutoff was met (>= cutoff), arc_flow describes that partial flow,
    not a maximum one, and both sides are None.
    """

    value: int | float
    arc_flow: tuple[int | float, ...]
    source_side: tuple[bool, ...] | None
    sink_side: tuple[bool, ...] | None


def max_flow(topology: Topology, caps, cutoff: int | float | None = None) -> MaxFlowResult:
    """Maximum flow from source to sink with caps[a] on input arc a.

    The search pushes the numbers it is given and treats an arc as usable
    while its residual is > 0, so with Python ints every push and total is
    exact; with floats the arithmetic rounds. cutoff, when given, stops the
    search as soon as the accumulated flow reaches it (exact >= comparison,
    no tolerance), which makes threshold predicates cheap without changing
    their outcome.
    """
    n, source, sink = topology.num_vertices, topology.source, topology.sink
    to, adj = topology.to, topology.adj
    res = [0] * len(to)
    res[0::2] = np.asarray(caps).tolist()

    flow = 0
    while True:
        level = [-1] * n
        level[source] = 0
        queue = [source]
        for v in queue:  # grows while iterated: first in, first out
            for a in adj[v]:
                w = to[a]
                if level[w] < 0 and res[a] > 0:
                    level[w] = level[v] + 1
                    queue.append(w)
        if level[sink] < 0:
            break

        cursor = [0] * n
        path: list[int] = []
        v = source
        while True:
            if v == sink:
                pushed = min(res[a] for a in path)
                for a in path:
                    res[a] -= pushed
                    res[a ^ 1] += pushed
                flow += pushed
                if cutoff is not None and flow >= cutoff:
                    return MaxFlowResult(flow, tuple(res[1::2]), None, None)
                v = source
                path.clear()
                continue
            while cursor[v] < len(adj[v]):
                a = adj[v][cursor[v]]
                w = to[a]
                if res[a] > 0 and level[w] == level[v] + 1:
                    path.append(a)
                    v = w
                    break
                cursor[v] += 1
            else:  # dead end: retreat one arc and skip it
                if v == source:
                    break
                dead = path.pop()
                v = to[dead ^ 1]
                cursor[v] += 1

    # backwards from the sink: u reaches v over arc a^1 when a leaves v towards u
    reaches = [False] * n
    reaches[sink] = True
    queue = [sink]
    for v in queue:
        for a in adj[v]:
            u = to[a]
            if not reaches[u] and res[a ^ 1] > 0:
                reaches[u] = True
                queue.append(u)
    # reverse residual equals the flow carried by the forward arc
    return MaxFlowResult(flow, tuple(res[1::2]), tuple([d >= 0 for d in level]), tuple(reaches))
