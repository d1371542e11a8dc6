"""Walk the teaching network through its three canonical scenarios.

The 14-node plant has four processing stages (unloading, storage,
vaporisation, supply).  Failing the same station with two different
pipes produces two scenarios that look identical to any part-count
model, yet one of them halves the deliverable flow.  This script shows
u* for each scenario, then repeats the exercise under the two
alternative capacity semantics to show how much the answer depends on
what a node capacity is taken to mean.
"""

from plantflow import datasets
from plantflow.flow import build_layered_graph, max_processable_flow
from plantflow.model import EDGE_MAX, EDGE_MIN, STATION_THROUGHPUT

doc = datasets.builtin("didactic")
net, model = doc.network, doc.model

scenarios = [
    ("all functional", {}),
    ("station n9 + pipe (8,9) down", {"n9": 0, "p8_9": 0}),
    ("station n9 + pipe (4,5) down", {"n9": 0, "p4_5": 0}),
]

print("=== default semantics: station throughput caps ===")
for label, failed in scenarios:
    a = model.all_up()
    a.update(failed)
    sol = max_processable_flow(net, model, a)
    print(f"  {label:34s} u* = {sol.value:.3f}")

print()
print("The first failure pair reroutes through the spare storage")
print("stations; the second severs the only way into station n5, and")
print("the 0.5 it could bridge is gone.")
print()

print("=== the same scenarios under the two folding semantics ===")
for mode in (EDGE_MIN, EDGE_MAX):
    print(f"  mode = {mode}")
    for label, failed in scenarios:
        a = model.all_up()
        a.update(failed)
        sol = max_processable_flow(net, model, a, mode=mode)
        print(f"    {label:34s} u* = {sol.value:.3f}")

print()
print("min-folding throttles every edge touching a 0.5-capacity station,")
print("so even the intact plant only moves 0.5; max-folding lets flow")
print("slide past failed stations entirely, so nothing short of a severed")
print("pipe matters.  Neither matches how a real relay station behaves,")
print("which is why station-throughput is the default.")
print()

print("=== how the default is actually computed ===")
g = build_layered_graph(net, model, STATION_THROUGHPUT)
top = g.topology
kinds = {}
for a, (tail, head) in enumerate(zip(g.tails, g.heads)):
    # an arc's role: out of the super source, into the super sink, a plant
    # edge (the edges come first), or a station bridging two layers
    kind = ("source" if tail == top.source else "sink" if head == top.sink
            else "edge" if a < len(net.edges) else "bridge")
    kinds[kind] = kinds.get(kind, 0) + 1
print(f"  layered graph: {top.num_vertices} vertices, "
      f"{len(g.tails)} arcs {kinds}")
print("  each transition stage gets its own node layer; a station's")
print("  capacity sits on the single arc bridging its two layers, so a")
print("  max-flow solver enforces it exactly.")
