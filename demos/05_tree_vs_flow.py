"""Why a fault tree is not enough for a flow network.

The classical baseline models the teaching plant as gates over part
failures: unloading and vaporisation as OR pairs, storage as
2-out-of-3, the pipe inventory as 7-out-of-14.  Its gate arithmetic
is exact, but only for the model it encodes, and that model turns out
to be far too forgiving: the flow view puts the failure probability
near 0.40, almost three times the tree's answer, because combinations
the tree tolerates (one storage station plus the right pipe) already
cut the deliverable flow below target.

The root of the gap is that the tree cannot see topology.  Failing
station n9 together with pipe (8,9) and failing n9 together with pipe
(4,5) are the same event to the tree: one station plus one pipe.  The
flow function knows the first pair reroutes and the second severs
half the plant.
"""

from plantflow import datasets
from plantflow.faulttree import (
    didactic_fault_tree,
    evaluate_failure,
    event_ids,
    failure_probability,
)
from plantflow.flow import compile_system
from plantflow.model import assignment_states
from plantflow.reliability import ReliabilityQuery, estimate_failure_probability

doc = datasets.builtin("didactic")
tree = didactic_fault_tree()

p = {rv.rv_id: rv.p_fail for rv in doc.model.rvs}
exact = failure_probability(tree, p)
print(f"fault tree, exact gate arithmetic:    p_fail = {exact:.6f}")

q = ReliabilityQuery(target_flow=1.0, samples=50_000, seed=42)
rep = estimate_failure_probability(doc.network, doc.model, q)
print(f"flow model, 50000 Monte Carlo samples: p_fail = "
      f"{rep.failure_probability:.6f} +/- {rep.std_error:.6f}")

print()
print("scenario contrast:")
print(f"  {'scenario':34s} {'fault tree':>12s} {'flow model':>12s}")
sf = compile_system(doc.network, doc.model, doc.defaults.target_flow)
for failed in (("n9", "p8_9"), ("n9", "p4_5")):
    a = doc.model.all_up()
    for rv_id in failed:
        a[rv_id] = 0
    tree_out = "fail" if evaluate_failure(tree, a) else "survive"
    states = assignment_states(doc.model, a)
    flow_out = "survive" if sf.evaluate(states) else "fail"
    u = sf.flow_value(states)
    label = " + ".join(failed)
    print(f"  {label:34s} {tree_out:>12s} {flow_out:>12s}   (u* = {u:.2f})")

print()
print(f"the tree sees {len(event_ids(tree))} independent events and no")
print("routes; both scenarios are one station plus one pipe to it.")
