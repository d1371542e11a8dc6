"""Bit-for-bit pin of the compiled evaluator and both estimators.

For every built-in network and capacity mode the golden file holds one
sha256 over exact floats (float.hex) of, per seeded scenario at several
down-rates: `SystemFunction.evaluate`, `flow_value`, the `arc_profile` value
and every arc flow, and `max_processable_flow`'s edge and station flows;
then the `failures` of a small `estimate_failure_probability` run and the
entries of a small `birnbaum_importance` run. The max-flow arithmetic is
pure Python and deterministic, so a change to the Dinic core, the layered
graph or the scenario fold that moves a single bit of any of these shows up
here, including one that flips no verdict.

Regenerate (only when a change of output is intended) with

    PYTHONPATH=src python tests/test_profiles_golden.py

which first prints each entry that differs from the committed file, with
its network, mode and failure count, old -> new (tests/golden_diff.py).
"""

import hashlib
import json
import random
from pathlib import Path

import numpy as np

from plantflow import datasets
from plantflow.flow import compile_system, max_processable_flow
from plantflow.model import MODES
from plantflow.reliability import (
    ReliabilityQuery,
    birnbaum_importance,
    estimate_failure_probability,
)
from golden_diff import by_plant, regenerate

GOLDEN = Path(__file__).with_name("golden") / "profiles.json"

DOWN_RATES = (0.02, 0.1, 0.25, 0.5)
SCENARIOS_PER_RATE = 25
RELIABILITY_SAMPLES = 200
IMPORTANCE_SAMPLES = 10


def _digest(name: str, mode: str) -> dict:
    doc = datasets.builtin(name)
    net, model = doc.network, doc.model
    target = doc.defaults.target_flow
    sf = compile_system(net, model, target, mode=mode)
    rnd = random.Random(f"{name}/{mode}")
    h = hashlib.sha256()

    def put(*values):
        for v in values:
            h.update((v.hex() if isinstance(v, float) else repr(v)).encode() + b";")

    for rate in DOWN_RATES:
        for _ in range(SCENARIOS_PER_RATE):
            states = np.array([0.0 if rnd.random() < rate else 1.0 for _ in model.rvs])
            value, flows = sf.arc_profile(states)
            put(sf.evaluate(states), sf.flow_value(states), float(value),
                *(float(f) for f in flows))
            assignment = {rv.rv_id: int(s) for rv, s in zip(model.rvs, states)}
            sol = max_processable_flow(net, model, assignment, mode=mode)
            put(*(float(f) for f in sol.edge_flow.values()),
                *(float(f) for f in sol.station_flow.values()))

    rel = estimate_failure_probability(
        net, model, ReliabilityQuery(target, mode=mode, samples=RELIABILITY_SAMPLES, seed=5))
    imp = birnbaum_importance(
        net, model, ReliabilityQuery(target, mode=mode, samples=IMPORTANCE_SAMPLES, seed=6))
    put(rel.failures, *(x for e in imp.entries for x in (e.rv_id, e.importance, e.std_error)))
    return {"network": name, "mode": mode, "failures": rel.failures, "sha256": h.hexdigest()}


def render() -> str:
    docs = [_digest(name, mode) for name in datasets.BUILTINS for mode in MODES]
    return json.dumps(docs, indent=1) + "\n"


def test_profiles_match_golden():
    assert render() == GOLDEN.read_text()


if __name__ == "__main__":
    regenerate(GOLDEN, render(), by_plant, lambda entry: f"{entry['failures']} failures")
