"""Bit-for-bit pin of the float simplex's pivot path.

For every built-in network and capacity mode the golden file holds one
sha256 over exact floats (float.hex) of `solve_lp`'s status, objective
value, solution vector and iteration count, on the throughput programs of
seeded scenarios at several down-rates. One more entry does the same over
random general programs: nonzero rhs and lower bounds, infinite upper
bounds, all-zero rows and redundant rows, so that every outcome occurs.
The iteration count and every bit of x depend on the exact sequence of
pivots, so a change to the tableau arithmetic, the pricing, the ratio test
or the phase-1 drive-out that moves any pivot shows up here, even when
every objective value survives.

Regenerate (only when a change of output is intended) with

    PYTHONPATH=src python tests/test_lp_golden.py

which first prints each entry that differs from the committed file, with
its network, mode and statuses old -> new, so a regeneration shows its
scope.
"""

import hashlib
import json
import math
import random
from collections import Counter
from pathlib import Path

from plantflow import datasets
from plantflow.flow import apply_scenario, build_flow_lp
from plantflow.lp import LinearProgram, solve_lp
from plantflow.model import MODES
from golden_diff import by_plant, changed_entries, regenerate

GOLDEN = Path(__file__).with_name("golden") / "lp.json"

DOWN_RATES = (0.0, 0.03, 0.12, 0.3)
SCENARIOS_PER_RATE = 15
RANDOM_PROGRAMS = 300


class _Digest:
    def __init__(self):
        self.h = hashlib.sha256()
        self.statuses = Counter()

    def put(self, sol):
        self.statuses[sol.status] += 1
        values = (sol.status, sol.objective_value, *(sol.x or ()), sol.iterations)
        for v in values:
            self.h.update((v.hex() if isinstance(v, float) else repr(v)).encode() + b";")

    def record(self, **key) -> dict:
        return {**key, "statuses": dict(sorted(self.statuses.items())),
                "sha256": self.h.hexdigest()}


def _plant_digest(name: str, mode: str) -> dict:
    doc = datasets.builtin(name)
    net, model = doc.network, doc.model
    rnd = random.Random(f"lp/{name}/{mode}")
    digest = _Digest()
    for rate in DOWN_RATES:
        for _ in range(SCENARIOS_PER_RATE):
            assignment = {rv.rv_id: 0 if rnd.random() < rate else 1 for rv in model.rvs}
            digest.put(solve_lp(build_flow_lp(net, apply_scenario(net, model, assignment, mode))))
    return digest.record(network=name, mode=mode)


def random_general_program(rnd: random.Random) -> LinearProgram:
    """Dyadic program with shifted lower bounds, zero rows and redundant rows.

    Most right-hand sides are taken at a point inside the bounds, so most
    programs are feasible; the rest draw theirs at random.
    """
    n = rnd.randint(1, 14)
    dy = lambda: rnd.randint(-8, 8) / 8.0
    lower = [rnd.choice([0.0, 0.0, 0.25, 1.0]) for _ in range(n)]
    upper = [math.inf if rnd.random() < 0.3 else lo + rnd.randint(0, 12) / 4.0
             for lo in lower]
    point = [lo + rnd.randint(0, 8 if math.isinf(hi) else int(4 * (hi - lo))) / 4.0
             for lo, hi in zip(lower, upper)]
    rows, rhs = [], []
    for _ in range(rnd.randint(0, 8)):
        kind = rnd.random()
        if kind < 0.1:  # all-zero row, satisfiable or not
            rows.append(tuple((j, 0.0) for j in rnd.sample(range(n), rnd.randint(0, min(n, 2)))))
            rhs.append(rnd.choice([0.0, 0.0, 0.5]))
        elif kind < 0.3 and rows:  # scaled copy of an earlier row
            k = rnd.randrange(len(rows))
            scale = rnd.choice([1.0, -2.0, 0.5])
            rows.append(tuple((j, scale * a) for j, a in rows[k]))
            rhs.append(scale * rhs[k])
        else:
            row = tuple((j, dy() or 0.5) for j in rnd.sample(range(n), rnd.randint(1, min(n, 5))))
            rows.append(row)
            rhs.append(sum(a * point[j] for j, a in row) if rnd.random() < 0.85
                       else rnd.randint(-8, 8) / 4.0)
    return LinearProgram(objective=tuple(dy() for _ in range(n)), rows=tuple(rows),
                         rhs=tuple(rhs), lower=tuple(lower), upper=tuple(upper))


def _random_digest() -> dict:
    rnd = random.Random("lp/random")
    digest = _Digest()
    for _ in range(RANDOM_PROGRAMS):
        digest.put(solve_lp(random_general_program(rnd)))
    return digest.record(network="random", mode="general")


def render() -> str:
    docs = [_plant_digest(name, mode) for name in datasets.BUILTINS for mode in MODES]
    docs.append(_random_digest())
    return json.dumps(docs, indent=1) + "\n"


def test_lp_results_match_golden():
    assert render() == GOLDEN.read_text()


def statuses(entry: dict) -> dict:
    return entry["statuses"]


def test_changed_entries_name_each_changed_entry():
    old = [{"network": "a", "mode": "m", "statuses": {"optimal": 2}, "sha256": "x"},
           {"network": "b", "mode": "m", "statuses": {"optimal": 2}, "sha256": "y"}]
    new = [old[0], {**old[1], "statuses": {"optimal": 1, "infeasible": 1}, "sha256": "z"},
           {"network": "c", "mode": "m", "statuses": {}, "sha256": "w"}]
    assert changed_entries(by_plant(old), by_plant(old), statuses) == []
    assert changed_entries(by_plant(old), by_plant(new), statuses) == [
        "b m: {'optimal': 2} -> {'optimal': 1, 'infeasible': 1}", "c m: absent -> {}"]
    # an entry the new file drops is named too
    assert changed_entries(by_plant(new), by_plant(old), statuses) == [
        "b m: {'optimal': 1, 'infeasible': 1} -> {'optimal': 2}", "c m: {} -> absent"]


if __name__ == "__main__":
    regenerate(GOLDEN, render(), by_plant, statuses)
