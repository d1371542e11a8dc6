"""Monte Carlo reliability and Birnbaum importance: determinism, the
margins fast path against plain double evaluation, and variance behaviour.
"""

import math

import numpy as np
import pytest

from plantflow import datasets, reliability
from plantflow.flow import compile_system, max_processable_flow
from plantflow.model import ComponentModel, RandomVariable
from plantflow.reliability import (
    DIRECT_METHOD,
    MARGINS_METHOD,
    ReliabilityQuery,
    birnbaum_importance,
    estimate_failure_probability,
    rank_components,
    sample_assignment,
    sample_states,
)


def with_p(doc, p_map, default=0.0):
    """Copy of a document's model with per-rv failure probabilities."""
    rvs = tuple(
        RandomVariable(rv.rv_id, p_map.get(rv.rv_id, default), rv.assets)
        for rv in doc.model.rvs
    )
    return ComponentModel(rvs=rvs)


def test_all_reliable_means_no_failures():
    doc = datasets.builtin("didactic")
    model = with_p(doc, {})
    q = ReliabilityQuery(target_flow=1.0, samples=500, seed=1)
    rep = estimate_failure_probability(doc.network, model, q)
    assert rep.failures == 0
    assert rep.failure_probability == 0.0
    assert rep.std_error == 0.0


def test_all_failed_means_certain_failure():
    doc = datasets.builtin("didactic")
    model = with_p(doc, {}, default=1.0)
    q = ReliabilityQuery(target_flow=1.0, samples=200, seed=1)
    rep = estimate_failure_probability(doc.network, model, q)
    assert rep.failure_probability == 1.0


@pytest.mark.parametrize("rv_id,expected", [
    ("n14", 1),    # delivery station down: nothing arrives
    ("p8_9", 0),   # pipe (8,9) down: storage reroutes
    ("p4_5", 0),   # pipe (4,5) down: stations 7 and 9 still carry 1.0
])
def test_deterministic_single_failure_matches_indicator(rv_id, expected):
    doc = datasets.builtin("didactic")
    model = with_p(doc, {rv_id: 1.0})
    q = ReliabilityQuery(target_flow=1.0, samples=64, seed=3)
    rep = estimate_failure_probability(doc.network, model, q)
    assert rep.failure_probability == float(expected)
    # and the indicator agrees with a direct solve
    a = doc.model.all_up()
    a[rv_id] = 0
    u = max_processable_flow(doc.network, doc.model, a).value
    assert (u < 1.0) == bool(expected)


def test_single_rv_frequency_matches_binomial():
    # a one-rv model walks the stream at stride 1, so the block below sees
    # exactly the uniforms that sample_states(model, 5, i) consumes
    from plantflow import rng
    n = 1_000_000
    u = rng.uniform_block(5, 0, n)
    freq = float((u < 0.03).mean())
    assert abs(freq - 0.03) <= 3 * math.sqrt(0.03 * 0.97 / n)
    model = ComponentModel(rvs=(RandomVariable("x", 0.03, (1,)),))
    for i in (0, 1, 999):
        assert sample_states(model, 5, i)[0] == float(u[i] >= 0.03)


def test_sample_assignment_replays_the_same_sample():
    doc = datasets.builtin("didactic")
    q = ReliabilityQuery(target_flow=1.0, samples=200, seed=9)
    rep = estimate_failure_probability(doc.network, doc.model, q)
    fn = compile_system(doc.network, doc.model, target=1.0)
    failures = 0
    for i in range(q.samples):
        states = sample_states(doc.model, q.seed, i)
        a = sample_assignment(doc.model, q.seed, i)
        assert [int(s) for s in states] == [a[rv.rv_id] for rv in doc.model.rvs]
        failures += 0 if fn.evaluate(states) else 1
    assert failures == rep.failures


def test_worker_count_never_changes_the_estimate():
    doc = datasets.builtin("didactic")
    q = ReliabilityQuery(target_flow=1.0, samples=4000, seed=42)
    reports = [estimate_failure_probability(doc.network, doc.model, q, workers=w)
               for w in (1, 2, 8)]
    assert reports[0].failures == reports[1].failures == reports[2].failures
    assert reports[0].failure_probability == reports[1].failure_probability \
        == reports[2].failure_probability


def test_query_validation():
    doc = datasets.builtin("didactic")
    with pytest.raises(ValueError):
        estimate_failure_probability(
            doc.network, doc.model,
            ReliabilityQuery(target_flow=1.0, samples=0))
    with pytest.raises(ValueError):
        estimate_failure_probability(
            doc.network, doc.model,
            ReliabilityQuery(target_flow=1.0, samples=10), workers=0)


@pytest.mark.parametrize("target", [math.nan, math.inf])
def test_query_rejects_non_finite_target(target):
    doc = datasets.builtin("didactic")
    q = ReliabilityQuery(target_flow=target, samples=10)
    with pytest.raises(ValueError, match="target_flow"):
        estimate_failure_probability(doc.network, doc.model, q)
    with pytest.raises(ValueError, match="target_flow"):
        birnbaum_importance(doc.network, doc.model, q)


def test_std_error_formula():
    doc = datasets.builtin("didactic")
    q = ReliabilityQuery(target_flow=1.0, samples=1000, seed=2)
    rep = estimate_failure_probability(doc.network, doc.model, q)
    p = rep.failure_probability
    assert rep.std_error == pytest.approx(math.sqrt(p * (1 - p) / q.samples))


# ---------------------------------------------------------------------------
# Birnbaum importance


def test_margins_shortcut_equals_direct_evaluation():
    for name, target in (("didactic", 1.0), ("gas", 0.5)):
        doc = datasets.builtin(name)
        q = ReliabilityQuery(target_flow=target, samples=400, seed=13)
        a = birnbaum_importance(doc.network, doc.model, q, method=MARGINS_METHOD)
        b = birnbaum_importance(doc.network, doc.model, q, method=DIRECT_METHOD)
        for x, y in zip(a.entries, b.entries):
            assert x.rv_id == y.rv_id
            assert x.importance == y.importance
            assert x.std_error == y.std_error


def test_importance_worker_identity():
    doc = datasets.builtin("didactic")
    q = ReliabilityQuery(target_flow=1.0, samples=1500, seed=21)
    reports = [birnbaum_importance(doc.network, doc.model, q, workers=w)
               for w in (1, 2, 8)]
    for other in reports[1:]:
        for x, y in zip(reports[0].entries, other.entries):
            assert x.importance == y.importance


def test_importance_no_worse_than_minus_three_sigma():
    doc = datasets.builtin("didactic")
    q = ReliabilityQuery(target_flow=1.0, samples=3000, seed=4)
    rep = birnbaum_importance(doc.network, doc.model, q)
    for e in rep.entries:
        assert e.importance >= -3 * e.std_error


def test_two_component_series_importance_exact():
    # 2 stations in series each with its own rv, p=0.1:
    # BI of either = P(other up) = 0.9; verified against enumeration
    from plantflow.model import Edge, PlantNetwork
    net = PlantNetwork(
        num_nodes=2, num_stages=2, stations=((1,), (2,)),
        node_capacity={1: 1.0, 2: 1.0},
        edges=(Edge("e1", 1, 2, 1, 1.0),),
    )
    model = ComponentModel(rvs=(
        RandomVariable("a", 0.1, (1,)),
        RandomVariable("b", 0.1, (2,)),
    ))
    q = ReliabilityQuery(target_flow=1.0, samples=60_000, seed=8)
    rep = birnbaum_importance(net, model, q)
    se = max(e.std_error for e in rep.entries)
    for e in rep.entries:
        assert e.importance == pytest.approx(0.9, abs=3 * se + 1e-12)


def test_rank_components_ordering_and_ties():
    entries = (
        reliability.ImportanceEntry("a", 0.2, 0.0),
        reliability.ImportanceEntry("b", 0.5, 0.0),
        reliability.ImportanceEntry("c", 0.5, 0.0),
        reliability.ImportanceEntry("d", 0.1, 0.0),
    )
    q = ReliabilityQuery(target_flow=1.0)
    rep = reliability.ImportanceReport(query=q, entries=entries)
    top = rank_components(rep, limit=3)
    assert [e.rv_id for e in top.entries] == ["b", "c", "a"]
    assert not top.truncated
    bottom = rank_components(rep, limit=2, smallest=True)
    assert [e.rv_id for e in bottom.entries] == ["d", "a"]
    huge = rank_components(rep, limit=9)
    assert huge.truncated
    assert len(huge.entries) == 4
    everything = rank_components(rep)
    assert [e.rv_id for e in everything.entries] == ["b", "c", "a", "d"]


def test_common_random_numbers_cut_variance():
    # same estimator variance comparison the design is premised on: with
    # shared streams the two conditional runs correlate and the difference
    # stabilises; with independent streams it does not
    doc = datasets.builtin("gas")
    rv_id = "X1"
    j = doc.model.rv_index[rv_id]
    fn = compile_system(doc.network, doc.model, target=0.5)
    n = 500
    crn, independent = [], []
    for rep in range(20):
        q = ReliabilityQuery(target_flow=0.5, samples=n, seed=1000 + rep)
        est = birnbaum_importance(doc.network, doc.model, q)
        crn.append(est.entries[j].importance)

        up = down = 0
        for i in range(n):
            s = sample_states(doc.model, 2000 + rep, i)
            s[j] = 1.0
            up += fn.evaluate(s)
            s = sample_states(doc.model, 3000 + rep, i)
            s[j] = 0.0
            down += fn.evaluate(s)
        independent.append(up / n - down / n)
    assert np.var(crn) <= np.var(independent)
