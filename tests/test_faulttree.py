"""Fault-tree gates: exact arithmetic, Monte Carlo agreement, and the
contrast with the flow view on the two storage scenarios.
"""

import itertools
import math

import numpy as np
import pytest

from plantflow import datasets
from plantflow.errors import PlantDataError
from plantflow.faulttree import (
    and_gate,
    didactic_fault_tree,
    evaluate_failure,
    event_ids,
    failure_probability,
    k_of_n,
    or_gate,
)
from plantflow.flow import max_processable_flow


def test_or_gate_arithmetic():
    tree = or_gate("a", "b")
    p = failure_probability(tree, {"a": 0.1, "b": 0.2})
    assert p == pytest.approx(1 - 0.9 * 0.8)


def test_and_gate_arithmetic():
    tree = and_gate("a", "b", "c")
    p = failure_probability(tree, {"a": 0.1, "b": 0.2, "c": 0.5})
    assert p == pytest.approx(0.1 * 0.2 * 0.5)


def test_k_of_n_homogeneous_matches_binomial_tail():
    tree = k_of_n(2, "a", "b", "c")
    q = 0.3
    p = failure_probability(tree, {"a": q, "b": q, "c": q})
    expect = sum(math.comb(3, k) * q**k * (1 - q) ** (3 - k) for k in (2, 3))
    assert p == pytest.approx(expect)


def test_k_of_n_heterogeneous_matches_enumeration():
    probs = {"a": 0.1, "b": 0.25, "c": 0.4, "d": 0.05}
    tree = k_of_n(3, *probs)
    expect = 0.0
    for states in itertools.product((0, 1), repeat=4):
        weight = 1.0
        for (name, q), s in zip(probs.items(), states):
            weight *= q if s == 0 else 1 - q
        if sum(1 for s in states if s == 0) >= 3:
            expect += weight
    assert failure_probability(tree, probs) == pytest.approx(expect)


def test_nested_gates_compose():
    tree = or_gate(and_gate("a", "b"), "c")
    p = failure_probability(tree, {"a": 0.5, "b": 0.5, "c": 0.1})
    assert p == pytest.approx(1 - (1 - 0.25) * 0.9)


def test_evaluate_failure_truth_tables():
    assert evaluate_failure(or_gate("a", "b"), {"a": 0, "b": 1})
    assert not evaluate_failure(and_gate("a", "b"), {"a": 0, "b": 1})
    two_of_three = k_of_n(2, "a", "b", "c")
    assert evaluate_failure(two_of_three, {"a": 0, "b": 0, "c": 1})
    assert not evaluate_failure(two_of_three, {"a": 0, "b": 1, "c": 1})


def test_duplicate_leaf_rejected():
    tree = or_gate("a", and_gate("a", "b"))
    with pytest.raises(PlantDataError, match="a"):
        failure_probability(tree, {"a": 0.1, "b": 0.1})


def test_k_bounds_validated():
    with pytest.raises(PlantDataError):
        k_of_n(0, "a", "b")
    with pytest.raises(PlantDataError):
        k_of_n(3, "a", "b")


def test_missing_probability_rejected():
    with pytest.raises(PlantDataError, match="b"):
        failure_probability(or_gate("a", "b"), {"a": 0.1})


def test_empty_gate_missing_state_and_bad_probability_rejected():
    for gate in (or_gate, and_gate):
        with pytest.raises(PlantDataError, match="at least one child"):
            gate()
    with pytest.raises(PlantDataError, match="no state for rv 'b'"):
        evaluate_failure(or_gate("a", "b"), {"a": 1})
    for q in (1.5, -0.1):
        with pytest.raises(PlantDataError, match=rf"rv 'a' probability {q} outside \[0, 1\]"):
            failure_probability(or_gate("a"), {"a": q})


def test_degenerate_probabilities():
    tree = didactic_fault_tree()
    ids = event_ids(tree)
    assert failure_probability(tree, {i: 0.0 for i in ids}) == 0.0
    assert failure_probability(tree, {i: 1.0 for i in ids}) == 1.0


def test_didactic_tree_leaf_census():
    tree = didactic_fault_tree()
    ids = event_ids(tree)
    assert len(ids) == 22
    node_events = [i for i in ids if i.startswith("n")]
    pipe_events = [i for i in ids if i.startswith("p")]
    assert len(node_events) == 8
    assert len(pipe_events) == 14


def test_didactic_tree_exact_value_from_hand_formula():
    # independent recomputation: top OR over the five subsystems
    p = 0.03
    q_or2 = 1 - (1 - p) ** 2                    # unloading, vaporisation
    q_2of3 = 3 * p**2 * (1 - p) + p**3          # storage
    q_pipes = sum(math.comb(14, k) * p**k * (1 - p) ** (14 - k)
                  for k in range(7, 15))
    survive = (1 - q_or2) ** 2 * (1 - q_2of3) * (1 - p) * (1 - q_pipes)
    expect = 1 - survive

    tree = didactic_fault_tree()
    got = failure_probability(tree, {i: p for i in event_ids(tree)})
    assert got == pytest.approx(expect, abs=1e-15)
    # frozen regression value
    assert got == pytest.approx(0.1435382379075535, abs=1e-12)


def test_didactic_tree_matches_monte_carlo():
    # one million samples through an evaluator written from scratch here:
    # count failed members per subsystem on raw uniforms
    p = 0.03
    tree = didactic_fault_tree()
    ids = event_ids(tree)
    exact = failure_probability(tree, {i: p for i in ids})

    rng = np.random.default_rng(424242)
    n = 1_000_000
    fails = {i: rng.random(n) < p for i in ids}
    unloading = fails["n1"] | fails["n2"]
    storage = (fails["n5"].astype(int) + fails["n7"] + fails["n9"]) >= 2
    vapor = fails["n10"] | fails["n12"]
    supply = fails["n14"]
    pipe_ids = [i for i in ids if i.startswith("p")]
    pipes = sum(fails[i].astype(int) for i in pipe_ids) >= 7
    system = unloading | storage | vapor | supply | pipes
    p_hat = float(system.mean())

    sigma = math.sqrt(exact * (1 - exact) / n)
    assert abs(p_hat - exact) <= 3 * sigma


def test_contrast_with_flow_function():
    # the two storage scenarios look identical to the tree but not to flow
    doc = datasets.builtin("didactic")
    tree = didactic_fault_tree()
    outcomes = []
    for failed in (("n9", "p8_9"), ("n9", "p4_5")):
        a = doc.model.all_up()
        for rv_id in failed:
            a[rv_id] = 0
        tree_fails = evaluate_failure(tree, a)
        u = max_processable_flow(doc.network, doc.model, a).value
        outcomes.append((tree_fails, u < doc.defaults.target_flow))
    assert outcomes == [(False, False), (False, True)]
