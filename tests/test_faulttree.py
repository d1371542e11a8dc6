"""Fault-tree gates: exact arithmetic, Monte Carlo agreement, and the
contrast with the flow view on the two storage scenarios.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def test_k_must_be_an_integer():
    for k in (1.5, "2", True, None):
        with pytest.raises(PlantDataError, match=rf"k={k!r} is not an integer"):
            k_of_n(k, "a", "b")
    assert k_of_n(np.int64(2), "a", "b").k == 2


def test_non_binary_state_rejected():
    for state in (2, -1, None):
        with pytest.raises(PlantDataError, match=rf"rv a has non-binary state {state!r}"):
            evaluate_failure(or_gate("a", "b"), {"a": state, "b": 1})


def test_or_gate_keeps_rare_events():
    assert failure_probability(or_gate("x", "y"), {"x": 1e-20, "y": 1e-20}) == 2e-20
    tree = or_gate(and_gate("x", "y"), "z")
    p = failure_probability(tree, {"x": 1e-10, "y": 1e-10, "z": 1e-20})
    assert p == pytest.approx(2e-20, rel=1e-12)


# 0, and 1e-30 up to 1: ten such factors stay clear of float underflow
PROBABILITIES = st.one_of(
    st.sampled_from([0.0, 0.5, 1.0]),
    st.floats(1e-30, 1.0),
    st.floats(-30.0, 0.0).map(lambda e: 10.0**e),
)


@st.composite
def fault_trees(draw, ids=None, depth=0):
    """A tree over at most 10 distinct events mixing OR, AND and k-of-n."""
    if ids is None:
        ids = [f"e{i}" for i in range(draw(st.integers(1, 10)))]
    if len(ids) == 1 and depth > 0 and (depth >= 3 or draw(st.booleans())):
        return ids[0]
    cuts = sorted(draw(st.sets(st.integers(1, len(ids) - 1), min_size=1))) if len(ids) > 1 else []
    children = [draw(fault_trees(ids[a:b], depth + 1))
                for a, b in zip([0, *cuts], [*cuts, len(ids)])]
    gate = draw(st.sampled_from(["or", "and", "kofn"]))
    if gate == "or":
        return or_gate(*children)
    if gate == "and":
        return and_gate(*children)
    return k_of_n(draw(st.integers(1, len(children))), *children)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_failure_probability_matches_state_enumeration(data):
    tree = data.draw(fault_trees())
    ids = event_ids(tree)
    probs = {i: data.draw(PROBABILITIES, label=i) for i in ids}
    q = [Fraction(probs[i]) for i in ids]
    # exact weight of every 0/1 state vector, summed over the failing ones
    exact = Fraction(0)
    for states in itertools.product((0, 1), repeat=len(ids)):
        if evaluate_failure(tree, dict(zip(ids, states))):
            exact += math.prod(qi if s == 0 else 1 - qi for qi, s in zip(q, states))
    got = failure_probability(tree, probs)
    assert abs(Fraction(got) - exact) <= exact / 10**12


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
    assert got == 0.14353823790755327


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
