"""Monte Carlo reliability and Birnbaum importance: determinism, the
learned-set fast path against plain double evaluation, and variance behaviour.
"""

import concurrent.futures
import dataclasses
import math

import numpy as np
import pytest

from plantflow import datasets, reliability, rng
from plantflow.errors import PlantDataError
from plantflow.flow import SystemFunction, compile_system, max_processable_flow
from plantflow.model import (
    EDGE_MIN,
    MODES,
    STATION_THROUGHPUT,
    ComponentModel,
    Edge,
    PlantNetwork,
    RandomVariable,
)
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
from rng_reference import uniform_at


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


EDGE_PS = (0.0, 1.0, 5e-324, 2.0 ** -53, 1.0 - 2.0 ** -53, 0.1 + 0.2)


def test_word_limits_split_exactly_where_the_uniforms_cross_p():
    # word k stands for the uniform k * 2**-53; the limit is the first k at or above p
    for p in EDGE_PS + (0.03, 0.15, 0.5):
        limit = rng.word_limit(p)
        for k in (limit - 1, limit, limit + 1):
            if 0 <= k < 2 ** 53:
                assert (k < limit) == (k * 2.0 ** -53 < p)


@pytest.mark.parametrize("lo", [0, 12_345, 10 ** 9])
def test_threshold_flags_equal_uniforms_below_p(lo):
    # gas's shipped RVs plus the edge cases, over two RNG chunks; the last two
    # RVs' p are their first uniform and the next float above it, so in the
    # first sample one sits on its limit and stays up, the other fails
    gas = datasets.builtin("gas").model
    n, hi = len(gas) + len(EDGE_PS) + 2, lo + 3000
    at, above = (uniform_at(21, lo * n + j) for j in (n - 2, n - 1))
    extra = tuple(RandomVariable(f"edge{k}", p, ()) for k, p in enumerate(EDGE_PS)) + (
        RandomVariable("at", at, ()), RandomVariable("above", math.nextafter(above, 1.0), ()))
    model = ComponentModel(rvs=gas.rvs + extra)
    p = np.array([rv.p_fail for rv in model.rvs])
    flags = np.concatenate(list(reliability._iter_samples(model, 21, lo, hi)))
    assert np.array_equal(flags, rng.uniform_block(21, lo * n, (hi - lo) * n).reshape(-1, n) < p)
    assert not flags[0, -2] and flags[0, -1]
    for i in (lo, lo + 2047, lo + 2048, hi - 1):
        assert np.array_equal(sample_states(model, 21, i), (~flags[i - lo]).astype(float))


def _one_shot(model, seed, lo, hi):
    """Samples lo..hi-1's failed-RV flags from one word block."""
    n = len(model)
    return rng.word_block(seed, lo * n, (hi - lo) * n).reshape(hi - lo, n) < model.fail_limits


@pytest.mark.parametrize("block", [reliability._DRAW_BLOCK, 64])
def test_blocked_draw_equals_one_shot_draw(monkeypatch, block):
    # a word keeps its index sample * num_rvs + rv whatever the block: gas's 87
    # RVs divide neither block, so a chunk's last block is partial, and at 64
    # words one block holds less than a row; so does one of `wide`'s rows
    monkeypatch.setattr(reliability, "_DRAW_BLOCK", block)
    gas = datasets.builtin("gas").model
    wide = ComponentModel(rvs=tuple(RandomVariable(f"x{k}", 0.5, ()) for k in range(block + 5)))
    rows = max(block // len(gas), 1)  # per block
    lo = rows + rows // 2 + 1
    for model, a, b in ((gas, 0, 2048), (gas, lo, lo + 3 * rows + 2), (gas, 5, 6),
                        (wide, 3, 6), (wide, 9, 10), (ComponentModel(rvs=()), 4, 2052)):
        flags = reliability._draw(model, 7, a, b)
        assert flags.shape == (b - a, len(model))
        assert np.array_equal(flags, _one_shot(model, 7, a, b))
    for i in (0, rows - 1, rows, 2047):
        assert np.array_equal(sample_states(gas, 7, i), (~_one_shot(gas, 7, i, i + 1)[0]).astype(float))


def test_solve_budget_per_call(monkeypatch):
    # failure witnesses from the smaller extreme cut hold little more than the
    # component that cut the flow, so each decides many samples; source-side
    # witnesses alone take about twice these solves
    real = SystemFunction.decide
    calls = []

    def counted(self, states):
        calls.append(1)
        return real(self, states)

    monkeypatch.setattr(SystemFunction, "decide", counted)
    gas = datasets.builtin("gas")
    q = ReliabilityQuery(gas.defaults.target_flow, samples=2000, seed=42)
    estimate_failure_probability(gas.network, gas.model, q)
    assert 0 < len(calls) <= 40
    calls.clear()
    expanded = datasets.builtin("pressure-expanded")
    q = ReliabilityQuery(expanded.defaults.target_flow, samples=500, seed=42)
    birnbaum_importance(expanded.network, expanded.model, q)
    assert 0 < len(calls) <= 70


@pytest.mark.parametrize("name", datasets.BUILTINS)
@pytest.mark.parametrize("mode", MODES)
def test_learned_sets_count_failures_like_direct_recount(name, mode):
    doc = datasets.builtin(name)
    fn = compile_system(doc.network, doc.model, doc.defaults.target_flow, mode=mode)
    for seed in (5, 77):
        q = ReliabilityQuery(doc.defaults.target_flow, mode=mode, samples=600, seed=seed)
        rep = estimate_failure_probability(doc.network, doc.model, q)
        direct = sum(not fn.evaluate(sample_states(doc.model, seed, i))
                     for i in range(q.samples))
        assert rep.failures == direct


def _two_edge_plant(a, b, station):
    """Edges a and b in parallel between two stations, each with its own RV."""
    net = PlantNetwork(
        num_nodes=2, num_stages=2, stations=((1,), (2,)),
        node_capacity={1: station, 2: station},
        edges=(Edge("a", 1, 2, 1, a), Edge("b", 1, 2, 1, b)),
    )
    model = ComponentModel(rvs=(RandomVariable("a", 0.3, ("a",)),
                                RandomVariable("b", 0.3, ("b",)),
                                RandomVariable("s", 0.3, (2,))))
    return net, model


@pytest.mark.parametrize("a,b,station,target", [
    (0.1, 0.2, 1.0, 0.1 + 0.2),    # the plant fails with everything up
    (0.1, 0.2, 1.0, 0.3),
    (1e300, 5e-324, 1e300, 5e-324),  # 2**1074 units: a 2070-bit integer
    (1e300, 5e-324, 1e300, 1e300),
])
def test_any_finite_capacities_learn_sets_and_count_like_direct(monkeypatch, a, b, station, target):
    net, model = _two_edge_plant(a, b, station)
    real = SystemFunction.decide
    learned = []

    def counted(self, states):
        learned.append(1)
        return real(self, states)

    monkeypatch.setattr(SystemFunction, "decide", counted)
    failures = {}
    for mode in MODES:
        fn = compile_system(net, model, target, mode=mode)
        q = ReliabilityQuery(target_flow=target, mode=mode, samples=400, seed=4)
        failures[mode] = estimate_failure_probability(net, model, q).failures
        direct = sum(not fn.evaluate(sample_states(model, q.seed, i)) for i in range(q.samples))
        assert failures[mode] == direct
        x = birnbaum_importance(net, model, q, method=MARGINS_METHOD)
        y = birnbaum_importance(net, model, q, method=DIRECT_METHOD)
        assert x.entries == y.entries
    assert learned and failures[STATION_THROUGHPUT] > 0


@pytest.mark.parametrize("name,target", [("pressure-expanded", 89.9), ("gas", 0.49)])
def test_any_target_keeps_learning_and_counts_like_direct(name, target):
    # a target like 89.9 is compared with the flow as ceil(89.9 * 2**shift);
    # the recount compares full flow values, exact on these dyadic plants
    doc = datasets.builtin(name)
    fn = compile_system(doc.network, doc.model, target)
    q = ReliabilityQuery(target_flow=target, samples=400, seed=8)
    rep = estimate_failure_probability(doc.network, doc.model, q)
    direct = sum(fn.flow_value(sample_states(doc.model, q.seed, i)) < target
                 for i in range(q.samples))
    assert 0 < rep.failures == direct
    q = ReliabilityQuery(target_flow=target, samples=100, seed=8)
    a = birnbaum_importance(doc.network, doc.model, q, method=MARGINS_METHOD)
    b = birnbaum_importance(doc.network, doc.model, q, method=DIRECT_METHOD)
    assert a.entries == b.entries


def test_counts_hold_once_the_witness_cap_is_reached(monkeypatch):
    # past the cap nothing more is learned and undecided vectors go to evaluate()
    monkeypatch.setattr(reliability, "_WITNESSES_MAX", 3)
    real = SystemFunction.evaluate
    calls = []

    def counted(self, states):
        calls.append(1)
        return real(self, states)

    monkeypatch.setattr(SystemFunction, "evaluate", counted)
    doc = datasets.builtin("gas")
    fn = compile_system(doc.network, doc.model, doc.defaults.target_flow)
    q = ReliabilityQuery(target_flow=doc.defaults.target_flow, samples=300, seed=3)
    rep = estimate_failure_probability(doc.network, doc.model, q)
    assert calls
    direct = sum(not real(fn, sample_states(doc.model, q.seed, i)) for i in range(q.samples))
    assert 0 < rep.failures == direct

    doc = datasets.builtin("didactic")
    q = ReliabilityQuery(target_flow=doc.defaults.target_flow, samples=200, seed=3)
    calls.clear()
    a = birnbaum_importance(doc.network, doc.model, q, method=MARGINS_METHOD)
    assert calls
    b = birnbaum_importance(doc.network, doc.model, q, method=DIRECT_METHOD)
    assert a.entries == b.entries


@pytest.mark.parametrize("name", ["gas", "pressure-expanded"])
@pytest.mark.parametrize("mode", [STATION_THROUGHPUT, EDGE_MIN])
@pytest.mark.parametrize("cap", [512, 3])
def test_learned_sets_carry_across_rng_chunks(monkeypatch, name, mode, cap):
    # 7-sample chunks: sets learned in one chunk settle rows of the next, and
    # with cap 3 learning stops inside the first chunk
    monkeypatch.setattr(reliability, "_STATE_CHUNK", 7)
    monkeypatch.setattr(reliability, "_WITNESSES_MAX", cap)
    real = {kind: getattr(SystemFunction, kind) for kind in ("decide", "evaluate")}
    calls = {"decide": 0, "evaluate": 0}

    def counting(kind):
        def counted(self, states):
            calls[kind] += 1
            return real[kind](self, states)
        return counted

    for kind in calls:
        monkeypatch.setattr(SystemFunction, kind, counting(kind))
    doc = datasets.builtin(name)
    fn = compile_system(doc.network, doc.model, doc.defaults.target_flow, mode=mode)
    q = ReliabilityQuery(doc.defaults.target_flow, mode=mode, samples=40, seed=17)
    rep = estimate_failure_probability(doc.network, doc.model, q)
    direct = sum(not real["evaluate"](fn, sample_states(doc.model, q.seed, i))
                 for i in range(q.samples))
    assert rep.failures == direct
    calls.update(decide=0, evaluate=0)
    a = birnbaum_importance(doc.network, doc.model, q, method=MARGINS_METHOD)
    assert 0 < calls["decide"] <= cap
    assert (calls["evaluate"] > 0) == (cap == 3)
    b = birnbaum_importance(doc.network, doc.model, q, method=DIRECT_METHOD)
    assert a.entries == b.entries


def test_lp_backend_learns_nothing_and_agrees_with_direct(monkeypatch):
    doc = datasets.builtin("didactic")
    refused = []
    monkeypatch.setattr(SystemFunction, "decide", lambda self, states: refused.append(1))
    q = ReliabilityQuery(target_flow=1.0, backend="lp", samples=24, seed=6)
    fn = compile_system(doc.network, doc.model, 1.0, backend="lp")
    rep = estimate_failure_probability(doc.network, doc.model, q)
    assert 0 < rep.failures == sum(not fn.evaluate(sample_states(doc.model, q.seed, i))
                                   for i in range(q.samples))
    a = birnbaum_importance(doc.network, doc.model, q, method=MARGINS_METHOD)
    b = birnbaum_importance(doc.network, doc.model, q, method=DIRECT_METHOD)
    assert a.entries == b.entries
    assert not refused
    # the lp store has no room, so every row and flip is evaluated
    monkeypatch.undo()
    exact = birnbaum_importance(doc.network, doc.model, dataclasses.replace(q, backend="maxflow"))
    assert a.entries == exact.entries


@pytest.mark.parametrize("backend,samples", [("maxflow", 2100), ("lp", 30)])
def test_estimators_on_a_model_without_components(backend, samples):
    # every sample is the same empty state vector; 2100 samples span two chunks
    doc = datasets.builtin("didactic")
    empty = ComponentModel(rvs=())
    for mode in MODES:
        fn = compile_system(doc.network, empty, doc.defaults.target_flow, mode=mode, backend=backend)
        q = ReliabilityQuery(doc.defaults.target_flow, mode=mode, backend=backend,
                             samples=samples, seed=1)
        failures = estimate_failure_probability(doc.network, empty, q).failures
        assert failures == (0 if fn.evaluate(np.ones(0)) else samples)
        if mode == STATION_THROUGHPUT:
            assert failures == 0  # the plant with nothing that can fail meets its target
        for method in (MARGINS_METHOD, DIRECT_METHOD):
            assert birnbaum_importance(doc.network, empty, q, method=method).entries == ()


@pytest.mark.parametrize("name", ["gas", "pressure-expanded"])
@pytest.mark.parametrize("mode", [STATION_THROUGHPUT, EDGE_MIN])
def test_no_solve_is_decided_by_a_set_learned_before_it(monkeypatch, name, mode):
    # 7-sample chunks: the sets of earlier chunks must settle every row they
    # decide, or the verdicts hold while a solve is wasted
    monkeypatch.setattr(reliability, "_STATE_CHUNK", 7)
    real = SystemFunction.decide
    solved = []

    def recorded(self, states):
        up, members = real(self, states)
        solved.append((np.asarray(states, dtype=bool), up, members))
        return up, members

    monkeypatch.setattr(SystemFunction, "decide", recorded)
    doc = datasets.builtin(name)
    q = ReliabilityQuery(doc.defaults.target_flow, mode=mode, samples=150, seed=17)
    for estimate in (estimate_failure_probability, birnbaum_importance):
        solved.clear()
        estimate(doc.network, doc.model, q)
        assert len(solved) > 1
        for i, (states, _, _) in enumerate(solved):
            # a path set decides a state with none of its RVs failed, a cut set
            # one with none of its RVs up
            assert all((members & (states != up)).any() for _, up, members in solved[:i])


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
    for field, query, workers in (
            ("samples", ReliabilityQuery(target_flow=1.0, samples=10.5), 1),
            ("workers", ReliabilityQuery(target_flow=1.0, samples=10), 1.5),
            ("seed", ReliabilityQuery(target_flow=1.0, samples=10, seed=1.5), 1),
            # bool is an Integral subclass, yet no count or seed
            ("samples", ReliabilityQuery(target_flow=1.0, samples=True), 1),
            ("workers", ReliabilityQuery(target_flow=1.0, samples=10), True),
            ("seed", ReliabilityQuery(target_flow=1.0, samples=10, seed=False), 1)):
        for run in (estimate_failure_probability, birnbaum_importance):
            with pytest.raises(ValueError, match=f"{field} must be an integer"):
                run(doc.network, doc.model, query, workers=workers)
    for target in ("1", None, 1j, math.inf, math.nan):
        for run in (estimate_failure_probability, birnbaum_importance):
            with pytest.raises(ValueError, match="target_flow must be a finite real number"):
                run(doc.network, doc.model, ReliabilityQuery(target_flow=target, samples=10))


def test_ranking_refuses_a_negative_limit_and_importance_an_unknown_method():
    doc = datasets.builtin("didactic")
    q = ReliabilityQuery(target_flow=1.0, samples=10)
    with pytest.raises(PlantDataError, match="unknown importance method 'x'"):
        birnbaum_importance(doc.network, doc.model, q, method="x")
    rep = birnbaum_importance(doc.network, doc.model, q)
    with pytest.raises(ValueError, match="limit must be nonnegative, got -1"):
        rank_components(rep, limit=-1)
    # the integer rule of the query: a bool is no count
    for limit in (True, False, 2.5, "2"):
        with pytest.raises(ValueError, match=f"limit must be an integer, got {limit!r}"):
            rank_components(rep, limit=limit)
    assert len(rank_components(rep, limit=np.int64(2)).entries) == 2


@pytest.mark.parametrize("p_fail", [1.5, -0.1, math.nan])
def test_sampler_refuses_probabilities_outside_the_unit_interval(p_fail):
    doc = datasets.builtin("didactic")
    model = with_p(doc, {"p8_9": p_fail}, default=0.01)
    q = ReliabilityQuery(target_flow=1.0, samples=10)
    for run in (estimate_failure_probability, birnbaum_importance):
        with pytest.raises(PlantDataError, match=r"rv p8_9 p_fail .* outside \[0,1\]"):
            run(doc.network, model, q)
    for _ in range(2):  # the per-model limits cache nothing for a refused model
        with pytest.raises(PlantDataError, match="rv p8_9"):
            sample_states(model, 1, 0)


class _RefusedPool:
    def __init__(self, *args, **kwargs):
        raise AssertionError("a process pool was opened")


def test_fewer_samples_than_workers_run_in_process(monkeypatch):
    doc = datasets.builtin("gas")
    q = ReliabilityQuery(target_flow=0.5, samples=3, seed=42)
    one = (estimate_failure_probability(doc.network, doc.model, q),
           birnbaum_importance(doc.network, doc.model, q))
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RefusedPool)
    if hasattr(reliability, "ProcessPoolExecutor"):
        monkeypatch.setattr(reliability, "ProcessPoolExecutor", _RefusedPool)
    eight = (estimate_failure_probability(doc.network, doc.model, q, workers=8),
             birnbaum_importance(doc.network, doc.model, q, workers=8))
    assert eight == one


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


@pytest.mark.parametrize("name", datasets.BUILTINS)
def test_store_settles_packed_rows_like_evaluate(monkeypatch, name):
    # the store stands on a compiled system alone; its verdicts on packed rows are
    # evaluate's, with room for every set, for 3, and for none on the lp backend
    doc = datasets.builtin(name)
    model = with_p(doc, {}, default=0.05)
    for mode in MODES:
        # the all-up flow as target: any loss of throughput fails the row
        target = max_processable_flow(doc.network, model, model.all_up(), mode=mode).value
        fn = compile_system(doc.network, model, target, mode=mode)
        down = reliability._draw(model, 3, 0, 400)
        expected = [fn.evaluate(~row) for row in down]
        for room in (reliability._WITNESSES_MAX, 3):
            monkeypatch.setattr(reliability, "_WITNESSES_MAX", room)
            store = reliability._Store(fn)
            # the second call replays the sets the first one taught
            got = [store.settle(reliability._pack(part)) for part in (down[:250], down[250:])]
            assert np.concatenate(got).tolist() == expected
            assert 0 < store.size <= room
        lp = reliability._Store(compile_system(doc.network, model, target, mode=mode,
                                               backend="lp"))
        assert lp.settle(reliability._pack(down[:30])).tolist() == expected[:30]
        assert lp.size == 0


# ---------------------------------------------------------------------------
# Birnbaum importance


def test_margins_shortcut_equals_direct_evaluation():
    # the learned sets decide the flips in the default mode and a fold mode
    cases = [(name, mode, samples) for name in datasets.BUILTINS
             for mode, samples in ((STATION_THROUGHPUT, 400), (EDGE_MIN, 100))]
    for name, mode, samples in cases:
        doc = datasets.builtin(name)
        q = ReliabilityQuery(target_flow=doc.defaults.target_flow, mode=mode,
                             samples=samples, seed=13)
        a = birnbaum_importance(doc.network, doc.model, q, method=MARGINS_METHOD)
        b = birnbaum_importance(doc.network, doc.model, q, method=DIRECT_METHOD)
        assert len(a.entries) == len(b.entries) == len(doc.model)
        for x, y in zip(a.entries, b.entries):
            assert x.rv_id == y.rv_id
            assert x.importance == y.importance
            assert x.std_error == y.std_error


def test_direct_method_solves_each_sample_and_flip_once_and_learns_nothing(monkeypatch):
    doc = datasets.builtin("didactic")
    calls = []
    real = SystemFunction.evaluate

    def counted(self, states):
        calls.append(1)
        return real(self, states)

    def refused(self, *args):
        raise AssertionError("the direct method consulted a shortcut")

    monkeypatch.setattr(SystemFunction, "evaluate", counted)
    monkeypatch.setattr(SystemFunction, "decide", refused)
    monkeypatch.setattr(SystemFunction, "arc_profile", refused)
    for entry in ("__init__", "settle", "flips"):
        monkeypatch.setattr(reliability._Store, entry, refused)
    q = ReliabilityQuery(target_flow=1.0, samples=30, seed=2)
    birnbaum_importance(doc.network, doc.model, q, method=DIRECT_METHOD)
    # each sample once, and each of its single-component flips once
    assert len(calls) == (len(doc.model) + 1) * q.samples


# edge-min caps the didactic plant at 0.5, so 1.0 would fail every sample
@pytest.mark.parametrize("mode, target", [(STATION_THROUGHPUT, 1.0), (EDGE_MIN, 0.5)])
def test_both_methods_count_the_arms_like_a_row_by_row_oracle(mode, target):
    # both methods share one count of the arms, so it is checked against its own
    # brute force: for each sample, copy the row, set component j up, then down
    doc = datasets.builtin("didactic")
    q = ReliabilityQuery(target_flow=target, mode=mode, samples=30, seed=5)
    fn = compile_system(doc.network, doc.model, q.target_flow, mode=mode)
    plus, minus = np.zeros((2, len(doc.model)), dtype=np.int64)
    for i in range(q.samples):
        states = sample_states(doc.model, q.seed, i) == 1.0
        for j in range(len(doc.model)):
            for state, counts in ((True, plus), (False, minus)):
                row = states.copy()
                row[j] = state
                counts[j] += fn.evaluate(row)
    expected = plus / q.samples - minus / q.samples
    assert np.all(minus <= plus) and np.count_nonzero(expected) > 0
    for method in (MARGINS_METHOD, DIRECT_METHOD):
        rep = birnbaum_importance(doc.network, doc.model, q, method=method)
        assert [e.importance for e in rep.entries] == expected.tolist()


def test_importance_worker_identity(monkeypatch):
    # each worker gets an even contiguous range, in a real pool
    ranges = []

    class Recording(concurrent.futures.ProcessPoolExecutor):
        def map(self, fn, los, his):
            ranges.append(list(zip(los, his)))
            return super().map(fn, los, his)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
    doc = datasets.builtin("didactic")
    q = ReliabilityQuery(target_flow=1.0, samples=1500, seed=21)
    reports = [birnbaum_importance(doc.network, doc.model, q, workers=w)
               for w in (1, 2, 8)]
    assert ranges == [[(1500 * i // w, 1500 * (i + 1) // w) for i in range(w)] for w in (2, 8)]
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
