"""Sampling-based reliability assessment on top of the flow evaluator.

Failure probability is P(throughput < target), estimated by Monte Carlo over
independent component states. Component importance is Birnbaum's measure,

    BI_n = P(system up | component n up) - P(system up | component n down),

estimated with common random numbers: both conditional runs reuse the same
per-sample uniforms, so the difference is low-variance and reproducible.

Determinism contract: results depend on (model, query) only. The counter RNG
assigns uniform i = sample * num_rvs + rv_index, so chunk sizes and worker
counts cannot shift the stream; worker results are integer counts whose sum
is order-independent. The same query therefore gives bit-identical reports
at any worker count.

The importance estimator takes exact shortcuts by default (monotonicity of
throughput in component states, max-flow perturbation bounds, and a small
memo of repeated failure patterns). These only skip evaluations whose
outcome is forced, so "margins" and the brute-force "direct" method return
bit-identical reports; with capacities that are not exactly representable in
binary floating point the perturbation bounds could in principle act at a
boundary, in which case use method="direct" as the reference.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import rng
from .errors import PlantDataError
from .flow import MAXFLOW_BACKEND, SystemFunction, compile_system
from .model import STATION_THROUGHPUT, ComponentModel, PlantNetwork

_STATE_CHUNK = 4096       # samples drawn per vectorised RNG call
_PROFILE_MEMO_MAX = 2     # memo full flow profiles for <= this many failures
_PREDICATE_MEMO_MAX = 3   # memo survival bits for <= this many failures

MARGINS_METHOD = "margins"
DIRECT_METHOD = "direct"


@dataclass(frozen=True)
class ReliabilityQuery:
    """Everything that determines an estimate (worker count is not part of it)."""

    target_flow: float
    mode: str = STATION_THROUGHPUT
    backend: str = MAXFLOW_BACKEND
    samples: int = 100_000
    seed: int = 42


@dataclass(frozen=True)
class ReliabilityReport:
    query: ReliabilityQuery
    failures: int
    failure_probability: float
    std_error: float


@dataclass(frozen=True)
class ImportanceEntry:
    rv_id: str
    importance: float
    std_error: float


@dataclass(frozen=True)
class ImportanceReport:
    query: ReliabilityQuery
    entries: tuple[ImportanceEntry, ...]  # in component-model order


@dataclass(frozen=True)
class RankedComponents:
    entries: tuple[ImportanceEntry, ...]
    truncated: bool


def sample_states(model: ComponentModel, seed: int, index: int) -> np.ndarray:
    """State vector (1.0 up / 0.0 down) of one sample, in model order."""
    n = len(model)
    u = rng.uniform_block(seed, index * n, n)
    p = np.array([rv.p_fail for rv in model.rvs])
    return (u >= p).astype(np.float64)


def sample_assignment(model: ComponentModel, seed: int, index: int) -> dict[str, int]:
    """The same sample as a {rv_id: state} mapping, for scenario replay."""
    states = sample_states(model, seed, index)
    return {rv.rv_id: int(s) for rv, s in zip(model.rvs, states)}


def _check_query(query: ReliabilityQuery, workers: int) -> None:
    if not math.isfinite(query.target_flow):
        raise ValueError(f"target_flow must be finite, got {query.target_flow}")
    if query.samples < 1:
        raise ValueError(f"samples must be positive, got {query.samples}")
    if workers < 1:
        raise ValueError(f"workers must be positive, got {workers}")


def _worker_ranges(samples: int, workers: int) -> list[tuple[int, int]]:
    cuts = [samples * w // workers for w in range(workers + 1)]
    return [(lo, hi) for lo, hi in zip(cuts[:-1], cuts[1:]) if hi > lo]


def _iter_state_rows(model: ComponentModel, seed: int, lo: int, hi: int):
    n = len(model)
    p = np.array([rv.p_fail for rv in model.rvs])
    for s0 in range(lo, hi, _STATE_CHUNK):
        s1 = min(s0 + _STATE_CHUNK, hi)
        u = rng.uniform_block(seed, s0 * n, (s1 - s0) * n).reshape(s1 - s0, n)
        states = (u >= p).astype(np.float64)
        for k in range(s1 - s0):
            yield s0 + k, states[k]


def _count_failures(args) -> int:
    net, model, query, lo, hi = args
    sf = compile_system(net, model, query.target_flow,
                        mode=query.mode, backend=query.backend)
    failures = 0
    for _, states in _iter_state_rows(model, query.seed, lo, hi):
        if not sf.evaluate(states):
            failures += 1
    return failures


def estimate_failure_probability(
    net: PlantNetwork,
    model: ComponentModel,
    query: ReliabilityQuery,
    workers: int = 1,
) -> ReliabilityReport:
    """Monte Carlo estimate of P(throughput < target), strict inequality."""
    _check_query(query, workers)
    tasks = [(net, model, query, lo, hi)
             for lo, hi in _worker_ranges(query.samples, workers)]
    if workers == 1:
        failures = _count_failures(tasks[0])
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            failures = sum(pool.map(_count_failures, tasks))
    n = query.samples
    p_hat = failures / n
    se = float(np.sqrt(p_hat * (1.0 - p_hat) / n))
    return ReliabilityReport(query=query, failures=failures,
                             failure_probability=p_hat, std_error=se)


class _Memo:
    """Survival bits and flow profiles for repeated small failure patterns."""

    def __init__(self, sf: SystemFunction):
        self.sf = sf
        self.bits: dict[tuple[int, ...], bool] = {}
        self.profiles: dict[tuple[int, ...], tuple[float, np.ndarray]] = {}

    def survives(self, states: np.ndarray, failed: tuple[int, ...]) -> bool:
        if len(failed) > _PREDICATE_MEMO_MAX:
            return self.sf.evaluate(states)
        hit = self.bits.get(failed)
        if hit is None:
            hit = self.sf.evaluate(states)
            self.bits[failed] = hit
        return hit

    def profile(self, states: np.ndarray, failed: tuple[int, ...]):
        if len(failed) > _PROFILE_MEMO_MAX:
            return self.sf.arc_profile(states)
        hit = self.profiles.get(failed)
        if hit is None:
            hit = self.sf.arc_profile(states)
            self.profiles[failed] = hit
        return hit


def _importance_counts(args) -> tuple[np.ndarray, np.ndarray]:
    net, model, query, method, lo, hi = args
    sf = compile_system(net, model, query.target_flow,
                        mode=query.mode, backend=query.backend)
    n_rvs = len(model)
    target = query.target_flow
    plus = np.zeros(n_rvs, dtype=np.int64)
    minus = np.zeros(n_rvs, dtype=np.int64)
    use_margins = method == MARGINS_METHOD and sf.supports_margins
    memo = _Memo(sf) if method == MARGINS_METHOD else None
    caps_gain = sf.rv_arc_caps() if use_margins else None

    for index, states in _iter_state_rows(model, query.seed, lo, hi):
        up = states == 1.0
        failed = tuple(int(j) for j in np.nonzero(~up)[0])

        if method == DIRECT_METHOD:
            for j in range(n_rvs):
                row = states.copy()
                row[j] = 1.0
                if sf.evaluate(row):
                    plus[j] += 1
                row[j] = 0.0
                if sf.evaluate(row):
                    minus[j] += 1
            continue

        if use_margins:
            value, arc_flows = memo.profile(states, failed)
            base_up = value >= target
            phi = sf.rv_flow_through(arc_flows)
        else:
            base_up = memo.survives(states, failed)
            value = phi = None

        if base_up:
            # flipping any component up keeps the system up
            plus += 1
            minus += up.astype(np.int64) ^ 1  # failed components: minus arm = base
            if use_margins:
                safe = up & (value - phi >= target)
                minus += safe.astype(np.int64)
                pending = np.nonzero(up & ~safe)[0]
            else:
                pending = np.nonzero(up)[0]
            for j in pending:
                row = states.copy()
                row[j] = 0.0
                drop = tuple(sorted(failed + (int(j),)))
                if memo.survives(row, drop):
                    minus[j] += 1
        else:
            # system already down: only restoring a failed component can help
            if use_margins:
                hopeless = ~up & (value + caps_gain < target)
                pending = np.nonzero(~up & ~hopeless)[0]
            else:
                pending = np.nonzero(~up)[0]
            for j in pending:
                row = states.copy()
                row[j] = 1.0
                keep = tuple(k for k in failed if k != int(j))
                if memo.survives(row, keep):
                    plus[j] += 1
    return plus, minus


def birnbaum_importance(
    net: PlantNetwork,
    model: ComponentModel,
    query: ReliabilityQuery,
    workers: int = 1,
    method: str = MARGINS_METHOD,
) -> ImportanceReport:
    """Birnbaum importance for every component, common random numbers.

    method "margins" (default) skips evaluations whose outcome is forced;
    "direct" evaluates both arms for every component and sample. Both give
    bit-identical reports; direct is the slow reference.
    """
    if method not in (MARGINS_METHOD, DIRECT_METHOD):
        raise PlantDataError(f"unknown importance method {method!r}")
    _check_query(query, workers)
    tasks = [(net, model, query, method, lo, hi)
             for lo, hi in _worker_ranges(query.samples, workers)]
    if workers == 1:
        parts = [_importance_counts(tasks[0])]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_importance_counts, tasks))
    plus = np.sum([p for p, _ in parts], axis=0)
    minus = np.sum([m for _, m in parts], axis=0)

    n = query.samples
    p_plus = plus / n
    p_minus = minus / n
    se = np.sqrt(p_plus * (1 - p_plus) / n + p_minus * (1 - p_minus) / n)
    entries = tuple(
        ImportanceEntry(rv_id=rv.rv_id,
                        importance=float(p_plus[j] - p_minus[j]),
                        std_error=float(se[j]))
        for j, rv in enumerate(model.rvs)
    )
    return ImportanceReport(query=query, entries=entries)


def rank_components(
    report: ImportanceReport,
    limit: int | None = None,
    smallest: bool = False,
) -> RankedComponents:
    """Order entries by importance; ties keep component-model order."""
    order = sorted(
        range(len(report.entries)),
        key=lambda j: (report.entries[j].importance if smallest
                       else -report.entries[j].importance, j),
    )
    if limit is not None and limit < 0:
        raise ValueError(f"limit must be nonnegative, got {limit}")
    chosen = order if limit is None else order[:limit]
    # flagged when the request asked for more components than exist
    return RankedComponents(
        entries=tuple(report.entries[j] for j in chosen),
        truncated=limit is not None and limit > len(report.entries),
    )
