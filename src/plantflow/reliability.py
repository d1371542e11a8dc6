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

Both estimators skip solves whose outcome is forced. Throughput is monotone
in component states, so every solve that decides a state vector also yields
a witness (SystemFunction.decide): a path set when the plant survives (any
vector with those RVs up survives) or a cut set when it fails (any vector
with those RVs down fails). The estimators keep these sets and solve only
the vectors that none of them decides. The brute-force "direct" method
evaluates every vector and is the independent reference.

Survival compares exact integers (the max-flow backend scales every
capacity to a whole number of 2**-k units), so the learned sets are sound on
any finite data, and "margins" and "direct" return bit-identical reports.
The lp backend learns nothing and solves every undecided vector.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import rng
from .errors import PlantDataError
from .flow import MAXFLOW_BACKEND, SystemFunction, compile_system, mask_flags, rv_bitmasks
from .model import STATION_THROUGHPUT, ComponentModel, PlantNetwork

_STATE_CHUNK = 4096       # samples drawn per vectorised RNG call
_WITNESSES_MAX = 512      # solves that teach a set; a miss scans them all (30-40 us)

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
    return next(_iter_samples(model, seed, index, index + 1))[1]


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


def _iter_samples(model: ComponentModel, seed: int, lo: int, hi: int):
    """Per sample lo..hi-1: failed-RV flags (bool), 0/1 states and the failed bitmask."""
    n = len(model)
    p = np.array([rv.p_fail for rv in model.rvs])
    for s0 in range(lo, hi, _STATE_CHUNK):
        s1 = min(s0 + _STATE_CHUNK, hi)
        u = rng.uniform_block(seed, s0 * n, (s1 - s0) * n).reshape(s1 - s0, n)
        down = u < p
        yield from zip(down, (~down).astype(np.float64), rv_bitmasks(down))


class _Witnesses:
    """Cut sets and path sets learned from solves, as RV bitmasks.

    A state vector is given by its failed-RV mask (bit j is RV j). It fails
    when its mask contains a learned cut set and survives when it misses a
    learned path set; otherwise decide() solves it and keeps the solve's
    own set. The sets are sound on any data, since the max-flow verdict is
    exact. Learning stops after _WITNESSES_MAX solves, which bounds the scan
    that precedes each solve; past that cap, and on the lp backend, every
    undecided vector goes to evaluate(), and the vector's own up RVs (or
    failed RVs) stand as its set. At their 3% down-rates the built-ins learn
    about 130 sets in a 100k-sample reliability run and gas about 260 in a
    20k-sample importance run, while a plant that fails in most samples
    keeps finding new cut sets.
    """

    def __init__(self, sf: SystemFunction):
        self.sf = sf
        self.cuts: list[int] = []
        self.paths: list[int] = []
        self.room = _WITNESSES_MAX if sf.backend == MAXFLOW_BACKEND else 0
        self.num_rvs = len(sf.rv_ids)

    def decide(self, down: int) -> tuple[bool, int]:
        """The verdict on the vector with this failed mask, and a set that forces it."""
        for path in self.paths:
            if not path & down:
                return True, path
        for cut in self.cuts:
            if cut & down == cut:
                return False, cut
        states = (~mask_flags(down, self.num_rvs)).astype(np.float64)
        if not self.room:
            up = self.sf.evaluate(states)
            return up, ((1 << self.num_rvs) - 1) ^ down if up else down
        self.room -= 1
        up, mask = self.sf.decide(states)
        (self.paths if up else self.cuts).append(mask)
        return up, mask


def _count_failures(args) -> int:
    net, model, query, lo, hi = args
    sf = compile_system(net, model, query.target_flow,
                        mode=query.mode, backend=query.backend)
    known = _Witnesses(sf)
    failures = 0
    for _, _, failed in _iter_samples(model, query.seed, lo, hi):
        if not known.decide(failed)[0]:
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


def _importance_counts(args) -> tuple[np.ndarray, np.ndarray]:
    net, model, query, method, lo, hi = args
    sf = compile_system(net, model, query.target_flow,
                        mode=query.mode, backend=query.backend)
    n_rvs = len(model)
    plus = np.zeros(n_rvs, dtype=np.int64)
    minus = np.zeros(n_rvs, dtype=np.int64)
    known = _Witnesses(sf)

    for down, states, failed in _iter_samples(model, query.seed, lo, hi):
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

        # Each arm flips one component. The set that decides the base also
        # decides every flip outside it, which still meets the set.
        base_up, witness = known.decide(failed)
        open_arms = mask_flags(witness, n_rvs)
        if base_up:
            # flipping any component up keeps the system up
            plus += 1
            minus += down | ~open_arms  # failed components: minus arm = base
            arms, counts = ~down & open_arms, minus
        else:
            # system already down: only restoring a failed component can help
            arms, counts = down & open_arms, plus
        for j in np.flatnonzero(arms).tolist():
            if known.decide(failed ^ (1 << j))[0]:
                counts[j] += 1
    return plus, minus


def birnbaum_importance(
    net: PlantNetwork,
    model: ComponentModel,
    query: ReliabilityQuery,
    workers: int = 1,
    method: str = MARGINS_METHOD,
) -> ImportanceReport:
    """Birnbaum importance for every component, common random numbers.

    method "margins" (default) settles each sample's base vector and then
    only the flips its deciding set leaves open, through the learned cut
    sets and path sets; "direct" evaluates both arms for every component
    and sample. Both give bit-identical reports; direct is the slow
    reference.
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
