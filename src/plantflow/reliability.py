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
at any worker count. An RV fails when its uniform k * 2**-53 is below p_fail;
the sampler reads the 53-bit word k and tests k < ceil(p_fail * 2**53), the
integer limit that ComponentModel.fail_limits holds, which is the same test
exactly because p_fail * 2**53 is exact. A chunk is drawn in cache-sized
blocks of whole rows, each compared with the limits while its words are still
in cache; word i keeps its index, so the flags do not depend on the block size.

Both estimators skip solves whose outcome is forced. Throughput is monotone
in component states, so every solve that decides a state vector also yields
a witness (SystemFunction.decide): a path set when the plant survives (any
vector with those RVs up survives) or a cut set when it fails (any vector
with those RVs down fails). A cut set holds the failed RVs of the extreme
minimum cut with fewer of them, usually the sink-side one, which holds
little more than the component that cut the flow. A store of these sets
settles an RNG chunk in one pass: each set in learned order settles every
open vector with none of its RVs counted (failed in a path set, up in a cut
set), then the first vector left open is solved and its new set takes its
turn, so only what no set decides is solved, in sample order. Importance
counts those RVs per set and vector instead, since a count of 0 or 1 also
decides single-component flips. The brute-force "direct" method is the
reference: each sample and each of its single-component flips, every one
solved, nothing learned.

Survival compares exact integers (the max-flow backend scales every
capacity to a whole number of 2**-k units), so the learned sets are sound on
any finite data, whatever order they are learned in, and "margins" and
"direct" return bit-identical reports. The lp backend learns nothing.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import rng
from .errors import PlantDataError
from .flow import MAXFLOW_BACKEND, SystemFunction, compile_system
from .model import STATION_THROUGHPUT, ComponentModel, PlantNetwork

_STATE_CHUNK = 2048       # samples drawn and settled together
_DRAW_BLOCK = 2**14       # RNG words drawn and compared per step, in whole rows
_WITNESSES_MAX = 512      # solves that teach a set; bounds a chunk's flip counts at S x 512
_ALL = np.uint64(2**64 - 1)

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
    return (~_draw(model, seed, index, index + 1)[0]).astype(np.float64)


def sample_assignment(model: ComponentModel, seed: int, index: int) -> dict[str, int]:
    """The same sample as a {rv_id: state} mapping, for scenario replay."""
    states = sample_states(model, seed, index).astype(int).tolist()
    return dict(zip((rv.rv_id for rv in model.rvs), states))


def _draw(model: ComponentModel, seed: int, lo: int, hi: int) -> np.ndarray:
    """Failed-RV flags (bool, samples x RVs) of samples lo..hi-1, drawn in blocks of
    whole rows of about _DRAW_BLOCK words, each compared while still in cache."""
    limits = model.fail_limits
    n = len(limits)
    step = max(_DRAW_BLOCK // max(n, 1), 1)  # one row is a block even when it is wider
    out = np.empty((hi - lo, n), dtype=bool)
    for r0 in range(lo, hi, step):
        r1 = min(r0 + step, hi)
        out[r0 - lo:r1 - lo] = rng.word_block(seed, r0 * n, (r1 - r0) * n).reshape(r1 - r0, n) < limits
    return out


def _iter_samples(model: ComponentModel, seed: int, lo: int, hi: int):
    """_draw over samples lo..hi-1, one RNG chunk at a time."""
    for s0 in range(lo, hi, _STATE_CHUNK):
        yield _draw(model, seed, s0, min(s0 + _STATE_CHUNK, hi))


def _run(worker, net: PlantNetwork, model: ComponentModel, query: ReliabilityQuery,
         workers: int, *extra) -> list:
    """worker(net, model, query, *extra, lo, hi) per worker's contiguous range of samples,
    in order; one worker, or fewer samples than workers, runs in this process."""
    if not (isinstance(query.target_flow, numbers.Real) and math.isfinite(query.target_flow)):
        raise ValueError(f"target_flow must be a finite real number, got {query.target_flow!r}")
    for name, value in (("samples", query.samples), ("workers", workers), ("seed", query.seed)):
        # bool is an Integral, but True is no count or seed
        if not isinstance(value, numbers.Integral) or isinstance(value, bool):
            raise ValueError(f"{name} must be an integer, got {value!r}")
        if name != "seed" and value < 1:
            raise ValueError(f"{name} must be positive, got {value}")
    parts = workers if query.samples >= workers else 1
    cuts = [query.samples * w // parts for w in range(parts + 1)]
    work = partial(worker, net, model, query, *extra)
    if parts == 1:
        return [work(*cuts)]
    # imported here: the pool's modules cost import time that only a split run needs
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=parts) as pool:
        return list(pool.map(work, cuts[:-1], cuts[1:]))


def _pack(flags: np.ndarray) -> np.ndarray:
    """Bool rows as rows of uint64 words; bit j of a row's words is its flag j."""
    pad = np.zeros(flags.shape[:-1] + (-flags.shape[-1] % 64,), dtype=bool)
    return np.packbits(np.concatenate([flags, pad], -1), axis=-1, bitorder="little").view("<u8")


def _unpack(words: np.ndarray, n: int) -> np.ndarray:
    """The inverse of _pack: rows of uint64 words as rows of n bool flags."""
    bits = np.ascontiguousarray(words).view(np.uint8)
    return np.unpackbits(bits, axis=-1, count=n, bitorder="little").view(bool)


class _Store:
    """A compiled system and the path and cut sets its solves taught.

    settle() and flips() take failed-RV flags packed by _pack and give
    verdicts, True for up. Inside, a set is a packed row; _solve_open() is
    the one pass that applies sets to open rows. Past _WITNESSES_MAX solves,
    and on the lp backend, evaluate() decides alone.
    """

    def __init__(self, sf: SystemFunction):
        self.sf, self.n, self.size = sf, sf.graph.num_rvs, 0
        room = _WITNESSES_MAX if sf.backend == MAXFLOW_BACKEND else 0
        self.words = _pack(np.zeros((room, self.n), dtype=bool))
        self.up = np.zeros(room, dtype=bool)  # the verdict each set forces

    def settle(self, Fw: np.ndarray) -> np.ndarray:
        """Each packed row's verdict, solving the rows no learned set decides."""
        return self._solve_open(Fw.T, 0)

    def flips(self, Fw: np.ndarray, down: np.ndarray, base: np.ndarray) -> np.ndarray:
        """Verdict on each row with one RV flipped (rows x RVs), given its words, flags and own."""
        words, up = self.words[:self.size], self.up[:self.size]
        # per (set, row): the failed RVs of a path set, the up RVs of a cut set
        uncounted = np.where(up, np.uint64(0), _ALL)[:, None]
        counts = np.zeros((self.size, len(Fw)), np.int32)
        for i, column in enumerate(Fw.T):
            counted = column ^ uncounted
            counted &= words[:, i, None]
            counts += np.bitwise_count(counted)
        # a count-0 set has the row's own verdict and keeps it on every flip outside
        # the set; monotonicity keeps it on every flip towards it
        zero, common = counts == 0, np.full_like(Fw, _ALL)
        for i, w in enumerate(words.T):
            common[:, i] = np.bitwise_and.reduce(np.where(zero, w[:, None], _ALL), axis=0)
        kept = _unpack(~common, self.n) | (down == base[:, None])
        verdict = np.where(kept, base[:, None], np.int8(-1))
        # a count-1 set decides the flip of its one counted RV
        k1, s1 = np.nonzero(counts == 1)
        bits = (Fw[s1] ^ uncounted[k1]) & words[k1]
        j1 = np.where(bits > 0, np.bitwise_count(bits - 1) + 64 * np.arange(Fw.shape[1]), 0)
        verdict[s1, j1.sum(axis=1)] = up[k1]
        todo = np.flatnonzero(verdict < 0)
        flipped = Fw[todo // self.n] ^ _pack(np.eye(self.n, dtype=bool))[todo % self.n]
        # the counts have applied every stored set
        verdict.reshape(-1)[todo] = self._solve_open(flipped.T, self.size)
        return verdict == 1

    def _solve_open(self, failed: np.ndarray, k: int) -> np.ndarray:
        """The verdict of each column of failed, which packs one entry's failed RVs. Each
        stored set from index k on, in learned order, and then the set of each solve
        of the first open entry, settles in one pass every open entry it decides."""
        verdict, todo = np.empty(failed.shape[1], dtype=bool), np.arange(failed.shape[1])
        while todo.size and k < len(self.up):
            if k == self.size:
                up, members = self.sf.decide(~_unpack(failed[:, 0], self.n))
                self.words[k], self.up[k] = _pack(members), up
                self.size += 1
            up, words = self.up[k], self.words[k]
            k += 1
            # still open: a failed RV in the path set, an up RV in the cut set
            counted = (failed ^ (np.uint64(0) if up else _ALL)) & words[:, None]
            keep = np.flatnonzero(np.bitwise_or.reduce(counted, axis=0))
            verdict[todo] = up
            todo, failed = todo[keep], failed.take(keep, axis=1)
        for i, f in zip(todo, failed.T):
            verdict[i] = self.sf.evaluate(~_unpack(f, self.n))
        return verdict


def _count_failures(net, model, query, lo: int, hi: int) -> int:
    sf = compile_system(net, model, query.target_flow, mode=query.mode, backend=query.backend)
    known = _Store(sf)
    return sum(int(np.count_nonzero(~known.settle(_pack(down))))
               for down in _iter_samples(model, query.seed, lo, hi))


def estimate_failure_probability(
    net: PlantNetwork,
    model: ComponentModel,
    query: ReliabilityQuery,
    workers: int = 1,
) -> ReliabilityReport:
    """Monte Carlo estimate of P(throughput < target), strict inequality."""
    failures = sum(_run(_count_failures, net, model, query, workers))
    p_hat = failures / query.samples
    return ReliabilityReport(query=query, failures=failures, failure_probability=p_hat,
                             std_error=float(np.sqrt(p_hat * (1.0 - p_hat) / query.samples)))


def _importance_counts(net, model, query, method: str,
                       lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    sf = compile_system(net, model, query.target_flow, mode=query.mode, backend=query.backend)
    known = None if method == DIRECT_METHOD else _Store(sf)
    plus, minus = np.zeros((2, len(model)), dtype=np.int64)
    for down in _iter_samples(model, query.seed, lo, hi):
        if known is None:  # each sample, then each of its single-component flips
            flip = np.eye(len(model), dtype=bool)
            solved = np.array([[sf.evaluate(s) for s in np.vstack([~row, ~row ^ flip])]
                               for row in down], dtype=bool)
            up, flipped = solved[:, 0], solved[:, 1:]
        else:
            Fw = _pack(down)
            up = known.settle(Fw)
            flipped = known.flips(Fw, down, up)
        # of the two arms of a (sample, component), one is the sample itself
        plus += np.where(down, flipped, up[:, None]).sum(axis=0)
        minus += np.where(down, up[:, None], flipped).sum(axis=0)
    return plus, minus


def birnbaum_importance(
    net: PlantNetwork,
    model: ComponentModel,
    query: ReliabilityQuery,
    workers: int = 1,
    method: str = MARGINS_METHOD,
) -> ImportanceReport:
    """Birnbaum importance for every component, common random numbers.

    method "margins" (default) settles each sample and then each of its
    single-component flips through monotonicity and the learned cut sets
    and path sets, solving only the rest; "direct" takes each sample and
    each of its single-component flips, every one solved, nothing learned.
    Both give bit-identical reports; direct is the slow reference.
    """
    if method not in (MARGINS_METHOD, DIRECT_METHOD):
        raise PlantDataError(f"unknown importance method {method!r}")
    n = query.samples
    p_plus, p_minus = np.sum(_run(_importance_counts, net, model, query, workers, method),
                             axis=0) / n
    se = np.sqrt(p_plus * (1 - p_plus) / n + p_minus * (1 - p_minus) / n)
    return ImportanceReport(query=query, entries=tuple(
        ImportanceEntry(rv.rv_id, float(p_plus[j] - p_minus[j]), float(se[j]))
        for j, rv in enumerate(model.rvs)))


def rank_components(
    report: ImportanceReport,
    limit: int | None = None,
    smallest: bool = False,
) -> RankedComponents:
    """Order entries by importance; ties keep component-model order."""
    if limit is not None:
        if not isinstance(limit, numbers.Integral) or isinstance(limit, bool):
            raise ValueError(f"limit must be an integer, got {limit!r}")
        if limit < 0:
            raise ValueError(f"limit must be nonnegative, got {limit}")
    entries, sign = report.entries, 1 if smallest else -1
    order = sorted(range(len(entries)), key=lambda j: (sign * entries[j].importance, j))
    # flagged when the request asked for more components than exist
    return RankedComponents(entries=tuple(entries[j] for j in order[:limit]),
                            truncated=limit is not None and limit > len(entries))
