#!/usr/bin/env python3
"""plantflow benchmark: sampling, importance and the two-solver cross-check.

Every workload, both runs, with a summary and the environment:

    python3 bench/run.py [--seed 42] [--seconds 20] [--out results.json]

One run of one workload:

    python3 bench/run.py --workload reliability-gas --seed 7 --seconds 20 --trace 0

A single run prints its metrics one per line with their units, and as its
last line one JSON object with the keys correct, attempted, failed and
metrics. With --trace 0 the metrics are the end-to-end ones, measured with
nothing patched. With --trace 1 the run repeats the untraced timed phase,
replays the same inputs with spans around each layer's entry points, and
reports the per-layer metrics. Times are scaled to a reference speed by a
control timed next to them (see CONTROL_REF_S). bench/README.md maps each
metric to the workload it should move.

The program is imported from src/ next to this directory; without it the
run exits non-zero before printing a result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from spans import Tracer, layer_targets

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

CROSSCHECK_P_DOWN = 0.12  # acceptance criterion 5's component-down rate
CROSSCHECK_TOL = 1e-9     # |u*_lp - u*_maxflow| allowed per scenario
SETUP_WARMUPS = 2         # setup/control pairs whose times are not kept (caches warming)
SETUP_REPEATS = 15        # setup/control pairs whose median ratio gives setup_s
SETUP_BUILDS = 7          # in-process builtin() calls whose median is datasets.builtin.s

# The host is a shared VM whose speed drifts by tens of percent within minutes.
# Each timing is therefore paired with a control that no plantflow change can
# affect, run right next to it, and reported at the control's reference time:
# the figure is what the work would take on a machine that ran the control in
# the reference time. The references are about the controls' times on the
# 2-vCPU Xeon VM the bounds were set on, while its host was quiet.
CONTROL_REF_S = 0.010     # control_seconds()
NUMPY_REF_S = 0.060       # a fresh interpreter's `import numpy`

# Runs in a fresh interpreter: import through a loaded, validated document.
SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import plantflow
from plantflow.model import validate_model, validate_network
doc = plantflow.builtin(sys.argv[2])
ok = validate_network(doc.network).ok and validate_model(doc.network, doc.model).ok
t1 = time.perf_counter()
print(repr(t1 - t0) if ok else "invalid")
"""

# The setup control: a fresh interpreter that imports numpy and nothing else.
NUMPY_CODE = """
import time
t0 = time.perf_counter()
import numpy
print(repr(time.perf_counter() - t0))
"""


def import_plantflow():
    if not (SRC / "plantflow" / "__init__.py").is_file():
        sys.exit(f"bench: no plantflow sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import plantflow
    return plantflow


def plain_call(name, fn, *args, **kwargs):
    return fn(*args, **kwargs)


def _control_graph(n: int = 300, m: int = 1500, seed: int = 2):
    rnd = random.Random(seed)
    adj, head, cap = [[] for _ in range(n)], [], []
    for _ in range(m):
        u, v = rnd.randrange(n), rnd.randrange(n)
        if u != v:
            for a, b, c in ((u, v, rnd.randint(1, 20)), (v, u, 0)):
                adj[a].append(len(head))
                head.append(b)
                cap.append(c)
    return n, adj, head, cap


_CONTROL = _control_graph()


def control_seconds(reps: int = 4) -> float:
    """Time a fixed pure-Python augmenting-path max flow that uses no plantflow code."""
    n, adj, head, cap0 = _CONTROL
    t0 = perf_counter()
    for _ in range(reps):
        cap = list(cap0)
        while True:
            via = [-1] * n
            via[0] = -2
            queue = [0]
            for u in queue:
                for e in adj[u]:
                    if cap[e] > 0 and via[head[e]] == -1:
                        via[head[e]] = e
                        queue.append(head[e])
            if via[n - 1] == -1:
                break
            push, v = min(cap[via[v]] for v in _path(via, n - 1, head)), n - 1
            for v in _path(via, n - 1, head):
                cap[via[v]] -= push
                cap[via[v] ^ 1] += push
    return perf_counter() - t0


def _path(via, v, head):
    while v != 0:
        yield v
        v = head[via[v] ^ 1]


# ---------------------------------------------------------------------------
# Workloads. Each turns the seed into a stream of batch inputs; one batch is
# one call a user would make (or, for the cross-check, a group of scenarios),
# so precompute inside an estimator is paid once per batch, as users pay it.


class _Workload:
    def __init__(self, pf, batch: int, gate_items: int):
        self.pf = pf
        self.doc = pf.builtin(self.dataset)
        self.batch = batch
        self.gate_items = gate_items

    def check(self, inp, result) -> int:
        """Wrong answers visible in a batch's own result."""
        return 0

    def gate(self, batch) -> int:
        """Mismatches found by re-deriving the first batch's items another way."""
        return 0


class _Sampling(_Workload):
    """Shared by the two estimator workloads: a batch input is a stream seed."""

    def query(self, seed: int, samples: int):
        d = self.doc.defaults
        return self.pf.ReliabilityQuery(target_flow=d.target_flow, mode=d.mode,
                                        samples=samples, seed=seed)

    def inputs(self, seed: int):
        rnd = random.Random(seed)
        while True:
            yield rnd.getrandbits(32)

    def items(self, inp) -> int:
        return self.batch

    def down_rows(self, inp):
        sample_states = self.pf.reliability.sample_states
        return [sample_states(self.doc.model, inp, i) == 0.0 for i in range(self.batch)]


class ReliabilityGas(_Sampling):
    dataset = "gas"
    baseline_solves = 1  # per sample, before any shortcut

    def run(self, inp, call):
        report = call("reliability.estimate_failure_probability",
                      self.pf.estimate_failure_probability,
                      self.doc.network, self.doc.model, self.query(inp, self.batch))
        return report.failures

    def gate(self, batch) -> int:
        """The timed failure count against an uncut, per-scenario recount of every sample."""
        pf, net, model = self.pf, self.doc.network, self.doc.model
        target, mode = self.doc.defaults.target_flow, self.doc.defaults.mode
        recount = sum(
            pf.max_processable_flow(net, model, pf.sample_assignment(model, batch.inp, i),
                                    mode=mode).value < target
            for i in range(batch.items))
        return abs(batch.result - recount)


class ImportancePressureExpanded(_Sampling):
    dataset = "pressure-expanded"

    @property
    def baseline_solves(self):
        return 2 * len(self.doc.model)  # both arms of every component

    def run(self, inp, call):
        report = call("reliability.birnbaum_importance", self.pf.birnbaum_importance,
                      self.doc.network, self.doc.model, self.query(inp, self.batch))
        return tuple((e.importance, e.std_error) for e in report.entries)

    def gate(self, batch) -> int:
        """Entries where the margins shortcut and direct evaluation differ at all."""
        q = self.query(batch.inp, self.gate_items)
        net, model = self.doc.network, self.doc.model
        margins = self.pf.birnbaum_importance(net, model, q, method="margins")
        direct = self.pf.birnbaum_importance(net, model, q, method="direct")
        return sum(a != b for a, b in zip(margins.entries, direct.entries))


class CrosscheckGas(_Workload):
    """Random gas scenarios, each solved by the LP and by max flow.

    The per-scenario agreement in check() is this workload's gate.
    """

    dataset = "gas"
    baseline_solves = 0  # no SystemFunction on this path

    def inputs(self, seed: int):
        rnd = random.Random(seed)
        rvs = self.doc.model.rvs
        while True:
            yield tuple(
                tuple(0 if rnd.random() < CROSSCHECK_P_DOWN else 1 for _ in rvs)
                for _ in range(self.batch))

    def items(self, inp) -> int:
        return len(inp)

    def run(self, inp, call):
        pf, net, model, mode = self.pf, self.doc.network, self.doc.model, self.doc.defaults.mode
        ids = [rv.rv_id for rv in model.rvs]
        out = []
        for states in inp:
            a = dict(zip(ids, states))
            lp = call("flow.max_processable_flow.lp", pf.max_processable_flow,
                      net, model, a, mode=mode, backend="lp")
            mf = call("flow.max_processable_flow.maxflow", pf.max_processable_flow,
                      net, model, a, mode=mode, backend="maxflow")
            out.append((lp.value, mf.value))
        return tuple(out)

    def check(self, inp, result) -> int:
        return sum(not abs(lp - mf) <= CROSSCHECK_TOL for lp, mf in result)

    def down_rows(self, inp):
        return [[s == 0 for s in states] for states in inp]


WORKLOADS = {
    # name: (class, items per batch, items the independent gate re-derives)
    "reliability-gas": (ReliabilityGas, 2000, 2000),  # the whole first batch
    "importance-pressure-expanded": (ImportancePressureExpanded, 500, 24),
    "crosscheck-gas": (CrosscheckGas, 40, 0),
}


def make_workload(pf, name: str, scale: float = 1.0):
    cls, batch, gate_items = WORKLOADS[name]
    return cls(pf, max(1, round(batch * scale)), gate_items and max(1, round(gate_items * scale)))


# ---------------------------------------------------------------------------
# Measurement


@dataclass
class Batch:
    inp: object
    items: int
    seconds: float
    result: object = None
    error: str | None = None
    control: float | None = None


def run_batches(wl, inputs, call, seconds: float | None = None,
                control: bool = False) -> list[Batch]:
    """Run batches for about `seconds` (at least one batch), or all `inputs`.

    A batch starts only while at least half a batch of time is left, so a run
    measures `seconds` give or take half a batch. With `control`, each batch
    is followed by one control_seconds() measurement.
    """
    done: list[Batch] = []
    stop = None if seconds is None else perf_counter() + seconds
    for inp in inputs:
        t0 = perf_counter()
        if done and stop is not None and t0 + done[-1].seconds / 2 > stop:
            break
        try:
            result, error = wl.run(inp, call), None
        except Exception:  # a batch that raises counts all its items failed
            result, error = None, traceback.format_exc()
        done.append(Batch(inp, wl.items(inp), perf_counter() - t0, result, error,
                          control_seconds() if control else None))
        if error is not None:
            print(error, file=sys.stderr)
    return done


def failures(wl, batches: list[Batch]) -> int:
    """Failed items: batches that raised, wrong answers in results, failed gates."""
    failed = 0
    for b in batches:
        failed += b.items if b.error is not None else wl.check(b.inp, b.result)
    try:
        failed += wl.gate(batches[0])
    except Exception:
        print(traceback.format_exc(), file=sys.stderr)
        failed += wl.gate_items
    return failed


def digest(batches: list[Batch]) -> str:
    return hashlib.sha256(repr([b.result for b in batches]).encode()).hexdigest()[:16]


def workload_properties(wl, batches: list[Batch]) -> dict[str, float]:
    """Failed components per item, and the share of items a cheap path could serve."""
    sizes, repeats, seen = [], 0, set()
    for b in batches:
        for row in wl.down_rows(b.inp):
            down = tuple(j for j, d in enumerate(row) if d)
            sizes.append(len(down))
            repeats += down in seen
            seen.add(down)
    n = len(sizes)
    return {
        "workload.failed_mean": sum(sizes) / n,
        "workload.low_order_share": sum(s <= 2 for s in sizes) / n,
        "workload.repeat_share": repeats / n,
    }


def _fresh_interpreter(code: str, *args: str) -> float:
    out = subprocess.run([sys.executable, "-c", code, *args],
                         capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.strip())


def setup_seconds(dataset: str) -> tuple[float, float]:
    """Import through a validated document in fresh interpreters, at the reference speed.

    Each setup interpreter is followed by a control interpreter that only
    imports numpy. Returns the median over the kept pairs of setup / control
    times NUMPY_REF_S, and the median raw setup time.
    """
    ratios, raw = [], []
    for k in range(SETUP_WARMUPS + SETUP_REPEATS):
        t = _fresh_interpreter(SETUP_CODE, str(SRC), dataset)
        c = _fresh_interpreter(NUMPY_CODE)
        if k >= SETUP_WARMUPS:
            ratios.append(t / c)
            raw.append(t)
    return statistics.median(ratios) * NUMPY_REF_S, statistics.median(raw)


def items_per_second(batches: list[Batch]) -> float:
    ok = [b for b in batches if b.error is None]
    return sum(b.items for b in ok) / sum(b.seconds for b in ok) if ok else 0.0


def reference_items_per_second(batches: list[Batch]) -> float:
    """items_per_second scaled by the run's mean control time over CONTROL_REF_S."""
    controls = [b.control for b in batches]
    return items_per_second(batches) * statistics.fmean(controls) / CONTROL_REF_S


def unit_of(name: str) -> str:
    if name == "items_per_s":
        return "1/s"
    if name.endswith("_us"):
        return "us"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith(("calls", "_mean", "per_item")):
        return "count"
    return "ratio"


def _pct_us(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] * 1e6 \
        if len(values) > 1 else (values[0] * 1e6 if values else 0.0)


def layer_metrics(wl, spans: dict, items: int, wall: float) -> dict[str, float]:
    empty = {"dur": [], "self": [], "notes": []}

    def get(name):
        return spans.get(name, empty)

    m: dict[str, float] = {}
    d = get("dinic.max_flow")
    m["dinic.max_flow.calls"] = len(d["dur"])
    m["dinic.max_flow.self_s"] = sum(d["self"])
    m["dinic.max_flow.p50_us"] = _pct_us(d["dur"], 50)
    m["dinic.max_flow.p99_us"] = _pct_us(d["dur"], 99)
    arcs = [a for a, _ in d["notes"]]
    hits = [h for _, h in d["notes"] if h is not None]
    m["dinic.max_flow.arcs_mean"] = sum(arcs) / len(arcs) if arcs else 0.0
    m["dinic.max_flow.cutoff_hit_ratio"] = sum(hits) / len(hits) if hits else 0.0
    m["dinic.max_flow.share"] = m["dinic.max_flow.self_s"] / wall

    ev, ap = get("flow.evaluate"), get("flow.arc_profile")
    m["flow.evaluate.calls"] = len(ev["dur"])
    m["flow.evaluate.self_s"] = sum(ev["self"])
    m["flow.evaluate.p50_us"] = _pct_us(ev["dur"], 50)
    m["flow.evaluate.p99_us"] = _pct_us(ev["dur"], 99)
    m["flow.arc_profile.calls"] = len(ap["dur"])
    m["flow.arc_profile.self_s"] = sum(ap["self"])
    m["flow.arc_profile.p50_us"] = _pct_us(ap["dur"], 50)
    solves = len(ev["dur"]) + len(ap["dur"])
    m["flow.solves_per_item"] = solves / items
    cs = get("flow.compile_system")["dur"]
    m["flow.compile_system.s"] = sum(cs) / len(cs) if cs else 0.0
    for backend in ("lp", "maxflow"):
        dur = get(f"flow.max_processable_flow.{backend}")["dur"]
        m[f"flow.max_processable_flow.{backend}.p50_us"] = _pct_us(dur, 50)
        m[f"flow.max_processable_flow.{backend}.p95_us"] = _pct_us(dur, 95)
    m["flow.build_flow_lp.self_s"] = sum(get("flow.build_flow_lp")["self"])
    m["flow.build_layered_graph.self_s"] = sum(get("flow.build_layered_graph")["self"])

    lp = get("lp.solve_lp")
    m["lp.solve_lp.calls"] = len(lp["dur"])
    m["lp.solve_lp.self_s"] = sum(lp["self"])
    m["lp.solve_lp.p50_us"] = _pct_us(lp["dur"], 50)
    m["lp.solve_lp.p95_us"] = _pct_us(lp["dur"], 95)
    m["lp.solve_lp.iterations_mean"] = sum(lp["notes"]) / len(lp["notes"]) if lp["notes"] else 0.0

    sc = get("model.apply_scenario")
    m["model.apply_scenario.calls"] = len(sc["dur"])
    m["model.apply_scenario.self_s"] = sum(sc["self"])
    m["model.apply_scenario.p50_us"] = _pct_us(sc["dur"], 50)

    m["reliability.self_s"] = sum(get("reliability.estimate_failure_probability")["self"]) \
        + sum(get("reliability.birnbaum_importance")["self"])
    m["reliability.shortcut_ratio"] = \
        1.0 - solves / (wl.baseline_solves * items) if wl.baseline_solves else 0.0

    rb = get("rng.uniform_block")
    m["rng.uniform_block.calls"] = len(rb["dur"])
    m["rng.uniform_block.self_s"] = sum(rb["self"])
    return m


def measure(pf, name: str, seed: int, seconds: float, trace: bool, scale: float = 1.0,
            log=print) -> dict:
    """One run of one workload; returns the result object the last line prints."""
    wl = make_workload(pf, name, scale)
    setup_s, setup_raw_s = (None, None) if trace else setup_seconds(wl.dataset)

    # a traced run splits its time between the untraced pass and the replay
    batches = run_batches(wl, wl.inputs(seed), plain_call, seconds / 2 if trace else seconds,
                          control=not trace)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted = sum(b.items for b in batches)
    failed = failures(wl, batches)
    metrics = {}
    if trace:
        tracer = Tracer()
        with tracer.patched(layer_targets(pf)):
            replay = run_batches(wl, [b.inp for b in batches], tracer.call)
        failed += sum(a.items for a, b in zip(batches, replay) if a.result != b.result)
        log(f"digest untraced {digest(batches)} traced {digest(replay)}")
        wall = sum(b.seconds for b in replay)
        metrics.update(layer_metrics(wl, tracer.by_name(), attempted, wall))
        builds = []
        for _ in range(SETUP_BUILDS):
            t0 = perf_counter()
            pf.builtin(wl.dataset)
            builds.append(perf_counter() - t0)
        metrics["datasets.builtin.s"] = statistics.median(builds)
        metrics["trace.overhead_ratio"] = statistics.median(
            b.seconds / a.seconds for a, b in zip(batches, replay)) - 1.0
    failed = min(failed, attempted)
    extra = {**workload_properties(wl, batches), "error_rate": failed / attempted}
    if trace:
        metrics.update(extra)
    else:
        metrics.update(items_per_s=reference_items_per_second(batches), setup_s=setup_s,
                       peak_rss_mb=peak_rss_mb)

    log(f"workload {name} seed {seed} batches {len(batches)} items {attempted} failed {failed}")
    if not trace:
        log(f"raw items_per_s {items_per_second(batches)!r} 1/s")
        log(f"raw setup_s {setup_raw_s!r} s")
        log(f"control_s {statistics.median(b.control for b in batches)!r} s")
    for key, value in {**extra, **metrics}.items():
        log(f"{key} {float(value)!r} {unit_of(key)}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": unit_of(k)} for k, v in metrics.items()},
    }


# ---------------------------------------------------------------------------
# The whole run: every workload in a fresh interpreter, both modes.


def environment(seed: int) -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=30, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
        "seed": seed,
    }


def run_all(seed: int, seconds: float, out: str | None) -> int:
    env = environment(seed)
    for key, value in env.items():
        print(f"env.{key} {value}")
    runs, ok = {}, True
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} trace {trace}: exit {proc.returncode}")
                ok = False
                continue
            result = json.loads(lines[-1])
            runs.setdefault(name, {})[f"trace{trace}"] = result
            ok = ok and result["correct"]
            print(f"{name} trace {trace}: correct {result['correct']} "
                  f"attempted {result['attempted']} failed {result['failed']}")
            for line in lines[:-1]:
                print(f"  {line}")
    if out:
        Path(out).write_text(json.dumps({"env": env, "runs": runs}, indent=2) + "\n")
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS),
                    help="run one workload; without it, run every workload")
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="whole run only: also write every result to this JSON file")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if args.workload is None:
        import_plantflow()  # fail early, before any subprocess, when src/ is missing
        return run_all(args.seed, args.seconds, args.out)
    pf = import_plantflow()
    result = measure(pf, args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
