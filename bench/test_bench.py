"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest bench/test_bench.py -q

Checks that a run emits exactly the metrics BENCHMARK.json names, that each
correctness gate trips on an injected wrong answer, and that the benchmark
refuses to run without the program's sources.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402

pf = run.import_plantflow()
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
TINY = 0.02  # share of each workload's batch and gate sizes


def tiny_run(name: str, trace: bool = False) -> dict:
    return run.measure(pf, name, seed=3, seconds=0.01, trace=trace, scale=TINY,
                       log=lambda *_: None)


def test_spec_workloads_exist():
    assert {w["name"] for w in SPEC["workloads"]} <= set(run.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_every_named_metric_is_emitted(name, trace):
    out = tiny_run(name, trace)
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    want = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in out["metrics"].items()} == \
        {m["name"]: m["unit"] for m in want}


def test_items_per_s_is_scaled_to_the_reference_speed():
    slow = [run.Batch(None, 100, 1.0, control=2 * run.CONTROL_REF_S),
            run.Batch(None, 100, 1.0, control=2 * run.CONTROL_REF_S)]
    assert run.items_per_second(slow) == 100.0
    assert run.reference_items_per_second(slow) == pytest.approx(200.0)


def test_reliability_gate_trips_on_a_wrong_timed_failure_count(monkeypatch):
    original = pf.estimate_failure_probability
    batch = run.make_workload(pf, "reliability-gas", TINY).batch

    def wrong(net, model, query, **kwargs):
        # wrong only at the timed batch size, so a gate with its own smaller call misses it
        out = original(net, model, query, **kwargs)
        return dataclasses.replace(out, failures=out.failures + (query.samples == batch))

    monkeypatch.setattr(pf, "estimate_failure_probability", wrong)
    out = tiny_run("reliability-gas")
    assert not out["correct"] and out["failed"] >= 1


def test_importance_gate_trips_when_margins_differ_from_direct(monkeypatch):
    original = pf.birnbaum_importance

    def wrong(*args, method="margins", **kwargs):
        out = original(*args, method=method, **kwargs)
        if method == "margins":
            first = dataclasses.replace(out.entries[0], importance=out.entries[0].importance + 1e-12)
            out = dataclasses.replace(out, entries=(first,) + out.entries[1:])
        return out

    monkeypatch.setattr(pf, "birnbaum_importance", wrong)
    out = tiny_run("importance-pressure-expanded")
    assert not out["correct"] and out["failed"] >= 1


def test_crosscheck_gate_trips_on_a_wrong_maxflow_value(monkeypatch):
    original = pf.max_processable_flow

    def wrong(*args, backend="maxflow", **kwargs):
        out = original(*args, backend=backend, **kwargs)
        return dataclasses.replace(out, value=out.value + 1e-6) if backend == "maxflow" else out

    monkeypatch.setattr(pf, "max_processable_flow", wrong)
    out = tiny_run("crosscheck-gas")
    assert not out["correct"] and out["failed"] == out["attempted"]


def test_digest_gate_trips_when_the_traced_replay_differs(monkeypatch):
    original = spans.Tracer.call

    def wrong(self, name, fn, *args, **kwargs):
        out = original(self, name, fn, *args, **kwargs)
        if name == "reliability.estimate_failure_probability":
            out = dataclasses.replace(out, failures=out.failures + 1)
        return out

    monkeypatch.setattr(spans.Tracer, "call", wrong)
    out = tiny_run("reliability-gas", trace=True)
    assert not out["correct"] and out["failed"] >= 1


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "crosscheck-gas",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0 and proc.stdout == ""
