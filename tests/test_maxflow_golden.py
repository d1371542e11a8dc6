"""Byte-for-byte pin of the max-flow backend's `maxflow --format json` output.

The golden file holds the CLI document for every built-in network, every
capacity mode, and two scenarios each (all up, and one fixed failure set).
The max-flow arithmetic is pure Python and deterministic, so any change to
the layered graph, its arc order or its scenario fold that moves a single
flow value shows up here.

Regenerate (only when a change of output is intended) with

    PYTHONPATH=src python tests/test_maxflow_golden.py

which first prints each entry that differs from the committed file, with
its network, mode, failure set and u*, old -> new (tests/golden_diff.py).
"""

import contextlib
import io
import json
from pathlib import Path

from plantflow import datasets
from plantflow.cli import main
from plantflow.model import MODES
from golden_diff import regenerate

GOLDEN = Path(__file__).with_name("golden") / "maxflow.json"

FAILURE_SETS = {
    "didactic": ("n9", "p4_5"),
    "pressure-original": ("X10", "X19", "X2", "X27"),
    "pressure-expanded": ("X1", "X10", "X14", "X77"),
    "gas": ("X2", "X78"),
}


def render() -> str:
    docs = []
    for name in datasets.BUILTINS:
        for mode in MODES:
            for failed in ((), FAILURE_SETS[name]):
                argv = ["maxflow", "--builtin", name, "--mode", mode,
                        "--backend", "maxflow", "--format", "json"]
                for rv_id in failed:
                    argv += ["--fail", rv_id]
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    assert main(argv) == 0
                docs.append(json.loads(out.getvalue()))
    return json.dumps(docs, indent=1) + "\n"


def test_maxflow_json_matches_golden():
    assert render() == GOLDEN.read_text()


def by_scenario(doc: list) -> dict:
    return {f"{entry['network']} {entry['mode']} failed={','.join(entry['failed'])}": entry
            for entry in doc}


if __name__ == "__main__":
    regenerate(GOLDEN, render(), by_scenario, lambda entry: f"u* {entry['u_star']}")
