"""Byte-for-byte pin of every CLI command's output in every format.

The golden file holds, per invocation, the exit code and the exact stdout
and stderr text (and, for `--out`, the file written): `maxflow` tables and
CSV with and without `--full` and with one failure set, `reliability` and
`importance` in all three formats at small sample counts, `faulttree` in all
three formats, and the input-error diagnostics. Sampling is seeded, so each
document is deterministic.

Regenerate (only when a change of output is intended) with

    PYTHONPATH=src python tests/test_cli_golden.py

which first prints each entry that differs from the committed file, with
its argv and exit code, old -> new (tests/golden_diff.py).
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from plantflow.cli import main
from golden_diff import regenerate

GOLDEN = Path(__file__).with_name("golden") / "cli.json"

MAXFLOW = ["maxflow", "--builtin", "gas"]
FAILED = ["maxflow", "--builtin", "didactic", "--fail", "n9", "--fail", "p4_5"]
RELIABILITY = ["reliability", "--builtin", "didactic", "--samples", "300", "--seed", "7"]
IMPORTANCE = ["importance", "--builtin", "didactic", "--samples", "100"]
FORMATS = ("table", "json", "csv")

CASES = [
    *[base + ["--format", fmt] + full
      for base in (MAXFLOW, FAILED) for fmt in ("table", "csv") for full in ([], ["--full"])],
    *[RELIABILITY + ["--format", fmt] for fmt in FORMATS],
    ["reliability", "--builtin", "pressure-original", "--samples", "20", "--target", "140",
     "--mode", "edge-max"],
    *[IMPORTANCE + ["--format", fmt] for fmt in FORMATS],
    IMPORTANCE + ["--top", "0", "--bottom", "0"],
    IMPORTANCE + ["--top", "30", "--bottom", "2"],
    IMPORTANCE + ["--top", "30", "--format", "json"],
    *[["faulttree", "--format", fmt] for fmt in FORMATS],
    ["faulttree", "--p-fail", "0.1", "--format", "json"],
    # input errors
    ["maxflow", "--builtin", "didactic", "--fail", "bogus"],
    ["reliability", "--builtin", "didactic", "--samples", "0"],
    ["importance", "--builtin", "didactic", "--samples", "10", "--top", "-1"],
    ["faulttree", "--p-fail", "2"],
]

# commands whose output also goes through --out, which writes the stdout bytes
OUT_CASES = [
    FAILED + ["--format", "table"],
    RELIABILITY + ["--format", "json"],
    ["faulttree", "--format", "csv"],
]


def run(argv, out_path=None):
    if out_path is not None:
        argv = argv + ["--out", str(out_path)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def render() -> str:
    docs = [{"argv": argv, **run(argv)} for argv in CASES]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "out.txt"
        for argv in OUT_CASES:
            doc = {"argv": argv + ["--out", "FILE"], **run(argv, path)}
            docs.append({**doc, "file": path.read_text()})
    return json.dumps(docs, indent=1) + "\n"


def test_cli_output_matches_golden():
    assert render() == GOLDEN.read_text()


if __name__ == "__main__":
    regenerate(GOLDEN, render(), lambda doc: {" ".join(entry["argv"]): entry for entry in doc},
               lambda entry: f"exit {entry['code']}")
