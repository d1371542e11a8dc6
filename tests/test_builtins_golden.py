"""Pin the data of the built-in networks by digest.

The golden file holds the sha256 of ``datasets.to_text`` for every built-in
at its default failure probability, and for each builder at ``p_fail=0.1``.
The round-trip tests compare a document only with itself; this file is what
notices a changed edge, station, capacity or component grouping.

Regenerate (only when a change of data is intended) with

    PYTHONPATH=src python tests/test_builtins_golden.py

which first prints each entry that differs from the committed file, with
its key and digest prefix, old -> new (tests/golden_diff.py).
"""

import hashlib
import json
from pathlib import Path

from plantflow import datasets
from golden_diff import regenerate

GOLDEN = Path(__file__).with_name("golden") / "builtins.json"

CALLS = {
    "didactic(0.1)": lambda: datasets.didactic(0.1),
    "gas(0.1)": lambda: datasets.gas(0.1),
    "pressure(False, 0.1)": lambda: datasets.pressure(False, 0.1),
    "pressure(True, 0.1)": lambda: datasets.pressure(True, 0.1),
}


def digests() -> dict[str, str]:
    docs = {name: datasets.builtin(name) for name in datasets.BUILTINS}
    docs.update({call: build() for call, build in CALLS.items()})
    return {key: hashlib.sha256(datasets.to_text(doc).encode()).hexdigest()
            for key, doc in docs.items()}


def render() -> str:
    return json.dumps(digests(), indent=1) + "\n"


def test_builtin_documents_match_golden():
    assert render() == GOLDEN.read_text()


if __name__ == "__main__":
    regenerate(GOLDEN, render(), lambda doc: doc, lambda digest: digest[:12])
