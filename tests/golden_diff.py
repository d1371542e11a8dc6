"""Rewrite a golden file, first printing which of its entries the rewrite changes.

Every golden test's __main__ block regenerates its file through regenerate,
so a regeneration shows its scope: a change meant to move one capacity
mode's answers must list only that mode's entries.
"""

import json
from pathlib import Path
from typing import Callable


def by_plant(doc: list) -> dict:
    """Entries that each cover one network and mode, keyed "network mode"."""
    return {f"{entry['network']} {entry['mode']}": entry for entry in doc}


def changed_entries(old: dict, new: dict, summary: Callable) -> list[str]:
    """One line per key whose entry new adds, drops or holds otherwise: the
    key, then the summary of its old and of its new entry ("absent" if none)."""

    def show(entries: dict, key) -> str:
        return str(summary(entries[key])) if key in entries else "absent"

    return [f"{key}: {show(old, key)} -> {show(new, key)}"
            for key in {**new, **old} if old.get(key) != new.get(key)]


def regenerate(path: Path, text: str, entries: Callable, summary: Callable) -> None:
    """Print each entry of the JSON file path that text changes, then write text there.

    entries(document) keys a parsed document's entries; summary(entry) is
    what each printed line shows of an entry.
    """
    old = entries(json.loads(path.read_text())) if path.exists() else {}
    changed = changed_entries(old, entries(json.loads(text)), summary)
    print(f"{len(changed)} entries differ from {path.name}")
    for line in changed:
        print("  " + line)
    path.parent.mkdir(exist_ok=True)
    path.write_text(text)
