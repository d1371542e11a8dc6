"""In-memory spans around calls into plantflow, recorded from outside the package.

A span is a name, a start, an end and the span that was open when it began.
Spans stay in lists until the run ends; self time is a span's duration minus
the durations of its direct children (calls here nest strictly, one thread).

Wrappers are installed at the name the caller looks up. flow.py imports
solve_lp, apply_scenario, build_flow_lp and build_layered_graph by name, so
those are patched on plantflow.flow; a wrapper on their home module would
never fire on the paths measured here.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter

import numpy as np


def _dinic_note(args, kwargs, out):
    caps = kwargs["caps"] if "caps" in kwargs else args[5]
    cutoff = kwargs.get("cutoff", args[6] if len(args) > 6 else None)
    return len(caps), None if cutoff is None else out.value >= cutoff


def _lp_note(args, kwargs, out):
    return out.iterations


def layer_targets(pf):
    """(span name, owner, attribute, note) for every wrapped layer entry point."""
    return (
        ("dinic.max_flow", pf.dinic, "max_flow", _dinic_note),
        ("rng.uniform_block", pf.rng, "uniform_block", None),
        ("flow.compile_system", pf.reliability, "compile_system", None),
        ("flow.evaluate", pf.flow.SystemFunction, "evaluate", None),
        ("flow.arc_profile", pf.flow.SystemFunction, "arc_profile", None),
        ("lp.solve_lp", pf.flow, "solve_lp", _lp_note),
        ("model.apply_scenario", pf.flow, "apply_scenario", None),
        ("flow.build_flow_lp", pf.flow, "build_flow_lp", None),
        ("flow.build_layered_graph", pf.flow, "build_layered_graph", None),
    )


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.notes: list = []
        self._open = [-1]

    def wrap(self, name, fn, note=None):
        names, starts, ends, parents, notes, opened = (
            self.names, self.starts, self.ends, self.parents, self.notes, self._open)

        def traced(*args, **kwargs):
            i = len(names)
            names.append(name)
            parents.append(opened[-1])
            notes.append(None)
            starts.append(0.0)
            ends.append(0.0)
            opened.append(i)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                opened.pop()
                starts[i] = t0
                ends[i] = t1
            if note is not None:
                notes[i] = note(args, kwargs, out)
            return out

        return traced

    def call(self, name, fn, *args, **kwargs):
        return self.wrap(name, fn)(*args, **kwargs)

    @contextmanager
    def patched(self, targets):
        """Install wrappers for the duration of the block, then restore."""
        saved = []
        try:
            for name, owner, attr, note in targets:
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, note))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def by_name(self) -> dict[str, dict]:
        """Per span name: durations, self times and notes, in call order."""
        dur = np.array(self.ends) - np.array(self.starts)
        child = np.zeros(len(self.names))
        parents = np.array(self.parents, dtype=np.int64)
        nested = parents >= 0
        np.add.at(child, parents[nested], dur[nested])
        out: dict[str, dict] = {}
        for i, name in enumerate(self.names):
            entry = out.setdefault(name, {"dur": [], "self": [], "notes": []})
            entry["dur"].append(dur[i])
            entry["self"].append(dur[i] - child[i])
            entry["notes"].append(self.notes[i])
        return out

