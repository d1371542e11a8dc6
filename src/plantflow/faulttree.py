"""Static fault-tree analysis, the classical baseline to compare against.

Gates work in the failure domain, and there is one rule: a gate fails when
at least k of its n children fail. OR is 1-of-n, AND is n-of-n, and
k-of-n:F is the general case. Basic events are component RVs referenced by
id, with state 0 meaning failed, matching the rest of the package.

Exact probabilities assume the tree references each RV at most once (so
subtrees are independent); that is checked, not assumed silently. Every
gate's probability is the tail of its failure-count distribution, built by
dynamic programming over heterogeneous child probabilities. No complement
is taken, so rare events keep their size.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Mapping, Union

from .datasets import didactic
from .errors import PlantDataError


@dataclass(frozen=True)
class BasicEvent:
    rv_id: str


@dataclass(frozen=True)
class Gate:
    """Fails when at least k of the children fail."""
    children: tuple["Node", ...]
    k: int


Node = Union[BasicEvent, Gate]


def _wrap(children: tuple[Node | str, ...]) -> tuple[Node, ...]:
    out = []
    for c in children:
        out.append(BasicEvent(c) if isinstance(c, str) else c)
    if not out:
        raise PlantDataError("a gate needs at least one child")
    return tuple(out)


def or_gate(*children: Node | str) -> Gate:
    return k_of_n(1, *children)


def and_gate(*children: Node | str) -> Gate:
    return k_of_n(len(children), *children)


def k_of_n(k: int, *children: Node | str) -> Gate:
    """Fails when at least k of the children fail."""
    wrapped = _wrap(children)
    # bool is an Integral, but True is no count
    if isinstance(k, bool) or not isinstance(k, numbers.Integral):
        raise PlantDataError(f"k={k!r} is not an integer")
    if not 1 <= k <= len(wrapped):
        raise PlantDataError(f"k={k} outside 1..{len(wrapped)}")
    return Gate(wrapped, int(k))


def event_ids(node: Node) -> tuple[str, ...]:
    """All referenced RV ids, in first-appearance order."""
    if isinstance(node, BasicEvent):
        return (node.rv_id,)
    out: list[str] = []
    for child in node.children:
        out.extend(event_ids(child))
    return tuple(out)


def _require_distinct(node: Node) -> None:
    ids = event_ids(node)
    seen = set()
    dupes = sorted({i for i in ids if i in seen or seen.add(i)})
    if dupes:
        raise PlantDataError(
            f"rv ids appear in several branches, breaking independence: {dupes}")


def evaluate_failure(node: Node, states: Mapping[str, int]) -> bool:
    """True when the tree's top event occurs for the given 0/1 states."""
    if isinstance(node, BasicEvent):
        try:
            state = states[node.rv_id]
        except KeyError:
            raise PlantDataError(f"no state for rv {node.rv_id!r}") from None
        if state not in (0, 1):
            raise PlantDataError(f"rv {node.rv_id} has non-binary state {state!r}")
        return state == 0
    return sum(1 for c in node.children if evaluate_failure(c, states)) >= node.k


def failure_probability(node: Node, p_fail: Mapping[str, float]) -> float:
    """Exact top-event probability for independent basic events."""
    _require_distinct(node)
    return _prob(node, p_fail)


def _prob(node: Node, p_fail: Mapping[str, float]) -> float:
    if isinstance(node, BasicEvent):
        try:
            q = p_fail[node.rv_id]
        except KeyError:
            raise PlantDataError(f"no failure probability for rv {node.rv_id!r}") from None
        if not 0.0 <= q <= 1.0:
            raise PlantDataError(f"rv {node.rv_id!r} probability {q} outside [0, 1]")
        return q
    # failure-count distribution, one convolution step per child
    dist = [1.0]
    for q in (_prob(c, p_fail) for c in node.children):
        nxt = [0.0] * (len(dist) + 1)
        for j, w in enumerate(dist):
            nxt[j] += w * (1.0 - q)
            nxt[j + 1] += w * q
        dist = nxt
    # summed left to right: sum() compensates from Python 3.12 on, which
    # would make the last bit depend on the interpreter
    tail = 0.0
    for w in dist[node.k:]:
        tail += w
    return tail


def didactic_fault_tree() -> Gate:
    """The stage-wise tree for the built-in teaching network.

    Stages with two 0.5-capacity stations cannot survive a single loss, so
    they are OR gates; the three-station storage stage is 2-of-3:F; the
    single supply station is a bare event; and the pipe subsystem is
    approximated as 7-of-14:F. RV ids match datasets.didactic().
    """
    # the pipe RVs are the ones governing edges, named by datasets' component rule
    pipe_ids = [rv.rv_id for rv in didactic().model.rvs if isinstance(rv.assets[0], str)]
    return or_gate(
        or_gate("n1", "n2"),
        k_of_n(2, "n5", "n7", "n9"),
        or_gate("n10", "n12"),
        "n14",
        k_of_n(7, *pipe_ids),
    )
