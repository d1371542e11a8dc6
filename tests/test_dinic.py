"""Max-flow primitive on small graphs with known optima."""

import random

import pytest

from plantflow.dinic import build_topology, max_flow


def solve(n, source, sink, tails, heads, caps, cutoff=None):
    return max_flow(build_topology(n, source, sink, tails, heads), caps=caps, cutoff=cutoff)


def test_single_arc():
    r = solve(2, 0, 1, [0], [1], [0.7])
    assert r.value == pytest.approx(0.7)
    assert list(r.arc_flow) == [pytest.approx(0.7)]


def test_diamond():
    # 0->1->3 and 0->2->3, caps force 0.5 + 0.25
    tails = [0, 1, 0, 2]
    heads = [1, 3, 2, 3]
    caps = [0.5, 1.0, 0.25, 0.25]
    r = solve(4, 0, 3, tails, heads, caps)
    assert r.value == pytest.approx(0.75)


def test_bottleneck_in_middle():
    # two sources worth 1.0 squeezed through a 0.4 middle arc
    tails = [0, 0, 1, 2, 3]
    heads = [1, 2, 3, 3, 4]
    caps = [0.5, 0.5, 1.0, 1.0, 0.4]
    r = solve(5, 0, 4, tails, heads, caps)
    assert r.value == pytest.approx(0.4)


def test_disconnected_sink():
    r = solve(3, 0, 2, [0], [1], [1.0])
    assert r.value == 0.0


def test_zero_capacity_arcs_carry_nothing():
    r = solve(2, 0, 1, [0, 0], [1, 1], [0.0, 0.3])
    assert r.value == pytest.approx(0.3)
    assert r.arc_flow[0] == 0.0


def test_antiparallel_pair():
    # arcs both ways between 1 and 2; only the forward direction helps
    tails = [0, 1, 2, 2]
    heads = [1, 2, 1, 3]
    caps = [1.0, 0.6, 0.9, 1.0]
    r = solve(4, 0, 3, tails, heads, caps)
    assert r.value == pytest.approx(0.6)


def test_cutoff_stops_early_at_exact_threshold():
    tails = [0, 0, 1, 2]
    heads = [1, 2, 3, 3]
    caps = [0.5, 0.5, 0.5, 0.5]
    r = solve(4, 0, 3, tails, heads, caps, cutoff=0.5)
    # cutoff is an exact >= test; the search may stop at the threshold
    assert r.value >= 0.5
    full = solve(4, 0, 3, tails, heads, caps)
    assert full.value == pytest.approx(1.0)


def test_cutoff_above_max_returns_max():
    r = solve(2, 0, 1, [0], [1], [0.7], cutoff=2.0)
    assert r.value == pytest.approx(0.7)


def random_grid(rnd):
    # 3x3 grid, left column fed, right column drained
    n = 11  # 9 cells + source 9 + sink 10
    tails, heads, caps = [], [], []

    def arc(a, b, c):
        tails.append(a)
        heads.append(b)
        caps.append(c)

    for r_ in range(3):
        arc(9, 3 * r_, rnd.randint(1, 8) / 4.0)
        arc(3 * r_ + 2, 10, rnd.randint(1, 8) / 4.0)
        for c_ in range(2):
            arc(3 * r_ + c_, 3 * r_ + c_ + 1, rnd.randint(1, 8) / 4.0)
    for c_ in range(3):
        for r_ in range(2):
            arc(3 * r_ + c_, 3 * (r_ + 1) + c_, rnd.randint(1, 8) / 4.0)
            arc(3 * (r_ + 1) + c_, 3 * r_ + c_, rnd.randint(1, 8) / 4.0)
    return n, tails, heads, caps


def test_flow_conservation_on_random_grid():
    n, tails, heads, caps = random_grid(random.Random(4))
    res = solve(n, 9, 10, tails, heads, caps)
    # conservation at every interior vertex
    net = [0.0] * n
    for a, (t, h) in enumerate(zip(tails, heads)):
        assert -1e-12 <= res.arc_flow[a] <= caps[a] + 1e-12
        net[t] += res.arc_flow[a]
        net[h] -= res.arc_flow[a]
    for v in range(9):
        assert net[v] == pytest.approx(0.0, abs=1e-12)
    assert net[9] == pytest.approx(res.value, abs=1e-12)


def test_one_topology_serves_many_capacity_vectors():
    # a solve only resets residuals, so reusing a topology after full and
    # cut-off solves must give exactly what a freshly built one gives
    rnd = random.Random(8)
    n, tails, heads, _ = random_grid(rnd)
    topo = build_topology(n, 9, 10, tails, heads)
    for k in range(30):
        caps = [rnd.choice((0.0, 0.25, 0.5, 1.0, 1.75)) for _ in tails]
        cutoff = (None, 0.5, 1.0)[k % 3]
        reused = max_flow(topo, caps=caps, cutoff=cutoff)
        fresh = solve(n, 9, 10, tails, heads, caps, cutoff=cutoff)
        assert reused.value == fresh.value
        assert reused.arc_flow == fresh.arc_flow


def test_zero_capacity_arcs_equal_removed_arcs():
    # zero arcs stay in the adjacency but are never traversed: the optimum
    # and every other arc's flow match the graph without them, bit for bit
    rnd = random.Random(9)
    for _ in range(20):
        n, tails, heads, caps = random_grid(rnd)
        caps = [0.0 if rnd.random() < 0.3 else c for c in caps]
        kept = [a for a, c in enumerate(caps) if c > 0.0]
        full = solve(n, 9, 10, tails, heads, caps)
        pruned = solve(n, 9, 10, [tails[a] for a in kept], [heads[a] for a in kept],
                       [caps[a] for a in kept])
        assert full.value == pruned.value
        assert [full.arc_flow[a] for a in kept] == list(pruned.arc_flow)
        assert all(full.arc_flow[a] == 0.0 for a, c in enumerate(caps) if c == 0.0)


def test_full_solve_source_side_is_a_minimum_cut():
    # quarter capacities keep the arithmetic exact, so the arcs leaving the
    # final search's source side carry exactly the maximum flow
    rnd = random.Random(12)
    for _ in range(20):
        n, tails, heads, caps = random_grid(rnd)
        caps = [0.0 if rnd.random() < 0.2 else c for c in caps]
        res = solve(n, 9, 10, tails, heads, caps)
        side = res.source_side
        assert len(side) == n and side[9] and not side[10]
        cut = [a for a, (t, h) in enumerate(zip(tails, heads)) if side[t] and not side[h]]
        assert sum(caps[a] for a in cut) == res.value
        assert all(res.arc_flow[a] == caps[a] for a in cut)


def test_full_solve_sink_side_is_a_minimum_cut():
    # the other extreme: the arcs entering the vertices that can still reach
    # the sink are saturated and carry exactly the maximum flow
    rnd = random.Random(13)
    for _ in range(20):
        n, tails, heads, caps = random_grid(rnd)
        caps = [0.0 if rnd.random() < 0.2 else c for c in caps]
        res = solve(n, 9, 10, tails, heads, caps)
        side = res.sink_side
        assert len(side) == n and side[10] and not side[9]
        assert not any(s and t for s, t in zip(res.source_side, side))
        cut = [a for a, (t, h) in enumerate(zip(tails, heads)) if not side[t] and side[h]]
        assert sum(caps[a] for a in cut) == res.value
        assert all(res.arc_flow[a] == caps[a] for a in cut)
    stopped = solve(n, 9, 10, tails, heads, caps, cutoff=0.25)
    assert stopped.value >= 0.25 and stopped.sink_side is None


def test_cutoff_stop_reports_no_source_side():
    n, tails, heads, caps = random_grid(random.Random(4))
    full = solve(n, 9, 10, tails, heads, caps)
    stopped = solve(n, 9, 10, tails, heads, caps, cutoff=0.25)
    assert stopped.value >= 0.25 and stopped.source_side is None
    # a cutoff the flow never reaches lets the search finish
    unreached = solve(n, 9, 10, tails, heads, caps, cutoff=full.value + 1.0)
    assert unreached.value == full.value
    assert unreached.source_side == full.source_side
