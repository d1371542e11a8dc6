"""Bounded-variable simplex against hand cases and an exact-rational check.

The float solver and the rational solver share nothing but the problem
type: different pivot rules, different tableau layouts, zero tolerance on
the rational side. Agreement on random programs is therefore meaningful.
"""

import math
import random
import re
from dataclasses import replace

import numpy as np
import pytest

from plantflow import datasets
from plantflow import lp as lp_module
from plantflow.flow import apply_scenario, build_flow_lp
from plantflow.lp import (
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    LinearProgram,
    check_structure,
    solve_lp,
)
from plantflow.model import MODES, STATION_THROUGHPUT
from lp_exact import solve_lp_exact
from test_lp_golden import random_general_program

INF = math.inf
NAN = math.nan


def plant_program(name="didactic", mode=STATION_THROUGHPUT, assignment=None) -> LinearProgram:
    """A built-in's flow program; it carries the rows compiled for its plant."""
    doc = datasets.builtin(name)
    net, model = doc.network, doc.model
    return build_flow_lp(net, apply_scenario(net, model, assignment or model.all_up(), mode))


PLANT = plant_program()


def lp(obj, rows, rhs, lower, upper):
    return LinearProgram(objective=tuple(obj),
                         rows=tuple(tuple(r) for r in rows),
                         rhs=tuple(rhs), lower=tuple(lower), upper=tuple(upper))


def test_single_bounded_variable():
    # max x s.t. x <= 0.7 via bound only, no rows
    p = lp([1.0], [], [], [0.0], [0.7])
    s = solve_lp(p)
    assert s.status == OPTIMAL
    assert s.objective_value == pytest.approx(0.7, abs=1e-9)


def test_two_variable_transport():
    # max u with u routed through two parallel arcs of caps 0.3, 0.4
    # x1 + x2 - u = 0; maximise u
    p = lp([0.0, 0.0, 1.0],
           [((0, 1.0), (1, 1.0), (2, -1.0))],
           [0.0],
           [0.0, 0.0, 0.0],
           [0.3, 0.4, INF])
    s = solve_lp(p)
    assert s.status == OPTIMAL
    assert s.objective_value == pytest.approx(0.7, abs=1e-9)


def test_equality_infeasible():
    # x = 2 but x <= 1
    p = lp([1.0], [((0, 1.0),)], [2.0], [0.0], [1.0])
    assert solve_lp(p).status == INFEASIBLE


def test_program_without_variables():
    # nothing to price; an empty row is satisfiable only with rhs 0
    assert solve_lp(lp([], [], [], [], [])).x == ()
    assert solve_lp(lp([], [()], [0.0], [], [])).status == OPTIMAL
    assert solve_lp(lp([], [()], [1.0], [], [])).status == INFEASIBLE


def test_unbounded_direction():
    # max x with x free above and no rows
    p = lp([1.0], [], [], [0.0], [INF])
    assert solve_lp(p).status == UNBOUNDED


def test_unbounded_through_row():
    # x1 - x2 = 0, both unbounded above, maximise x1
    p = lp([1.0, 0.0], [((0, 1.0), (1, -1.0))], [0.0], [0.0, 0.0], [INF, INF])
    assert solve_lp(p).status == UNBOUNDED


def test_degenerate_vertex_terminates():
    # many redundant rows through the origin; anti-cycling must cope
    rows = [((0, 1.0), (1, k / 4.0)) for k in range(1, 9)]
    p = lp([1.0, -1.0], rows, [0.0] * 8, [0.0, 0.0], [1.0, 1.0])
    s = solve_lp(p)
    assert s.status == OPTIMAL
    assert s.objective_value == pytest.approx(0.0, abs=1e-9)


def test_redundant_row_dropped():
    # duplicated constraint row; phase 1 must drive out or drop its artificial
    p = lp([1.0, 1.0],
           [((0, 1.0), (1, 1.0)), ((0, 1.0), (1, 1.0))],
           [1.0, 1.0],
           [0.0, 0.0], [1.0, 1.0])
    s = solve_lp(p)
    assert s.status == OPTIMAL
    assert s.objective_value == pytest.approx(1.0, abs=1e-9)


def test_negative_rhs_normalised():
    # -x1 = -0.5
    p = lp([1.0], [((0, -1.0),)], [-0.5], [0.0], [1.0])
    s = solve_lp(p)
    assert s.status == OPTIMAL
    assert s.objective_value == pytest.approx(0.5, abs=1e-9)


def test_solution_respects_rows_and_bounds():
    p = lp([0.0, 0.0, 1.0],
           [((0, 1.0), (1, 1.0), (2, -1.0)), ((0, 1.0), (1, -1.0))],
           [0.0, 0.1],
           [0.0, 0.0, 0.0],
           [0.3, 0.4, INF])
    s = solve_lp(p)
    assert s.status == OPTIMAL
    x = s.x
    assert x[0] - x[1] == pytest.approx(0.1, abs=1e-9)
    assert x[0] + x[1] - x[2] == pytest.approx(0.0, abs=1e-9)
    for j, (lo, hi) in enumerate(zip(p.lower, p.upper)):
        assert lo - 1e-9 <= x[j] <= hi + 1e-9


@pytest.mark.parametrize("program, message", [
    pytest.param(lp([1.0, 1.0], [], [], [0.0], [1.0]),
                 r"^bounds length mismatch: 1/1 vs 2 variables$", id="bounds-length"),
    pytest.param(lp([1.0], [((0, 1.0),)], [], [0.0], [1.0]),
                 r"^1 rows but 0 rhs entries$", id="rhs-length"),
    pytest.param(lp([1.0, 1.0], [], [], [0.0, -0.5], [1.0, 1.0]),
                 r"^variable 1: lower bound -0\.5 is negative$", id="negative-lower"),
    pytest.param(lp([1.0], [], [], [2.0], [1.0]),
                 r"^variable 0: upper bound 1\.0 below lower bound 2\.0$", id="upper-below-lower"),
    pytest.param(lp([1.0], [], [], [INF], [INF]),
                 r"^variable 0: lower bound must be finite$", id="infinite-lower"),
    pytest.param(lp([1.0], [], [], [NAN], [1.0]),
                 r"^variable 0: lower bound must be finite$", id="nan-lower"),
    # 0 <= x <= NaN used to fix x at 0, yet the bound was ignored once x was
    # tied to another column: this program solved to 10 with x0 = 5
    pytest.param(lp([1.0, 1.0], [((0, 1.0), (1, -1.0))], [0.0], [0.0, 0.0], [NAN, 5.0]),
                 r"^variable 0: upper bound is NaN$", id="nan-upper"),
    pytest.param(lp([1.0, NAN], [], [], [0.0, 0.0], [1.0, 1.0]),
                 r"^objective coefficients must be finite$", id="nan-objective"),
    pytest.param(lp([1.0], [((0, 1.0),)], [INF], [0.0], [1.0]),
                 r"^rhs entries must be finite$", id="infinite-rhs"),
    # a float index used to pass the range test and be truncated to column 0
    pytest.param(lp([1.0, 1.0], [((0, 1.0),), ((0.5, 1.0),)], [0.0, 0.0], [0.0, 0.0], [1.0, 1.0]),
                 r"^row 1: variable index 0\.5 is not an integer$", id="float-column"),
    pytest.param(lp([1.0, 1.0], [((0, 1.0), (True, 1.0))], [0.0], [0.0, 0.0], [1.0, 1.0]),
                 r"^row 0: variable index True is not an integer$", id="bool-column"),
    pytest.param(lp([1.0], [((3, 1.0),)], [0.0], [0.0], [1.0]),
                 r"^row 0: variable index 3 outside 0\.\.0$", id="out-of-range-column"),
    pytest.param(lp([1.0, 1.0], [((0, 1.0),), ((-1, 1.0),)], [0.0, 0.0], [0.0, 0.0], [1.0, 1.0]),
                 r"^row 1: variable index -1 outside 0\.\.1$", id="negative-column"),
    # the all-entries test fails; the per-entry loop must name the later row
    pytest.param(lp([1.0, 1.0, 1.0], [((0, 1.0), (1, 2.0)), ((1, 1.0),), ((2, 1.0), (1, NAN))],
                    [0.0, 0.0, 0.0], [0.0] * 3, [1.0] * 3),
                 r"^row 2: coefficient for variable 1 must be finite$", id="nan-coefficient-later-row"),
    # a program with compiled rows has its upper bounds checked on every solve
    pytest.param(replace(PLANT, upper=(1.0, NAN, *PLANT.upper[2:])),
                 r"^variable 1: upper bound is NaN$", id="compiled-nan-upper"),
    pytest.param(replace(PLANT, upper=(1.0, 1.0, -1.0, *PLANT.upper[3:])),
                 r"^variable 2: upper bound -1\.0 below lower bound 0\.0$", id="compiled-upper-below-lower"),
    pytest.param(replace(PLANT, upper=(*PLANT.upper, 1.0)),
                 rf"^bounds length mismatch: {PLANT.num_vars}/{PLANT.num_vars + 1} "
                 rf"vs {PLANT.num_vars} variables$", id="compiled-upper-length"),
])
def test_check_structure_rejects(program, message):
    for check in (check_structure, solve_lp):
        with pytest.raises(ValueError, match=message):
            check(program)


def test_compiled_rows_solve_like_rows_built_afresh():
    def fresh(p):
        return LinearProgram(p.objective, p.rows, p.rhs, p.lower, p.upper)

    def same(a, b):
        hexed = lambda s: [v.hex() if isinstance(v, float) else v
                           for v in (s.status, s.objective_value, *(s.x or ()), s.iterations)]
        assert hexed(a) == hexed(b)

    assert PLANT.compiled is not None and fresh(PLANT).compiled is None
    rnd = random.Random(7)
    for name in datasets.BUILTINS:
        model = datasets.builtin(name).model
        for mode in MODES:
            for rate in (0.0, 0.1, 0.2, 0.3):
                for _ in range(3):
                    states = {rv.rv_id: int(rnd.random() >= rate) for rv in model.rvs}
                    p = plant_program(name, mode, states)
                    same(solve_lp(p), solve_lp(fresh(p)))
    # rows compiled for other fields are not used: each stale program solves
    # like the same fields without compiled rows
    u, last = PLANT.num_vars - 1, len(PLANT.rows) - 1
    stale = [
        # the delivery row now reads delivery = 2u
        replace(PLANT, rows=(*PLANT.rows[:last],
                             tuple((j, 2.0 * a if j == u else a) for j, a in PLANT.rows[last]))),
        replace(PLANT, rhs=(1.0, *PLANT.rhs[1:])),
        replace(PLANT, lower=(0.5, *PLANT.lower[1:])),
        replace(PLANT, objective=(1.0, *PLANT.objective[1:])),
    ]
    for p in stale:
        assert p.compiled is PLANT.compiled
        same(solve_lp(p), solve_lp(fresh(p)))
        assert solve_lp(p) != solve_lp(PLANT)


def test_check_structure_accepts_numpy_integer_columns():
    # not ints by type, so the all-entries test fails, but the loop finds no fault
    p = lp([0.0, 1.0], [((np.int64(0), 1.0), (np.intp(1), -1.0))], [0.0], [0.0, 0.0], [1.0, 2.0])
    check_structure(p)
    assert solve_lp(p).objective_value == 1.0


def test_iteration_cap_raises():
    p = lp([0.0, 0.0, 1.0],
           [((0, 1.0), (1, 1.0), (2, -1.0))],
           [0.0],
           [0.0, 0.0, 0.0],
           [0.3, 0.4, INF])
    with pytest.raises(RuntimeError, match="iteration"):
        solve_lp(p, max_iterations=1)


def test_iteration_cap_of_zero_raises():
    # 0 is a cap of zero pivots, not "no cap"
    p = lp([1.0, 0.0], [((0, 1.0), (1, 1.0))], [1.0], [0.0, 0.0], [1.0, 1.0])
    assert solve_lp(p).iterations > 0
    with pytest.raises(RuntimeError, match="within 0 iterations"):
        solve_lp(p, max_iterations=0)


@pytest.mark.parametrize("cap", [-1, True, False, 2.5, "3", np.float64(4.0)])
def test_iteration_cap_must_be_a_nonnegative_integer(cap):
    # refused before solving, even where no pivot is needed
    p = lp([1.0], [], [], [0.0], [1.0])
    with pytest.raises(ValueError, match=f"^max_iterations must be a nonnegative integer, "
                                         f"got {re.escape(repr(cap))}$"):
        solve_lp(p, max_iterations=cap)


def test_iteration_cap_accepts_numpy_integers():
    p = lp([1.0, 0.0], [((0, 1.0), (1, 1.0))], [1.0], [0.0, 0.0], [1.0, 1.0])
    assert solve_lp(p, max_iterations=np.int64(50)) == solve_lp(p)


def random_program(rnd: random.Random) -> LinearProgram:
    """Small LP with dyadic data so float arithmetic stays representable."""
    n = rnd.randint(1, 12)
    m = rnd.randint(0, 6)
    dy = lambda: rnd.randint(-8, 8) / 8.0
    obj = [dy() for _ in range(n)]
    rows = []
    for _ in range(m):
        support = rnd.sample(range(n), rnd.randint(1, min(n, 4)))
        rows.append(tuple((j, dy() or 0.5) for j in support))
    rhs = [rnd.randint(-4, 4) / 4.0 for _ in range(m)]
    lower = [0.0] * n
    upper = [INF if rnd.random() < 0.3 else rnd.randint(1, 16) / 4.0
             for _ in range(n)]
    return lp(obj, rows, rhs, lower, upper)


def test_float_simplex_matches_exact_rational():
    rnd = random.Random(20240817)
    statuses = set()
    for _ in range(100):
        p = random_program(rnd)
        fast = solve_lp(p)
        slow = solve_lp_exact(p)
        assert fast.status == slow.status, p
        statuses.add(fast.status)
        if fast.status == OPTIMAL:
            assert fast.objective_value == pytest.approx(
                slow.objective_value, abs=1e-9)
    # the sample must actually exercise every outcome
    assert statuses == {OPTIMAL, INFEASIBLE, UNBOUNDED}


def test_blands_rule_from_the_first_pivot_matches_exact_rational(monkeypatch):
    # the stall guard switches to Bland's rule only after a long degenerate
    # run, which no other program of the suite reaches; force it from the start
    real_init = lp_module._Tableau.__init__

    def bland_init(self, program):
        real_init(self, program)
        self.bland = True

    monkeypatch.setattr(lp_module._Tableau, "__init__", bland_init)
    rnd = random.Random(20261021)
    statuses = set()
    for make in (random_program, random_general_program):
        for _ in range(300):
            p = make(rnd)
            fast, slow = solve_lp(p), solve_lp_exact(p)
            assert fast.status == slow.status, p
            statuses.add(fast.status)
            if fast.status == OPTIMAL:
                assert fast.objective_value == pytest.approx(slow.objective_value, abs=1e-9)
    assert statuses == {OPTIMAL, INFEASIBLE, UNBOUNDED}


@pytest.mark.parametrize("big, tiny", [(1e6, 1e-4), (1e3, 1e-7)])
def test_small_rhs_next_to_a_large_one_survives_phase_1(big, tiny):
    # x0 = big, x1 = tiny: after the first phase-1 pivot the residual, tiny,
    # is within the relative tolerance; stopping phase 1 there would let the
    # drive-out put x1 in at 0 and report objective 0
    p = lp([0.0, 1.0], [[(0, 1.0)], [(1, 1.0)]], [big, tiny], [0.0, 0.0], [INF, INF])
    fast, slow = solve_lp(p), solve_lp_exact(p)
    assert fast.status == slow.status == OPTIMAL
    assert fast.objective_value == pytest.approx(slow.objective_value, abs=1e-12)
    assert fast.x == pytest.approx(slow.x, abs=1e-12)
