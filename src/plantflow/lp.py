"""Self-contained linear programming core.

Solves maximisation problems with equality constraints and box bounds:

    maximise c . x   subject to   A x = b,   l <= x <= u

using a two-phase primal simplex with bounded variables (nonbasic variables
rest at either bound). The tableau is a numpy array over the structural
columns only: phase 1 starts every row on an artificial that has no column,
since an artificial never re-enters. A pivot touches only the rows with a
nonzero in the entering column, and the ratio test reads only the rows above
the pivot tolerance, which on the plant programs here is a few rows in a
hundred. One price row serves both phases: the row sums in phase 1, then
c - c_B T, priced once the artificials are out. Pricing is Dantzig's rule,
switched for good to Bland's after a run of degenerate pivots, which
guarantees termination. There is no external solver dependency; problem
sizes here are a few hundred variables at most.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TOL = 1e-9          # feasibility and optimality tolerance
PIVOT_TOL = 1e-11   # coefficients below this count as zero

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class LinearProgram:
    """Equality-constrained LP in maximisation form.

    rows holds one sparse equality per entry, as ((var_index, coefficient),
    ...); rhs pairs with rows. lower must be nonnegative and upper may be
    math.inf. A zero-coefficient row with zero rhs is dropped in presolve;
    with nonzero rhs it makes the program infeasible.
    """

    objective: tuple[float, ...]
    rows: tuple[tuple[tuple[int, float], ...], ...]
    rhs: tuple[float, ...]
    lower: tuple[float, ...]
    upper: tuple[float, ...]

    @property
    def num_vars(self) -> int:
        return len(self.objective)


@dataclass(frozen=True)
class LpSolution:
    status: str
    objective_value: float | None
    x: tuple[float, ...] | None
    iterations: int


def check_structure(lp: LinearProgram) -> None:
    """Raise ValueError on malformed input; cheap and done before solving."""
    n = lp.num_vars
    if not (len(lp.lower) == len(lp.upper) == n):
        raise ValueError(
            f"bounds length mismatch: {len(lp.lower)}/{len(lp.upper)} vs {n} variables")
    if len(lp.rows) != len(lp.rhs):
        raise ValueError(f"{len(lp.rows)} rows but {len(lp.rhs)} rhs entries")
    for j, (lo, hi) in enumerate(zip(lp.lower, lp.upper)):
        if lo < 0:
            raise ValueError(f"variable {j}: lower bound {lo} is negative")
        if hi < lo:
            raise ValueError(f"variable {j}: upper bound {hi} below lower bound {lo}")
        if not math.isfinite(lo):
            raise ValueError(f"variable {j}: lower bound must be finite")
    for c in lp.objective:
        if not math.isfinite(c):
            raise ValueError("objective coefficients must be finite")
    for b in lp.rhs:
        if not math.isfinite(b):
            raise ValueError("rhs entries must be finite")
    for i, row in enumerate(lp.rows):
        for j, coef in row:
            if not 0 <= j < n:
                raise ValueError(f"row {i}: variable index {j} outside 0..{n - 1}")
            if not math.isfinite(coef):
                raise ValueError(f"row {i}: coefficient for variable {j} must be finite")


class _Tableau:
    """Bounded-variable simplex state.

    `T` holds one row per surviving constraint over the structural columns
    0..n-1 only, shifted so lower bounds are 0. Row i starts with its own
    artificial basic, numbered n + i in `basis`; no artificial has a column,
    because an artificial never enters: it is not at a bound while basic,
    and once it leaves it is gone. So its column would only be updated,
    never read. `values` holds the current value of each row's basic
    variable; nonbasic variables sit at 0 or at their width `width[j]` as
    recorded in `status`. `d` is the one price row: the phase-1 prices until
    solve_lp replaces it with the phase-2 prices. Each pivot of step() updates
    it; drive_out_artificials() leaves it stale, since nothing reads it before
    solve_lp reprices.
    """

    AT_LOWER, AT_UPPER, BASIC = 0, 1, 2

    def __init__(self, lp: LinearProgram):
        n = lp.num_vars
        lower = np.array(lp.lower, dtype=float)
        sizes = [len(row) for row in lp.rows]
        a = np.zeros((len(sizes), n))
        at = (np.repeat(np.arange(len(sizes)), sizes),
              np.array([j for row in lp.rows for j, _ in row], dtype=np.intp))
        # add.at sums a repeated (row, column) entry in listing order, as += would
        np.add.at(a, at, [coef for row in lp.rows for _, coef in row])
        b = np.array(lp.rhs, dtype=float) - a @ lower
        live = np.max(np.abs(a), axis=1, initial=0.0) > PIVOT_TOL
        # a dropped row reads 0 = b, unsatisfiable when b is nonzero
        self.status_flag = INFEASIBLE if np.any(np.abs(b[~live]) > TOL) else None
        a, b = a[live], b[live]
        flip = b < 0
        a[flip], b[flip] = -a[flip], -b[flip]

        self.m, self.n = len(b), n
        self.T, self.values = a, b
        self.width = np.array(lp.upper, dtype=float) - lower
        self.status = np.full(n, self.AT_LOWER, dtype=np.int8)
        self.basis = list(range(n, n + self.m))
        # phase-1 prices: maximise -(sum of artificials) == sum of rows
        self.d = self.T.sum(axis=0)
        self.iterations = 0
        self.degenerate_run = 0
        self.bland = False

    def entering(self) -> int | None:
        up = (self.status == self.AT_LOWER) & (self.d > TOL) & (self.width > PIVOT_TOL)
        down = (self.status == self.AT_UPPER) & (self.d < -TOL)
        idx = np.nonzero(up | down)[0]
        if idx.size == 0:
            return None
        if self.bland:
            return int(idx[0])
        return int(idx[np.argmax(np.abs(self.d[idx]))])

    def step(self, j: int) -> str | None:
        """One pivot or bound flip with entering variable j."""
        sigma = 1.0 if self.status[j] == self.AT_LOWER else -1.0
        w = sigma * self.T[:, j]
        t, leave_row, leave_at_upper = self.width[j], -1, False
        for i in np.nonzero(np.abs(w) > PIVOT_TOL)[0]:
            wi = w[i]
            if wi > 0:
                ti, at_upper = self.values[i] / wi, False
            else:
                b = self.basis[i]
                if b >= self.n or math.isinf(self.width[b]):
                    continue  # no upper bound to hit: an artificial, or upper = inf
                ti, at_upper = (self.width[b] - self.values[i]) / -wi, True
            # ties within PIVOT_TOL go to the lower-numbered basic variable
            if ti < t - PIVOT_TOL or (ti < t + PIVOT_TOL and leave_row >= 0
                                      and self.basis[i] < self.basis[leave_row]):
                t, leave_row, leave_at_upper = max(ti, 0.0), i, at_upper

        if math.isinf(t):
            return UNBOUNDED
        self.iterations += 1
        if t <= TOL:
            self.degenerate_run += 1
            if self.degenerate_run > 3 * (self.n + self.m):
                self.bland = True  # stall guard, keeps termination certain
        else:
            self.degenerate_run = 0

        self.values -= t * w
        if leave_row < 0:
            # bound flip, basis unchanged
            self.status[j] = self.AT_UPPER if sigma > 0 else self.AT_LOWER
            return None

        old = self.pivot(leave_row, j)
        self.d -= self.d[j] * self.T[leave_row]
        self.values[leave_row] = (0.0 if sigma > 0 else self.width[j]) + sigma * t
        if old < self.n:
            self.status[old] = self.AT_UPPER if leave_at_upper else self.AT_LOWER
        return None

    def pivot(self, r: int, j: int) -> int:
        """Make j basic in row r and return the variable that left.

        Only the rows with a nonzero in column j change: every other row
        would only have zeros subtracted from it.
        """
        row = self.T[r]
        row /= row[j]
        col = self.T[:, j]
        rows = col.nonzero()[0]
        rows = rows[rows != r]
        self.T[rows] -= col[rows, None] * row
        old, self.basis[r] = self.basis[r], j
        self.status[j] = self.BASIC
        return old

    def drive_out_artificials(self) -> None:
        """After phase 1: pivot basic artificials out or drop redundant rows."""
        keep = []
        for i in range(self.m):
            if self.basis[i] < self.n:
                keep.append(i)
                continue
            j = int(np.argmax(np.abs(self.T[i])))
            if abs(self.T[i, j]) > PIVOT_TOL:
                value = self.width[j] if self.status[j] == self.AT_UPPER else 0.0
                self.pivot(i, j)
                self.values[i] = value
                keep.append(i)
            # else: redundant constraint, row dropped below
        if len(keep) < self.m:
            self.T = self.T[keep]
            self.values = self.values[keep]
            self.basis = [self.basis[i] for i in keep]
            self.m = len(keep)


def solve_lp(lp: LinearProgram, max_iterations: int | None = None) -> LpSolution:
    """Solve an LP; returns status optimal, infeasible, or unbounded.

    Deterministic: identical inputs produce identical outputs bit for bit.
    """
    check_structure(lp)
    tab = _Tableau(lp)
    if tab.status_flag == INFEASIBLE:
        return LpSolution(INFEASIBLE, None, None, 0)
    cap = 2000 + 200 * (tab.n + tab.m) if max_iterations is None else max_iterations

    c = np.array(lp.objective, dtype=float)
    for phase in (1, 2):
        while True:
            if tab.iterations > cap:
                raise RuntimeError(f"simplex failed to converge within {cap} iterations")
            j = tab.entering()
            if j is None:
                break
            if tab.step(j) == UNBOUNDED:
                if phase == 1:  # phase-1 objective is bounded; cannot happen
                    raise RuntimeError("phase-1 step reported unbounded")
                return LpSolution(UNBOUNDED, None, None, tab.iterations)
        if phase == 1:
            residual = sum(tab.values[i] for i in range(tab.m) if tab.basis[i] >= tab.n)
            if residual > TOL * max(1.0, float(np.max(np.abs(tab.values), initial=0.0))):
                return LpSolution(INFEASIBLE, None, None, tab.iterations)
            tab.drive_out_artificials()
            tab.d = c - c[tab.basis] @ tab.T  # every basic column is structural now

    x = np.zeros(tab.n)
    at_upper = tab.status == _Tableau.AT_UPPER
    x[at_upper] = tab.width[at_upper]
    x[tab.basis] = tab.values
    x += np.array(lp.lower)
    objective = float(np.dot(c, x))
    return LpSolution(OPTIMAL, objective, tuple(float(v) for v in x), tab.iterations)
