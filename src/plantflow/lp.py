"""Self-contained linear programming core.

Solves maximisation problems with equality constraints and box bounds:

    maximise c . x   subject to   A x = b,   l <= x <= u

using a two-phase primal simplex with bounded variables (nonbasic variables
rest at either bound). The tableau is a numpy array over the structural
columns only: phase 1 starts every row on an artificial that has no column,
since an artificial never re-enters. A pivot touches only the entries whose
row is nonzero in the entering column and whose column is nonzero in the
pivot row. Everything in the starting tableau but the upper bounds is
compiled once per program's rows (compile_rows), and each solve copies it:
the flow programs of one plant share their rows and differ only in upper.
Phase 1 ends as soon as every basic artificial is exactly 0, so a program
whose rhs is met exactly at the lower bounds, as every flow program's is,
makes no phase-1 pivot; otherwise it runs to its optimum, where a residual
above tolerance proves the program infeasible. One price row serves both
phases: the row sums in phase 1, then c - c_B T, priced once the
artificials are out. Each column carries a sign, the direction it may move
in: +1 at its lower bound, -1 at its upper bound, 0 when basic or fixed.
So pricing is one product of prices and signs and one argmax, with
Dantzig's rule, switched for good to Bland's after a run of degenerate
pivots, which guarantees termination. The ratio test reads
only the rows above the pivot tolerance, which on the plant programs here is
a few rows in a hundred, and runs over them as Python floats: at that size a
numpy call costs more than the arithmetic it does. There is no external
solver dependency; problem sizes here are a few hundred variables at most.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass, field, replace

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
    with nonzero rhs it makes the program infeasible. compiled holds the
    rows that compile_rows built; a program without them builds its own.
    """

    objective: tuple[float, ...]
    rows: tuple[tuple[tuple[int, float], ...], ...]
    rhs: tuple[float, ...]
    lower: tuple[float, ...]
    upper: tuple[float, ...]
    compiled: _Rows | None = field(default=None, compare=False, repr=False)

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
    _checked_rows(lp)


def compile_rows(lp: LinearProgram) -> LinearProgram:
    """lp carrying its compiled rows, checked and built once.

    A program made from it by replace() with only a new upper solves without
    checking or building them again; one with any other field replaced
    builds its own.
    """
    return replace(lp, compiled=_checked_rows(lp))


def _checked_rows(lp: LinearProgram) -> _Rows:
    """check_structure's tests, and lp's compiled rows.

    The rows lp carries count only while they were built from its very
    objective, rows, rhs and lower; otherwise they are built, and checked,
    here. Either way upper is checked last, since only upper changes from
    one scenario to the next.
    """
    n = lp.num_vars
    if not (len(lp.lower) == len(lp.upper) == n):
        raise ValueError(
            f"bounds length mismatch: {len(lp.lower)}/{len(lp.upper)} vs {n} variables")
    rows = lp.compiled
    if rows is None or not rows.built_from(lp):
        rows = _Rows(lp)
    # every comparison with NaN is false, so a NaN upper bound fails this test
    if not all(map(operator.ge, lp.upper, lp.lower)):
        for j, (lo, hi) in enumerate(zip(lp.lower, lp.upper)):
            if hi < lo:
                raise ValueError(f"variable {j}: upper bound {hi} below lower bound {lo}")
            if math.isnan(hi):
                raise ValueError(f"variable {j}: upper bound is NaN")
    return rows


class _Rows:
    """The part of a program's tableau that its upper bounds do not touch.

    It holds the rows as a dense matrix shifted so lower bounds are 0, with
    the rows that read 0 = 0 dropped and the rows with negative rhs negated,
    their rhs, the phase-1 prices, and the lower bounds and objective as
    arrays. The arrays are read-only; each solve works on copies.
    """

    def __init__(self, lp: LinearProgram):
        n = lp.num_vars
        if len(lp.rows) != len(lp.rhs):
            raise ValueError(f"{len(lp.rows)} rows but {len(lp.rhs)} rhs entries")
        for j, lo in enumerate(lp.lower):
            if lo < 0:
                raise ValueError(f"variable {j}: lower bound {lo} is negative")
            if not math.isfinite(lo):
                raise ValueError(f"variable {j}: lower bound must be finite")
        if not all(map(math.isfinite, lp.objective)):
            raise ValueError("objective coefficients must be finite")
        if not all(map(math.isfinite, lp.rhs)):
            raise ValueError("rhs entries must be finite")
        for i, row in enumerate(lp.rows):
            for j, coef in row:
                # bool is an int subclass, but True is not a column
                if isinstance(j, bool) or not isinstance(j, (int, np.integer)):
                    raise ValueError(f"row {i}: variable index {j!r} is not an integer")
                if not 0 <= j < n:
                    raise ValueError(f"row {i}: variable index {j} outside 0..{n - 1}")
                if not math.isfinite(coef):
                    raise ValueError(f"row {i}: coefficient for variable {j} must be finite")

        self.source = (lp.objective, lp.rows, lp.rhs, lp.lower)
        lower = np.array(lp.lower, dtype=float)
        sizes = [len(row) for row in lp.rows]
        columns = [j for row in lp.rows for j, _ in row]
        coefs = [coef for row in lp.rows for _, coef in row]
        a = np.zeros((len(sizes), n))
        at = np.repeat(np.arange(len(sizes)), sizes), np.array(columns, dtype=np.intp)
        # add.at sums a repeated (row, column) entry in listing order, as += would
        np.add.at(a, at, coefs)
        b = np.array(lp.rhs, dtype=float) - a @ lower
        live = np.max(np.abs(a), axis=1, initial=0.0) > PIVOT_TOL
        # a dropped row reads 0 = b, unsatisfiable when b is nonzero
        self.infeasible = bool(np.any(np.abs(b[~live]) > TOL))
        a, b = a[live], b[live]
        flip = b < 0
        a[flip], b[flip] = -a[flip], -b[flip]
        # phase-1 prices: maximise -(sum of artificials) == sum of rows
        self.T, self.b, self.d = a, b, a.sum(axis=0)
        self.lower, self.c = lower, np.array(lp.objective, dtype=float)
        for array in (self.T, self.b, self.d, self.lower, self.c):
            array.flags.writeable = False

    def built_from(self, lp: LinearProgram) -> bool:
        """Whether these rows were compiled from lp's own fields, by identity."""
        return all(map(operator.is_, self.source, (lp.objective, lp.rows, lp.rhs, lp.lower)))


class _Tableau:
    """Bounded-variable simplex state.

    `T` holds one row per surviving constraint over the structural columns
    0..n-1 only, shifted so lower bounds are 0. It, `values` and `d` start
    as copies of the program's compiled rows (_Rows), built once per
    program's rows; only `width` and `sign` are built from upper. Row i
    starts with its own artificial basic, numbered n + i in `basis`; no
    artificial has a column, because an artificial never enters: it is not
    at a bound while basic, and once it leaves it is gone. So its column
    would only be updated, never read. `values` holds the current value of each row's basic
    variable. A nonbasic variable sits at 0 or at its width `width[j]`, a
    list of Python floats read one entry at a time by the ratio test.
    `sign[j]` is the direction variable j may enter in: +1 at 0 when its
    width exceeds PIVOT_TOL, -1 at its width, and 0 when basic or fixed at
    0, so column j prices in when d[j] * sign[j] > TOL. `d` is the one price
    row: the phase-1 prices until solve_lp replaces it with the phase-2
    prices. Each pivot of step() updates it; drive_out_artificials() leaves
    it stale, since nothing reads it before solve_lp reprices. Phase 1 runs
    until no basic artificial holds a value (artificials()), or else to its
    optimum, where feasible() decides whether the program is infeasible.

    step() and pivot() skip each update that would only subtract zeros. That
    can leave a zero entry of T, d or values with the other sign than a
    dense update would give it, and nothing more: no comparison reads the
    sign of a zero, so the pivots are those of the dense updates.
    """

    def __init__(self, lp: LinearProgram):
        rows = _checked_rows(lp)
        self.status_flag = INFEASIBLE if rows.infeasible else None
        self.m, self.n = rows.T.shape
        self.T, self.values, self.d = rows.T.copy(), rows.b.copy(), rows.d.copy()
        self.lower, self.c = rows.lower, rows.c
        width = np.array(lp.upper, dtype=float) - rows.lower
        self.width = width.tolist()
        self.sign = (width > PIVOT_TOL).astype(float)  # everything starts at 0
        self.basis = list(range(self.n, self.n + self.m))
        self.iterations = 0
        self.degenerate_run = 0
        self.bland = False

    def lower_sign(self, j: int) -> float:
        """sign[j] for variable j resting at 0."""
        return 1.0 if self.width[j] > PIVOT_TOL else 0.0

    def entering(self) -> int | None:
        """The entering column, or None at an optimum.

        A candidate's score is |d[j]| and every other score is at most TOL,
        so argmax is Dantzig's largest |d[j]|, first on ties.
        """
        if not self.n:
            return None  # argmax of an empty array raises
        score = self.d * self.sign
        j = int((score > TOL).argmax() if self.bland else score.argmax())
        return j if score[j] > TOL else None

    def step(self, j: int) -> str | None:
        """One pivot or bound flip with entering variable j."""
        sigma = float(self.sign[j])
        col = self.T[:, j]
        rows = (np.abs(col) > PIVOT_TOL).nonzero()[0]
        basis, width, n = self.basis, self.width, self.n
        t, leave_row, leave_at_upper = width[j], -1, False
        for i, ci, vi in zip(rows.tolist(), col[rows].tolist(), self.values[rows].tolist()):
            wi = sigma * ci
            if wi > 0:
                ti, at_upper = vi / wi, False
            else:
                b = basis[i]
                if b >= n or math.isinf(width[b]):
                    continue  # no upper bound to hit: an artificial, or upper = inf
                ti, at_upper = (width[b] - vi) / -wi, True
            # ties within PIVOT_TOL go to the lower-numbered basic variable
            if ti < t - PIVOT_TOL or (ti < t + PIVOT_TOL and leave_row >= 0
                                      and basis[i] < basis[leave_row]):
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

        if t:
            self.values -= (sigma * t) * col
        if leave_row < 0:
            # bound flip, basis unchanged
            self.sign[j] = -1.0 if sigma > 0 else self.lower_sign(j)
            return None

        old = self.pivot(leave_row, j)
        self.d -= self.d[j] * self.T[leave_row]
        self.values[leave_row] = (0.0 if sigma > 0 else width[j]) + sigma * t
        if old < n:
            self.sign[old] = -1.0 if leave_at_upper else self.lower_sign(old)
        return None

    def pivot(self, r: int, j: int) -> int:
        """Make j basic in row r and return the variable that left.

        Only the rows with a nonzero in column j change, and in them only the
        columns where row r is nonzero: anywhere else a zero is subtracted.
        """
        row = self.T[r]
        row /= row[j]
        col = self.T[:, j].copy()
        col[r] = 0.0
        rows, cols = col.nonzero()[0], row.nonzero()[0]
        self.T[rows[:, None], cols] -= col[rows, None] * row[cols]
        old, self.basis[r] = self.basis[r], j
        self.sign[j] = 0.0
        return old

    def artificials(self) -> list[float]:
        """The values of the basic artificials, in row order."""
        return [v for v, b in zip(self.values.tolist(), self.basis) if b >= self.n]

    def feasible(self) -> bool:
        """At a phase-1 optimum: whether the artificials' residual is within tolerance.

        Phase 1 must not stop on this test alone: an artificial left basic
        at a small nonzero value is pivoted out by drive_out_artificials(),
        which drops that value instead of carrying it into the other rows.
        """
        residual = sum(self.artificials())
        return not residual > TOL * max(1.0, float(np.max(np.abs(self.values), initial=0.0)))

    def drive_out_artificials(self) -> None:
        """After phase 1: pivot basic artificials out or drop redundant rows."""
        keep = []
        for i in range(self.m):
            if self.basis[i] < self.n:
                keep.append(i)
                continue
            j = int(np.abs(self.T[i]).argmax())
            if abs(self.T[i, j]) > PIVOT_TOL:
                value = self.width[j] if self.sign[j] < 0 else 0.0
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

    max_iterations caps the pivots and bound flips, None for the default
    cap. Deterministic: identical inputs produce identical outputs bit for
    bit.
    """
    if max_iterations is not None and (
            # bool is an Integral, but True is no cap
            not isinstance(max_iterations, numbers.Integral) or isinstance(max_iterations, bool)
            or max_iterations < 0):
        raise ValueError(f"max_iterations must be a nonnegative integer, got {max_iterations!r}")
    tab = _Tableau(lp)
    if tab.status_flag == INFEASIBLE:
        return LpSolution(INFEASIBLE, None, None, 0)
    cap = 2000 + 200 * (tab.n + tab.m) if max_iterations is None else max_iterations

    c = tab.c
    for phase in (1, 2):
        # phase 1 stops early only once no artificial holds any value at all
        while phase == 2 or any(tab.artificials()):
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
            if not tab.feasible():
                return LpSolution(INFEASIBLE, None, None, tab.iterations)
            tab.drive_out_artificials()
            tab.d = c - c[tab.basis] @ tab.T  # every basic column is structural now

    x = np.where(tab.sign < 0, tab.width, 0.0)
    x[tab.basis] = tab.values
    x += tab.lower
    objective = float(np.dot(c, x))
    return LpSolution(OPTIMAL, objective, tuple(x.tolist()), tab.iterations)
