"""Exact-rational reference solver for the same problems as lp.solve_lp.

Everything here is deliberately different from the float path so the two can
check each other: bounds become explicit slack rows instead of bounded
nonbasics, pricing is Bland's smallest-index rule with no tolerances, and all
arithmetic is fractions.Fraction. Costs grow quickly with size; intended for
small instances (tests use it as the ground-truth oracle).
"""

from __future__ import annotations

import math
from fractions import Fraction

from plantflow.lp import INFEASIBLE, OPTIMAL, UNBOUNDED, LinearProgram, LpSolution, check_structure

_MAX_PIVOTS = 200_000


def solve_lp_exact(lp: LinearProgram) -> LpSolution:
    """Solve with exact rational arithmetic; returns floats in the solution.

    Float inputs convert via Fraction(value), which is exact for every finite
    float, so agreement checks against the float solver are meaningful.
    """
    check_structure(lp)
    n = lp.num_vars
    lower = [Fraction(v) for v in lp.lower]
    width = [None if math.isinf(hi) else Fraction(hi) - lower[j]
             for j, hi in enumerate(lp.upper)]

    # Shift x = lower + y, then standard form: slack per finite width.
    slack_of = [j for j in range(n) if width[j] is not None]
    k = len(slack_of)
    rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    for row, b in zip(lp.rows, lp.rhs):
        a = [Fraction(0)] * (n + k)
        shift = Fraction(0)
        for j, coef in row:
            fc = Fraction(coef)
            a[j] += fc
            shift += fc * lower[j]
        rows.append(a)
        rhs.append(Fraction(b) - shift)
    for s, j in enumerate(slack_of):
        a = [Fraction(0)] * (n + k)
        a[j] = Fraction(1)
        a[n + s] = Fraction(1)
        rows.append(a)
        rhs.append(width[j])

    m = len(rows)
    ncols = n + k + m  # artificial basis on every row
    T: list[list[Fraction]] = []
    for i in range(m):
        neg = rhs[i] < 0
        base = [-v for v in rows[i]] if neg else list(rows[i])
        art = [Fraction(0)] * m
        art[i] = Fraction(1)
        T.append(base + art)
        rhs[i] = -rhs[i] if neg else rhs[i]
    basis = [n + k + i for i in range(m)]

    d1 = [sum(T[i][j] for i in range(m)) for j in range(n + k)] + [Fraction(0)] * m
    d2 = [Fraction(c) for c in lp.objective] + [Fraction(0)] * (k + m)

    pivots = 0

    def pivot(r: int, j: int) -> None:
        nonlocal pivots
        pivots += 1
        if pivots > _MAX_PIVOTS:
            raise RuntimeError("exact simplex exceeded pivot budget")
        piv = T[r][j]
        T[r] = [v / piv for v in T[r]]
        rhs[r] /= piv
        for i in range(m):
            if i != r and T[i][j]:
                f = T[i][j]
                T[i] = [vi - f * vr for vi, vr in zip(T[i], T[r])]
                rhs[i] -= f * rhs[r]
        for d in (d1, d2):
            if d[j]:
                f = d[j]
                for jj in range(ncols):
                    d[jj] -= f * T[r][jj]
        basis[r] = j

    def run(d: list[Fraction]) -> str:
        while True:
            j = next((jj for jj in range(n + k) if d[jj] > 0), None)
            if j is None:
                return OPTIMAL
            r, best = -1, None
            for i in range(m):
                if T[i][j] > 0:
                    ratio = rhs[i] / T[i][j]
                    if best is None or ratio < best or (ratio == best and basis[i] < basis[r]):
                        r, best = i, ratio
            if r < 0:
                return UNBOUNDED
            pivot(r, j)

    if run(d1) == UNBOUNDED:
        raise RuntimeError("phase-1 objective cannot be unbounded")
    if any(rhs[i] != 0 for i in range(m) if basis[i] >= n + k):
        return LpSolution(INFEASIBLE, None, None, pivots)
    for i in range(m):
        if basis[i] >= n + k:
            j = next((jj for jj in range(n + k) if T[i][jj] != 0), None)
            if j is not None:
                pivot(i, j)
    live = [i for i in range(m) if basis[i] < n + k]
    if len(live) < m:
        T[:] = [T[i] for i in live]
        rhs[:] = [rhs[i] for i in live]
        basis[:] = [basis[i] for i in live]
        m = len(live)

    if run(d2) == UNBOUNDED:
        return LpSolution(UNBOUNDED, None, None, pivots)

    y = [Fraction(0)] * (n + k)
    for i in range(m):
        y[basis[i]] = rhs[i]
    x = [y[j] + lower[j] for j in range(n)]
    objective = sum(Fraction(c) * xj for c, xj in zip(lp.objective, x))
    return LpSolution(OPTIMAL, float(objective), tuple(float(v) for v in x), pivots)
