"""Dense simplex over general bounded-variable LPs: a dual simplex to a
feasible basis, then a primal simplex to an optimal one.

The pivot loops live in ``cfcert._kernels`` (vectorised numpy).  Every solve
ends the same way (``_optimise``): ``dual_pivot_loop`` from a dual-feasible
tableau until no right-hand side is negative (or a row proves the LP
infeasible), then ``pivot_loop`` on the true costs until no reduced cost is
negative (or a column proves it unbounded), then ``_extract``.  A loop that
runs out of pivots ends the solve with status ``iteration_limit``.
Tolerances: 1e-9 inside the pivoting, 1e-7 for reported feasibility.  Only
the starting tableau differs between a cold and a warm solve.

**Cold solve.**  The LP is rewritten over ``y >= 0`` with every row as
``a.y <= b``: a ``GE`` row is negated, an ``EQ`` row becomes the pair
``a.y <= b``, ``-a.y <= -b``, and a boxed variable adds the row
``y <= hi - lo``.  Each row gets one slack, and the slacks start the basis.
Over the costs clamped at zero, ``max(c, 0)``, that basis is dual feasible
whatever the signs of ``b`` (the cost-modification dual phase 1 of
Koberstein, *The dual simplex method*, 2005), so the dual loop finds a
feasible basis with no artificial variable.  The true costs are then priced
out on that basis for the primal loop.  A variable with finite ``lo == hi``
(a stable ReLU binary, a branch-and-bound fixing) is substituted out: it
gets no column and no row, its value moves into the right-hand side, and it
is returned as given, bit for bit.

**Warm start.**  An optimal result keeps its final tableau, basis and
column map (``SolveResult._tableau``).  ``simplex_solve(child, warm=parent)``
re-solves an LP that differs from the parent's only by tighter bounds, as a
branch-and-bound child does.  Each tightened bound becomes one row over the
parent's columns with its own basic slack -- ``y <= 0`` or ``-y <= -1`` for
a binary fixed at 0 or 1 -- reduced against the parent's basis.  The
reduced costs are untouched, so the tableau stays dual feasible.  The primal
loop has work only if the dual loop had to perturb the costs to leave a
degenerate face.  The parent's tableau is copied, never changed.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .._kernels import (
    STATUS_INFEASIBLE,
    STATUS_ITER_LIMIT,
    STATUS_OPTIMAL,
    STATUS_UNBOUNDED,
    dual_pivot_loop,
    pivot_loop,
)
from .problem import EQ, GE, LE, LinearProgram, SolveResult

__all__ = ["simplex_solve", "FEASIBILITY_TOL"]

PIVOT_TOL = 1e-9
FEASIBILITY_TOL = 1e-7

_STATUS = {
    STATUS_INFEASIBLE: "infeasible",
    STATUS_ITER_LIMIT: "iteration_limit",
    STATUS_UNBOUNDED: "unbounded",
}

# Variable substitutions used to reach y >= 0 standard form.
_SHIFT_LO = 0  # x = lo + y
_SHIFT_HI = 1  # x = hi - y
_FREE = 2  # x = y_pos - y_neg
_FIXED = 3  # x = lo = hi, no column


class _Tableau(NamedTuple):
    """A tableau and the column map that reads x off it."""

    tab: np.ndarray  # (m+1) x (n+1): [B^-1 A | B^-1 b] over reduced costs
    basis: np.ndarray
    kinds: np.ndarray
    consts: np.ndarray
    cols: np.ndarray
    lo: np.ndarray  # the bounds the tableau is for
    hi: np.ndarray


def _standardise(lp: LinearProgram):
    """Rewrite the LP as min c.y, A y (rel) b, y >= 0 plus bound rows."""
    n = lp.num_vars
    kinds = np.empty(n, dtype=np.int64)
    consts = np.zeros(n)
    extra_rows = []  # (y-column, ub) for two-sided bounds
    cols = []  # column index of y for each x (FREE takes two columns)
    ny = 0
    for j in range(n):
        lo, hi = lp.lo[j], lp.hi[j]
        if lo > hi:
            return None  # trivially infeasible box
        if lo == hi and np.isfinite(lo):
            kinds[j] = _FIXED
            consts[j] = lo
            cols.append(-1)
        elif np.isfinite(lo):
            kinds[j] = _SHIFT_LO
            consts[j] = lo
            cols.append(ny)
            if np.isfinite(hi):
                extra_rows.append((ny, hi - lo))
            ny += 1
        elif np.isfinite(hi):
            kinds[j] = _SHIFT_HI
            consts[j] = hi
            cols.append(ny)
            ny += 1
        else:
            kinds[j] = _FREE
            cols.append(ny)
            ny += 2

    m = lp.A.shape[0] + len(extra_rows)
    A = np.zeros((m, ny))
    b = np.empty(m)
    rel = np.empty(m, dtype=np.int64)
    c = np.zeros(ny)

    sign = 1.0 if lp.sense == "min" else -1.0
    for j in range(n):
        col = cols[j]
        if kinds[j] == _SHIFT_LO:
            A[: lp.A.shape[0], col] = lp.A[:, j]
            c[col] = sign * lp.c[j]
        elif kinds[j] == _SHIFT_HI:
            A[: lp.A.shape[0], col] = -lp.A[:, j]
            c[col] = -sign * lp.c[j]
        elif kinds[j] == _FREE:
            A[: lp.A.shape[0], col] = lp.A[:, j]
            A[: lp.A.shape[0], col + 1] = -lp.A[:, j]
            c[col] = sign * lp.c[j]
            c[col + 1] = -sign * lp.c[j]
    b[: lp.A.shape[0]] = lp.rhs - lp.A @ consts
    rel[: lp.A.shape[0]] = lp.rel
    for i, (col, ub) in enumerate(extra_rows):
        r = lp.A.shape[0] + i
        A[r, col] = 1.0
        b[r] = ub
        rel[r] = LE
    return A, b, rel, c, kinds, consts, cols


def _cold_tableau(A, b, rel, c):
    """[A | I | b] over max(c, 0) with every row as LE and its slack basic.

    Returns the tableau, its basis and the true cost row to install once
    the dual loop has made the basis feasible.
    """
    eq = rel == EQ
    sign = np.where(rel == GE, -1.0, 1.0)
    A = np.vstack([sign[:, None] * A, -A[eq]])
    b = np.concatenate([sign * b, -b[eq]])
    m, n = A.shape
    tab = np.zeros((m + 1, n + m + 1))
    tab[:m, :n] = A
    basis = n + np.arange(m)
    tab[np.arange(m), basis] = 1.0
    tab[:m, -1] = b
    tab[m, :n] = np.maximum(c, 0.0)
    cost = np.zeros(n + m + 1)
    cost[:n] = c
    return tab, basis, cost


def simplex_solve(lp: LinearProgram, warm: SolveResult | None = None) -> SolveResult:
    """Certified optimum of the LP (continuous relaxation engine).

    ``warm`` is an optimal result of ``simplex_solve`` for an LP with the
    same objective and rows whose bounds ``lp`` only tightens; ``lp`` is then
    re-solved from that result's tableau.
    """
    if warm is not None:
        return _resolve(lp, warm)
    std = _standardise(lp)
    if std is None:
        return SolveResult(status="infeasible")
    A, b, rel, c, kinds, consts, cols = std
    tab, basis, cost = _cold_tableau(A, b, rel, c)
    cols = np.asarray(cols, dtype=np.int64)
    return _optimise(lp, _Tableau(tab, basis, kinds, consts, cols, lp.lo.copy(), lp.hi.copy()), cost)


def _bound_terms(kind, col):
    """(column, coefficient) pairs with x = const + sum(coefficient * y)."""
    if kind == _SHIFT_LO:
        return ((col, 1.0),)
    if kind == _SHIFT_HI:
        return ((col, -1.0),)
    return ((col, 1.0), (col + 1, -1.0))  # _FREE, const 0


def _resolve(lp: LinearProgram, warm: SolveResult) -> SolveResult:
    """Re-solve ``lp`` from the optimal tableau of ``warm``."""
    parent = warm._tableau
    if parent is None:
        raise ValueError("a warm start needs an optimal result of simplex_solve")
    lo, hi = lp.lo, lp.hi
    if np.any(lo < parent.lo) or np.any(hi > parent.hi):
        raise ValueError("a warm-started LP may only tighten its parent's bounds")
    if np.any(lo > hi):
        return SolveResult(status="infeasible")

    # One row  sign * (x_j - const_j) + s = rhs  per tightened bound, over
    # the parent's columns.  A fixed parent variable cannot tighten without
    # lo > hi, so every such x_j has a column.
    rows = []  # (j, sign, rhs)
    for j in np.flatnonzero((lo > parent.lo) | (hi < parent.hi)).tolist():
        if lo[j] > parent.lo[j]:  # x_j >= lo_j
            rows.append((j, -1.0, parent.consts[j] - lo[j]))
        if hi[j] < parent.hi[j]:  # x_j <= hi_j
            rows.append((j, 1.0, hi[j] - parent.consts[j]))

    m, n = parent.tab.shape[0] - 1, parent.tab.shape[1] - 1
    k = len(rows)
    tab = np.zeros((m + k + 1, n + k + 1))
    tab[:m, :n] = parent.tab[:m, :n]
    tab[:m, -1] = parent.tab[:m, -1]
    tab[-1, :n] = parent.tab[-1, :n]
    tab[-1, -1] = parent.tab[-1, -1]
    basis = np.concatenate([parent.basis, n + np.arange(k, dtype=np.int64)])
    basic_row = np.full(n, -1, dtype=np.int64)
    basic_row[parent.basis] = np.arange(m)
    for i, (j, sign, rhs) in enumerate(rows):
        r = m + i
        tab[r, n + i] = 1.0
        tab[r, -1] = rhs
        terms = _bound_terms(parent.kinds[j], parent.cols[j])
        for col, a in terms:
            tab[r, col] = sign * a
        # Express the row in the parent's basis: zero its basic columns.
        for col, _ in terms:
            if basic_row[col] >= 0:
                tab[r] -= tab[r, col] * tab[basic_row[col]]
    return _optimise(lp, parent._replace(tab=tab, basis=basis, lo=lo.copy(), hi=hi.copy()))


def _optimise(lp: LinearProgram, start: _Tableau, cost=None) -> SolveResult:
    """Dual simplex to a feasible basis, then primal simplex to an optimal one.

    ``start`` is dual feasible and is pivoted in place.  ``cost``, the true
    cost row of a cold solve, replaces the clamped one between the loops,
    priced out on the basis the dual loop ended on.
    """
    tab, basis = start.tab, start.basis
    max_iter = 200 * sum(tab.shape) + 2000
    status = STATUS_OPTIMAL
    if np.any(tab[:-1, -1] < -PIVOT_TOL):  # else the basis is feasible already
        status, _ = dual_pivot_loop(tab, basis, max_iter, PIVOT_TOL)
    if status == STATUS_OPTIMAL and cost is not None:
        tab[-1] = cost - cost[basis] @ tab[:-1]
    # Only an LP of fixed variables and no rows has no column to price.
    if status == STATUS_OPTIMAL and tab.shape[1] > 1:
        status, _ = pivot_loop(tab, basis, max_iter, PIVOT_TOL)
    if status != STATUS_OPTIMAL:
        return SolveResult(status=_STATUS[status])
    return _extract(lp, start)


def _extract(lp: LinearProgram, final: _Tableau) -> SolveResult:
    y = np.zeros(final.tab.shape[1] - 1)
    y[final.basis] = final.tab[:-1, -1]
    kinds, cols = final.kinds, final.cols
    x = final.consts.copy()
    on = kinds == _SHIFT_LO
    x[on] += y[cols[on]]
    on = kinds == _SHIFT_HI
    x[on] -= y[cols[on]]
    on = kinds == _FREE
    x[on] = y[cols[on]] - y[cols[on] + 1]
    # A variable fixed by a warm start keeps its column; return its value
    # exactly, as a cold solve does.
    fixed = (lp.lo == lp.hi) & np.isfinite(lp.lo)
    x[fixed] = lp.lo[fixed]
    obj = float(lp.c @ x)
    return SolveResult(status="optimal", objective=obj, x=x, _tableau=final)
