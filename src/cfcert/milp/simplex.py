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
is returned as given, bit for bit.  All of this but the two cost rows
depends only on the rows and the bounds, so it is built once per LP and
kept on it; an LP that ``LinearProgram.with_objective`` makes of it starts
each cold solve from a copy of the same tableau.

**Warm start.**  An optimal result keeps its final tableau, basis and
column map (``SolveResult._tableau``).  ``simplex_solve(child, warm=parent)``
re-solves an LP that differs from the parent's only by tighter bounds, as a
branch-and-bound child does.  A tighter bound is a new right-hand side, not
a new row (Koberstein, 2005): raising ``lo`` by ``d`` under ``x = lo + y``
substitutes ``y = d + y'``, which moves the right-hand-side column by ``-d``
times y's column, and so does lowering ``hi`` under ``x = hi - y``; lowering
``hi`` of a boxed ``x = lo + y`` moves it by ``-d`` times the slack column of
x's bound row.  The reduced costs and the basis do not change, so the moved
tableau keeps the parent's shape and stays dual feasible.  The primal loop
has work only if the dual loop had to perturb the costs to leave a
degenerate face.  Only finite bounds can move: a warm start that makes an
infinite bound finite raises ``ValueError``.  The parent's tableau, basis
and constants are copied, never changed.
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
# Per kind: how many y columns x takes, and the coefficient of the first in x.
_WIDTH = np.array([1, 1, 2, 0])
_SIGN = np.array([1.0, -1.0, 1.0, 0.0])


class _Tableau(NamedTuple):
    """A tableau and the column map that reads x off it."""

    tab: np.ndarray  # (m+1) x (n+1): [B^-1 A | B^-1 b] over reduced costs
    basis: np.ndarray
    kinds: np.ndarray
    consts: np.ndarray
    cols: np.ndarray
    slack: np.ndarray  # slack column of x's bound row, -1 if x has none
    lo: np.ndarray  # the bounds the tableau is for
    hi: np.ndarray


class _Standard(NamedTuple):
    """The objective-free start of every cold solve of an LP's rows and
    bounds: the tableau over a zero cost row and its slack basis, the column
    map, and each y column's x and sign, which price an objective on it."""

    tab: np.ndarray
    basis: np.ndarray
    kinds: np.ndarray
    consts: np.ndarray
    cols: np.ndarray
    slack: np.ndarray
    src: np.ndarray
    sgn: np.ndarray


def _standardise(lp: LinearProgram):
    """Rewrite the LP's rows and bounds as A y (rel) b, y >= 0 plus bound
    rows; the objective becomes ``_cost(lp, src, sgn)``.

    ``cols`` maps each x to its y column (FREE takes two, FIXED none);
    ``boxed`` lists the owners of the bound rows ``y <= hi - lo``, in order;
    ``src`` is the x of each y column and ``sgn`` its coefficient in x.
    """
    lo, hi = lp.lo, lp.hi
    if (lo > hi).any():
        return None  # trivially infeasible box
    has_lo, has_hi = np.isfinite(lo), np.isfinite(hi)
    fixed = has_lo & (lo == hi)
    kinds = np.where(has_lo, _SHIFT_LO, np.where(has_hi, _SHIFT_HI, _FREE))
    kinds[fixed] = _FIXED
    consts = np.where(has_lo, lo, np.where(has_hi, hi, 0.0))
    width = _WIDTH[kinds]
    cols = np.cumsum(width) - width
    cols[fixed] = -1
    src = np.repeat(np.arange(kinds.size), width)  # the x of each y column
    sgn = _SIGN[kinds[src]]
    sgn[cols[kinds == _FREE] + 1] = -1.0  # x = y_pos - y_neg
    boxed = np.flatnonzero(has_lo & has_hi & ~fixed)

    # Multiplying by +-1 is exact, so A and c are the LP's entries, negated
    # where x = hi - y or y = y_neg.
    m0, ny = lp.A.shape[0], src.size
    A = np.zeros((m0 + boxed.size, ny))
    np.multiply(lp.A[:, src], sgn, out=A[:m0])
    A[m0 + np.arange(boxed.size), cols[boxed]] = 1.0
    b = np.concatenate([lp.rhs - lp.A @ consts, hi[boxed] - lo[boxed]])
    rel = np.concatenate([lp.rel, np.full(boxed.size, LE)])
    return A, b, rel, kinds, consts, cols, boxed, src, sgn


def _cost(lp: LinearProgram, src, sgn):
    """The LP's objective over the y columns, as a minimisation."""
    return (1.0 if lp.sense == "min" else -1.0) * sgn * lp.c[src]


def _cold_tableau(A, b, rel):
    """[A | I | b] over a zero cost row, with every row as LE and its slack
    basic."""
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
    return tab, basis


def _standard_form(lp: LinearProgram) -> _Standard | None:
    """The LP's ``_Standard``, built by its first cold solve and kept on it;
    None when its box is empty."""
    if lp._standard is None:
        std = _standardise(lp)
        if std is None:
            return None
        A, b, rel, kinds, consts, cols, boxed, src, sgn = std
        tab, basis = _cold_tableau(A, b, rel)
        # Row r's slack is column n + r; EQ rows' negated copies come last.
        slack = np.full(lp.num_vars, -1, dtype=np.int64)
        slack[boxed] = A.shape[1] + lp.A.shape[0] + np.arange(boxed.size)
        lp._standard = _Standard(tab, basis, kinds, consts, cols, slack, src, sgn)
    return lp._standard


def simplex_solve(lp: LinearProgram, warm: SolveResult | None = None) -> SolveResult:
    """Certified optimum of the LP (continuous relaxation engine).

    ``warm`` is an optimal result of ``simplex_solve`` for an LP with the
    same objective and rows whose bounds ``lp`` only tightens; ``lp`` is then
    re-solved from that result's tableau.
    """
    if warm is not None:
        return _resolve(lp, warm)
    form = _standard_form(lp)
    if form is None:
        return SolveResult(status="infeasible")
    # The cost row over max(c, 0) makes the slack basis dual feasible; the
    # true costs replace it once the dual loop has made the basis feasible.
    c = _cost(lp, form.src, form.sgn)
    tab = form.tab.copy()
    tab[-1, : c.size] = np.maximum(c, 0.0)
    cost = np.zeros(tab.shape[1])
    cost[: c.size] = c
    start = _Tableau(
        tab, form.basis.copy(), form.kinds, form.consts, form.cols, form.slack,
        lp.lo.copy(), lp.hi.copy(),
    )
    return _optimise(lp, start, cost)


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

    tab, consts = parent.tab.copy(), parent.consts.copy()

    def move(column, d):  # the right-hand sides once a bound moves by d
        if not np.isfinite(d):
            raise ValueError("a warm start may only move finite bounds")
        tab[:, -1] -= d * tab[:, column]

    # A variable fixed in the parent has no column, but it cannot tighten
    # without lo > hi.
    for j in np.flatnonzero((lo > parent.lo) | (hi < parent.hi)).tolist():
        if lo[j] > parent.lo[j]:  # x = lo + y
            d = lo[j] - parent.lo[j]
            move(parent.cols[j], d)
            consts[j] += d
        if hi[j] < parent.hi[j]:
            d = parent.hi[j] - hi[j]
            if parent.kinds[j] == _SHIFT_HI:  # x = hi - y
                move(parent.cols[j], d)
                consts[j] -= d
            else:  # the bound row y + s = hi - lo of a boxed x = lo + y
                move(parent.slack[j], d)
    basis = parent.basis.copy()  # _optimise pivots it in place
    start = parent._replace(tab=tab, basis=basis, consts=consts, lo=lo.copy(), hi=hi.copy())
    return _optimise(lp, start)


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
