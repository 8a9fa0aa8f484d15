"""Two-phase dense simplex over general bounded-variable LPs, with a dual
simplex warm start for LPs whose bounds tighten.

The pivot loops live in ``cfcert._kernels`` (vectorised numpy).  A cold
solve converts a :class:`LinearProgram` to standard equality form, runs
phase 1 to find a basic feasible solution, then phase 2 on the real
objective.  A loop that runs out of pivots ends the solve with status
``iteration_limit``.  Tolerances: 1e-9 inside the pivoting, 1e-7 for
reported feasibility.

**Warm start.**  An optimal result keeps its final tableau, basis and
column map (``SolveResult._tableau``).  ``simplex_solve(child, warm=parent)``
re-solves an LP that differs from the parent's only by tighter bounds, as a
branch-and-bound child does (Koberstein, *The dual simplex method*, 2005).
Each tightened bound becomes one row over the parent's columns with its own
basic slack -- ``y <= 0`` or ``-y <= -1`` for a binary fixed at 0 or 1 --
reduced against the parent's basis.  The reduced costs are untouched, so the
tableau stays dual feasible, and ``dual_pivot_loop`` pivots out the
negative right-hand sides.  No primal phase runs after it, unless it had to
perturb the costs to leave a degenerate face; then primal pivots from its
primal-feasible basis restore optimality for the true costs.  The parent's
tableau is copied, never changed.

Two things keep the cold standard form small:

* **Fixed variables are substituted out.**  A variable with finite
  ``lo == hi`` (a stable ReLU binary, a branch-and-bound fixing) gets no
  column and no bound row; its value moves into the right-hand side and is
  returned as given, bit for bit.
* **Phase 1 starts from a slack crash basis** (Bixby, ORSA J. Computing
  1992).  A row whose own slack is a unit column with nonnegative rhs (an
  ``LE`` row with ``b >= 0``, or a ``GE`` row with ``b < 0`` once flipped)
  starts the basis with that slack; a ``GE`` row with ``b == 0`` is
  flipped too and starts on its negated surplus.  Only the other rows
  (``EQ`` rows, ``GE`` rows with ``b > 0``, ``LE`` rows with ``b < 0``) get
  an artificial variable, and phase 1 minimises the sum of those.
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
    pivot,
    pivot_loop,
)
from .problem import EQ, GE, LE, LinearProgram, SolveResult

__all__ = ["simplex_solve", "FEASIBILITY_TOL"]

PIVOT_TOL = 1e-9
FEASIBILITY_TOL = 1e-7

# Variable substitutions used to reach y >= 0 standard form.
_SHIFT_LO = 0  # x = lo + y
_SHIFT_HI = 1  # x = hi - y
_FREE = 2  # x = y_pos - y_neg
_FIXED = 3  # x = lo = hi, no column


class _Tableau(NamedTuple):
    """An optimal tableau and the column map that reads x off it."""

    tab: np.ndarray  # (m+1) x (n+1): [B^-1 A | B^-1 b] over reduced costs
    basis: np.ndarray
    kinds: np.ndarray
    consts: np.ndarray
    cols: np.ndarray
    lo: np.ndarray  # the bounds the tableau is optimal for
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
    obj_const = 0.0
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
        obj_const += sign * lp.c[j] * consts[j]
    b[: lp.A.shape[0]] = lp.rhs - lp.A @ consts
    rel[: lp.A.shape[0]] = lp.rel
    for i, (col, ub) in enumerate(extra_rows):
        r = lp.A.shape[0] + i
        A[r, col] = 1.0
        b[r] = ub
        rel[r] = LE
    return A, b, rel, c, kinds, consts, cols, obj_const


def _to_equalities(A, b, rel):
    """Append slack/surplus columns so every row is an equality with b >= 0.

    Also returns, per row, the slack column that is a unit column after the
    sign flip and so can start the basis, or -1 where the row needs an
    artificial variable.  A ``GE`` row with ``b == 0`` is flipped as well, so
    its surplus starts the basis at zero.
    """
    m, n = A.shape
    n_slack = int(np.sum(rel != EQ))
    out = np.zeros((m, n + n_slack))
    out[:, :n] = A
    b = b.copy()
    flip = (b < 0) | ((b == 0) & (rel == GE))
    slack = np.full(m, -1, dtype=np.int64)
    col = n
    for i in range(m):
        if rel[i] == LE:
            out[i, col] = 1.0
            if not flip[i]:
                slack[i] = col
            col += 1
        elif rel[i] == GE:
            out[i, col] = -1.0
            if flip[i]:
                slack[i] = col
            col += 1
    out[flip] *= -1.0
    b[flip] = -b[flip]
    return out, b, slack


def _run_phase(A, b, c, basis, max_iter):
    """Assemble a tableau for the given basis (assumed identity-ready) and pivot."""
    m, n = A.shape
    tab = np.zeros((m + 1, n + 1))
    tab[:m, :n] = A
    tab[:m, n] = b
    tab[m, :n] = c
    # Price out the basic columns so reduced costs start consistent.
    for i in range(m):
        cb = c[basis[i]]
        if cb != 0.0:
            tab[m, :] -= cb * tab[i, :]
    status, _ = pivot_loop(tab, basis, max_iter, PIVOT_TOL)
    return tab, status


def _drive_out_artificials(tab, basis, n_real):
    """Pivot zero-valued artificial basics onto real columns; drop dead rows."""
    m = tab.shape[0] - 1
    keep = np.ones(m, dtype=bool)
    for i in range(m):
        if basis[i] < n_real:
            continue
        candidates = np.flatnonzero(np.abs(tab[i, :n_real]) > PIVOT_TOL)
        if candidates.size == 0:
            keep[i] = False  # redundant row
            continue
        enter = int(candidates[0])
        pivot(tab, i, enter)
        basis[i] = enter
    rows = np.concatenate([np.flatnonzero(keep), [m]])
    return tab[rows], basis[keep]


def simplex_solve(lp: LinearProgram, warm: SolveResult | None = None) -> SolveResult:
    """Certified optimum of the LP (continuous relaxation engine).

    ``warm`` is an optimal result of ``simplex_solve`` for an LP with the
    same objective and rows whose bounds ``lp`` only tightens; ``lp`` is then
    re-solved from that result's tableau by dual simplex.
    """
    if warm is not None:
        return _resolve(lp, warm)
    std = _standardise(lp)
    if std is None:
        return SolveResult(status="infeasible")
    A, b, rel, c, kinds, consts, cols, _ = std
    cols = np.asarray(cols, dtype=np.int64)
    A, b, basis = _to_equalities(A, b, rel)
    m, n_real = A.shape
    c = np.concatenate([c, np.zeros(n_real - c.size)])  # slacks cost nothing
    max_iter = 200 * (m + n_real) + 2000

    if m == 0:
        # No constraints at all: every y is only bounded below by zero, so a
        # negative cost is an unbounded ray; otherwise y = 0 is optimal.
        if np.any(c < 0.0):
            return SolveResult(status="unbounded")
        tab = np.zeros((1, n_real + 1))
        tab[0, :n_real] = c
        return _extract(lp, _Tableau(tab, basis, kinds, consts, cols, lp.lo.copy(), lp.hi.copy()))

    # Phase 1: the usable slacks plus one artificial per remaining row.  It
    # runs even when no row needs an artificial (it then stops at once).
    rows = np.flatnonzero(basis < 0)
    A1 = np.zeros((m, n_real + rows.size))
    A1[:, :n_real] = A
    artificial = n_real + np.arange(rows.size)
    A1[rows, artificial] = 1.0
    basis[rows] = artificial
    c1 = np.concatenate([np.zeros(n_real), np.ones(rows.size)])
    tab, status = _run_phase(A1, b, c1, basis, max_iter)
    if status == STATUS_ITER_LIMIT:
        return SolveResult(status="iteration_limit")
    if -tab[-1, -1] > 1e-7:
        return SolveResult(status="infeasible")
    tab, basis = _drive_out_artificials(tab, basis, n_real)

    # Phase 2 on the real objective, artificial columns removed.
    m2 = tab.shape[0] - 1
    tab, status = _run_phase(tab[:m2, :n_real], tab[:m2, -1], c, basis, max_iter)
    if status == STATUS_ITER_LIMIT:
        return SolveResult(status="iteration_limit")
    if status == STATUS_UNBOUNDED:
        return SolveResult(status="unbounded")
    assert status == STATUS_OPTIMAL
    return _extract(lp, _Tableau(tab, basis, kinds, consts, cols, lp.lo.copy(), lp.hi.copy()))


def _bound_terms(kind, col):
    """(column, coefficient) pairs with x = const + sum(coefficient * y)."""
    if kind == _SHIFT_LO:
        return ((col, 1.0),)
    if kind == _SHIFT_HI:
        return ((col, -1.0),)
    return ((col, 1.0), (col + 1, -1.0))  # _FREE, const 0


def _resolve(lp: LinearProgram, warm: SolveResult) -> SolveResult:
    """Re-solve ``lp`` from the optimal tableau of ``warm`` by dual simplex."""
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

    max_iter = 200 * (m + n + 2 * k) + 2000
    status, _ = dual_pivot_loop(tab, basis, max_iter, PIVOT_TOL)
    if status == STATUS_INFEASIBLE:
        return SolveResult(status="infeasible")
    if status == STATUS_OPTIMAL and np.any(tab[-1, :-1] < -PIVOT_TOL):
        # The dual loop perturbed the costs to leave a degenerate face; the
        # basis is primal feasible, and primal pivots restore optimality.
        status, _ = pivot_loop(tab, basis, max_iter, PIVOT_TOL)
    if status == STATUS_ITER_LIMIT:
        return SolveResult(status="iteration_limit")
    if status == STATUS_UNBOUNDED:
        return SolveResult(status="unbounded")
    return _extract(lp, parent._replace(tab=tab, basis=basis, lo=lo.copy(), hi=hi.copy()))


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
