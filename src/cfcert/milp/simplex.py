"""Two-phase dense simplex over general bounded-variable LPs.

The pivot loop lives in ``cfcert._kernels`` (vectorised numpy).  This
driver converts a :class:`LinearProgram` to standard equality form, runs
phase 1 to find a basic feasible solution, then phase 2 on the real
objective.  A phase that runs out of pivots ends the solve with status
``iteration_limit``.  Tolerances: 1e-9 inside the pivoting, 1e-7 for
reported feasibility.

Two things keep the standard form small:

* **Fixed variables are substituted out.**  A variable with finite
  ``lo == hi`` (a stable ReLU binary, a branch-and-bound fixing) gets no
  column and no bound row; its value moves into the right-hand side and is
  returned as given, bit for bit.
* **Phase 1 starts from a slack crash basis** (Bixby, ORSA J. Computing
  1992).  A row whose own slack is a unit column with nonnegative rhs (an
  ``LE`` row with ``b >= 0``, or a ``GE`` row with ``b < 0`` once flipped)
  starts the basis with that slack; only the other rows (``EQ`` rows,
  ``GE`` rows with ``b >= 0``, ``LE`` rows with ``b < 0``) get an artificial
  variable, and phase 1 minimises the sum of those.
"""

from __future__ import annotations

import numpy as np

from .._kernels import STATUS_ITER_LIMIT, STATUS_OPTIMAL, STATUS_UNBOUNDED, pivot, pivot_loop
from .problem import EQ, GE, LE, LinearProgram, SolveResult

__all__ = ["simplex_solve", "FEASIBILITY_TOL"]

PIVOT_TOL = 1e-9
FEASIBILITY_TOL = 1e-7

# Variable substitutions used to reach y >= 0 standard form.
_SHIFT_LO = 0  # x = lo + y
_SHIFT_HI = 1  # x = hi - y
_FREE = 2  # x = y_pos - y_neg
_FIXED = 3  # x = lo = hi, no column


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
    artificial variable.
    """
    m, n = A.shape
    n_slack = int(np.sum(rel != EQ))
    out = np.zeros((m, n + n_slack))
    out[:, :n] = A
    b = b.copy()
    neg = b < 0
    slack = np.full(m, -1, dtype=np.int64)
    col = n
    for i in range(m):
        if rel[i] == LE:
            out[i, col] = 1.0
            if not neg[i]:
                slack[i] = col
            col += 1
        elif rel[i] == GE:
            out[i, col] = -1.0
            if neg[i]:
                slack[i] = col
            col += 1
    out[neg] *= -1.0
    b[neg] = -b[neg]
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


def simplex_solve(lp: LinearProgram) -> SolveResult:
    """Certified optimum of the LP (continuous relaxation engine)."""
    std = _standardise(lp)
    if std is None:
        return SolveResult(status="infeasible")
    A, b, rel, c, kinds, consts, cols, _ = std
    A, b, basis = _to_equalities(A, b, rel)
    m, n_real = A.shape
    c = np.concatenate([c, np.zeros(n_real - c.size)])  # slacks cost nothing
    max_iter = 200 * (m + n_real) + 2000

    if m == 0:
        # No constraints at all: every y is only bounded below by zero, so a
        # negative cost is an unbounded ray; otherwise y = 0 is optimal.
        if np.any(c < 0.0):
            return SolveResult(status="unbounded")
        return _extract(lp, np.zeros(n_real), kinds, consts, cols)

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

    y = np.zeros(n_real)
    y[basis] = tab[:m2, -1]
    return _extract(lp, y, kinds, consts, cols)


def _extract(lp: LinearProgram, y, kinds, consts, cols) -> SolveResult:
    x = np.empty(lp.num_vars)
    for j in range(lp.num_vars):
        col = cols[j]
        if kinds[j] == _SHIFT_LO:
            x[j] = consts[j] + y[col]
        elif kinds[j] == _SHIFT_HI:
            x[j] = consts[j] - y[col]
        elif kinds[j] == _FREE:
            x[j] = y[col] - y[col + 1]
        else:
            x[j] = consts[j]
    obj = float(lp.c @ x)
    return SolveResult(status="optimal", objective=obj, x=x)
