"""Dense simplex pivot kernels, vectorised with numpy.

The pivot loops are the hot path of the whole package (every robustness
certificate is a stack of LP solves).  Each pivot prices, runs the ratio
test and updates the tableau with whole-array numpy operations.

Every LP solve (``cfcert.milp.simplex``) runs the two loops in turn, from a
cold start and from a branch-and-bound parent's tableau alike:

* ``dual_pivot_loop`` is the dual simplex that makes a dual-feasible basis
  primal feasible: the most negative right-hand side leaves, a Harris
  two-pass ratio test picks the entering column, and a cost perturbation
  ends a long degenerate streak.
* ``pivot_loop`` is the primal simplex that then makes it optimal: Dantzig
  pricing with a switch to Bland's rule, minimum-ratio test with ties
  (within ``_RATIO_TIE`` of the minimum) to the smallest basic index.

Both make exactly the choices of the textbook scalar loops and produce the
same tableau bit for bit; the test suite keeps those loops as its reference
oracles.
"""

from __future__ import annotations

import numpy as np

KERNEL_MODE = "numpy"

# Kernel status codes shared with the simplex driver.
STATUS_OPTIMAL = 0
STATUS_UNBOUNDED = 1
STATUS_ITER_LIMIT = 2
STATUS_INFEASIBLE = 3

# Consecutive degenerate pivots tolerated before the primal loop switches its
# entering rule from Dantzig to Bland (anti-cycling; Bland guarantees
# termination) and the dual loop perturbs its reduced costs.
_DEGENERATE_STREAK = 40

# Ratios within this distance of the minimum ratio count as tied.
_RATIO_TIE = 1e-12

# Base size of the reduced-cost perturbation of a stalled dual simplex.
_PERTURBATION = 1e-7


def pivot(tab, leave, enter):
    """Pivot the tableau on (leave, enter) in place.

    Scales the leaving row so the entering column holds a one there, then
    eliminates the entering column from every other row whose entry in it is
    nonzero with one rank-1 update.
    """
    row = tab[leave]
    row *= 1.0 / row[enter]
    col = tab[:, enter]
    mask = col != 0.0
    mask[leave] = False
    f = col[mask]
    if f.size:
        tab[mask] -= f[:, None] * row


def pivot_loop(tab, basis, max_iter, tol):
    """Primal simplex pivots on a dense, finite tableau, in place.

    ``tab`` is (m+1) x (n+1): the first m rows are [B^-1 A | B^-1 b], the last
    row holds reduced costs and the negated objective.  ``basis`` holds the
    basic column of each row.  Returns (status, iterations); the pricing step
    that finds no entering column counts as an iteration.
    """
    m = tab.shape[0] - 1
    n = tab.shape[1] - 1
    cost = tab[m, :n]
    rhs = tab[:m, n]
    bland = False
    degenerate = 0
    it = 0
    while it < max_iter:
        it += 1
        # Entering column: most negative reduced cost (Dantzig, first index
        # on ties), or the first negative one once Bland's rule is active.
        if bland:
            negative = cost < -tol
            enter = int(negative.argmax())
            if not negative[enter]:
                return STATUS_OPTIMAL, it
        else:
            enter = int(cost.argmin())
            if not cost[enter] < -tol:
                return STATUS_OPTIMAL, it
        column = tab[:m, enter]
        rows = (column > tol).nonzero()[0]
        if rows.size == 0:
            return STATUS_UNBOUNDED, it
        ratios = rhs[rows] / column[rows]
        best_ratio = float(ratios.min())
        # Of the rows tied at the minimum ratio, the smallest basic index
        # leaves, which keeps the Bland regime cycle-free.
        tied = rows[ratios <= best_ratio + _RATIO_TIE]
        leave = int(tied[basis[tied].argmin()])
        if best_ratio <= tol:
            degenerate += 1
            if degenerate > _DEGENERATE_STREAK:
                bland = True
        else:
            degenerate = 0
        pivot(tab, leave, enter)
        basis[leave] = enter
    return STATUS_ITER_LIMIT, it


def dual_pivot_loop(tab, basis, max_iter, tol):
    """Dual simplex pivots on a dense, dual-feasible tableau, in place.

    Same layout as ``pivot_loop``; the reduced costs must be nonnegative (to
    ``tol``).  Returns (status, iterations) with status optimal (no
    right-hand side below ``-tol``), infeasible (a leaving row with no entry
    below ``-tol``) or iteration limit; the pricing step that finds no
    leaving row counts as an iteration.

    Leaving row: the most negative right-hand side, first row on ties.
    Entering column (Harris, 1973): of the entries a_j < -tol of the leaving
    row, with d_j = max(reduced cost, 0), the ratios d_j / |a_j| at most
    min_j (d_j + tol) / |a_j| qualify, and the largest |a_j| among them
    enters, first column on ties.  The textbook minimum ratio would take any
    |a_j| just past ``tol`` at a zero reduced cost -- the norm in the
    dual-degenerate nearest-CE and bound LPs -- and such a pivot multiplies
    entries by up to 1/tol.

    Anti-stalling: after more than ``_DEGENERATE_STREAK`` consecutive
    degenerate pivots (ratio <= ``tol``) the loop adds a small, distinct
    perturbation to the reduced cost of every nonbasic column, carries it
    through the later pivots, and takes it out before returning (Koberstein,
    2005, sec. 6.2).  Bland's rule stalls for tens of thousands of pivots on
    such faces.  The returned reduced costs may then be slightly negative;
    the caller finishes with primal pivots.
    """
    m = tab.shape[0] - 1
    n = tab.shape[1] - 1
    cost = tab[m, :n]
    rhs = tab[:m, n]
    shift = None  # perturbation still held in the cost row
    degenerate = 0
    status = STATUS_ITER_LIMIT
    it = 0
    while it < max_iter:
        it += 1
        leave = int(rhs.argmin())
        if not rhs[leave] < -tol:
            status = STATUS_OPTIMAL
            break
        row = tab[leave, :n]
        cols = (row < -tol).nonzero()[0]
        if cols.size == 0:
            status = STATUS_INFEASIBLE
            break
        alpha = -row[cols]
        d = np.maximum(cost[cols], 0.0)
        ratios = d / alpha
        window = ratios <= ((d + tol) / alpha).min()
        k = int(np.where(window, alpha, 0.0).argmax())
        enter = int(cols[k])
        degenerate = degenerate + 1 if ratios[k] <= tol else 0
        pivot(tab, leave, enter)
        basis[leave] = enter
        if shift is not None:
            shift -= shift[enter] * tab[leave]
        elif degenerate > _DEGENERATE_STREAK:
            shift = np.zeros(n + 1)
            shift[:n] = _PERTURBATION * (1.0 + np.arange(n) / n)
            shift[basis] = 0.0
            tab[m] += shift
    if shift is not None:
        tab[m] -= shift
    return status, it
