"""Reference oracles for the simplex kernels: the textbook scalar pivot loops.

``cfcert._kernels.pivot_loop`` and ``dual_pivot_loop`` must reproduce these
loops exactly -- same status, iteration count, basis and tableau, bit for
bit.  They are kept only for the tests; they are far too slow to run in the
package.
"""

from __future__ import annotations

import numpy as np

from cfcert._kernels import (
    _DEGENERATE_STREAK,
    _PERTURBATION,
    STATUS_INFEASIBLE,
    STATUS_ITER_LIMIT,
    STATUS_OPTIMAL,
    STATUS_UNBOUNDED,
)


def scalar_pivot_loop(tab, basis, max_iter, tol):
    """Primal simplex pivots on a dense tableau, in place.

    ``tab`` is (m+1) x (n+1): the first m rows are [B^-1 A | B^-1 b], the last
    row holds reduced costs and the negated objective.  ``basis`` holds the
    basic column of each row.  Returns (status, iterations).
    """
    m = tab.shape[0] - 1
    n = tab.shape[1] - 1
    bland = False
    degenerate = 0
    it = 0
    while it < max_iter:
        it += 1
        # Entering column: most negative reduced cost (Dantzig), or the first
        # negative one once Bland's rule is active.
        enter = -1
        if bland:
            for j in range(n):
                if tab[m, j] < -tol:
                    enter = j
                    break
        else:
            best = -tol
            for j in range(n):
                if tab[m, j] < best:
                    best = tab[m, j]
                    enter = j
        if enter < 0:
            return STATUS_OPTIMAL, it
        # Ratio test; ties resolved towards the smallest basic index so the
        # Bland regime is cycle-free.
        leave = -1
        best_ratio = np.inf
        for i in range(m):
            a = tab[i, enter]
            if a > tol:
                r = tab[i, n] / a
                if r < best_ratio - 1e-12:
                    best_ratio = r
                    leave = i
                elif r <= best_ratio + 1e-12 and leave >= 0 and basis[i] < basis[leave]:
                    leave = i
        if leave < 0:
            return STATUS_UNBOUNDED, it
        if best_ratio <= tol:
            degenerate += 1
            if degenerate > _DEGENERATE_STREAK:
                bland = True
        else:
            degenerate = 0
        _scalar_pivot(tab, leave, enter)
        basis[leave] = enter
    return STATUS_ITER_LIMIT, it


def scalar_dual_pivot_loop(tab, basis, max_iter, tol):
    """Dual simplex pivots on a dense, dual-feasible tableau, in place.

    Same layout as ``scalar_pivot_loop``.  Returns (status, iterations) with
    status optimal, infeasible or iteration limit.  A long degenerate streak
    perturbs the nonbasic reduced costs, and the perturbation is carried
    through the later pivots and taken out before returning.
    """
    m = tab.shape[0] - 1
    n = tab.shape[1] - 1
    shift = None
    degenerate = 0
    status = STATUS_ITER_LIMIT
    it = 0
    while it < max_iter:
        it += 1
        # Leaving row: most negative rhs, first row on ties.
        leave = -1
        best = -tol
        for i in range(m):
            if tab[i, n] < best:
                best = tab[i, n]
                leave = i
        if leave < 0:
            status = STATUS_OPTIMAL
            break
        # Harris ratio test over the row's entries below -tol: a first pass
        # finds the relaxed bound min (d + tol) / |a| with d the reduced cost
        # clipped at zero; a second takes the largest |a| whose ratio d / |a|
        # is within it, the first column on ties.
        bound = np.inf
        for j in range(n):
            a = tab[leave, j]
            if a < -tol:
                bound = min(bound, (max(tab[m, j], 0.0) + tol) / -a)
        if bound == np.inf:
            status = STATUS_INFEASIBLE
            break
        enter = -1
        for j in range(n):
            a = tab[leave, j]
            if a < -tol and max(tab[m, j], 0.0) / -a <= bound:
                if enter < 0 or -a > -tab[leave, enter]:
                    enter = j
        if max(tab[m, enter], 0.0) / -tab[leave, enter] <= tol:
            degenerate += 1
        else:
            degenerate = 0
        _scalar_pivot(tab, leave, enter)
        basis[leave] = enter
        if shift is not None:
            f = shift[enter]
            for j in range(n + 1):
                shift[j] -= f * tab[leave, j]
        elif degenerate > _DEGENERATE_STREAK:
            shift = [0.0] * (n + 1)
            for j in range(n):
                if j not in basis:
                    shift[j] = _PERTURBATION * (1.0 + j / n)
            for j in range(n + 1):
                tab[m, j] += shift[j]
    if shift is not None:
        for j in range(n + 1):
            tab[m, j] -= shift[j]
    return status, it


def _scalar_pivot(tab, leave, enter):
    m1, n1 = tab.shape
    piv = tab[leave, enter]
    inv = 1.0 / piv
    for j in range(n1):
        tab[leave, j] *= inv
    for i in range(m1):
        if i != leave:
            f = tab[i, enter]
            if f != 0.0:
                for j in range(n1):
                    tab[i, j] -= f * tab[leave, j]
