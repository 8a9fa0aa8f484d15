"""Reference oracle for the simplex kernel: the textbook scalar pivot loop.

``cfcert._kernels.pivot_loop`` must reproduce this loop exactly -- same
status, iteration count, basis and tableau, bit for bit.  It is kept only
for the tests; it is far too slow to run in the package.
"""

from __future__ import annotations

import numpy as np

from cfcert._kernels import (
    _DEGENERATE_STREAK,
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
        piv = tab[leave, enter]
        inv = 1.0 / piv
        for j in range(n + 1):
            tab[leave, j] *= inv
        for i in range(m + 1):
            if i != leave:
                f = tab[i, enter]
                if f != 0.0:
                    for j in range(n + 1):
                        tab[i, j] -= f * tab[leave, j]
        basis[leave] = enter
    return STATUS_ITER_LIMIT, it
