"""Differential tests: the vectorised pivot kernel against the scalar oracle.

Agreement is exact -- status, iteration count, basis and tableau compared
with ``np.array_equal`` -- because branch and bound must take the same path
whichever loop runs, and the benchmark derives its pivot count from the
iteration count.
"""

import numpy as np

import scalar_kernel
from cfcert._kernels import (
    KERNEL_MODE,
    STATUS_ITER_LIMIT,
    STATUS_OPTIMAL,
    STATUS_UNBOUNDED,
    pivot,
    pivot_loop,
)
from scalar_kernel import scalar_pivot_loop

TOL = 1e-9


def _run_both(tab, basis, max_iter=2000):
    """Run both loops on copies; assert they agree exactly; return the result."""
    tab_a, basis_a = tab.copy(), basis.copy()
    tab_b, basis_b = tab.copy(), basis.copy()
    out_a = pivot_loop(tab_a, basis_a, max_iter, TOL)
    out_b = scalar_pivot_loop(tab_b, basis_b, max_iter, TOL)
    assert out_a == out_b
    assert np.array_equal(basis_a, basis_b)
    assert np.array_equal(tab_a, tab_b)
    return out_a, tab_a, basis_a


def _random_tableau(rng, m, n):
    tab = rng.normal(size=(m + 1, n + 1))
    tab[:m, n] = np.abs(tab[:m, n])
    return tab, rng.permutation(n)[:m].astype(np.int64)


def _degenerate_tableau(rng, m, n):
    """Integer tableau on a slack basis with most right-hand sides zero, so
    ratio ties and long degenerate pivot streaks are the norm."""
    tab = np.round(rng.normal(size=(m + 1, n + 1)) * 1.5)
    tab[:m, n] = np.where(rng.random(m) < 0.8, 0.0, np.abs(tab[:m, n]))
    tab[:m, n - m : n] = np.eye(m)
    tab[m, n - m : n] = 0.0
    return tab, np.arange(n - m, n, dtype=np.int64)


def test_jitted_and_plain_kernels_agree():
    """Seeded random tableaux of assorted shapes."""
    rng = np.random.default_rng(0)
    statuses = set()
    for _ in range(300):
        m = int(rng.integers(1, 10))
        n = m + int(rng.integers(1, 12))
        (status, _), _, _ = _run_both(*_random_tableau(rng, m, n))
        statuses.add(status)
    assert statuses == {STATUS_OPTIMAL, STATUS_UNBOUNDED}


def test_degenerate_tableaux_agree_through_bland_switch(monkeypatch):
    rng = np.random.default_rng(1)
    switched = 0
    for _ in range(20):
        m = int(rng.integers(18, 26))
        tab, basis = _degenerate_tableau(rng, m, 2 * m)
        out, _, final_basis = _run_both(tab, basis)
        # Replaying the oracle with the switch disabled shows whether the
        # Bland regime was reached and changed the pivot sequence.
        with monkeypatch.context() as patch:
            patch.setattr(scalar_kernel, "_DEGENERATE_STREAK", 10**9)
            dantzig_basis = basis.copy()
            dantzig = scalar_pivot_loop(tab.copy(), dantzig_basis, 2000, TOL)
        if dantzig != out or not np.array_equal(dantzig_basis, final_basis):
            switched += 1
    assert switched >= 3


def test_unbounded_column():
    # x0 enters (reduced cost -1) but no row limits it.
    tab = np.array(
        [
            [-1.0, 1.0, 0.0, 2.0],
            [0.0, 0.0, 1.0, 3.0],
            [-1.0, 0.0, 0.0, 0.0],
        ]
    )
    (status, iterations), _, _ = _run_both(tab, np.array([1, 2], dtype=np.int64))
    assert status == STATUS_UNBOUNDED and iterations == 1


def test_iteration_limit_counts_every_pivot():
    rng = np.random.default_rng(2)
    hits = 0
    for _ in range(40):
        tab, basis = _random_tableau(rng, 8, 16)
        (status, iterations), _, _ = _run_both(tab, basis, max_iter=3)
        if status == STATUS_ITER_LIMIT:
            assert iterations == 3
            hits += 1
        else:
            assert iterations <= 3
    assert hits > 0


def test_pivot_makes_unit_column():
    rng = np.random.default_rng(3)
    tab = rng.normal(size=(5, 8))
    pivot(tab, 2, 4)
    expected = np.zeros(5)
    expected[2] = 1.0
    assert np.allclose(tab[:, 4], expected, atol=1e-12)


def test_kernel_mode_reported():
    assert KERNEL_MODE == "numpy"

