"""Differential tests: the vectorised pivot kernels against the scalar oracles.

Agreement is exact -- status, iteration count, basis and tableau compared
with ``np.array_equal`` -- because branch and bound must take the same path
whichever loop runs, and the benchmark derives its pivot count from the
iteration count.
"""

import numpy as np

import scalar_kernel
from cfcert._kernels import (
    KERNEL_MODE,
    STATUS_INFEASIBLE,
    STATUS_ITER_LIMIT,
    STATUS_OPTIMAL,
    STATUS_UNBOUNDED,
    dual_pivot_loop,
    pivot,
    pivot_loop,
)
from scalar_kernel import scalar_dual_pivot_loop, scalar_pivot_loop

TOL = 1e-9


def _run_both(tab, basis, max_iter=2000, loops=(pivot_loop, scalar_pivot_loop)):
    """Run both loops on copies; assert they agree exactly; return the result."""
    tab_a, basis_a = tab.copy(), basis.copy()
    tab_b, basis_b = tab.copy(), basis.copy()
    out_a = loops[0](tab_a, basis_a, max_iter, TOL)
    out_b = loops[1](tab_b, basis_b, max_iter, TOL)
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


DUAL = (dual_pivot_loop, scalar_dual_pivot_loop)


def _dual_tableau(rng, m, n):
    """Dual-feasible tableau: nonnegative reduced costs, rhs of both signs."""
    tab = rng.normal(size=(m + 1, n + 1))
    tab[m, :n] = np.abs(tab[m, :n])
    return tab, rng.permutation(n)[:m].astype(np.int64)


def _dual_degenerate_tableau(rng, m, n):
    """Integer tableau on a slack basis with every reduced cost zero and every
    right-hand side negative, so each pivot is dual degenerate."""
    tab = np.round(rng.normal(size=(m + 1, n + 1)) * 1.5)
    tab[m, :n] = 0.0
    tab[:m, n] = -np.abs(tab[:m, n])
    tab[:m, n - m : n] = np.eye(m)
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


def test_dual_kernels_agree():
    """Seeded random dual-feasible tableaux of assorted shapes."""
    rng = np.random.default_rng(10)
    statuses = set()
    for _ in range(300):
        m = int(rng.integers(1, 10))
        n = m + int(rng.integers(1, 12))
        (status, _), tab, _ = _run_both(*_dual_tableau(rng, m, n), loops=DUAL)
        statuses.add(status)
        if status == STATUS_OPTIMAL:
            assert np.all(tab[:m, n] >= -TOL) and np.all(tab[m, :n] >= -TOL)
    assert statuses == {STATUS_OPTIMAL, STATUS_INFEASIBLE}


def test_dual_degenerate_tableaux_agree_through_perturbation(monkeypatch):
    rng = np.random.default_rng(4)
    perturbed = 0
    for _ in range(12):
        m = int(rng.integers(25, 32))
        tab, basis = _dual_degenerate_tableau(rng, m, 2 * m)
        out, final_tab, final_basis = _run_both(tab, basis, loops=DUAL)
        assert out[0] != STATUS_ITER_LIMIT
        # Replaying the oracle with the perturbation disabled shows whether
        # it was applied and changed the pivot sequence.
        with monkeypatch.context() as patch:
            patch.setattr(scalar_kernel, "_DEGENERATE_STREAK", 10**9)
            plain_basis = basis.copy()
            plain = scalar_dual_pivot_loop(tab.copy(), plain_basis, 2000, TOL)
        if plain != out or not np.array_equal(plain_basis, final_basis):
            perturbed += 1
            # Every true reduced cost is zero here, so once the perturbation
            # is taken out the cost row is zero again, up to the rounding of
            # the carried shift.
            assert np.all(np.abs(final_tab[m, : 2 * m]) <= 1e-12)
    assert perturbed >= 3


def test_dual_infeasible_row():
    # Row 0 needs x0 + x1 = -1 with x >= 0: no entry is negative.
    tab = np.array(
        [
            [1.0, 1.0, 1.0, 0.0, -1.0],
            [-1.0, 2.0, 0.0, 1.0, -0.5],
            [1.0, 1.0, 0.0, 0.0, 0.0],
        ]
    )
    (status, iterations), _, _ = _run_both(tab, np.array([2, 3], dtype=np.int64), loops=DUAL)
    assert status == STATUS_INFEASIBLE and iterations == 1


def test_dual_iteration_limit_counts_every_pivot():
    rng = np.random.default_rng(12)
    hits = 0
    for _ in range(40):
        tab, basis = _dual_tableau(rng, 8, 16)
        tab[:8, 16] = -np.abs(tab[:8, 16])
        (status, iterations), _, _ = _run_both(tab, basis, max_iter=3, loops=DUAL)
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

