import importlib.util

import numpy as np
import pytest

from cfcert.milp import (
    EQ,
    GE,
    LE,
    LinearProgram,
    MilpProblem,
    branch_and_bound,
    encode_nearest_ce,
    encode_output_bound,
    simplex_solve,
)

from cfcert._kernels import STATUS_INFEASIBLE, STATUS_ITER_LIMIT, STATUS_OPTIMAL

from conftest import (
    cap_warm_dual_loops,
    enumerate_pattern_bound,
    enumerate_vertices,
    highs_optimum,
    random_network,
)


def _lp(c, A, rel, rhs, lo, hi, sense="min"):
    return LinearProgram(c=c, A=A, rel=rel, rhs=rhs, lo=lo, hi=hi, sense=sense)


HIGHS_STATUS = {0: "optimal", 2: "infeasible", 3: "unbounded"}


def _random_lp(rng):
    """Small LP with LE/GE/EQ rows, rhs of both signs, and one bound kind per
    variable: fixed, free, lower-only, upper-only or boxed."""
    n = int(rng.integers(2, 7))
    m = int(rng.integers(1, 6))
    lo, hi = rng.uniform(-2.0, 0.0, n), rng.uniform(0.0, 2.0, n)
    kind = rng.integers(0, 5, n)
    hi[kind == 0] = lo[kind == 0]
    lo[kind == 1], hi[kind == 1] = -np.inf, np.inf
    hi[kind == 2] = np.inf
    lo[kind == 3] = -np.inf
    A = rng.normal(size=(m, n)) * (rng.random((m, n)) < 0.8)
    rel = rng.choice([LE, GE, EQ], m, p=[0.4, 0.4, 0.2])
    return _lp(
        rng.normal(size=n), A, rel, rng.normal(size=m), lo, hi,
        sense="min" if rng.random() < 0.5 else "max",
    )


def _linprog(lp):
    """(status, objective) of an LP according to scipy's HiGHS LP solver."""
    from scipy.optimize import linprog

    sign = 1.0 if lp.sense == "min" else -1.0
    le, eq = lp.rel != EQ, lp.rel == EQ
    flip = np.where(lp.rel == GE, -1.0, 1.0)
    ref = linprog(
        sign * lp.c,
        A_ub=(flip[:, None] * lp.A)[le] if le.any() else None,
        b_ub=(flip * lp.rhs)[le] if le.any() else None,
        A_eq=lp.A[eq] if eq.any() else None,
        b_eq=lp.rhs[eq] if eq.any() else None,
        bounds=list(zip(lp.lo, lp.hi)),
        method="highs",
    )
    assert ref.status in HIGHS_STATUS, ref.message
    return HIGHS_STATUS[ref.status], (sign * ref.fun if ref.status == 0 else None)


def _assert_feasible(lp, x, tol=1e-7):
    row = lp.A @ x
    assert np.all(x >= lp.lo - tol) and np.all(x <= lp.hi + tol)
    assert np.all(row[lp.rel == LE] <= lp.rhs[lp.rel == LE] + tol)
    assert np.all(row[lp.rel == GE] >= lp.rhs[lp.rel == GE] - tol)
    assert np.all(np.abs(row[lp.rel == EQ] - lp.rhs[lp.rel == EQ]) <= tol)


def _loop_standardise(lp):
    """``simplex._standardise`` as a loop over the variables: the reference
    its array form must match bit for bit."""
    from cfcert.milp.simplex import _FIXED, _FREE, _SHIFT_HI, _SHIFT_LO

    n, m0 = lp.num_vars, lp.A.shape[0]
    kinds, consts = np.empty(n, dtype=np.int64), np.zeros(n)
    cols, boxed, ny = [], [], 0
    for j in range(n):
        lo, hi = lp.lo[j], lp.hi[j]
        if lo > hi:
            return None
        if lo == hi and np.isfinite(lo):
            kinds[j], consts[j] = _FIXED, lo
            cols.append(-1)
            continue
        if np.isfinite(lo):
            kinds[j], consts[j] = _SHIFT_LO, lo
            if np.isfinite(hi):
                boxed.append(j)
        elif np.isfinite(hi):
            kinds[j], consts[j] = _SHIFT_HI, hi
        else:
            kinds[j] = _FREE
        cols.append(ny)
        ny += 2 if kinds[j] == _FREE else 1
    A, c = np.zeros((m0 + len(boxed), ny)), np.zeros(ny)
    sign = 1.0 if lp.sense == "min" else -1.0
    for j in range(n):
        col = cols[j]
        if kinds[j] == _SHIFT_HI:
            A[:m0, col], c[col] = -lp.A[:, j], -sign * lp.c[j]
        elif kinds[j] != _FIXED:
            A[:m0, col], c[col] = lp.A[:, j], sign * lp.c[j]
        if kinds[j] == _FREE:
            A[:m0, col + 1], c[col + 1] = -lp.A[:, j], -sign * lp.c[j]
    b = np.concatenate([lp.rhs - lp.A @ consts, np.zeros(len(boxed))])
    rel = np.concatenate([lp.rel, np.full(len(boxed), LE)])
    for i, j in enumerate(boxed):
        A[m0 + i, cols[j]] = 1.0
        b[m0 + i] = lp.hi[j] - lp.lo[j]
    return A, b, rel, c, kinds, consts, np.array(cols, dtype=np.int64), np.array(boxed, dtype=np.int64)


class TestSimplex:
    def test_single_var_box(self):
        lp = _lp([1.0], [[1.0], [1.0]], [GE, LE], [3.0, 5.0], [-np.inf], [np.inf])
        res = simplex_solve(lp)
        assert res.optimal and res.objective == pytest.approx(3.0)

    def test_two_var_polytope_matches_vertex_oracle(self):
        lp = _lp([1.0, 1.0], [[1, 2], [3, 1]], [LE, LE], [4, 6], [0, 0], [np.inf] * 2, "max")
        res = simplex_solve(lp)
        oracle, vertex = enumerate_vertices(lp)
        assert res.objective == pytest.approx(oracle, abs=1e-9)
        assert np.allclose(res.x, [1.6, 1.2])

    def test_infeasible(self):
        lp = _lp([1.0], [[1.0], [1.0]], [GE, LE], [5.0, 3.0], [-np.inf], [np.inf])
        assert simplex_solve(lp).status == "infeasible"

    def test_unbounded(self):
        lp = _lp([-1.0], [[1.0]], [GE], [0.0], [-np.inf], [np.inf])
        assert simplex_solve(lp).status == "unbounded"

    def test_unbounded_without_constraints(self):
        no_rows = np.zeros((0, 1))
        lp = _lp([1.0], no_rows, [], [], [0.0], [np.inf], "max")
        assert simplex_solve(lp).status == "unbounded"
        free = _lp([1.0], no_rows, [], [], [-np.inf], [np.inf])
        assert simplex_solve(free).status == "unbounded"

    def test_bounded_without_constraints(self):
        lp = _lp([1.0, -1.0], np.zeros((0, 2)), [], [], [2.0, -np.inf], [np.inf, 3.0])
        res = simplex_solve(lp)
        assert res.optimal and res.objective == pytest.approx(-1.0)
        assert np.allclose(res.x, [2.0, 3.0])
        # Every variable fixed: no row and no column.
        lp = _lp([1.0, -1.0], np.zeros((0, 2)), [], [], [2.0, 0.1], [2.0, 0.1])
        res = simplex_solve(lp)
        assert res.optimal and list(res.x) == [2.0, 0.1] and res.objective == 2.0 - 0.1

    def test_equality_rows(self):
        lp = _lp([2.0, 3.0], [[1, 1]], [EQ], [1.0], [0, 0], [0.4, np.inf])
        res = simplex_solve(lp)
        assert res.objective == pytest.approx(2.6)
        assert np.allclose(res.x, [0.4, 0.6])

    def test_iteration_limit_is_a_status(self, monkeypatch):
        # The GE row starts infeasible, so the dual loop pivots; the max
        # objective then needs primal pivots.  Capping either loop of this
        # cold solve at one pivot ends it with the status.
        from cfcert.milp import simplex

        lp = _lp(
            [1.0, 1.0], [[1, 2], [3, 1], [1, 1]], [LE, LE, GE], [4, 6, 1], [0, 0], [np.inf] * 2, "max"
        )
        assert simplex_solve(lp).optimal
        for name in ("dual_pivot_loop", "pivot_loop"):
            real = getattr(simplex, name)
            calls = []

            def capped(tab, basis, max_iter, tol, real=real):
                calls.append(max_iter)
                return real(tab, basis, 1, tol)

            with monkeypatch.context() as patch:
                patch.setattr(simplex, name, capped)
                assert simplex_solve(lp).status == "iteration_limit"
            assert len(calls) == 1, name

    def test_degenerate_and_duplicated_equality_rows(self):
        # A degenerate equality system (x0 = 0 and x0 + x1 + x2 = 0), and a
        # duplicated equality row.
        lp = _lp([-2.0, 2.0, 1.0], [[1, 0, 0], [-1, -1, -1]], [EQ, EQ], [0, 0], [0] * 3, [2] * 3)
        res = simplex_solve(lp)
        assert res.optimal and res.objective == pytest.approx(enumerate_vertices(lp)[0])
        lp = _lp([1.0, -1.0], [[1, 1], [2, 2]], [EQ, EQ], [1, 2], [0, 0], [np.inf] * 2)
        res = simplex_solve(lp)
        assert res.optimal and res.objective == pytest.approx(-1.0)
        assert res.objective == pytest.approx(enumerate_vertices(lp)[0])

    def test_rows_of_every_relation_and_rhs_sign(self):
        lps = [
            # LE rows with rhs >= 0, a GE row with rhs < 0 and boxed variables.
            _lp(
                [1.0, -1.0, 2.0],
                [[1, 1, 0], [0, 1, 1], [1, -1, 1]],
                [LE, LE, GE],
                [2.0, 0.0, -1.0],
                [0, 0, 0],
                [1, np.inf, 1],
                "max",
            ),
            # A GE row with rhs 0.
            _lp([1.0, 2.0], [[1, -1], [1, 1]], [GE, LE], [0.0, 3.0], [0, 0], [np.inf] * 2, "max"),
            # An equality row next to an LE row.
            _lp([1.0, 1.0], [[1, 1], [1, -1]], [LE, EQ], [2.0, 0.5], [0, 0], [np.inf] * 2),
        ]
        for lp in lps:
            res = simplex_solve(lp)
            assert res.optimal and res.objective == pytest.approx(enumerate_vertices(lp)[0])
            _assert_feasible(lp, res.x)
        assert simplex_solve(lps[2]).objective == pytest.approx(0.5)

    def test_random_lps_match_vertex_enumeration(self):
        rng = np.random.default_rng(3)
        solved = 0
        for _ in range(100):
            n = int(rng.integers(2, 4))
            m = int(rng.integers(1, 4))
            lp = _lp(
                rng.normal(size=n),
                rng.normal(size=(m, n)),
                rng.integers(0, 2, m),
                rng.normal(size=m),
                np.zeros(n),
                rng.uniform(0.5, 3.0, n),
                sense="min" if rng.random() < 0.5 else "max",
            )
            res = simplex_solve(lp)
            oracle, _ = enumerate_vertices(lp)
            if oracle is None:
                assert res.status == "infeasible"
            else:
                assert res.optimal
                assert res.objective == pytest.approx(oracle, abs=1e-8)
                solved += 1
        assert solved > 50  # the generator must exercise the optimal path

    def test_feasibility_of_returned_point(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            n = int(rng.integers(2, 6))
            A = rng.normal(size=(4, n))
            lp = _lp(
                rng.normal(size=n),
                A,
                [LE] * 4,
                np.abs(A).sum(axis=1),
                np.zeros(n),
                np.ones(n),
            )
            res = simplex_solve(lp)
            assert res.optimal
            assert np.all(lp.A @ res.x <= lp.rhs + 1e-7)
            assert np.all(res.x >= -1e-7) and np.all(res.x <= 1 + 1e-7)

    def test_random_lps_match_highs(self):
        pytest.importorskip("scipy")
        rng = np.random.default_rng(11)
        seen = {name: 0 for name in HIGHS_STATUS.values()}
        for _ in range(300):
            lp = _random_lp(rng)
            status, objective = _linprog(lp)
            res = simplex_solve(lp)
            assert res.status == status
            seen[res.status] += 1
            if res.optimal:
                assert res.objective == pytest.approx(objective, abs=1e-7)
                _assert_feasible(lp, res.x)
        assert min(seen.values()) >= 20, seen  # every status is exercised

    def test_warm_started_children_match_cold_solves_and_highs(self):
        # Solve a random LP, tighten one or two finite bounds (raise lo, lower
        # hi, or fix), re-solve from the parent's tableau, then do the same
        # to that child: the warm result must match the cold solve and HiGHS.
        pytest.importorskip("scipy")
        rng = np.random.default_rng(13)
        seen = {name: 0 for name in HIGHS_STATUS.values()}
        for _ in range(600):
            lp = _random_lp(rng)
            parent = simplex_solve(lp)
            for _level in range(2):
                if not parent.optimal:
                    break
                lo, hi = lp.lo.copy(), lp.hi.copy()
                for j in rng.choice(lp.num_vars, int(rng.integers(1, 3)), replace=False):
                    # A far target often makes the child infeasible.
                    t = parent.x[j] + rng.normal() * (3.0 if rng.random() < 0.3 else 0.5)
                    side = int(rng.integers(0, 3))  # 0: lo, 1: hi, 2: both (fix)
                    if side != 1 and np.isfinite(lo[j]):
                        lo[j] = max(lo[j], t)
                    if side != 0 and np.isfinite(hi[j]):
                        hi[j] = min(hi[j], t)
                child = _lp(lp.c, lp.A, lp.rel, lp.rhs, lo, hi, lp.sense)
                kept = parent._tableau
                before = kept.tab.copy(), kept.basis.copy(), kept.consts.copy()
                warm = simplex_solve(child, warm=parent)
                after = kept.tab, kept.basis, kept.consts
                assert all(map(np.array_equal, after, before))  # not changed in place
                cold = simplex_solve(child)
                status, objective = _linprog(child)
                assert warm.status == cold.status == status
                seen[status] += 1
                if warm.optimal:
                    assert warm.objective == pytest.approx(objective, abs=1e-7)
                    assert cold.objective == pytest.approx(objective, abs=1e-7)
                    _assert_feasible(child, warm.x)
                    fixed = child.lo == child.hi
                    assert np.array_equal(warm.x[fixed], child.lo[fixed])
                lp, parent = child, warm
        assert seen["optimal"] >= 100 and seen["infeasible"] >= 50, seen
        assert seen["unbounded"] == 0  # tightening keeps a bounded optimum

    def test_warm_start_rejects_looser_bounds(self):
        lp = _lp([1.0, 1.0], [[1, 1]], [GE], [1.0], [0, 0], [1, 1])
        parent = simplex_solve(lp)
        looser = _lp([1.0, 1.0], [[1, 1]], [GE], [1.0], [0, 0], [2, 1])
        with pytest.raises(ValueError):
            simplex_solve(looser, warm=parent)
        with pytest.raises(ValueError):
            simplex_solve(lp, warm=simplex_solve(_lp([1.0], [[1.0]], [GE], [2.0], [0.0], [1.0])))
        # Only finite bounds move: fixing a lower-only variable, tightening a
        # free one, or raising the lower bound of an upper-only one is refused.
        inf = np.inf
        lp = _lp(
            [1.0, 1.0, -1.0], [[1, 1, 1], [0, 1, 0]], [LE, EQ], [3.0, 0.5],
            [0, -inf, -inf], [inf, inf, 2],
        )
        parent = simplex_solve(lp)
        assert parent.optimal
        for lo, hi in (
            ([0.5, -inf, -inf], [0.5, inf, 2]),
            ([0, -1, -inf], [inf, inf, 2]),
            ([0, -inf, 1], [inf, inf, 2]),
        ):
            with pytest.raises(ValueError, match="finite"):
                simplex_solve(lp.with_bounds(lo, hi), warm=parent)

    @staticmethod
    def _cold_columns(monkeypatch, lp):
        """(result, rows, columns) of the cold tableau, less the cost row and
        the right-hand side."""
        from cfcert.milp import simplex

        shapes = []
        cold_tableau = simplex._cold_tableau

        def spy(A, b, rel, c):
            out = cold_tableau(A, b, rel, c)
            shapes.append(out[0].shape)
            return out

        monkeypatch.setattr(simplex, "_cold_tableau", spy)
        res = simplex_solve(lp)
        (rows, cols), = shapes
        return res, rows - 1, cols - 1

    def test_cold_tableau_has_one_slack_per_le_row_and_no_other_column(self, monkeypatch):
        # Three rows plus the bound rows of the two boxed variables.
        lp = _lp(
            [1.0, -1.0, 2.0],
            [[1, 1, 0], [0, 1, 1], [1, -1, 1]],
            [LE, LE, GE],
            [2.0, 0.0, -1.0],
            [0, 0, 0],
            [1, np.inf, 1],
            "max",
        )
        res, rows, cols = self._cold_columns(monkeypatch, lp)
        assert (rows, cols) == (5, 3 + 5)
        assert res.optimal
        # An equality row is two LE rows; a free variable is two columns.
        lp = _lp([1.0, 1.0], [[1, 1], [1, -1]], [LE, EQ], [2.0, 0.5], [0, -np.inf], [np.inf] * 2)
        res, rows, cols = self._cold_columns(monkeypatch, lp)
        assert (rows, cols) == (3, 3 + 3)
        assert res.optimal and res.objective == pytest.approx(enumerate_vertices(lp)[0])

    def test_infeasible_lps_end_in_the_dual_phase(self, monkeypatch):
        from cfcert.milp import simplex

        lps = [
            # A box that misses a row.
            _lp([1.0, 1.0], [[1, 1]], [GE], [3.0], [0, 0], [1, 1]),
            # Contradictory rows.
            _lp([1.0], [[1.0], [1.0]], [GE, LE], [5.0, 3.0], [-np.inf], [np.inf]),
            # An equality pair that no point meets.
            _lp([1.0, -1.0], [[1, 1], [1, 1]], [EQ, EQ], [1.0, 2.0], [0, 0], [np.inf] * 2, "max"),
            # An equality row outside the box.
            _lp([1.0, 1.0], [[1, -1]], [EQ], [-2.0], [0, 0], [1, 1]),
        ]
        dual, primal = simplex.dual_pivot_loop, simplex.pivot_loop
        statuses = []

        def dual_spy(tab, basis, max_iter, tol):
            out = dual(tab, basis, max_iter, tol)
            statuses.append(out[0])
            return out

        def primal_spy(tab, basis, max_iter, tol):
            raise AssertionError("an infeasible LP reached the primal loop")

        monkeypatch.setattr(simplex, "dual_pivot_loop", dual_spy)
        monkeypatch.setattr(simplex, "pivot_loop", primal_spy)
        for lp in lps:
            statuses.clear()
            assert simplex_solve(lp).status == "infeasible"
            assert statuses == [STATUS_INFEASIBLE]
        # An empty variable box needs no pivot at all.
        assert simplex_solve(_lp([1.0], [[1.0]], [LE], [1.0], [1.0], [0.0])).status == "infeasible"
        if importlib.util.find_spec("scipy") is not None:
            assert all(_linprog(lp)[0] == "infeasible" for lp in lps)

    def test_fixed_variables_come_back_exactly(self, monkeypatch):
        third, tenth = 1.0 / 3.0, 0.1
        lp = _lp(
            [1.0, 2.0, -1.0],
            [[1, 1, 1], [1, -1, 3]],
            [LE, GE],
            [2.0, -1.0],
            [0.0, third, tenth],
            [np.inf, third, tenth],
        )
        res, rows, cols = self._cold_columns(monkeypatch, lp)
        assert cols == 1 + 2  # x0 and the two slacks; x1, x2 have no column
        assert res.optimal and res.x[1] == third and res.x[2] == tenth
        assert res.objective == pytest.approx(2.0 * third - tenth)

    def test_standard_form_matches_the_per_variable_loop(self):
        from cfcert.milp.simplex import _standardise

        rng = np.random.default_rng(17)
        lps = [_random_lp(rng) for _ in range(300)]
        lps.append(_lp([1.0], [[1.0]], [LE], [1.0], [1.0], [0.0]))  # an empty box
        for hidden in ([8], [8, 8]):
            net = random_network(rng, n_in=3, hidden=hidden)
            x = rng.uniform(0, 1, 3)
            lps.append(encode_nearest_ce(net, x, target=1, margin=0.05).problem.lp)
            lps.append(encode_output_bound(net, x, 0.05, 0, "max").problem.lp)
        for lp in lps:
            want, got = _loop_standardise(lp), _standardise(lp)
            if want is None:
                assert got is None
                continue
            assert len(got) == len(want)
            for a, b in zip(got, want):
                assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestBranchAndBound:
    def test_no_binaries_equals_simplex(self):
        lp = _lp([1.0, -2.0], [[1, 1]], [LE], [1.5], [0, 0], [1, 1])
        pure = simplex_solve(lp)
        milp = branch_and_bound(MilpProblem(lp=lp))
        assert milp.objective == pytest.approx(pure.objective)

    def test_tiny_knapsack(self):
        lp = _lp([3.0, 2.0], [[1.0, 1.0]], [LE], [1.0], [0, 0], [1, 1], "max")
        res = branch_and_bound(MilpProblem(lp=lp, binary_idx=[0, 1]))
        assert res.objective == pytest.approx(3.0)
        assert np.allclose(res.x, [1, 0], atol=1e-6)

    def test_integrality_of_solution(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = 5
            lp = _lp(
                rng.normal(size=n),
                rng.normal(size=(3, n)),
                [LE] * 3,
                rng.uniform(0.5, 2.0, 3),
                np.zeros(n),
                np.ones(n),
                "max",
            )
            res = branch_and_bound(MilpProblem(lp=lp, binary_idx=np.arange(n)))
            if res.optimal:
                frac = np.abs(res.x - np.round(res.x))
                assert frac.max() <= 1e-6

    def test_node_limit_status(self):
        # The first layer is a box, so a bound problem branches only from a
        # second hidden layer on.
        rng = np.random.default_rng(30)
        for _ in range(5):
            net = random_network(rng, n_in=3, hidden=[8, 8])
            problem = encode_output_bound(net, rng.uniform(0, 1, 3), 0.1, 0, "min").problem
            if branch_and_bound(problem).nodes > 1:
                break
        res = branch_and_bound(problem, node_limit=1)
        assert res.status == "node_limit" and res.nodes == 1 and not res.optimal

    def test_iteration_limit_stops_the_search(self, binary_net, monkeypatch):
        enc = encode_output_bound(binary_net, [1.0, 2.0], 0.6, 0, "min")
        monkeypatch.setattr(
            "cfcert.milp.simplex.pivot_loop",
            lambda tab, basis, max_iter, tol: (STATUS_ITER_LIMIT, max_iter),
        )
        res = branch_and_bound(enc.problem)
        assert res.status == "iteration_limit" and res.nodes == 1 and not res.optimal

    def test_child_iteration_limit_stops_the_search(self, monkeypatch):
        # The root solves; the first child's dual simplex reaches its cap.
        rng = np.random.default_rng(20)
        net = random_network(rng, n_in=3, hidden=[8])
        problem = encode_nearest_ce(net, rng.uniform(0, 1, 3), target=1).problem
        assert branch_and_bound(problem).nodes > 1
        cap_warm_dual_loops(monkeypatch, 1)
        res = branch_and_bound(problem)
        assert res.status == "iteration_limit" and res.nodes > 1 and not res.optimal

    def test_nodes_do_not_validate_the_lp_again(self, monkeypatch):
        rng = np.random.default_rng(20)
        net = random_network(rng, n_in=3, hidden=[8])
        problem = encode_nearest_ce(net, rng.uniform(0, 1, 3), target=1).problem
        calls = []
        post_init = LinearProgram.__post_init__

        def spy(self):
            calls.append(self)
            post_init(self)

        monkeypatch.setattr(LinearProgram, "__post_init__", spy)
        res = branch_and_bound(problem)
        assert res.optimal and res.nodes > 1
        assert not calls

    def test_with_bounds_shares_the_rows(self):
        lp = _lp([1.0, 2.0], [[1, 1]], [LE], [1.0], [0, 0], [1, 1], "max")
        tight = lp.with_bounds([0, 0], [1, 0.5])
        assert tight.c is lp.c and tight.A is lp.A and tight.rel is lp.rel and tight.rhs is lp.rhs
        assert tight.sense == "max" and list(tight.hi) == [1.0, 0.5] and list(lp.hi) == [1.0, 1.0]
        with pytest.raises(ValueError):
            lp.with_bounds([0], [1])

    def test_nan_bounds_are_rejected(self):
        # A NaN bound used to read as no bound: min -x, x <= 5 over [0, nan] gave x = 5.
        for lo, hi in (([0.0], [np.nan]), ([np.nan], [1.0])):
            with pytest.raises(ValueError, match="NaN"):
                _lp([-1.0], [[1.0]], [LE], [5.0], lo, hi)
        lp = _lp([-1.0], [[1.0]], [LE], [5.0], [0.0], [1.0])
        for lo, hi in (([0.0], [np.nan]), ([np.nan], [1.0])):
            with pytest.raises(ValueError, match="NaN"):
                lp.with_bounds(lo, hi)

    def test_binary_bounds_must_each_be_zero_or_one(self):
        lp = _lp([1.0, 1.0], [[1, 1]], [LE], [1.0], [0, 0], [1, 1])
        MilpProblem(lp=lp.with_bounds([0, 1], [1, 1]), binary_idx=[0, 1])  # a fixed binary
        for lo, hi in (
            ([0, 0], [1, np.inf]), ([-np.inf, 0], [1, 1]), ([0, 0], [2, 1]), ([0, -1], [1, 1]),
            ([0.3, 0], [1, 1]),  # feasible binaries, but branching would loosen 0.3 to 0
        ):
            with pytest.raises(ValueError, match="binary bounds"):
                MilpProblem(lp=lp.with_bounds(lo, hi), binary_idx=[0, 1])
        MilpProblem(lp=lp.with_bounds([0, -1], [1, 1]), binary_idx=[0])  # x1 is continuous

    def test_children_keep_the_root_tableau_shape(self, monkeypatch):
        # A child moves right-hand sides: no row or column is ever added.
        from cfcert.milp import branch_bound

        real_solve = branch_bound.simplex_solve
        shapes = []

        def solve(lp, warm=None):
            res = real_solve(lp, warm=warm)
            if res.optimal:
                shapes.append((warm is not None, res._tableau.tab.shape))
            return res

        monkeypatch.setattr(branch_bound, "simplex_solve", solve)
        rng = np.random.default_rng(20)
        net = random_network(rng, n_in=3, hidden=[8])
        problem = encode_nearest_ce(net, rng.uniform(0, 1, 3), target=1).problem
        assert branch_and_bound(problem).nodes > 1
        (root, root_shape), *children = shapes
        assert not root and len(children) > 1
        assert all(warm and shape == root_shape for warm, shape in children)

    def test_infeasible_milp(self):
        lp = _lp([1.0], [[1.0]], [GE], [2.0], [0.0], [1.0])
        res = branch_and_bound(MilpProblem(lp=lp, binary_idx=[0]))
        assert res.status == "infeasible"

    def test_matches_pattern_enumeration_on_random_networks(self):
        rng = np.random.default_rng(6)
        for _ in range(12):
            net = random_network(rng, hidden=[int(rng.integers(2, 6))])
            x = rng.uniform(0, 1, net.input_dim)
            delta = float(rng.uniform(0.01, 0.15))
            for direction in ("min", "max"):
                enc = encode_output_bound(net, x, delta, 0, direction)
                got = branch_and_bound(enc.problem).objective
                want = enumerate_pattern_bound(net, x, delta, 0, direction)
                assert got == pytest.approx(want, abs=1e-7)

    def test_matches_highs_on_16x16_networks(self):
        # Two hidden layers of 16 ReLUs are beyond pattern enumeration; HiGHS
        # solves the same encoded MILP independently.
        pytest.importorskip("scipy")
        rng = np.random.default_rng(7)
        for _ in range(6):
            net = random_network(rng, hidden=[16, 16])
            x = rng.uniform(0, 1, net.input_dim)
            delta = float(rng.uniform(0.01, 0.05))
            for direction in ("min", "max"):
                problem = encode_output_bound(net, x, delta, 0, direction).problem
                got = branch_and_bound(problem)
                assert got.optimal
                assert got.objective == pytest.approx(highs_optimum(problem), abs=1e-6)


    def test_nearest_ce_matches_highs_on_random_networks(self):
        # Nearest-CE trees branch, so most nodes are warm-started children.
        pytest.importorskip("scipy")
        rng = np.random.default_rng(14)
        nodes = problems = 0
        for hidden in ([8], [8, 8]):
            for _ in range(6):
                net = random_network(rng, n_in=3, hidden=hidden)
                x = rng.uniform(0, 1, 3)
                for target in (0, 1):
                    problem = encode_nearest_ce(net, x, target=target, margin=0.05).problem
                    got = branch_and_bound(problem)
                    if got.status == "infeasible":
                        assert highs_optimum(problem) is None
                        continue
                    assert got.optimal
                    assert got.objective == pytest.approx(highs_optimum(problem), abs=1e-6)
                    nodes += got.nodes
                    problems += 1
        assert problems >= 15 and nodes >= 5 * problems

    def test_perturbed_dual_children_match_cold_solves(self, monkeypatch):
        # Dual-degenerate children of 12x12 nearest-CE trees stall the dual
        # simplex until it perturbs the reduced costs.  A perturbation this
        # large leaves some restored costs negative, so the primal clean-up
        # pivots run as well.  Every warm-started node must still match its
        # cold solve, and the tree HiGHS.
        pytest.importorskip("scipy")
        from cfcert import _kernels
        from cfcert.milp import branch_bound, simplex

        monkeypatch.setattr(_kernels, "_PERTURBATION", 1e-3)
        real_loop, real_solve = simplex.dual_pivot_loop, simplex.simplex_solve
        warm_solve = [False]
        cleanups = []

        def loop(tab, basis, max_iter, tol):
            out = real_loop(tab, basis, max_iter, tol)
            if warm_solve[0]:  # a cold solve replaces the cost row anyway
                cleanups.append(out[0] == STATUS_OPTIMAL and bool(np.any(tab[-1, :-1] < -tol)))
            return out

        def solve(lp, warm=None):
            warm_solve[0] = warm is not None
            res = real_solve(lp, warm=warm)
            if warm is not None:
                warm_solve[0] = False
                cold = real_solve(lp)
                assert res.status == cold.status
                if res.optimal:
                    assert res.objective == pytest.approx(cold.objective, abs=1e-9)
            return res

        monkeypatch.setattr(simplex, "dual_pivot_loop", loop)
        monkeypatch.setattr(branch_bound, "simplex_solve", solve)
        rng = np.random.default_rng(61)
        net = random_network(rng, n_in=3, hidden=[12, 12])
        problem = encode_nearest_ce(net, rng.uniform(0, 1, 3), target=0, margin=0.1).problem
        got = branch_and_bound(problem)
        assert got.optimal and got.objective == pytest.approx(highs_optimum(problem), abs=1e-6)
        assert got.nodes > 100 and sum(cleanups) >= 2


class TestEncodeOutputBound:
    def test_example_network_min(self, binary_net):
        enc = encode_output_bound(binary_net, [2.1, 2.0], 0.05, 0, "min")
        res = branch_and_bound(enc.problem)
        assert res.objective == pytest.approx(0.95 * 1.895 - 1.05 * 2.205, abs=1e-9)

    def test_delta_zero_pins_forward_value(self, binary_net):
        from cfcert.models import forward

        rng = np.random.default_rng(7)
        for _ in range(10):
            x = rng.uniform(0, 2, 2)
            want = forward(binary_net, x)[0]
            for direction in ("min", "max"):
                enc = encode_output_bound(binary_net, x, 0.0, 0, direction)
                assert branch_and_bound(enc.problem).objective == pytest.approx(want, abs=1e-7)

    def test_multiclass_example_bounds(self, multi_net):
        want = {
            (0, "min"): 1.40,
            (0, "max"): 2.60,
            (1, "min"): 0.20,
            (1, "max"): 0.82,
            (2, "min"): -2.60,
            (2, "max"): -1.40,
        }
        for (cls, direction), value in want.items():
            enc = encode_output_bound(multi_net, [3.0, 1.0], 0.05, cls, direction)
            assert branch_and_bound(enc.problem).objective == pytest.approx(value, abs=1e-9)

    def test_bounds_dominate_interval_arithmetic(self):
        from cfcert.intervals import ShiftSet, abstract, interval_forward

        rng = np.random.default_rng(8)
        for _ in range(10):
            net = random_network(rng, hidden=[3, 3])
            x = rng.uniform(0, 1, net.input_dim)
            delta = float(rng.uniform(0.01, 0.1))
            lo_ia, hi_ia = interval_forward(abstract(net, ShiftSet("inf", delta)), x)
            lo = branch_and_bound(encode_output_bound(net, x, delta, 0, "min").problem).objective
            hi = branch_and_bound(encode_output_bound(net, x, delta, 0, "max").problem).objective
            assert lo >= lo_ia[0] - 1e-6
            assert hi <= hi_ia[0] + 1e-6

    def test_single_hidden_layer_matches_interval_arithmetic(self):
        from cfcert.intervals import ShiftSet, abstract, interval_forward

        rng = np.random.default_rng(9)
        for _ in range(10):
            net = random_network(rng, hidden=[int(rng.integers(2, 6))])
            x = rng.uniform(0, 1, net.input_dim)  # nonnegative inputs
            delta = float(rng.uniform(0.01, 0.1))
            lo_ia, hi_ia = interval_forward(abstract(net, ShiftSet("inf", delta)), x)
            lo = branch_and_bound(encode_output_bound(net, x, delta, 0, "min").problem).objective
            hi = branch_and_bound(encode_output_bound(net, x, delta, 0, "max").problem).objective
            assert lo == pytest.approx(lo_ia[0], abs=1e-7)
            assert hi == pytest.approx(hi_ia[0], abs=1e-7)

    def test_big_m_bounds_enclose_preactivations(self, binary_net):
        enc = encode_output_bound(binary_net, [1.0, 2.0], 0.05, 0, "min")
        assert np.all(enc.bigm.pre_lo[0] <= enc.bigm.pre_hi[0])

    def test_rejects_bad_args(self, binary_net):
        with pytest.raises(ValueError):
            encode_output_bound(binary_net, [1.0, 2.0], -0.1, 0, "min")
        with pytest.raises(ValueError):
            encode_output_bound(binary_net, [1.0, 2.0], 0.1, 5, "min")
        with pytest.raises(ValueError):
            encode_output_bound(binary_net, [1.0, 2.0], 0.1, 0, "down")


class TestEncodeNearestCe:
    def test_logistic_example(self, logistic_ref):
        enc = encode_nearest_ce(logistic_ref, [0.7, 0.5], target=1, margin=0.0)
        res = branch_and_bound(enc.problem)
        assert res.objective == pytest.approx(0.1, abs=1e-9)
        # Every point x1 = x2 in [0.5, 0.7] is optimal; any one will do.
        x1, x2 = res.x[enc.var_index["x"]]
        assert abs(x1 - x2) <= 1e-7 and 0.5 - 1e-7 <= x1 <= 0.7 + 1e-7

    def test_already_valid_input_returns_itself(self, logistic_ref):
        enc = encode_nearest_ce(logistic_ref, [0.2, 0.9], target=1, margin=0.0)
        res = branch_and_bound(enc.problem)
        assert res.objective == pytest.approx(0.0, abs=1e-9)

    def test_impossible_margin_infeasible(self, logistic_ref):
        enc = encode_nearest_ce(logistic_ref, [0.7, 0.5], target=1, margin=10.0)
        assert branch_and_bound(enc.problem).status == "infeasible"

    def test_optimum_beats_grid_search(self, binary_net):
        from cfcert.models import classify_batch

        enc = encode_nearest_ce(binary_net, [0.3, 0.9], target=1, margin=0.0)
        res = branch_and_bound(enc.problem)
        grid = np.arange(0, 1.0001, 0.001)
        a, b = (g.ravel() for g in np.meshgrid(grid, grid, indexing="ij"))
        valid = classify_batch(binary_net, np.column_stack([a, b])) == 1
        best = ((np.abs(a - 0.3) + np.abs(b - 0.9)) / 2)[valid].min()
        assert res.objective <= best + 1e-9

    def test_class_zero_target_is_strict(self):
        from cfcert.models import LogisticModel, classify

        m = LogisticModel(weights=[1.0, 1.0], bias=-0.5)
        enc = encode_nearest_ce(m, [0.9, 0.9], target=0, margin=0.0)
        res = branch_and_bound(enc.problem)
        x_prime = res.x[enc.var_index["x"]]
        assert classify(m, x_prime) == 0

    def test_multiclass_target_margins(self, multi_net):
        from cfcert.models import classify

        enc = encode_nearest_ce(multi_net, [0.2, 0.9], target=1, margin=0.05, box=(0.0, 3.0))
        res = branch_and_bound(enc.problem)
        assert res.optimal
        assert classify(multi_net, res.x[enc.var_index["x"]]) == 1
