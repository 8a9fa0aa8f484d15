from itertools import count, repeat

import numpy as np
import pytest

from cfcert._kernels import STATUS_ITER_LIMIT
from cfcert.data import synth_binary
from cfcert.generators import (
    CounterfactualRecord,
    _score_rows,
    gce,
    gce_robust,
    generate_all,
    generate_grid,
    get_candidates,
    get_robust_ce,
    iterative_robustify,
    mce,
    mce_robust,
    nnce,
    rnce,
)
from cfcert.intervals import ShiftSet
from cfcert.kdtree import KDTree
from cfcert.metrics import l1_normalized
from cfcert.models import (
    Layer,
    LogisticModel,
    ReluNetwork,
    classify,
    classify_batch,
    forward,
)
from cfcert.training import TrainConfig, train
from cfcert.verifier import is_delta_robust
from conftest import random_network


@pytest.fixture
def blob_problem():
    """Well-separated two-cluster data with a matching logistic model."""
    rng = np.random.default_rng(0)
    X = np.vstack(
        [
            rng.normal([0.25, 0.25], 0.07, (40, 2)),
            rng.normal([0.75, 0.75], 0.07, (40, 2)),
        ]
    ).clip(0, 1)
    model = LogisticModel(weights=[4.0, 4.0], bias=-4.0)
    return model, X


class TestMce:
    def test_worked_example(self, logistic_ref):
        r = mce(logistic_ref, [0.7, 0.5], 1)
        assert r.found and r.distance == pytest.approx(0.1, abs=1e-9)
        # Every point x1 = x2 in [0.5, 0.7] is a nearest CE; any one will do.
        x1, x2 = r.x_prime
        assert abs(x1 - x2) <= 1e-7 and 0.5 - 1e-7 <= x1 <= 0.7 + 1e-7

    def test_already_valid_returns_input(self, logistic_ref):
        r = mce(logistic_ref, [0.2, 0.9], 1)
        assert r.found and r.distance == pytest.approx(0.0, abs=1e-9)

    def test_impossible_margin(self, logistic_ref):
        r = mce(logistic_ref, [0.7, 0.5], 1, margin=10.0)
        assert not r.found and r.x_prime is None

    def test_inverted_box_is_rejected(self, binary_net):
        # An empty box used to make the MILP infeasible: found=False, silently.
        for box in ((1.0, 0.0), ([0.0, 0.0], [1.0, -0.5])):
            with pytest.raises(ValueError, match="box"):
                mce(binary_net, [1.0, 2.0], 1, box=box)
        with pytest.raises(ValueError, match="box"):
            mce_robust(binary_net, ShiftSet(np.inf, 0.05), [1.0, 2.0], 1, box=(1.0, 0.0))

    def test_non_finite_box_is_rejected(self, binary_net):
        for box in ((0.0, np.inf), (-np.inf, 1.0), (0.0, np.nan)):
            with pytest.raises(ValueError, match="box"):
                mce(binary_net, [1.0, 2.0], 1, box=box)

    def test_iteration_limit_means_not_found(self, binary_net, monkeypatch):
        monkeypatch.setattr(
            "cfcert.milp.simplex.pivot_loop",
            lambda tab, basis, max_iter, tol: (STATUS_ITER_LIMIT, max_iter),
        )
        r = mce(binary_net, [1.0, 2.0], 1)
        assert not r.found and r.x_prime is None

    def test_validity_of_result(self, binary_net, multi_net):
        rng = np.random.default_rng(1)
        for _ in range(5):
            x = rng.uniform(0, 1, 2)
            r = mce(binary_net, x, 1)
            if r.found:
                assert classify(binary_net, r.x_prime) == 1
            r3 = mce(multi_net, x, 3, box=(0.0, 3.0))
            if r3.found:
                assert classify(multi_net, r3.x_prime) == 3

    def test_optimality_against_grid(self, logistic_ref):
        x = np.array([0.55, 0.25])
        r = mce(logistic_ref, x, 1)
        grid = np.arange(0, 1.0001, 0.001)
        best = min(
            (abs(a - x[0]) + abs(b - x[1])) / 2
            for a in grid
            for b in grid
            if -a + b >= 0
        )
        assert r.distance <= best + 1e-3


class TestGce:
    def test_close_to_mce_on_seeded_instances(self, logistic_ref):
        rng = np.random.default_rng(2)
        for _ in range(20):
            x = rng.uniform(0, 1, 2)
            if classify(logistic_ref, x) == 1:
                continue
            exact = mce(logistic_ref, x, 1).distance
            approx = gce(logistic_ref, x, 1, lam=0.05, step=0.2, max_iters=400)
            assert approx.found
            assert approx.distance <= 2 * exact + 1e-6

    def test_valid_input_unchanged(self, logistic_ref):
        x = np.array([0.2, 0.9])
        r = gce(logistic_ref, x, 1)
        assert r.found and np.array_equal(r.x_prime, x)

    def test_huge_lambda_means_no_movement(self, logistic_ref):
        r = gce(logistic_ref, [0.7, 0.5], 1, lam=1e9, max_iters=50)
        assert not r.found

    def test_network_targets(self, multi_net):
        r = gce(multi_net, [0.4, 0.6], 2, lam=0.01, step=0.2, max_iters=400)
        if r.found:
            assert classify(multi_net, r.x_prime) == 2

    @pytest.mark.parametrize("target", [-1, 2])
    def test_binary_target_out_of_range(self, logistic_ref, binary_net, target):
        for model in (logistic_ref, binary_net):
            with pytest.raises(ValueError, match="binary target"):
                gce(model, [0.7, 0.5], target)

    @pytest.mark.parametrize("target", [0, 4])
    def test_multi_class_target_out_of_range(self, multi_net, target):
        with pytest.raises(ValueError, match="out of range"):
            gce(multi_net, [0.4, 0.6], target)
        with pytest.raises(ValueError, match="out of range"):
            generate_all("gce-r", multi_net, ShiftSet(np.inf, 0.01), [[0.4, 0.6]], target)

    @pytest.mark.parametrize(
        "knobs",
        [
            {"lam": -0.1},
            {"lam": np.nan},
            {"lam": np.inf},
            {"step": 0.0},
            {"step": -0.1},
            {"step": np.nan},
            {"step": np.inf},
            {"max_iters": -1},
        ],
    )
    def test_bad_knobs_are_rejected(self, logistic_ref, knobs):
        with pytest.raises(ValueError):
            gce(logistic_ref, [0.7, 0.5], 1, **knobs)

    def test_zero_lam_and_zero_iterations_are_allowed(self, logistic_ref):
        assert gce(logistic_ref, [0.7, 0.5], 1, lam=0.0, max_iters=100).found
        r = gce(logistic_ref, [0.7, 0.5], 1, max_iters=0)
        assert not r.found and r.iterations == 0


def _away_from_kinks(model, x, target, gap=1e-3):
    """True when no hidden pre-activation and no tie among the competing
    logits lies within ``gap`` of x's values, so the score is linear near x."""
    v = x
    for layer in model.layers[:-1]:
        pre = layer.weights @ v + (0.0 if layer.bias is None else layer.bias)
        if np.abs(pre).min() < gap:
            return False
        v = np.maximum(pre, 0.0)
    if model.num_outputs == 1:
        return True
    others = np.sort(np.delete(forward(model, x), target - 1))
    return others[-1] - others[-2] >= gap


def _class_score_and_grad(model, x, target):
    cls, score, grad = _score_rows(model, target, x[None, :])
    return cls[0], score[0], grad[0]


def _central_differences(model, x, target, h=1e-6):
    fd = np.empty_like(x)
    for j in range(x.size):
        e = np.zeros_like(x)
        e[j] = h
        up = _class_score_and_grad(model, x + e, target)[1]
        down = _class_score_and_grad(model, x - e, target)[1]
        fd[j] = (up - down) / (2 * h)
    return fd


class TestClassScoreAndGrad:
    @pytest.mark.parametrize("n_out", [1, 3])
    def test_gradient_matches_central_differences(self, n_out):
        rng = np.random.default_rng(11 + n_out)
        models = [random_network(rng, hidden=[4, 3], n_out=n_out) for _ in range(4)]
        models += [random_network(rng, hidden=[5], n_out=n_out) for _ in range(4)]
        if n_out == 1:
            models += [LogisticModel(weights=rng.normal(0, 1, 3), bias=0.2), LogisticModel(weights=[-1.0, 2.0])]
        targets = (0, 1) if n_out == 1 else (1, 2, 3)
        checked = 0
        for model in models:
            for _ in range(6):
                x = rng.uniform(0, 1, model.input_dim)
                for target in targets:
                    if isinstance(model, ReluNetwork) and not _away_from_kinks(model, x, target):
                        continue
                    cls, score, grad = _class_score_and_grad(model, x, target)
                    assert cls == classify(model, x)
                    np.testing.assert_allclose(
                        _central_differences(model, x, target), grad, rtol=1e-5, atol=1e-9
                    )
                    checked += 1
        assert checked >= 60

    def test_score_is_the_target_margin(self, binary_net, multi_net):
        x = np.array([0.3, 0.8])
        z = forward(binary_net, x)[0]
        assert _class_score_and_grad(binary_net, x, 1)[1] == z
        assert _class_score_and_grad(binary_net, x, 0)[1] == -z
        logits = forward(multi_net, x)
        cls, score, _ = _class_score_and_grad(multi_net, x, 2)
        assert cls == 3 and score == logits[1] - logits[2]

    def test_class_follows_the_point_tie_rules(self):
        binary = ReluNetwork(layers=(Layer(weights=[[1.0, -1.0]]),))
        assert _class_score_and_grad(binary, np.array([0.5, 0.5]), 1)[0] == 1
        tied = ReluNetwork(layers=(Layer(weights=[[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),))
        for target in (1, 2, 3):
            assert _class_score_and_grad(tied, np.array([0.6, 0.2]), target)[0] == 1


class TestNnce:
    def test_basic(self):
        model = LogisticModel(weights=[1.0, 1.0], bias=-1.0)
        X = np.array([[0.0, 0.0], [1.0, 1.0]])
        r = nnce(model, X, [0.0, 0.0], 1)
        assert r.found and np.array_equal(r.x_prime, [1.0, 1.0])

    def test_no_candidate(self):
        model = LogisticModel(weights=[1.0, 1.0], bias=-1.0)
        X = np.array([[0.0, 0.0], [0.1, 0.1]])
        assert not nnce(model, X, [0.0, 0.0], 1).found

    def test_tie_prefers_low_index(self):
        model = LogisticModel(weights=[1.0], bias=0.0)
        X = np.array([[0.4], [0.4], [0.6]])
        r = nnce(model, X, [0.5], 1)  # 0.4 and 0.6 equidistant, all class 1
        assert np.array_equal(r.x_prime, [0.4])


class TestIterativeRobustify:
    def test_margin_schedule_on_example_network(self, binary_net):
        shift = ShiftSet("inf", 0.05)
        r = mce_robust(binary_net, shift, [1.0, 2.0], 1, box=(0.0, 3.0))
        assert r.found and r.robust
        assert is_delta_robust(binary_net, shift, r.x_prime, target=1).robust
        assert r.trace == pytest.approx([0.1 * k for k in range(len(r.trace))])
        # Every earlier margin was too small: the nearest CE found at it is
        # not robust, which is why the schedule went on.
        for margin in r.trace[:-1]:
            earlier = mce(binary_net, [1.0, 2.0], 1, margin=margin, box=(0.0, 3.0))
            assert earlier.found
            assert not is_delta_robust(binary_net, shift, earlier.x_prime, target=1).robust

    def test_mce_robust_solves_no_round_past_the_robust_one(self, binary_net, monkeypatch):
        import cfcert.generators as generators

        margins = []

        def spy(model, x, target, margin=0.0, **kw):
            margins.append(margin)
            return mce(model, x, target, margin=margin, **kw)

        monkeypatch.setattr(generators, "mce", spy)
        r = mce_robust(binary_net, ShiftSet("inf", 0.05), [1.0, 2.0], 1, box=(0.0, 3.0))
        assert r.robust and 1 < r.iterations < 10
        assert margins == r.trace

    def test_immediate_success_is_single_call(self, logistic_ref):
        calls = []

        def rounds():
            for k in count():
                calls.append(k)
                yield mce(logistic_ref, [0.7, 0.5], 1, margin=1.0), 1.0

        r = iterative_robustify(rounds(), logistic_ref, ShiftSet("inf", 0.01), 1)
        assert r.robust and len(calls) == 1 and r.iterations == 1

    def test_draws_at_most_max_rounds(self, logistic_ref):
        drawn = []

        def rounds():
            for k in count():
                drawn.append(k)
                yield mce(logistic_ref, [0.7, 0.5], 1), 0.0

        r = iterative_robustify(rounds(), logistic_ref, ShiftSet("inf", 3.0), 1, max_rounds=3)
        assert r.found and r.robust is False and r.iterations == 3
        assert drawn == [0, 1, 2]

    def test_exhaustion_returns_last_not_robust(self, logistic_ref):
        shift = ShiftSet("inf", 3.0)  # unbeatable width on the unit box
        r = mce_robust(logistic_ref, shift, [0.7, 0.5], 1, max_rounds=3)
        assert r.found and r.robust is False and r.iterations == 3
        assert len(r.trace) == 3

    def test_records_take_only_the_base_point(self, logistic_ref):
        # The base record's x_prime and distance survive; every other field
        # is the wrapper's, whatever the base set it to.
        stale = dict(robust=False, shift=ShiftSet("inf", 9.0), iterations=7, trace=["stale"])
        for margin, robust, rounds in ((1.0, True, 1), (0.0, False, 2)):
            base_record = mce(logistic_ref, [0.7, 0.5], 1, margin=margin)
            stale_rounds = repeat((CounterfactualRecord(
                method="base", target_class=1, found=True, x_prime=base_record.x_prime,
                distance=base_record.distance, **stale,
            ), margin))
            shift = ShiftSet("inf", 0.5 if robust else 3.0)
            r = iterative_robustify(stale_rounds, logistic_ref, shift, 1, max_rounds=2, method="wrapped")
            assert r == CounterfactualRecord(
                method="wrapped", target_class=1, found=True, x_prime=base_record.x_prime,
                distance=base_record.distance, robust=robust, shift=shift, iterations=rounds,
                trace=[margin] * rounds,
            )
            assert r.x_prime is base_record.x_prime

    def test_total_failure(self, logistic_ref):
        rounds = repeat((mce(logistic_ref, [0.7, 0.5], 1, margin=50.0), 50.0))
        r = iterative_robustify(rounds, logistic_ref, ShiftSet("inf", 0.01), 1)
        assert not r.found and r.iterations == 10 and r.trace == [50.0] * 10

    def test_gce_robust_halves_lambda(self, logistic_ref):
        r = gce_robust(logistic_ref, ShiftSet("inf", 0.05), [0.7, 0.5], 1, lam=0.4, max_rounds=4)
        assert r.trace == pytest.approx([0.4, 0.2, 0.1, 0.05][: len(r.trace)])
        if r.found and r.robust:
            assert is_delta_robust(logistic_ref, ShiftSet("inf", 0.05), r.x_prime).robust


class TestGetCandidates:
    def test_plain_filter_matches_point_classification(self, blob_problem):
        model, X = blob_problem
        idx = get_candidates(model, X, ShiftSet("inf", 0.1), 1, robust_init=False)
        assert np.array_equal(idx, np.flatnonzero(classify_batch(model, X) == 1))

    def test_delta_zero_robust_init_equals_plain(self, blob_problem):
        model, X = blob_problem
        a = get_candidates(model, X, ShiftSet("inf", 0.0), 1, robust_init=False)
        b = get_candidates(model, X, ShiftSet("inf", 0.0), 1, robust_init=True)
        assert np.array_equal(a, b)

    def test_robust_init_strictly_smaller_on_boundary_points(self, blob_problem):
        model, X = blob_problem
        # Plant a barely-class-1 point that cannot survive the shift budget.
        X = np.vstack([X, [[0.5001, 0.5001]]])
        shift = ShiftSet("inf", 0.05)
        plain = get_candidates(model, X, shift, 1, robust_init=False)
        robust = get_candidates(model, X, shift, 1, robust_init=True)
        assert set(robust) < set(plain)
        for i in robust:
            assert is_delta_robust(model, shift, X[i], target=1).robust


class TestGetRobustCe:
    def test_first_neighbour_when_verified(self, blob_problem):
        model, X = blob_problem
        shift = ShiftSet("inf", 0.05)
        idx = get_candidates(model, X, shift, 1, robust_init=True)
        tree = KDTree(X[idx])
        r = get_robust_ce(model, shift, tree, X[0], 1, optimal=False, candidates_verified=True)
        assert r.found and r.iterations == 1

    def test_line_search_follows_update_rule(self, blob_problem, monkeypatch):
        # Stub predicate: robust iff the interpolation weight is >= 0.6.
        model, X = blob_problem
        x = np.zeros(2)
        x_nn = np.ones(2)
        tree = KDTree(x_nn[None, :])

        def fake_flags(models, shift, points, target=None, node_limit=0):
            # a = interpolant weight along the diagonal
            return [float(np.mean(point)) >= 0.6 - 1e-9 for point in points]

        monkeypatch.setattr("cfcert.generators.robust_flags", fake_flags)
        r = get_robust_ce(
            model, ShiftSet("inf", 0.1), tree, x, 1, optimal=True, candidates_verified=False
        )
        assert np.allclose(r.x_prime, [0.6, 0.6], atol=1e-9)

    def test_line_search_keeps_late_robust_hits(self, blob_problem, monkeypatch):
        # Non-convex robust set along the line: robust for a >= 0.7 and at
        # a = 0.4; the scan keeps updating, so the final hit wins.
        model, X = blob_problem
        x = np.zeros(2)
        tree = KDTree(np.ones((1, 2)))

        def fake_flags(models, shift, points, target=None, node_limit=0):
            weights = [float(np.mean(point)) for point in points]
            return [a >= 0.7 - 1e-9 or abs(a - 0.4) < 1e-9 for a in weights]

        monkeypatch.setattr("cfcert.generators.robust_flags", fake_flags)
        r = get_robust_ce(
            model, ShiftSet("inf", 0.1), tree, x, 1, optimal=True, candidates_verified=False
        )
        assert np.allclose(r.x_prime, [0.4, 0.4], atol=1e-9)

    @staticmethod
    def _cascade_matches_plain(model, X, monkeypatch):
        """rnce with the point-class / IA / MILP cascade returns bit for bit
        what it returns when every test is a full is_delta_robust call, and
        the cascade never hands a point of another class to the MILP.  The
        points the cascade hands to ``is_delta_robust``, with their targets."""
        shift = ShiftSet("inf", 0.05)
        rng = np.random.default_rng(4)
        queries = [X[0]] + [q for q in rng.uniform(0, 1, (40, 2)) if classify(model, q) == 0][:7]
        solved = []

        def spy(model_, shift_, point, target=None, node_limit=0):
            solved.append((np.array(point), target))
            return is_delta_robust(model_, shift_, point, target=target, node_limit=node_limit)

        monkeypatch.setattr("cfcert.verifier.is_delta_robust", spy)
        cascade = [rnce(model, X, q, shift, robust_init=True, optimal=True) for q in queries]
        assert all(classify(model, point) == target for point, target in solved)

        def plain(model_, shift_, points, target, node_limit):
            return [
                is_delta_robust(model_, shift_, p, target=target, node_limit=node_limit).robust
                for p in points
            ]

        monkeypatch.setattr("cfcert.generators.robust_flags", plain)
        for q, got in zip(queries, cascade):
            want = rnce(model, X, q, shift, robust_init=True, optimal=True)
            assert got.found and want.found
            assert np.array_equal(got.x_prime, want.x_prime)
            assert (got.iterations, got.robust) == (want.iterations, want.robust)
        return solved

    def test_cheap_tests_keep_the_records_of_the_plain_predicate(self, blob_problem, monkeypatch):
        # A model without hidden layers has an exact enclosure: the interval
        # pass settles every row the point class leaves open.
        assert not self._cascade_matches_plain(*blob_problem, monkeypatch)

    def test_cheap_tests_keep_the_records_of_the_plain_predicate_on_a_net(
        self, blob_problem, monkeypatch
    ):
        # The blob model with a ReLU layer in front (the identity on the unit
        # box): the rows the interval pass leaves open go to the MILP.
        logistic, X = blob_problem
        model = ReluNetwork(layers=(
            Layer(weights=np.eye(2), bias=np.zeros(2)),
            Layer(weights=logistic.weights[None, :], bias=[logistic.bias]),
        ))
        assert self._cascade_matches_plain(model, X, monkeypatch)

    def test_exhausted_tree_not_found(self, blob_problem):
        model, X = blob_problem
        shift = ShiftSet("inf", 0.1)
        losers = X[classify_batch(model, X) == 0][:5]  # wrong-class candidates
        r = get_robust_ce(model, shift, KDTree(losers), X[0], 1, candidates_verified=False)
        assert not r.found


class TestRnce:
    def test_batch_filters_its_candidates_once(self, blob_problem, monkeypatch):
        # rnce-tt over 5 inputs: one robust_flags call tests every training
        # row (it rejects the other class itself), then one per input runs
        # its line search; each record equals rnce's.
        import cfcert.generators as generators

        model, X = blob_problem
        shift = ShiftSet("inf", 0.05)
        inputs = X[classify_batch(model, X) == 0][:5]
        want = [rnce(model, X, x, shift, target=1, robust_init=True, optimal=True) for x in inputs]
        calls = []
        robust_flags = generators.robust_flags

        def spy(model_, shift_, points, target, node_limit):
            calls.append(len(points))
            return robust_flags(model_, shift_, points, target, node_limit)

        monkeypatch.setattr(generators, "robust_flags", spy)
        got = generators.generate_all("rnce-tt", model, shift, inputs, 1, X)
        assert len(inputs) == 5 and all(r.found for r in got)
        assert calls[0] == len(X)
        assert len(calls) == 1 + len(inputs)
        for g, w in zip(got, want):
            assert g.method == w.method == "rnce-tt"
            assert np.array_equal(g.x_prime, w.x_prime) and g.iterations == w.iterations

    def test_delta_zero_equals_nnce(self, blob_problem):
        # The second problem's candidates lie on a 0.1 grid, many of them
        # duplicates, so both searches must break exact ties alike.
        data = synth_binary(300, seed=0)
        net = train(data.X, data.y, (8,), TrainConfig(epochs=40, seed=0))
        rng = np.random.default_rng(3)
        for (model, X), queries in ((blob_problem, 100), ((net, np.round(data.X, 1)), 60)):
            for _ in range(queries):
                x = rng.uniform(0, 1, 2)
                target = 1 - classify(model, x)
                a = nnce(model, X, x, target)
                b = rnce(model, X, x, ShiftSet("inf", 0.0))
                assert a.found == b.found
                if a.found:
                    assert np.array_equal(a.x_prime, b.x_prime)
                    assert a.distance == b.distance

    def test_flag_combinations_agree_and_verify(self, blob_problem):
        model, X = blob_problem
        shift = ShiftSet("inf", 0.05)
        x = X[0]
        results = {}
        for ri in (False, True):
            for opt in (False, True):
                r = rnce(model, X, x, shift, robust_init=ri, optimal=opt)
                assert r.found
                assert is_delta_robust(model, shift, r.x_prime, target=1).robust
                assert classify(model, r.x_prime) == 1
                results[(ri, opt)] = r
        assert np.array_equal(results[(False, False)].x_prime, results[(True, False)].x_prime)
        # The line search never increases the distance.
        assert results[(False, True)].distance <= results[(False, False)].distance + 1e-12
        assert results[(True, True)].distance <= results[(True, False)].distance + 1e-12

    def test_not_found_when_no_robust_candidate(self, blob_problem):
        model, X = blob_problem
        r = rnce(model, X, X[0], ShiftSet("inf", 5.0), robust_init=True)
        assert not r.found

    def test_completeness_when_robust_point_exists(self, blob_problem):
        model, X = blob_problem
        shift = ShiftSet("inf", 0.05)
        exists = any(
            is_delta_robust(model, shift, p, target=1).robust
            for p in X[classify_batch(model, X) == 1]
        )
        assert exists
        for ri in (False, True):
            for opt in (False, True):
                assert rnce(model, X, X[0], shift, robust_init=ri, optimal=opt).found

    def test_determinism(self, blob_problem):
        model, X = blob_problem
        shift = ShiftSet("inf", 0.05)
        a = rnce(model, X, X[0], shift, robust_init=False, optimal=True)
        b = rnce(model, X, X[0], shift, robust_init=False, optimal=True)
        assert np.array_equal(a.x_prime, b.x_prime) and a.distance == b.distance

    def test_record_serialization(self, blob_problem):
        model, X = blob_problem
        r = rnce(model, X, X[0], ShiftSet("inf", 0.05))
        doc = r.to_dict()
        assert doc["method"] == "rnce-ff" and doc["found"] is True
        assert doc["shift"] == {"p": "inf", "delta": 0.05}
        assert doc["distance"] == pytest.approx(l1_normalized(np.array(doc["x_prime"]), X[0]))


class TestGenerate:
    def test_dispatch_matches_direct_calls(self, blob_problem):
        model, X = blob_problem
        shift = ShiftSet("inf", 0.05)
        x = X[0]
        direct = {
            "mce": mce(model, x, 1, margin=0.2),
            "mce-r": mce_robust(model, shift, x, 1, margin_step=0.3, max_rounds=4),
            "gce": gce(model, x, 1, lam=0.05),
            "gce-r": gce_robust(model, shift, x, 1, lam=0.05, max_rounds=4),
            "nnce": nnce(model, X, x, 1),
            "rnce-tf": rnce(model, X, x, shift, target=1, robust_init=True),
            "rnce-ft": rnce(model, X, x, shift, target=1, optimal=True),
        }
        for method, want in direct.items():
            (got,) = generate_all(
                method, model, shift, [x], 1, X, margin=0.2, margin_step=0.3, max_rounds=4,
                lam=0.05,
            )
            assert got.to_dict() == want.to_dict(), method

    def test_bare_rnce_is_unknown(self, blob_problem):
        # The flags live in the method name, as on the command line.
        model, X = blob_problem
        with pytest.raises(ValueError, match="unknown method 'rnce'"):
            generate_all("rnce", model, ShiftSet("inf", 0.05), X[:1], 1, X)
        with pytest.raises(TypeError, match="robust_init"):
            generate_all("rnce-ff", model, ShiftSet("inf", 0.05), X[:1], 1, X, robust_init=True)

    @pytest.mark.parametrize(
        "methods, knobs",
        [
            (["gce", "gce-r"], {"max_rounds": -1}),
            (["mce", "mce-r"], {"max_rounds": -1}),
            (["mce", "mce-r"], {"margin_step": -1.0}),
            (["nnce", "mce-r"], {"margin_step": np.nan}),
            (["mce", "gce"], {"lam": -1.0}),
            (["nnce", "mce"], {"margin": -1.0}),
        ],
    )
    def test_grid_checks_its_knobs_before_any_cell(self, blob_problem, monkeypatch, methods, knobs):
        import cfcert.generators as generators

        def no_batch(*args):
            raise AssertionError("a GCE batch ran before the knobs were checked")

        monkeypatch.setattr(generators, "_gce_rows", no_batch)
        model, X = blob_problem
        cells = []
        with pytest.raises(ValueError, match=next(iter(knobs))):
            cells.extend(generate_grid(methods, model, [ShiftSet("inf", 0.05)], X[:2], 1, X, **knobs))
        assert cells == []

    @pytest.mark.parametrize("method", ["nnce", "rnce-tf"])
    def test_data_method_without_rows_is_named(self, blob_problem, method):
        model, X = blob_problem
        shift = ShiftSet("inf", 0.05)
        match = f"method '{method}' needs the training rows X"
        with pytest.raises(ValueError, match=match):
            generate_all(method, model, shift, X[:2], 1)
        # The grid checks every method before it reads an input, an earlier
        # method's cell included.
        with pytest.raises(ValueError, match=match):
            generate_grid(["mce", method], model, [shift], X[:2], 1)

    def test_unknown_method(self, blob_problem):
        model, X = blob_problem
        for method in ("mce-x", "rnce-xy", "rnce-t"):
            with pytest.raises(ValueError, match="unknown method"):
                generate_all(method, model, ShiftSet("inf", 0.05), X[:1], 1, X)


ALL_METHODS = ("mce", "mce-r", "gce", "gce-r", "nnce", "rnce-ff", "rnce-ft", "rnce-tf", "rnce-tt")


class TestTargetChecks:
    """Every generator rejects a class the model cannot output, and the
    nearest-neighbour methods default to the other class of the query."""

    @pytest.mark.parametrize("method", ALL_METHODS)
    @pytest.mark.parametrize("target", [-1, 2])
    def test_binary_target_out_of_range(self, blob_problem, method, target):
        model, X = blob_problem
        with pytest.raises(ValueError, match="binary target must be 0 or 1"):
            generate_all(method, model, ShiftSet("inf", 0.05), X[:1], target, X)

    @pytest.mark.parametrize("method", ALL_METHODS)
    @pytest.mark.parametrize("target", [0, 4])
    def test_multi_class_target_out_of_range(self, multi_net, method, target):
        X = np.random.default_rng(3).uniform(0, 3, (30, 2))
        with pytest.raises(ValueError, match=f"target class {target} out of range 1..3"):
            generate_all(method, multi_net, ShiftSet("inf", 0.05), X[:1], target, X)

    def test_candidate_and_walk_helpers_check_the_target(self, blob_problem):
        model, X = blob_problem
        shift = ShiftSet("inf", 0.05)
        with pytest.raises(ValueError, match="binary target"):
            get_candidates(model, X, shift, target=2)
        with pytest.raises(ValueError, match="binary target"):
            get_robust_ce(model, shift, KDTree(X), X[0], 2, candidates_verified=True)

    def test_default_target_flips_the_query_class(self, blob_problem):
        model, X = blob_problem
        shift = ShiftSet("inf", 0.05)
        for x in (X[0], X[-1]):
            want = 1 - classify(model, x)
            record = rnce(model, X, x, shift)
            assert record.target_class == want and classify(model, record.x_prime) == want

    def test_multi_class_needs_a_target(self, multi_net):
        X = np.random.default_rng(3).uniform(0, 3, (30, 2))
        shift = ShiftSet("inf", 0.05)
        with pytest.raises(ValueError, match="explicit target class"):
            rnce(multi_net, X, X[0], shift)
        with pytest.raises(ValueError, match="explicit target class"):
            rnce(multi_net, X, X[0], shift, robust_init=True, optimal=True)
        with pytest.raises(ValueError, match="is not an integer"):
            get_candidates(multi_net, X, shift, None)
