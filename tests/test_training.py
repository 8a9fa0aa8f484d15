import numpy as np
import pytest

from cfcert.data import synth_binary, synth_multiclass
from cfcert.intervals import ShiftSet
from cfcert.models import LogisticModel, classify_batch, flatten, p_distance, unflatten
from cfcert.training import (
    RetrainSpec,
    TrainConfig,
    estimate_delta_incremental,
    estimate_delta_validation,
    fine_tune,
    init_model,
    loss_and_grad,
    retrain_fleet,
    train,
)

from conftest import random_network


def test_train_reaches_accuracy_on_separable_blobs():
    rng = np.random.default_rng(0)
    X = np.vstack([rng.normal([0.2, 0.2], 0.05, (60, 2)), rng.normal([0.8, 0.8], 0.05, (60, 2))])
    y = np.concatenate([np.zeros(60, dtype=int), np.ones(60, dtype=int)])
    for arch in ("logistic", (4,)):
        m = train(X, y, arch, TrainConfig(epochs=150, seed=1))
        assert np.mean(classify_batch(m, X) == y) >= 0.95


def test_zero_epochs_returns_initialisation():
    ds = synth_binary(100, seed=2)
    cfg = TrainConfig(epochs=0, seed=2)
    m = train(ds.X, ds.y, (4,), cfg)
    m0 = init_model((4,), 2, 2, seed=2)
    assert np.array_equal(flatten(m), flatten(m0))


def test_train_determinism():
    ds = synth_binary(150, seed=3)
    cfg = TrainConfig(epochs=50, seed=3)
    a = train(ds.X, ds.y, (4,), cfg)
    b = train(ds.X, ds.y, (4,), cfg)
    assert np.array_equal(flatten(a), flatten(b))


def test_multiclass_training():
    ds = synth_multiclass(240, 3, seed=4)
    m = train(ds.X, ds.y, (), TrainConfig(epochs=200, seed=4))
    assert m.num_outputs == 3
    assert np.mean(classify_batch(m, ds.X) == ds.y) >= 0.95


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(5)
    worst = 0.0
    for trial in range(6):
        multi = trial % 2 == 0
        n_out = 3 if multi else 1
        net = random_network(rng, n_in=3, hidden=[4], n_out=n_out)
        X = rng.uniform(0, 1, (8, 3))
        y = rng.integers(1, 4, 8) if multi else rng.integers(0, 2, 8)
        loss, grad = loss_and_grad(net, X, y)
        theta = flatten(net)
        eps = 1e-6
        for i in range(theta.size):
            tp, tm = theta.copy(), theta.copy()
            tp[i] += eps
            tm[i] -= eps
            num = (loss_and_grad(unflatten(net, tp), X, y)[0] - loss_and_grad(unflatten(net, tm), X, y)[0]) / (2 * eps)
            rel = abs(num - grad[i]) / max(1e-8, abs(num) + abs(grad[i]))
            worst = max(worst, rel)
    assert worst < 1e-4


def test_divergence_raises():
    # Non-finite data drives the loss non-finite; training must refuse to
    # continue rather than silently producing a broken model.
    ds = synth_binary(80, seed=6)
    X = ds.X.copy()
    X[0, 0] = np.nan
    with pytest.raises(RuntimeError, match="diverged"):
        train(X, ds.y, (4,), TrainConfig(epochs=5, seed=6))


def test_fine_tune_zero_iterations_is_identity():
    ds = synth_binary(100, seed=7)
    m = train(ds.X, ds.y, "logistic", TrainConfig(epochs=30, seed=7))
    tuned = fine_tune(m, ds.X, ds.y, 0, TrainConfig(seed=7))
    assert p_distance(flatten(m), flatten(tuned), "inf") == 0.0
    # With no iterations, or no rows, the input model itself comes back.
    assert tuned is m
    assert fine_tune(m, ds.X[:0], ds.y[:0], 5, TrainConfig(seed=7)) is m


def test_fine_tune_single_step_bounded_by_lr_times_gradient():
    ds = synth_binary(64, seed=8)
    m = train(ds.X, ds.y, "logistic", TrainConfig(epochs=20, seed=8))
    lr = 0.05
    cfg = TrainConfig(learning_rate=lr, epochs=1, batch_size=64, seed=8)
    tuned = fine_tune(m, ds.X, ds.y, 1, cfg)
    _, grad = loss_and_grad(m, ds.X, ds.y)
    moved = p_distance(flatten(m), flatten(tuned), "inf")
    assert moved <= lr * np.abs(grad).max() + 1e-12


def test_fine_tune_distance_grows_with_fraction():
    # Rank-correlation trend across fractions, not a pointwise claim.
    ds = synth_binary(400, seed=9)
    m = train(ds.X, ds.y, "logistic", TrainConfig(epochs=60, seed=9))
    rep = estimate_delta_incremental(
        m, ds.X, ds.y, fractions=(0.05, 0.10, 0.20, 0.4, 0.8), replicas=5, iterations=10
    )
    deltas = [row["delta"] for row in rep["per_point"]]
    ranks = np.argsort(np.argsort(deltas))
    corr = np.corrcoef(ranks, np.arange(len(deltas)))[0, 1]
    assert corr > 0.5


def test_estimate_delta_incremental_shape():
    ds = synth_binary(200, seed=10)
    m = train(ds.X, ds.y, "logistic", TrainConfig(epochs=40, seed=10))
    rep = estimate_delta_incremental(m, ds.X, ds.y, fractions=(0.0, 0.1), replicas=3)
    assert rep["per_point"][0]["delta"] == 0.0  # no data, no movement
    assert 0 < rep["delta_inc"] < 0.5
    assert rep["strategy"] == "incremental"


def test_bias_free_logistic_model_stays_bias_free():
    ds = synth_binary(120, seed=12)
    m = LogisticModel(weights=[0.8, -0.6])
    tuned = fine_tune(m, ds.X, ds.y, 3, TrainConfig(seed=12))
    assert isinstance(tuned, LogisticModel) and tuned.bias is None
    assert not np.array_equal(tuned.weights, m.weights)
    rep = estimate_delta_incremental(m, ds.X, ds.y, fractions=(0.1,), replicas=2, iterations=3)
    assert rep["delta_inc"] > 0.0
    _, grad = loss_and_grad(m, ds.X, ds.y)
    assert grad.size == flatten(m).size == 2


def test_retrain_fleet_modes():
    ds = synth_binary(300, seed=11)
    half = ds.n // 2
    cfg = TrainConfig(epochs=60, seed=11, l2=0.05)
    m = train(ds.X[:half], ds.y[:half], "logistic", cfg)
    for mode in ("incremental", "complete", "leave_one_out"):
        fleet = retrain_fleet(
            m,
            ds.X[:half],
            ds.y[:half],
            ds.X[half:],
            ds.y[half:],
            RetrainSpec(mode=mode, replicas=3),
            "logistic",
            cfg,
        )
        assert len(fleet) == 3
        dists = {p_distance(flatten(m), flatten(f), "inf") for f in fleet}
        assert all(d > 0 for d in dists)
        assert len(dists) == 3  # replicas differ


def test_retrain_spec_validation():
    with pytest.raises(ValueError):
        RetrainSpec(mode="warp")
    with pytest.raises(ValueError):
        RetrainSpec(mode="incremental", fraction=0.0)
    with pytest.raises(ValueError):
        RetrainSpec(mode="complete", replicas=0)
    with pytest.raises(ValueError, match="1 seeds for 3 replicas"):
        RetrainSpec(mode="complete", replicas=3, seeds=(7,))
    with pytest.raises(ValueError, match="removed"):
        RetrainSpec(mode="leave_one_out", removed=-0.5)
    with pytest.raises(ValueError, match="removed"):
        RetrainSpec(mode="leave_one_out", removed=1.0)
    with pytest.raises(ValueError, match="iterations"):
        RetrainSpec(mode="incremental", iterations=-3)
    RetrainSpec(mode="complete", replicas=2, seeds=(7, 8))
    RetrainSpec(mode="leave_one_out", removed=0.0)
    RetrainSpec(mode="incremental", iterations=0)


@pytest.mark.parametrize("mode", ["complete", "leave_one_out"])
def test_fleet_on_a_nan_row_diverges(mode):
    ds = synth_binary(120, seed=15)
    X1 = ds.X[:60].copy()
    X1[0, 1] = np.nan
    m = LogisticModel(weights=[0.5, -0.5], bias=0.0)
    spec = RetrainSpec(mode=mode, replicas=3, removed=0.5, seeds=(1, 2, 3))
    if mode == "leave_one_out":
        # Some replicas drop the NaN row: one replica's divergence is enough.
        kept = [0 in np.random.default_rng(s).permutation(60)[30:] for s in spec.seeds]
        assert any(kept) and not all(kept)
    cfg = TrainConfig(epochs=2, seed=15)
    with pytest.raises(RuntimeError, match="diverged"):
        retrain_fleet(m, X1, ds.y[:60], ds.X[60:], ds.y[60:], spec, "logistic", cfg)


@pytest.mark.parametrize("knobs", [{"replicas": 0}, {"iterations": -2}])
def test_estimate_delta_incremental_rejects_bad_counts(knobs):
    ds = synth_binary(60, seed=17)
    m = LogisticModel(weights=[0.5, -0.5], bias=0.1)
    with pytest.raises(ValueError):
        estimate_delta_incremental(m, ds.X, ds.y, fractions=(0.1,), **knobs)


class TestEstimateDeltaValidation:
    def _setup(self):
        ds = synth_binary(300, noise=0.15, seed=12)
        cfg = TrainConfig(epochs=80, seed=12, l2=0.05)
        m = train(ds.X, ds.y, "logistic", cfg)
        pool = ds.X[classify_batch(m, ds.X) == 0][:10]
        return ds, m, pool

    def test_identical_retrained_model_gives_grid_minimum(self):
        ds, m, pool = self._setup()
        rep = estimate_delta_validation(
            m, [m], ds.X, pool, targets=[1] * len(pool), grid=(0.01, 0.05, 0.1)
        )
        assert rep["delta_val"] == 0.01 and not rep["not_reached"]

    def test_adversarial_retrain_covered_by_its_distance(self):
        ds, m, pool = self._setup()
        # A perturbed model at inf-distance 0.05: certifying at 0.05 covers it.
        theta = flatten(m)
        bumped = unflatten(m, theta + 0.05 * np.sign(np.sin(np.arange(theta.size) + 1)))
        rep = estimate_delta_validation(
            m, [bumped], ds.X, pool, targets=[1] * len(pool), grid=(0.05, 0.1, 0.2)
        )
        assert rep["delta_val"] <= 0.05 + 1e-12

    def test_more_retrained_models_never_decrease_delta(self):
        ds, m, pool = self._setup()
        theta = flatten(m)
        rng = np.random.default_rng(13)
        fleet = [unflatten(m, theta + rng.uniform(-0.08, 0.08, theta.size)) for _ in range(4)]
        grid = tuple(np.round(np.arange(0.01, 0.21, 0.01), 3))
        small = estimate_delta_validation(m, fleet[:1], ds.X, pool, [1] * len(pool), grid=grid)
        large = estimate_delta_validation(m, fleet, ds.X, pool, [1] * len(pool), grid=grid)
        assert large["delta_val"] >= small["delta_val"]

    def test_coarser_grid_never_returns_smaller_delta(self):
        ds, m, pool = self._setup()
        theta = flatten(m)
        rng = np.random.default_rng(14)
        fleet = [unflatten(m, theta + rng.uniform(-0.06, 0.06, theta.size)) for _ in range(3)]
        fine = tuple(np.round(np.arange(0.01, 0.31, 0.01), 3))
        coarse = fine[::3]  # subset grid
        fine_rep = estimate_delta_validation(m, fleet, ds.X, pool, [1] * len(pool), grid=fine)
        coarse_rep = estimate_delta_validation(m, fleet, ds.X, pool, [1] * len(pool), grid=coarse)
        assert coarse_rep["delta_val"] >= fine_rep["delta_val"]

    def test_not_reached_flag(self):
        ds, m, pool = self._setup()
        theta = flatten(m)
        hostile = unflatten(m, -theta)  # label-flipping model defeats any delta
        rep = estimate_delta_validation(
            m, [hostile], ds.X, pool, targets=[1] * len(pool), grid=(0.01, 0.02)
        )
        assert rep["not_reached"] and rep["delta_val"] == 0.02

    def test_empty_validation_pool_is_rejected(self):
        ds, m, _ = self._setup()
        with pytest.raises(ValueError, match="at least one validation input"):
            estimate_delta_validation(m, [m], ds.X, ds.X[:0], targets=[], grid=(0.01,))

    @pytest.mark.parametrize("n_targets", [1, 11])
    def test_targets_must_match_the_inputs(self, n_targets):
        ds, m, pool = self._setup()
        with pytest.raises(ValueError, match="targets for 10 validation inputs"):
            estimate_delta_validation(m, [m], ds.X, pool, targets=[1] * n_targets, grid=(0.01,))

    def test_one_tree_per_target(self, monkeypatch):
        # Without robust_init rnce's candidates are the target-class rows,
        # whatever the input and delta: one k-d tree serves every magnitude.
        from cfcert import generators

        ds, m, pool = self._setup()
        hostile = unflatten(m, -flatten(m))  # no magnitude ends the scan
        grid = (0.01, 0.05, 0.1, 50.0)  # at 50 no candidate certifies
        want = []  # the report of rnce run afresh at every magnitude
        for delta in grid:
            records = []
            for x in pool:
                records.append(generators.rnce(m, ds.X, x, ShiftSet("inf", delta), target=1))
                if not records[-1].found:
                    break
            if not records[-1].found:
                want.append({"delta": delta, "validity": None})
                continue
            valid = classify_batch(hostile, np.vstack([r.x_prime for r in records])) == 1
            want.append({"delta": delta, "validity": int(valid.sum()) / len(records)})

        builds = []

        class CountingTree(generators.KDTree):
            def __init__(self, points):
                builds.append(len(points))
                super().__init__(points)

        monkeypatch.setattr(generators, "KDTree", CountingTree)
        with pytest.warns(UserWarning, match="delta=50.0; skipping") as caught:
            rep = estimate_delta_validation(m, [hostile], ds.X, pool, [1] * len(pool), grid=grid)
        assert len(caught) == 1 and len(builds) == 1
        assert rep["per_point"] == want and want[0]["validity"] is not None
        assert rep["not_reached"] and rep["delta_val"] == 50.0

    def test_generator_failure_skips_grid_point(self):
        # At delta 50 every interval logit straddles 0, so no candidate
        # certifies and rnce finds nothing; the hostile fleet keeps the
        # smaller magnitude from ending the scan first.
        ds, m, pool = self._setup()
        hostile = unflatten(m, -flatten(m))
        with pytest.warns(UserWarning, match="skipping"):
            rep = estimate_delta_validation(
                m, [hostile], ds.X, pool, targets=[1] * len(pool), grid=(0.05, 50.0)
            )
        assert rep["per_point"][0]["validity"] is not None
        assert rep["per_point"][1] == {"delta": 50.0, "validity": None}
        assert rep["not_reached"] and rep["delta_val"] == 50.0
