"""Differential test: the stacked trainers against lone SGD.

Every replica that ``cfcert.training`` trains in a stack must equal, bit for
bit, the lone run of ``reference_sgd`` with the same seed and rows: the
parameters' bytes, the incremental delta estimates and ``loss_and_grad``'s
loss and gradient.  Covered: logistic models with and without bias, binary
nets (8,) and (16, 16), a 3-class (8,) net, l2 of 0 and 0.05, a row count
that is no multiple of the batch size, and a batch larger than every
data set.  ``train_with_fleets``, which trains the deployed model and its
complete and leave-one-out fleets as one schedule, is held to the same lone
runs on runs of unequal row counts.
"""

import numpy as np
import pytest

from cfcert import training

from cfcert.data import synth_binary, synth_multiclass
from cfcert.models import LogisticModel, flatten
from cfcert.training import (
    RetrainSpec,
    TrainConfig,
    estimate_delta_incremental,
    fine_tune,
    loss_and_grad,
    retrain_fleet,
    train,
    train_with_fleets,
)
from conftest import random_network
from reference_sgd import (
    reference_estimate_delta_incremental,
    reference_fine_tune,
    reference_loss_and_grad,
    reference_retrain_fleet,
    reference_train,
)

N1 = 77  # D1 rows: no multiple of 32, and fewer than the large batch
ARCHS = {
    "logistic": "logistic",
    "logistic-no-bias": "logistic",
    "8": (8,),
    "16x16": (16, 16),
    "3class": (8,),
}
CONFIGS = {
    f"l2={l2}-batch={batch}": TrainConfig(epochs=4, seed=21, l2=l2, batch_size=batch)
    for l2 in (0.0, 0.05)
    for batch in (32, 128)
}


def _data(name):
    ds = synth_multiclass(N1 + 60, 3, seed=22) if name == "3class" else synth_binary(N1 + 60, seed=22)
    # synth_multiclass lists its rows class by class; shuffled, D1 and D2
    # each hold all three classes, so the net has three logits.
    rows = np.random.default_rng(22).permutation(N1 + 60)
    return ds.X[rows[:N1]], ds.y[rows[:N1]], ds.X[rows[N1:]], ds.y[rows[N1:]]


def _init(name):
    """A bias-free warm start, or None for the seeded initialisation."""
    return LogisticModel(weights=[0.7, -0.4]) if name == "logistic-no-bias" else None


def _deployed(name, config):
    """A model trained on D1 by the reference, the one every mode retrains."""
    X1, y1, _, _ = _data(name)
    model = reference_train(X1, y1, ARCHS[name], config, init=_init(name))
    assert model.num_outputs == (3 if name == "3class" else 1)
    return model


def _same_bytes(got, want):
    assert len(got) == len(want)
    for r, (a, b) in enumerate(zip(got, want)):
        assert type(a) is type(b)
        assert flatten(a).tobytes() == flatten(b).tobytes(), f"replica {r} differs"


@pytest.mark.parametrize("config", CONFIGS.values(), ids=CONFIGS)
@pytest.mark.parametrize("name", ARCHS)
def test_train_and_fine_tune_equal_a_lone_run(name, config):
    X1, y1, X2, y2 = _data(name)
    model = _deployed(name, config)
    start = _init(name)
    if start is None:
        trained = train(X1, y1, ARCHS[name], config)
    else:  # train has no warm start: the bias-free start fine-tunes for train's epochs
        trained = fine_tune(start, X1, y1, config.epochs, config)
    _same_bytes([trained], [model])
    _same_bytes(
        [fine_tune(model, X2, y2, 3, config)], [reference_fine_tune(model, X2, y2, 3, config)]
    )


@pytest.mark.parametrize("seeds", [(), (5, 901, 17)], ids=["default-seeds", "given-seeds"])
@pytest.mark.parametrize("mode", ["complete", "leave_one_out", "incremental"])
@pytest.mark.parametrize("config", CONFIGS.values(), ids=CONFIGS)
@pytest.mark.parametrize("name", ARCHS)
def test_retrain_fleet_replicas_equal_lone_runs(name, config, mode, seeds):
    data = _data(name)
    model = _deployed(name, config)
    spec = RetrainSpec(mode=mode, replicas=3, iterations=3, seeds=seeds)
    got = retrain_fleet(model, *data, spec, ARCHS[name], config)
    _same_bytes(got, reference_retrain_fleet(model, *data, spec, ARCHS[name], config))
    assert len({flatten(m).tobytes() for m in got}) == 3  # the replicas differ


@pytest.mark.parametrize("config", CONFIGS.values(), ids=CONFIGS)
@pytest.mark.parametrize("name", ARCHS)
def test_estimate_delta_incremental_equals_lone_runs(name, config):
    _, _, X2, y2 = _data(name)
    model = _deployed(name, config)
    fractions = (0.0, 0.1, 0.5, 1.0)
    rep = estimate_delta_incremental(model, X2, y2, fractions, replicas=3, iterations=2, config=config)
    want = reference_estimate_delta_incremental(model, X2, y2, fractions, 3, 2, config)
    assert [row["delta"] for row in rep["per_point"]] == want


@pytest.mark.parametrize("l2", [0.0, 0.05])
@pytest.mark.parametrize("name", ARCHS)
def test_loss_and_grad_equal_the_lone_step(name, l2):
    X1, y1, _, _ = _data(name)
    model = _deployed(name, CONFIGS["l2=0.0-batch=32"])
    loss, grad = loss_and_grad(model, X1, y1, l2)
    want_loss, want_grad = reference_loss_and_grad(model, X1, y1, l2)
    assert np.float64(loss).tobytes() == np.float64(want_loss).tobytes()
    assert grad.tobytes() == want_grad.tobytes()


def test_bias_free_net_fine_tunes_like_a_lone_run():
    rng = np.random.default_rng(23)
    net = random_network(rng, n_in=2, hidden=[6, 5], with_bias=False)
    config = CONFIGS["l2=0.05-batch=32"]
    spec = RetrainSpec(mode="incremental", replicas=4, fraction=0.5, iterations=3)
    got = retrain_fleet(net, *_data("8"), spec, (6, 5), config)
    _same_bytes(got, reference_retrain_fleet(net, *_data("8"), spec, (6, 5), config))
    assert all(layer.bias is None for m in got for layer in m.layers)


# Desk's sizes: 105 rows of D1 and 105 of D2 give runs of 105 (the deployed
# model), 210 (complete) and 103 (leave-one-out) rows, whose minibatches of
# 32 are [32, 32, 32, 9], [32 x 6, 18] and [32, 32, 32, 7].
FLEET_ARCHS = {"logistic": "logistic", "8": (8,), "8x4": (8, 4), "3class": (8,)}
FLEET_CASES = {
    "desk-rows": (TrainConfig(epochs=3, seed=31, l2=0.05), {}),
    "batch-above-every-run": (TrainConfig(epochs=3, seed=31, batch_size=256), {}),
    "given-seeds": (TrainConfig(epochs=2, seed=31), {"seeds": (5, 901, 17)}),
    "no-epochs": (TrainConfig(epochs=0, seed=31), {}),
    "leave-one-out-keeps-one-row": (TrainConfig(epochs=2, seed=31), {"removed": 0.99}),
}


def _fleet_data(name):
    ds = synth_multiclass(210, 3, seed=32) if name == "3class" else synth_binary(210, seed=32)
    rows = np.random.default_rng(32).permutation(210)
    return ds.X[rows[:105]], ds.y[rows[:105]], ds.X[rows[105:]], ds.y[rows[105:]]


@pytest.mark.parametrize("case", FLEET_CASES)
@pytest.mark.parametrize("name", FLEET_ARCHS)
def test_train_with_fleets_equals_lone_runs(name, case, monkeypatch):
    config, knobs = FLEET_CASES[case]
    data, arch = _fleet_data(name), FLEET_ARCHS[name]
    specs = [RetrainSpec(mode=mode, replicas=3, **knobs) for mode in ("complete", "leave_one_out")]
    steps, step = [], training._logits_and_param_grads
    monkeypatch.setattr(
        training, "_logits_and_param_grads", lambda *args: steps.append(args[1].shape) or step(*args)
    )
    model, fleet = train_with_fleets(*data, specs, arch, config)
    want = reference_train(data[0], data[1], arch, config)
    assert want.num_outputs == (3 if name == "3class" else 1)
    _same_bytes([model], [want])
    _same_bytes(fleet, [r for spec in specs for r in reference_retrain_fleet(want, *data, spec, arch, config)])
    if case == "desk-rows":
        # Ticks 1-3 step all 7 replicas at once; tick 4 steps the three runs
        # apart (9, 32 and 7 rows); ticks 5-7 step the complete run alone.
        epoch = [(7, 32, 2)] * 3 + [(1, 9, 2), (3, 32, 2), (3, 7, 2)] + [(3, 32, 2)] * 2 + [(3, 18, 2)]
        assert steps == epoch * config.epochs
    if case == "no-epochs":
        assert steps == []
    if case == "leave-one-out-keeps-one-row":
        assert (3, 1, 2) in steps  # the leave-one-out run's one-row minibatch


@pytest.mark.parametrize(
    "name, spec_mode, labels, message",
    [
        ("logistic", "incremental", None, "incremental"),
        ("logistic", "complete", 2, "label 2 is not a class"),
        ("3class", "leave_one_out", 0, "label 0 is not a class"),
    ],
)
def test_train_with_fleets_checks_specs_and_labels_before_training(
    monkeypatch, name, spec_mode, labels, message
):
    X1, y1, X2, y2 = _fleet_data(name)
    if labels is not None:
        y2 = y2.copy()
        y2[-1] = labels  # a D2 label, which only a complete run trains on
    calls, sgd = [], training._sgd
    monkeypatch.setattr(training, "_sgd", lambda *args: calls.append(args) or sgd(*args))
    spec = RetrainSpec(mode=spec_mode, replicas=2)
    with pytest.raises(ValueError, match=message):
        train_with_fleets(X1, y1, X2, y2, [spec], FLEET_ARCHS[name], TrainConfig(epochs=2))
    assert calls == []
