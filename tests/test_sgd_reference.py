"""Differential test: the stacked trainers against lone SGD.

Every replica that ``cfcert.training`` trains in a stack must equal, bit for
bit, the lone run of ``reference_sgd`` with the same seed and rows: the
parameters' bytes, the incremental delta estimates and ``loss_and_grad``'s
loss and gradient.  Covered: logistic models with and without bias, binary
nets (8,) and (16, 16), a 3-class (8,) net, l2 of 0 and 0.05, a row count
that is no multiple of the batch size, and a batch larger than every
data set.
"""

import numpy as np
import pytest

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
    return ds.X[:N1], ds.y[:N1], ds.X[N1:], ds.y[N1:]


def _init(name):
    """A bias-free warm start, or None for the seeded initialisation."""
    return LogisticModel(weights=[0.7, -0.4]) if name == "logistic-no-bias" else None


def _deployed(name, config):
    """A model trained on D1 by the reference, the one every mode retrains."""
    X1, y1, _, _ = _data(name)
    return reference_train(X1, y1, ARCHS[name], config, init=_init(name))


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
    _same_bytes([train(X1, y1, ARCHS[name], config, init=_init(name))], [model])
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
