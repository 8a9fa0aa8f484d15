"""Differential test: the one-pass gradient generator against the two-pass
oracle.

Agreement is exact -- the found flag, the bytes of the returned iterate
(``-0.0`` included), the distance, the iteration count and the trace --
over logistic models with and without bias, binary ReLU networks with one
and two hidden layers, and 3-class networks, one of them with two logits
that are always tied, and networks without a hidden layer (one logit, which
takes the generator's closed-form step, and three).
"""

import numpy as np
import pytest

from cfcert.generators import gce
from cfcert.models import Layer, LogisticModel, ReluNetwork
from conftest import random_network
from reference_gce import reference_gce

# (lam, step, margin); the last is so large that no iterate ever moves.
SETTINGS = ((0.05, 0.2, 0.0), (0.02, 0.1, 0.3), (1e9, 0.1, 0.0))
MAX_ITERS = 120


def _models():
    rng = np.random.default_rng(20261018)
    models = []
    for i in range(12):
        n_in = int(rng.integers(2, 6))
        bias = float(rng.normal(0, 0.5)) if i % 2 else None
        models.append(LogisticModel(weights=rng.normal(0, 2, n_in), bias=bias))
    for i in range(14):
        hidden = [int(rng.integers(2, 6)) for _ in range(1 + i % 2)]
        models.append(random_network(rng, hidden=hidden, with_bias=i % 3 != 0))
    for i in range(13):
        hidden = [int(rng.integers(3, 6)) for _ in range(1 + i % 2)]
        models.append(random_network(rng, hidden=hidden, n_out=3, with_bias=i % 3 != 0))
    # Logits 1 and 2 are always equal, so the tie rule decides the class.
    w = rng.normal(0, 1, (3, 4))
    w[1] = w[0]
    b = rng.normal(0, 0.3, 3)
    b[1] = b[0]
    hidden = Layer(weights=rng.normal(0, 1, (4, 2)), bias=rng.normal(0, 0.3, 4))
    models.append(ReluNetwork(layers=(hidden, Layer(weights=w, bias=b))))
    for n_out, with_bias in ((1, True), (1, False), (3, True)):
        models.append(random_network(rng, hidden=[], n_out=n_out, with_bias=with_bias))
    return models


MODELS = _models()


def _targets(model):
    return (0, 1) if model.num_outputs == 1 else tuple(range(1, model.num_outputs + 1))


def _same_record(record, want):
    found, x_prime, distance, iterations, trace = want
    assert record.found == found
    if found:
        assert record.x_prime.tobytes() == x_prime.tobytes()
        assert record.distance == distance
    else:
        assert record.x_prime is None and record.distance is None
    assert record.iterations == iterations
    assert record.trace == trace


@pytest.mark.parametrize("index", range(len(MODELS)))
def test_gce_matches_the_two_pass_loop(index):
    model = MODELS[index]
    rng = np.random.default_rng(index)
    x = rng.uniform(0, 1, model.input_dim)
    if index % 4 == 0:
        x[0] = -0.0  # the first iterate keeps the sign of zero
    for target in _targets(model):
        for lam, step, margin in SETTINGS:
            want = reference_gce(model, x, target, lam=lam, step=step, max_iters=MAX_ITERS, margin=margin)
            got = gce(model, x, target, lam=lam, step=step, max_iters=MAX_ITERS, margin=margin)
            _same_record(got, want)


def test_negative_zero_survives_the_projection():
    # One active step moves only the second coordinate; the first stays
    # -0.0, which np.clip keeps and np.minimum(np.maximum(...)) would not.
    model = LogisticModel(weights=[-0.01, 1.0], bias=-0.5)
    x = np.array([-0.0, 0.45])
    want = reference_gce(model, x, 1, lam=0.1, step=0.1, max_iters=1)
    assert np.signbit(want[1][0])
    _same_record(gce(model, x, 1, lam=0.1, step=0.1, max_iters=1), want)


def test_the_cases_cover_both_outcomes():
    found = []
    for index, model in enumerate(MODELS):
        x = np.random.default_rng(index).uniform(0, 1, model.input_dim)
        for target in _targets(model):
            found.append(gce(model, x, target, lam=0.05, step=0.2, max_iters=MAX_ITERS).found)
    assert len(MODELS) >= 40
    assert 0.2 < np.mean(found) < 1.0
