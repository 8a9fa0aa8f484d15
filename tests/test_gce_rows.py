"""GCE's batched loop: each row of the iterate array is an independent run.

Over the model zoo of ``test_gce_reference.py`` (logistic models with and
without bias, one- and two-hidden-layer binary nets, 3-class nets, one with
always-tied logits, and nets without a hidden layer), with inputs holding
``-0.0``, every record must equal, field for field, the one its sequential
definition gives: ``generate_all`` equals per-input ``generate`` (for every
method of the dispatch table on a logistic model and a one-hidden-layer net),
``gce_robust`` equals ``iterative_robustify`` over per-round ``gce`` calls,
and a reordered batch gives each row the same record.  The numpy property
the loop rests on is checked on its own.
"""

import numpy as np
import pytest

import cfcert.generators as generators
from cfcert.generators import (
    GENERATORS,
    _gce_rows,
    gce,
    gce_robust,
    generate,
    generate_all,
    iterative_robustify,
    mce_robust,
)
from cfcert.intervals import ShiftSet
from cfcert.models import LogisticModel
from test_gce_reference import MAX_ITERS, MODELS, SETTINGS, _targets

SHIFT = ShiftSet("inf", 0.05)


def _inputs(index, model, count=3):
    rng = np.random.default_rng(1000 + index)
    X = rng.uniform(0, 1, (count, model.input_dim))
    X[0, 0] = -0.0
    X[-1, -1] = -0.0
    return X


def _same(got, want):
    assert got.method == want.method and got.target_class == want.target_class
    assert got.found == want.found
    if want.found:
        assert got.x_prime.tobytes() == want.x_prime.tobytes()
    else:
        assert got.x_prime is None
    assert got.distance == want.distance
    assert got.iterations == want.iterations
    assert got.trace == want.trace
    assert got.robust == want.robust
    assert got.shift == want.shift


@pytest.mark.parametrize("index", range(0, len(MODELS), 3))
def test_generate_all_equals_per_input_generate(index):
    model = MODELS[index]
    X = _inputs(index, model)
    for target in _targets(model):
        for method, knobs in (("gce", {"lam": 0.05}), ("gce-r", {"lam": 0.4, "max_rounds": 3})):
            got = generate_all(method, model, SHIFT, X, target, **knobs)
            want = [generate(method, model, SHIFT, x, target, **knobs) for x in X]
            assert len(got) == len(want)
            for g, w in zip(got, want):
                _same(g, w)


@pytest.mark.parametrize("method", GENERATORS)
@pytest.mark.parametrize("index", [1, 18])  # a logistic model, a one-hidden-layer net
def test_every_method_batch_equals_per_input_generate(index, method):
    model = MODELS[index]
    X = _inputs(index, model, count=4)
    train_rows = np.random.default_rng(index).uniform(0, 1, (12, model.input_dim))
    for target in (0, 1):
        got = generate_all(method, model, SHIFT, X, target, train_rows, max_rounds=3)
        want = [generate(method, model, SHIFT, x, target, train_rows, max_rounds=3) for x in X]
        assert len(got) == len(want) == len(X) and all(r.found for r in got)
        for g, w in zip(got, want):
            _same(g, w)


@pytest.mark.parametrize("index", range(len(MODELS)))
def test_gce_robust_equals_per_round_gce(index):
    # The pre-batch definition: round k is a lone gce call with lam / 2**k,
    # verified in order by iterative_robustify.
    model = MODELS[index]
    x = _inputs(index, model, count=1)[0]
    lam, step, rounds = 0.4, 0.2, 4
    for target in _targets(model):

        def base(k):
            lam_k = lam / (2.0**k)
            return gce(model, x, target, lam=lam_k, step=step, max_iters=MAX_ITERS), lam_k

        want = iterative_robustify(base, model, SHIFT, target, rounds, method="gce-r")
        got = gce_robust(model, SHIFT, x, target, lam=lam, step=step, max_iters=MAX_ITERS,
                         max_rounds=rounds)
        _same(got, want)


@pytest.mark.parametrize("index", range(len(MODELS)))
def test_rows_are_independent_of_their_batch(index):
    model = MODELS[index]
    X = _inputs(index, model, count=4)
    anchors = [x for x in X for _ in range(2)]
    lams = [0.05, 0.01] * len(X)
    order = np.random.default_rng(index).permutation(len(anchors))
    for target in _targets(model):
        for _, step, margin in SETTINGS[:2]:
            rows = _gce_rows(model, anchors, target, lams, step, MAX_ITERS, margin)
            shuffled = _gce_rows(
                model, [anchors[i] for i in order], target, [lams[i] for i in order], step,
                MAX_ITERS, margin,
            )
            for pos, i in enumerate(order):
                _same(shuffled[pos], rows[i])
            for i in (0, len(anchors) - 1):
                alone = gce(model, anchors[i], target, lam=lams[i], step=step,
                            max_iters=MAX_ITERS, margin=margin)
                _same(rows[i], alone)


def test_numpy_stacked_matvec_equals_per_row_matvec_bit_for_bit():
    # The batched loop multiplies stacked rows with np.matmul(W, V[..., None])
    # and sums distances with .sum(axis=1); each must equal the lone
    # per-row operation bit for bit, or batched GCE drifts from a lone run.
    rng = np.random.default_rng(7)
    for _ in range(500):
        k, n, m = (int(v) for v in rng.integers(1, 40, 3))
        W = rng.normal(size=(m, n))
        V = rng.normal(size=(k, n))
        G = rng.normal(size=(k, m))
        forward = np.matmul(W, V[..., None])[..., 0]
        backward = np.matmul(W.T, G[..., None])[..., 0]
        sums = np.abs(V).sum(axis=1)
        for i in range(k):
            assert forward[i].tobytes() == (W @ V[i]).tobytes()
            assert backward[i].tobytes() == (W.T @ G[i]).tobytes()
            assert sums[i] == np.abs(V[i]).sum()


def test_empty_batch():
    model = MODELS[0]
    assert generate_all("gce", model, SHIFT, [], 1) == []
    assert generate_all("gce-r", model, SHIFT, [], 1) == []
    # The method is looked up before the batch is read.
    with pytest.raises(ValueError, match="unknown method 'bogus'"):
        generate_all("bogus", model, SHIFT, [], 1)


def test_generate_all_rejects_unknown_knobs():
    # Before the batch is read, so an empty batch is rejected too.
    for method, count in (("gce", 3), ("gce", 0), ("mce", 0), ("rnce-ff", 0)):
        with pytest.raises(TypeError, match="bogus"):
            generate_all(method, MODELS[0], SHIFT, _inputs(0, MODELS[0])[:count], 1, bogus=1)


def test_generate_all_reaches_rebound_generators(monkeypatch):
    # Methods other than gce and gce-r run once per input, and the dispatch
    # table looks the generators up at call time.
    calls = []

    def fake_rnce(model, X, x, shift, **kw):
        calls.append(x)
        return "record"

    monkeypatch.setattr(generators, "rnce", fake_rnce)
    model = MODELS[0]
    X = _inputs(0, model)
    assert generate_all("rnce-ff", model, SHIFT, X, 1, X) == ["record"] * len(X)
    assert len(calls) == len(X)


class TestMaxRounds:
    @pytest.fixture
    def logistic(self):
        return LogisticModel(weights=[-1.0, 1.0])

    def test_negative_is_rejected(self, logistic):
        x = [0.7, 0.5]
        calls = []

        def base(k):
            calls.append(k)
            return gce(logistic, x, 1), 0.1

        for run in (
            lambda: iterative_robustify(base, logistic, SHIFT, 1, max_rounds=-2),
            lambda: mce_robust(logistic, SHIFT, x, 1, max_rounds=-2),
            lambda: gce_robust(logistic, SHIFT, x, 1, max_rounds=-2),
            lambda: generate_all("gce-r", logistic, SHIFT, [x], 1, max_rounds=-2),
            lambda: generate_all("mce-r", logistic, SHIFT, [x], 1, max_rounds=-2),
        ):
            with pytest.raises(ValueError, match="max_rounds"):
                run()
        assert calls == []

    def test_zero_rounds_find_nothing(self, logistic):
        for record in (
            mce_robust(logistic, SHIFT, [0.7, 0.5], 1, max_rounds=0),
            gce_robust(logistic, SHIFT, [0.7, 0.5], 1, max_rounds=0),
        ):
            assert not record.found and record.iterations == 0 and record.trace == []


@pytest.mark.parametrize("margin_step", [-0.1, np.nan, np.inf])
def test_mce_robust_checks_margin_step_before_round_zero(monkeypatch, margin_step):
    def no_solve(*args, **kwargs):
        raise AssertionError("a MILP was solved before the knobs were checked")

    monkeypatch.setattr(generators, "branch_and_bound", no_solve)
    with pytest.raises(ValueError, match="margin_step"):
        mce_robust(MODELS[0], SHIFT, [0.7] * MODELS[0].input_dim, 1, margin_step=margin_step)


@pytest.mark.parametrize("margin", [np.nan, np.inf, -np.inf])
def test_gce_rejects_a_non_finite_margin(margin):
    with pytest.raises(ValueError, match="margin"):
        gce(LogisticModel(weights=[-1.0, 1.0]), [0.7, 0.5], 1, margin=margin)
