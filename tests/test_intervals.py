import numpy as np
import pytest

from cfcert.intervals import (
    ShiftSet,
    abstract,
    interval_classify,
    interval_bounds,
    interval_forward,
    sigmoid,
)
from cfcert.models import LogisticModel, forward

from conftest import corner_logits, random_network, sample_shifted_logits


def test_shift_set_validation():
    s = ShiftSet("inf", 0.1)
    assert s.p == float("inf") and s.delta == 0.1
    assert ShiftSet(1, 0.0).delta == 0.0
    with pytest.raises(ValueError):
        ShiftSet("inf", -0.1)
    with pytest.raises(ValueError):
        ShiftSet(3, 0.1)
    assert ShiftSet.from_dict({"p": "inf", "delta": 0.2}).to_dict() == {"p": "inf", "delta": 0.2}


def test_abstract_logistic_example(logistic_ref):
    im = abstract(logistic_ref, ShiftSet("inf", 0.1))
    assert np.allclose(im.layers[0].w_lo, [[-1.1, 0.9]])
    assert np.allclose(im.layers[0].w_hi, [[-0.9, 1.1]])
    assert im.layers[0].b_lo is None


def test_abstract_degenerate_delta(binary_net):
    im = abstract(binary_net, ShiftSet("inf", 0.0))
    for layer in im.layers:
        assert np.array_equal(layer.w_lo, layer.w_hi)


def test_abstract_network_edges(binary_net):
    im = abstract(binary_net, ShiftSet("inf", 0.05))
    assert np.allclose(im.layers[0].w_lo, [[0.95, -0.05], [-0.05, 0.95]])
    assert np.allclose(im.layers[1].w_hi, [[1.05, -0.95]])


def test_abstract_widens_biases():
    m = LogisticModel(weights=[1.0], bias=0.5)
    im = abstract(m, ShiftSet("inf", 0.2))
    assert np.allclose(im.layers[0].b_lo, [0.3])
    assert np.allclose(im.layers[0].b_hi, [0.7])


def test_interval_forward_logistic_example(logistic_ref):
    im = abstract(logistic_ref, ShiftSet("inf", 0.1))
    lo, hi = interval_forward(im, [0.7, 0.5])
    # Closed form: the two extreme weight corners.
    assert lo[0] == pytest.approx(-1.1 * 0.7 + 0.9 * 0.5)
    assert hi[0] == pytest.approx(-0.9 * 0.7 + 1.1 * 0.5)
    assert sigmoid(lo)[0] == pytest.approx(0.42, abs=0.01)
    assert sigmoid(hi)[0] == pytest.approx(0.48, abs=0.01)


def test_interval_forward_network_example(binary_net):
    im = abstract(binary_net, ShiftSet("inf", 0.05))
    lo, hi = interval_forward(im, [1, 2])
    assert lo[0] == pytest.approx(-1.45)
    assert hi[0] == pytest.approx(-0.55)


def test_interval_forward_delta_zero_is_point(binary_net):
    im = abstract(binary_net, ShiftSet("inf", 0.0))
    lo, hi = interval_forward(im, [1.3, 0.4])
    point = forward(binary_net, [1.3, 0.4])
    assert np.allclose(lo, point) and np.allclose(hi, point)


def test_interval_forward_sound_under_sampling():
    rng = np.random.default_rng(7)
    for trial in range(8):
        net = random_network(rng, n_out=int(rng.integers(1, 4)))
        x = rng.uniform(-1, 1, net.input_dim)
        delta = float(rng.uniform(0.01, 0.2))
        im = abstract(net, ShiftSet("inf", delta))
        lo, hi = interval_forward(im, x)
        sampled = sample_shifted_logits(net, x, delta, 10_000, rng)
        assert np.all(sampled >= lo - 1e-9) and np.all(sampled <= hi + 1e-9)


def test_interval_forward_exact_for_logistic_corners():
    rng = np.random.default_rng(8)
    for _ in range(10):
        d = int(rng.integers(1, 6))
        m = LogisticModel(weights=rng.normal(0, 1, d), bias=float(rng.normal()))
        x = rng.uniform(-1, 1, d)
        delta = float(rng.uniform(0.01, 0.3))
        im = abstract(m, ShiftSet("inf", delta))
        lo, hi = interval_forward(im, x)
        c_lo, c_hi = corner_logits(m, x, delta)
        assert lo[0] == pytest.approx(c_lo, abs=1e-10)
        assert hi[0] == pytest.approx(c_hi, abs=1e-10)


def test_interval_forward_monotone_in_delta(binary_net):
    rng = np.random.default_rng(9)
    for _ in range(20):
        x = rng.uniform(-1, 2, 2)
        d1, d2 = sorted(rng.uniform(0, 0.3, 2))
        lo1, hi1 = interval_forward(abstract(binary_net, ShiftSet("inf", d1)), x)
        lo2, hi2 = interval_forward(abstract(binary_net, ShiftSet("inf", d2)), x)
        assert np.all(lo2 <= lo1 + 1e-12) and np.all(hi2 >= hi1 - 1e-12)


def test_interval_classify_binary_examples(logistic_ref):
    im = abstract(logistic_ref, ShiftSet("inf", 0.1))
    assert interval_classify(im, [0.7, 0.5]).label == 0
    assert interval_classify(im, [0.7, 0.7]).label is None
    assert interval_classify(im, [0.7, 0.86]).label == 1


def test_interval_classify_degenerate_matches_point(binary_net, logistic_ref):
    from cfcert.models import classify

    rng = np.random.default_rng(10)
    for model in (binary_net, logistic_ref):
        im = abstract(model, ShiftSet("inf", 0.0))
        for _ in range(50):
            x = rng.uniform(-1, 2, 2)
            assert interval_classify(im, x).label == classify(model, x)


def test_interval_classify_multi_examples(multi_net):
    im = abstract(multi_net, ShiftSet("inf", 0.05))
    v = interval_classify(im, [2, 2])
    assert v.label == 2
    assert np.allclose(v.lo, [-0.6, 0.70, -0.6]) and np.allclose(v.hi, [0.6, 1.32, 0.6])
    v2 = interval_classify(im, [3, 1])
    assert v2.label == 1
    assert np.allclose(v2.lo, [1.40, 0.20, -2.60]) and np.allclose(v2.hi, [2.60, 0.82, -1.40])


def test_interval_classify_multi_overlap_undefined(multi_net):
    # Large delta widens every class interval until nothing dominates.
    im = abstract(multi_net, ShiftSet("inf", 1.0))
    assert interval_classify(im, [2, 2]).label is None


def test_verdict_trichotomy(multi_net):
    rng = np.random.default_rng(11)
    for _ in range(40):
        x = rng.uniform(0, 3, 2)
        delta = float(rng.uniform(0, 0.3))
        v = interval_classify(abstract(multi_net, ShiftSet("inf", delta)), x)
        if v.label is not None:
            others = np.delete(v.hi, v.label - 1)
            assert v.lo[v.label - 1] >= others.max()


def _same_bits(a, b):
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


@pytest.mark.parametrize("kind", ["logistic", "8x8", "3class"])
def test_interval_bounds_of_a_batch_equal_its_rows_bit_for_bit(kind):
    rng = np.random.default_rng({"logistic": 40, "8x8": 41, "3class": 42}[kind])
    if kind == "logistic":
        model = LogisticModel(weights=rng.normal(0, 1, 3), bias=float(rng.normal()))
    else:
        hidden = [8, 8] if kind == "8x8" else [8]
        model = random_network(rng, n_in=3, hidden=hidden, n_out=3 if kind == "3class" else 1)
    X = rng.uniform(-1.0, 2.0, (6, 3))
    X[0] = 0.0
    X[1] = -0.0
    for delta in (0.0, 0.05):
        im = abstract(model, ShiftSet("inf", delta))
        for v_lo, v_hi in ((X, X), (X - 0.1, X + 0.1)):
            batch = interval_bounds(im, v_lo, v_hi)
            for i in range(X.shape[0]):
                rows = interval_bounds(im, v_lo[i], v_hi[i])
                for (lo, hi), (batch_lo, batch_hi) in zip(rows, batch, strict=True):
                    assert _same_bits(batch_lo[i], lo) and _same_bits(batch_hi[i], hi)
