import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfcert.intervals import ShiftSet
from cfcert.models import (
    Layer,
    LogisticModel,
    ReluNetwork,
    affine_layers,
    check_target,
    class_of_logits,
    classify,
    classify_batch,
    counterfactual_target,
    flatten,
    forward,
    from_affine_layers,
    forward_batch,
    load_model,
    model_from_dict,
    model_to_dict,
    p_distance,
    pre_activations,
    save_model,
    unflatten,
)
from conftest import random_network


def test_forward_logistic_example(logistic_ref):
    assert forward(logistic_ref, [0.7, 0.5])[0] == pytest.approx(-0.2)
    assert classify(logistic_ref, [0.7, 0.5]) == 0


def test_forward_network_example(binary_net):
    assert forward(binary_net, [1, 2])[0] == pytest.approx(-1.0)
    assert classify(binary_net, [1, 2]) == 0
    assert forward(binary_net, [2.1, 2])[0] == pytest.approx(0.1)
    assert classify(binary_net, [2.1, 2]) == 1


def test_boundary_logit_is_class_one(logistic_ref):
    assert forward(logistic_ref, [0.7, 0.7])[0] == pytest.approx(0.0)
    assert classify(logistic_ref, [0.7, 0.7]) == 1


def test_classify_multi_examples(multi_net):
    assert np.allclose(forward(multi_net, [2, 2]), [0.0, 1.0, 0.0])
    assert classify(multi_net, [2, 2]) == 2
    assert np.allclose(forward(multi_net, [3, 1]), [2.0, 0.5, -2.0])
    assert classify(multi_net, [3, 1]) == 1


def test_classify_multi_tie_breaks_low(multi_net):
    assert classify(multi_net, [0, 0]) == 1  # all logits zero


def test_classify_multi_matches_argmax(multi_net):
    rng = np.random.default_rng(0)
    for _ in range(50):
        x = rng.uniform(-2, 3, 2)
        assert classify(multi_net, x) == int(np.argmax(forward(multi_net, x))) + 1


@pytest.mark.parametrize("target", [-1, 2])
def test_check_target_binary(logistic_ref, binary_net, target):
    for model in (logistic_ref, binary_net):
        check_target(model, 0)
        check_target(model, 1)
        with pytest.raises(ValueError, match="binary target must be 0 or 1"):
            check_target(model, target)


@pytest.mark.parametrize("target", [0, 4, -1])
def test_check_target_multi(multi_net, target):
    for ok in (1, 2, 3, np.int64(2)):
        check_target(multi_net, ok)
    with pytest.raises(ValueError, match=f"target class {target} out of range 1..3"):
        check_target(multi_net, target)


@pytest.mark.parametrize("target", [1.5, 2.0, None, "2"])
def test_check_target_rejects_non_integers(logistic_ref, multi_net, target):
    for model in (logistic_ref, multi_net):
        with pytest.raises(ValueError, match="is not an integer"):
            check_target(model, target)


def test_counterfactual_target(logistic_ref, multi_net):
    assert counterfactual_target(logistic_ref, [0.7, 0.5], None) == 1
    assert counterfactual_target(logistic_ref, [0.7, 0.7], None) == 0  # boundary is class 1
    assert counterfactual_target(logistic_ref, [0.7, 0.5], 0) == 0
    assert counterfactual_target(multi_net, [2, 2], 3) == 3
    with pytest.raises(ValueError, match="explicit target class"):
        counterfactual_target(multi_net, [2, 2], None)
    with pytest.raises(ValueError, match="binary target"):
        counterfactual_target(logistic_ref, [0.7, 0.5], 2)


def test_dimension_mismatch_rejected(logistic_ref):
    with pytest.raises(ValueError, match="length"):
        forward(logistic_ref, [1.0, 2.0, 3.0])


def test_non_finite_input_rejected(logistic_ref):
    with pytest.raises(ValueError):
        forward(logistic_ref, [np.nan, 0.0])


def test_p_distance_paper_example():
    assert p_distance([-1.0, 1.0], [0.8, 1.0], "inf") == 1.8


def test_p_distance_basics():
    assert p_distance([1.0, 2.0], [1.0, 2.0], 2) == 0.0
    assert p_distance([1.0, 2.0], [0.0, 4.0], 1) == 3.0
    with pytest.raises(ValueError):
        p_distance([1.0], [1.0, 2.0], 1)


def test_p_distance_reads_the_norm_orders_of_a_shift_set():
    a, b = [0.0, 0.0], [0.5, 0.25]
    for spelling in ("Inf", "INF", np.inf, float("inf")):
        assert p_distance(a, b, spelling) == p_distance(a, b, "inf") == 0.5
    assert p_distance(a, b, "2") == p_distance(a, b, 2)
    for p in (3, 0.5, 0, -1):
        with pytest.raises(ValueError, match="supported norm orders are 1, 2 and inf"):
            ShiftSet(p, 0.1)
        with pytest.raises(ValueError, match="supported norm orders are 1, 2 and inf"):
            p_distance(a, b, p)


@given(
    st.lists(st.floats(-5, 5), min_size=1, max_size=6),
    st.lists(st.floats(-5, 5), min_size=1, max_size=6),
    st.sampled_from([1, 2, "inf"]),
)
@settings(max_examples=60, deadline=None)
def test_p_distance_symmetry(a, b, p):
    n = min(len(a), len(b))
    a, b = a[:n], b[:n]
    assert p_distance(a, b, p) == pytest.approx(p_distance(b, a, p), abs=1e-12)


def test_p_distance_triangle_inequality():
    rng = np.random.default_rng(1)
    for p in (1, 2, "inf"):
        for _ in range(50):
            a, b, c = rng.normal(0, 2, (3, 5))
            assert p_distance(a, c, p) <= p_distance(a, b, p) + p_distance(b, c, p) + 1e-12


def test_flatten_example_network_with_zero_biases():
    # Column-wise vectorisation of each weight matrix, bias after.
    net = ReluNetwork(
        layers=(
            Layer(weights=[[1.0, 0.0], [0.0, 1.0]], bias=[0.0, 0.0]),
            Layer(weights=[[1.0, -1.0]], bias=[0.0]),
        )
    )
    assert np.array_equal(flatten(net), [1, 0, 0, 1, 0, 0, 1, -1, 0])


def test_flatten_column_major_order():
    net = ReluNetwork(layers=(Layer(weights=[[1.0, 2.0], [3.0, 4.0]]),))
    assert np.array_equal(flatten(net), [1, 3, 2, 4])


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_flatten_unflatten_round_trip(seed):
    rng = np.random.default_rng(seed)
    net = ReluNetwork(
        layers=(
            Layer(weights=rng.normal(size=(3, 2)), bias=rng.normal(size=3)),
            Layer(weights=rng.normal(size=(2, 3)), bias=None),
        )
    )
    theta = flatten(net)
    again = flatten(unflatten(net, theta))
    assert np.array_equal(theta, again)


def test_unflatten_wrong_length(binary_net):
    with pytest.raises(ValueError, match="length"):
        unflatten(binary_net, np.zeros(99))


def test_unflatten_round_trip_logistic():
    m = LogisticModel(weights=[1.0, -2.0], bias=0.5)
    theta = flatten(m)
    assert theta.tolist() == [1.0, -2.0, 0.5]
    m2 = unflatten(m, theta * 2)
    assert m2.bias == 1.0 and m2.weights.tolist() == [2.0, -4.0]


def test_forward_batch_matches_pointwise(multi_net):
    rng = np.random.default_rng(2)
    X = rng.uniform(-1, 3, (20, 2))
    Z = forward_batch(multi_net, X)
    for i in range(20):
        assert np.array_equal(Z[i], forward(multi_net, X[i]))
    assert np.array_equal(
        classify_batch(multi_net, X), [classify(multi_net, x) for x in X]
    )


@pytest.mark.parametrize("hidden,n_out", [([8], 1), ([8, 8], 1), ([8], 3)], ids=["8", "8x8", "3class"])
def test_forward_batch_rows_are_forward_at_every_batch_size(hidden, n_out):
    rng = np.random.default_rng(5)
    for _ in range(5):
        model = random_network(rng, n_in=3, hidden=hidden, n_out=n_out)
        X = rng.uniform(-1, 2, (8, 3))
        lone = np.array([forward(model, x) for x in X])
        for k in range(1, 9):
            assert np.array_equal(forward_batch(model, X[:k]), lone[:k]), k
        # A matrix-vector product's bits depend on the vector's stride.
        XF = np.asfortranarray(X)
        assert np.array_equal(forward_batch(model, XF), lone)
        assert np.array_equal([forward(model, XF[i]) for i in range(8)], lone)


def _boundary_point(model, rng):
    """A point where the point class changes along a random segment, found
    by bisection on :func:`classify`."""
    for _ in range(1000):
        a, b = rng.uniform(-2, 2, (2, model.input_dim))
        if classify(model, a) != classify(model, b):
            break
    else:
        raise AssertionError("the model has one class on the box")
    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if classify(model, a + mid * (b - a)) == classify(model, a):
            lo = mid
        else:
            hi = mid
    return a + hi * (b - a)


# At these seeds a batched matrix product gave the boundary point another
# class than classify in some batches.
@pytest.mark.parametrize("seed", [3, 4, 12])
def test_a_boundary_point_keeps_its_class_in_every_batch(seed):
    rng = np.random.default_rng(seed)
    model = random_network(rng, n_in=2, hidden=[8])
    point = _boundary_point(model, rng)
    others = rng.uniform(0, 1, (7, 2))
    for k in range(8):
        for pos in range(k + 1):
            batch = np.insert(others[:k], pos, point, axis=0)
            assert classify_batch(model, batch)[pos] == classify(model, point), (k, pos)


def test_pre_activations_are_every_layer_logits_last():
    rng = np.random.default_rng(6)
    model = random_network(rng, n_in=3, hidden=[4, 5], n_out=2)
    X = rng.uniform(-1, 2, (6, 3))
    batch = pre_activations(model, X)
    assert [z.shape for z in batch] == [(6, 4), (6, 5), (6, 2)]
    for i, x in enumerate(X):
        lone = pre_activations(model, x)
        v = x
        for layer, z, row in zip(model.layers, lone, batch):
            assert np.array_equal(z, layer.weights @ v + layer.bias)
            assert np.array_equal(row[i], z)
            v = np.maximum(z, 0.0)
        assert np.array_equal(lone[-1], forward(model, x))


def test_layer_validation():
    with pytest.raises(ValueError):
        Layer(weights=[[1.0]], bias=[1.0, 2.0])
    with pytest.raises(ValueError):
        ReluNetwork(layers=(Layer(weights=[[1.0, 2.0]]), Layer(weights=[[1.0, 2.0]])))
    with pytest.raises(ValueError):
        LogisticModel(weights=[np.inf])


def test_model_json_round_trip(tmp_path, binary_net, logistic_ref):
    for model in (binary_net, logistic_ref, LogisticModel(weights=[0.1, 0.2], bias=-0.3)):
        path = tmp_path / "m.json"
        save_model(model, path)
        back = load_model(path)
        assert np.array_equal(flatten(model), flatten(back))
        assert type(back) is type(model)


def test_model_dict_rejects_bad_type():
    with pytest.raises(ValueError, match="model_type"):
        model_from_dict({"model_type": "tree", "layers": [{"weights": [[1]]}]})
    doc = model_to_dict(LogisticModel(weights=[1.0]))
    doc["input_dim"] = 7
    with pytest.raises(ValueError, match="input_dim"):
        model_from_dict(doc)


@pytest.mark.parametrize("model_type", ["logistic", "relu_network"])
def test_declared_num_classes_must_match_the_layers(multi_net, model_type):
    doc = {
        "model_type": model_type, "input_dim": 2, "num_classes": 3,
        "layers": [{"weights": [[1.0, -1.0]], "bias": None}],
    }
    with pytest.raises(ValueError, match=r"declared num_classes 3 does not match layer shapes \(2\)"):
        model_from_dict(doc)
    doc = model_to_dict(multi_net)
    doc["num_classes"] = 2
    with pytest.raises(ValueError, match=r"declared num_classes 2 does not match layer shapes \(3\)"):
        model_from_dict(doc)
    doc["num_classes"] = 3
    assert model_from_dict(doc).num_classes == 3


def _logistic_doc(layers):
    return {"model_type": "logistic", "input_dim": 2, "num_classes": 2, "layers": layers}


@pytest.mark.parametrize(
    "layers",
    [
        # A second layer: it used to be ignored.
        [{"weights": [[1.0, 2.0]], "bias": [0.5]}, {"weights": [[3.0]], "bias": None}],
        # Two rows: they used to load as one 4-input model.
        [{"weights": [[1.0, 2.0], [3.0, 4.0]], "bias": None}],
        # Two biases: the second used to be dropped.
        [{"weights": [[1.0, 2.0]], "bias": [0.5, 9.0]}],
    ],
    ids=["two-layers", "two-rows", "two-biases"],
)
def test_malformed_logistic_document_is_rejected(layers):
    doc = _logistic_doc(layers)
    doc.pop("input_dim")
    with pytest.raises(ValueError):
        model_from_dict(doc)


@pytest.mark.parametrize(
    "layers",
    [[{"w": [[1.0, 2.0]]}], [[[1.0, 2.0]]], [{"weights": [[1.0]]}, "dense"]],
    ids=["no-weights", "list-layer", "string-layer"],
)
def test_layer_that_is_not_an_object_with_weights_is_rejected(layers):
    with pytest.raises(ValueError, match='must be an object with "weights"'):
        model_from_dict({"model_type": "relu_network", "layers": layers})


def test_logistic_document_of_one_row_loads():
    m = model_from_dict(_logistic_doc([{"weights": [[1.0, 2.0]], "bias": [0.5]}]))
    assert isinstance(m, LogisticModel) and m.weights.tolist() == [1.0, 2.0] and m.bias == 0.5
    m = model_from_dict(_logistic_doc([{"weights": [1.0, 2.0], "bias": None}]))
    assert m.weights.tolist() == [1.0, 2.0] and m.bias is None


def _json_doc(bias_text):
    return (
        '{\n  "input_dim": 2,\n  "layers": [\n    {\n      "bias": ' + bias_text + ',\n'
        '      "weights": [\n        [\n          0.5,\n          -1.25\n        ]\n      ]\n'
        '    }\n  ],\n  "model_type": "logistic",\n  "num_classes": 2\n}\n'
    )


@pytest.mark.parametrize(
    "bias, text",
    [(0.75, _json_doc("[\n        0.75\n      ]")), (None, _json_doc("null"))],
    ids=["bias", "no-bias"],
)
def test_save_model_logistic_text_is_pinned(tmp_path, bias, text):
    path = tmp_path / "m.json"
    save_model(LogisticModel(weights=[0.5, -1.25], bias=bias), path)
    assert path.read_text() == text
    back = load_model(path)
    assert back.bias == bias and back.weights.tolist() == [0.5, -1.25]


def test_affine_layers_round_trip(logistic_ref, binary_net, multi_net):
    biased = LogisticModel(weights=[0.5, -1.25], bias=0.75)
    (w, b), = affine_layers(biased)
    assert w.tolist() == [[0.5, -1.25]] and b.tolist() == [0.75]
    (w, b), = affine_layers(logistic_ref)
    assert w.shape == (1, 2) and b is None
    for model in (biased, logistic_ref, binary_net, multi_net):
        again = from_affine_layers(model, affine_layers(model))
        assert type(again) is type(model)
        assert np.array_equal(flatten(again), flatten(model))
        assert model_to_dict(again) == model_to_dict(model)


def test_class_of_logits_vector_and_batch():
    assert class_of_logits(np.array([0.0])) == 1
    assert class_of_logits(np.array([-1e-300])) == 0
    assert class_of_logits(np.array([0.2, 0.7, 0.7])) == 2  # ties to the lowest index
    assert type(class_of_logits(np.array([0.2, 0.1]))) is int
    Z = np.array([[0.0], [-0.5], [3.0]])
    assert class_of_logits(Z).tolist() == [1, 0, 1]
    Z = np.array([[0.1, 0.1, 0.0], [0.0, 0.2, 0.3]])
    labels = class_of_logits(Z)
    assert labels.dtype == np.int64 and labels.tolist() == [1, 3]
