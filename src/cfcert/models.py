"""Classifier representations, forward pass, classification semantics and
parameter-space distance.

Two model families are supported: logistic regression and fully connected
ReLU networks.  Both expose raw logits as the canonical output; sigmoid /
softmax squashing only happens in the training loss, never inside the
certification machinery.

Every other module reads a model as a stack of affine layers through
:func:`affine_layers` and rebuilds one through :func:`from_affine_layers`; a
logistic model is the one-layer, one-row stack.  How each family stores its
parameters is known only here.

The bias of a model (per layer) is optional.  When present it is an ordinary
parameter: it takes part in the flattened parameter vector and therefore in
parameter-shift reasoning.  When ``None`` the model simply has no bias term,
which is how several of the small test fixtures in this repository are built.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Union

import numpy as np

__all__ = [
    "Layer",
    "LogisticModel",
    "ReluNetwork",
    "ParametricModel",
    "affine_layers",
    "from_affine_layers",
    "pre_activations",
    "forward",
    "forward_batch",
    "classify",
    "classify_batch",
    "class_of_logits",
    "check_target",
    "counterfactual_target",
    "p_distance",
    "flatten",
    "unflatten",
    "num_params",
    "save_model",
    "load_model",
    "model_to_dict",
    "model_from_dict",
]


def _frozen(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=np.float64)
    out.flags.writeable = False
    return out


def _check_finite(a: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{what} must be finite")


@dataclass(frozen=True)
class LogisticModel:
    """Single-logit linear classifier: logit(x) = w . x (+ b)."""

    weights: np.ndarray
    bias: float | None = None

    def __post_init__(self):
        w = _frozen(np.atleast_1d(self.weights))
        if w.ndim != 1 or w.size == 0:
            raise ValueError("weights must be a non-empty 1-D vector")
        _check_finite(w, "weights")
        object.__setattr__(self, "weights", w)
        if self.bias is not None:
            b = float(self.bias)
            if not np.isfinite(b):
                raise ValueError("bias must be finite")
            object.__setattr__(self, "bias", b)
        bias = None if self.bias is None else _frozen([self.bias])
        object.__setattr__(self, "_affine", ((w.reshape(1, -1), bias),))

    @property
    def input_dim(self) -> int:
        return self.weights.size

    @property
    def num_classes(self) -> int:
        return 2

    @property
    def num_outputs(self) -> int:
        return 1


@dataclass(frozen=True)
class Layer:
    """One affine layer: weights of shape (out, in), optional bias (out,)."""

    weights: np.ndarray
    bias: np.ndarray | None = None

    def __post_init__(self):
        w = _frozen(np.atleast_2d(self.weights))
        if w.ndim != 2 or w.size == 0:
            raise ValueError("layer weights must be a non-empty 2-D matrix")
        _check_finite(w, "layer weights")
        object.__setattr__(self, "weights", w)
        if self.bias is not None:
            b = _frozen(np.atleast_1d(self.bias))
            if b.shape != (w.shape[0],):
                raise ValueError(
                    f"bias length {b.shape} does not match layer output size {w.shape[0]}"
                )
            _check_finite(b, "layer bias")
            object.__setattr__(self, "bias", b)

    @property
    def out_dim(self) -> int:
        return self.weights.shape[0]

    @property
    def in_dim(self) -> int:
        return self.weights.shape[1]


@dataclass(frozen=True)
class ReluNetwork:
    """Fully connected network, ReLU on hidden layers, raw logits out.

    A single layer is allowed (no hidden ReLU), which doubles as a linear
    multi-logit (softmax) classifier.
    """

    layers: tuple[Layer, ...]

    def __post_init__(self):
        layers = tuple(self.layers)
        if not layers:
            raise ValueError("network needs at least one layer")
        for prev, nxt in zip(layers, layers[1:]):
            if nxt.in_dim != prev.out_dim:
                raise ValueError(
                    f"layer input size {nxt.in_dim} does not chain with previous output {prev.out_dim}"
                )
        object.__setattr__(self, "layers", layers)
        object.__setattr__(self, "_affine", tuple((layer.weights, layer.bias) for layer in layers))

    @property
    def input_dim(self) -> int:
        return self.layers[0].in_dim

    @property
    def num_outputs(self) -> int:
        return self.layers[-1].out_dim

    @property
    def num_classes(self) -> int:
        return 2 if self.num_outputs == 1 else self.num_outputs

    @property
    def hidden_sizes(self) -> tuple[int, ...]:
        return tuple(layer.out_dim for layer in self.layers[:-1])


ParametricModel = Union[LogisticModel, ReluNetwork]


def as_feature_vector(x, dim: int | None = None) -> np.ndarray:
    """Validate an input point: finite 1-D float vector, optionally of length dim."""
    v = np.asarray(x, dtype=np.float64).reshape(-1)
    if not np.all(np.isfinite(v)):
        raise ValueError("feature vector must be finite")
    if dim is not None and v.size != dim:
        raise ValueError(f"feature vector has length {v.size}, model expects {dim}")
    return v


def affine_layers(model: ParametricModel) -> tuple:
    """The model as affine layers (W, b or None), ReLU between them and raw
    logits out.  A logistic model is one layer of one row.  Each model builds
    this read-only view once, when it is constructed."""
    return model._affine


def _kind(model: ParametricModel) -> str:
    return "logistic" if isinstance(model, LogisticModel) else "relu_network"


def _from_layers(kind: str, layers: tuple[Layer, ...]) -> ParametricModel:
    if kind == "relu_network":
        return ReluNetwork(layers=layers)
    if len(layers) != 1 or layers[0].out_dim != 1:
        shapes = [layer.weights.shape for layer in layers]
        raise ValueError(f"a logistic model is one layer of one row, got weight shapes {shapes}")
    (layer,) = layers
    return LogisticModel(
        weights=layer.weights[0], bias=None if layer.bias is None else layer.bias[0]
    )


def from_affine_layers(template: ParametricModel, layers) -> ParametricModel:
    """Inverse of :func:`affine_layers`: a model of the template's type."""
    return _from_layers(_kind(template), tuple(Layer(weights=w, bias=b) for w, b in layers))


def _rows_matvec(w: np.ndarray, V: np.ndarray) -> np.ndarray:
    """``w @ v`` for a vector V, or for each row v of a stack V.  A stack
    goes through the same BLAS matrix-vector call as a lone ``w @ v``, so
    each row equals it bit for bit (``V @ w.T`` is one matrix product and
    does not)."""
    return np.matmul(w, V[..., None])[..., 0]


def pre_activations(model: ParametricModel, X) -> list[np.ndarray]:
    """Pre-activation of every layer, the logits last, at a vector or at
    each row of a (k, n) batch: the point twin of
    :func:`~cfcert.intervals.interval_bounds`.  Row i equals the result for
    row i alone, bit for bit, at any batch size and memory layout: a
    matrix-vector product's bits depend on the vector's stride, so the
    input is read as a C-contiguous array."""
    V = np.ascontiguousarray(X, dtype=np.float64)
    pre = []
    for w, b in affine_layers(model):
        if pre:
            V = np.maximum(pre[-1], 0.0)
        V = _rows_matvec(w, V)
        pre.append(V if b is None else V + b)
    return pre


def forward(model: ParametricModel, x) -> np.ndarray:
    """Raw pre-squash logits of the model at x (always a 1-D vector)."""
    return pre_activations(model, as_feature_vector(x, model.input_dim))[-1]


def forward_batch(model: ParametricModel, X: np.ndarray) -> np.ndarray:
    """Logits for a batch of rows, shape (rows, num_outputs); each row is
    :func:`forward` of that row, bit for bit."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.input_dim:
        raise ValueError(f"batch shape {X.shape} does not match input dim {model.input_dim}")
    return pre_activations(model, X)[-1]


def class_of_logits(z):
    """The point-class rule on a logit vector (an int), or on a batch of
    logit vectors, one row each (an int64 array).  One logit: 1 iff it is
    >= 0 (sigmoid >= 0.5, boundary inclusive), else 0.  Several logits: the
    argmax in {1, ..., l}, ties to the lowest class index."""
    if z.ndim == 1:
        return int(z[0] >= 0.0) if z.size == 1 else int(np.argmax(z)) + 1
    if z.shape[1] == 1:
        return (z[:, 0] >= 0.0).astype(np.int64)
    return np.argmax(z, axis=1).astype(np.int64) + 1


def classify_batch(model: ParametricModel, X: np.ndarray) -> np.ndarray:
    """Vectorised point classification over rows of X."""
    return class_of_logits(forward_batch(model, X))


def classify(model: ParametricModel, x) -> int:
    """Point class of x by :func:`class_of_logits`."""
    return class_of_logits(forward(model, x))


def check_target(model: ParametricModel, target: int) -> None:
    """Reject a class label the model cannot output: {0, 1} for a single
    logit, {1, ..., l} for l logits."""
    if not isinstance(target, (int, np.integer)):
        raise ValueError(f"target class {target!r} is not an integer")
    n_out = model.num_outputs
    if n_out == 1 and target not in (0, 1):
        raise ValueError("binary target must be 0 or 1")
    if n_out > 1 and not 1 <= target <= n_out:
        raise ValueError(f"target class {target} out of range 1..{n_out}")


def counterfactual_target(model: ParametricModel, x, target: int | None) -> int:
    """The class a counterfactual for x aims at: ``target`` when given,
    else the other class of a single-logit model's point class at x.  A
    multi-logit model has no other class, so it needs ``target``."""
    if target is None:
        if model.num_outputs != 1:
            raise ValueError("multi-class counterfactual needs an explicit target class")
        target = 1 - classify(model, x)
    check_target(model, target)
    return target


def _norm_p(p) -> float:
    """A norm order as a float: 1, 2 or inf (also "inf", "Inf" or "INF")."""
    p = float("inf") if p in ("inf", "Inf", "INF") else float(p)
    if p not in (1.0, 2.0, float("inf")):
        raise ValueError("supported norm orders are 1, 2 and inf")
    return p


def p_distance(theta: np.ndarray, theta_prime: np.ndarray, p) -> float:
    """p-norm (an order :func:`_norm_p` reads) of the difference of two vectors."""
    p = _norm_p(p)
    a = np.asarray(theta, dtype=np.float64).reshape(-1)
    b = np.asarray(theta_prime, dtype=np.float64).reshape(-1)
    if a.size != b.size:
        raise ValueError(f"parameter vectors differ in length ({a.size} vs {b.size})")
    diff = np.abs(a - b)
    if p == float("inf"):
        return float(diff.max(initial=0.0))
    if p == 1:
        return float(diff.sum())
    return float((diff**p).sum() ** (1.0 / p))


def num_params(model: ParametricModel) -> int:
    return flatten(model).size


def flatten(model: ParametricModel) -> np.ndarray:
    """Parameter vector [vec(W1) vec(B1) ... vec(Wk+1) vec(Bk+1)].

    Matrices are vectorised column-by-column; absent biases contribute
    nothing.  Logistic models flatten to [w; b].
    """
    parts = []
    for w, b in affine_layers(model):
        parts.append(w.flatten(order="F"))
        if b is not None:
            parts.append(b)
    return np.concatenate(parts)


def unflatten(template: ParametricModel, theta) -> ParametricModel:
    """Rebuild a model with the template's architecture from a flat vector."""
    theta = np.asarray(theta, dtype=np.float64).reshape(-1)
    expected = num_params(template)
    if theta.size != expected:
        raise ValueError(f"parameter vector has length {theta.size}, expected {expected}")
    layers = []
    pos = 0
    for w, b in affine_layers(template):
        w_new = theta[pos : pos + w.size].reshape(w.shape, order="F")
        pos += w.size
        b_new = None
        if b is not None:
            b_new = theta[pos : pos + b.size]
            pos += b.size
        layers.append((w_new, b_new))
    return from_affine_layers(template, layers)


# ---------------------------------------------------------------------------
# JSON persistence
# ---------------------------------------------------------------------------


def model_to_dict(model: ParametricModel) -> dict:
    return {
        "model_type": _kind(model),
        "input_dim": model.input_dim,
        "num_classes": model.num_classes,
        "layers": [
            {"weights": w.tolist(), "bias": None if b is None else b.tolist()}
            for w, b in affine_layers(model)
        ],
    }


def model_from_dict(doc: dict) -> ParametricModel:
    """Build the layers a document lists, then the model of its
    ``model_type``; a ``"logistic"`` document holds one layer of one row."""
    kind = doc.get("model_type")
    if kind not in ("logistic", "relu_network"):
        raise ValueError(f"unknown model_type {kind!r}")
    specs = doc.get("layers")
    if not specs:
        raise ValueError("model document has no layers")
    layers = tuple(_layer_from_dict(i, spec) for i, spec in enumerate(specs))
    model = _from_layers(kind, layers)
    for key in ("input_dim", "num_classes"):
        declared, actual = doc.get(key), getattr(model, key)
        if declared is not None and int(declared) != actual:
            raise ValueError(f"declared {key} {declared} does not match layer shapes ({actual})")
    return model


def _layer_from_dict(i: int, spec) -> Layer:
    if not isinstance(spec, dict) or "weights" not in spec:
        raise ValueError(f'model layer {i} must be an object with "weights"')
    bias = spec.get("bias")
    return Layer(
        weights=np.asarray(spec["weights"], dtype=np.float64),
        bias=None if bias is None else np.asarray(bias, dtype=np.float64),
    )


def save_model(model: ParametricModel, path) -> None:
    with open(path, "w") as fh:
        json.dump(model_to_dict(model), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_model(path) -> ParametricModel:
    with open(path) as fh:
        return model_from_dict(json.load(fh))
