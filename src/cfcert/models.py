"""Classifier representations, forward pass, classification semantics and
parameter-space distance.

Two model families are supported: logistic regression and fully connected
ReLU networks.  Both expose raw logits as the canonical output; sigmoid /
softmax squashing only happens in the training loss, never inside the
certification machinery.

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
    "forward",
    "forward_batch",
    "classify",
    "classify_batch",
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


def forward(model: ParametricModel, x) -> np.ndarray:
    """Raw pre-squash logits of the model at x (always a 1-D vector)."""
    if isinstance(model, LogisticModel):
        v = as_feature_vector(x, model.input_dim)
        z = float(model.weights @ v)
        if model.bias is not None:
            z += model.bias
        return np.array([z])
    v = as_feature_vector(x, model.input_dim)
    for i, layer in enumerate(model.layers):
        v = layer.weights @ v
        if layer.bias is not None:
            v = v + layer.bias
        if i < len(model.layers) - 1:
            v = np.maximum(v, 0.0)
    return v


def forward_batch(model: ParametricModel, X: np.ndarray) -> np.ndarray:
    """Logits for a batch of rows, shape (rows, num_outputs)."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.input_dim:
        raise ValueError(f"batch shape {X.shape} does not match input dim {model.input_dim}")
    if isinstance(model, LogisticModel):
        z = X @ model.weights
        if model.bias is not None:
            z = z + model.bias
        return z[:, None]
    V = X
    for i, layer in enumerate(model.layers):
        V = V @ layer.weights.T
        if layer.bias is not None:
            V = V + layer.bias
        if i < len(model.layers) - 1:
            V = np.maximum(V, 0.0)
    return V


def classify_batch(model: ParametricModel, X: np.ndarray) -> np.ndarray:
    """Vectorised point classification over rows of X."""
    Z = forward_batch(model, X)
    if model.num_outputs == 1:
        return (Z[:, 0] >= 0.0).astype(np.int64)
    return np.argmax(Z, axis=1).astype(np.int64) + 1


def classify(model: ParametricModel, x) -> int:
    """Point class.  One logit: 1 iff it is >= 0 (sigmoid >= 0.5, boundary
    inclusive), else 0.  Several logits: the argmax in {1, ..., l}, ties to
    the lowest class index."""
    z = forward(model, x)
    if z.size == 1:
        return 1 if z[0] >= 0.0 else 0
    return int(np.argmax(z)) + 1


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


def p_distance(theta: np.ndarray, theta_prime: np.ndarray, p) -> float:
    """p-norm of the difference of two flattened parameter vectors."""
    a = np.asarray(theta, dtype=np.float64).reshape(-1)
    b = np.asarray(theta_prime, dtype=np.float64).reshape(-1)
    if a.size != b.size:
        raise ValueError(f"parameter vectors differ in length ({a.size} vs {b.size})")
    diff = np.abs(a - b)
    if p in ("inf", np.inf) or p == float("inf"):
        return float(diff.max(initial=0.0))
    p = float(p)
    if p <= 0:
        raise ValueError("norm order must be positive or inf")
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
    if isinstance(model, LogisticModel):
        parts = [model.weights]
        if model.bias is not None:
            parts.append(np.array([model.bias]))
        return np.concatenate(parts)
    parts = []
    for layer in model.layers:
        parts.append(layer.weights.flatten(order="F"))
        if layer.bias is not None:
            parts.append(layer.bias)
    return np.concatenate(parts)


def unflatten(template: ParametricModel, theta) -> ParametricModel:
    """Rebuild a model with the template's architecture from a flat vector."""
    theta = np.asarray(theta, dtype=np.float64).reshape(-1)
    expected = num_params(template)
    if theta.size != expected:
        raise ValueError(f"parameter vector has length {theta.size}, expected {expected}")
    if isinstance(template, LogisticModel):
        n = template.input_dim
        bias = float(theta[n]) if template.bias is not None else None
        return LogisticModel(weights=theta[:n], bias=bias)
    layers = []
    pos = 0
    for layer in template.layers:
        size = layer.weights.size
        w = theta[pos : pos + size].reshape(layer.weights.shape, order="F")
        pos += size
        b = None
        if layer.bias is not None:
            b = theta[pos : pos + layer.out_dim]
            pos += layer.out_dim
        layers.append(Layer(weights=w, bias=b))
    return ReluNetwork(layers=tuple(layers))


# ---------------------------------------------------------------------------
# JSON persistence
# ---------------------------------------------------------------------------


def model_to_dict(model: ParametricModel) -> dict:
    if isinstance(model, LogisticModel):
        layers = [
            {
                "weights": [model.weights.tolist()],
                "bias": None if model.bias is None else [model.bias],
            }
        ]
        return {
            "model_type": "logistic",
            "input_dim": model.input_dim,
            "num_classes": 2,
            "layers": layers,
        }
    return {
        "model_type": "relu_network",
        "input_dim": model.input_dim,
        "num_classes": model.num_classes,
        "layers": [
            {
                "weights": layer.weights.tolist(),
                "bias": None if layer.bias is None else layer.bias.tolist(),
            }
            for layer in model.layers
        ],
    }


def model_from_dict(doc: dict) -> ParametricModel:
    kind = doc.get("model_type")
    layers = doc.get("layers")
    if not layers:
        raise ValueError("model document has no layers")
    if kind == "logistic":
        spec = layers[0]
        w = np.asarray(spec["weights"], dtype=np.float64).reshape(-1)
        bias = spec.get("bias")
        model: ParametricModel = LogisticModel(
            weights=w, bias=None if bias is None else float(np.asarray(bias).reshape(-1)[0])
        )
    elif kind == "relu_network":
        built = []
        for spec in layers:
            bias = spec.get("bias")
            built.append(
                Layer(
                    weights=np.asarray(spec["weights"], dtype=np.float64),
                    bias=None if bias is None else np.asarray(bias, dtype=np.float64),
                )
            )
        model = ReluNetwork(layers=tuple(built))
    else:
        raise ValueError(f"unknown model_type {kind!r}")
    declared = doc.get("input_dim")
    if declared is not None and int(declared) != model.input_dim:
        raise ValueError(
            f"declared input_dim {declared} does not match layer shapes ({model.input_dim})"
        )
    return model


def save_model(model: ParametricModel, path) -> None:
    with open(path, "w") as fh:
        json.dump(model_to_dict(model), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_model(path) -> ParametricModel:
    with open(path) as fh:
        return model_from_dict(json.load(fh))
