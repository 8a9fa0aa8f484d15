"""Desk-scale trainers (logistic regression and small MLPs via plain SGD
backprop), the three retraining modes, and the two shift-magnitude
identification strategies.

Labels follow the classification conventions of the rest of the package:
{0, 1} for single-logit models, {1, ..., l} for multi-logit ones.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .intervals import ShiftSet, sigmoid
from .models import (
    Layer,
    LogisticModel,
    ParametricModel,
    ReluNetwork,
    affine_layers,
    classify_batch,
    counterfactual_target,
    flatten,
    from_affine_layers,
    p_distance,
)

__all__ = [
    "TrainConfig",
    "RetrainSpec",
    "init_model",
    "train",
    "fine_tune",
    "loss_and_grad",
    "retrain_fleet",
    "estimate_delta_incremental",
    "estimate_delta_validation",
]

DEFAULT_DELTA_GRID = tuple(np.round(np.arange(0.005, 0.30001, 0.005), 6))
DEFAULT_FRACTIONS = (0.02, 0.04, 0.06, 0.08, 0.10, 0.12, 0.14, 0.16, 0.18, 0.20)


@dataclass
class TrainConfig:
    learning_rate: float = 0.1
    epochs: int = 200
    batch_size: int = 32
    seed: int = 0
    l2: float = 0.0

    def __post_init__(self):
        if self.learning_rate <= 0 or self.epochs < 0 or self.batch_size <= 0:
            raise ValueError("learning rate and batch size must be positive, epochs >= 0")


@dataclass
class RetrainSpec:
    """How the deployed model gets retrained: incremental fine-tuning on a
    fraction of the incoming data, complete retraining on everything, or
    leave-one-out retraining with 1% of the original data removed."""

    mode: str  # "incremental" | "complete" | "leave_one_out"
    replicas: int = 5
    fraction: float = 0.10  # incremental only
    iterations: int = 10  # incremental fine-tuning epochs
    removed: float = 0.01  # leave_one_out only
    seeds: tuple = field(default_factory=tuple)

    def __post_init__(self):
        if self.mode not in ("incremental", "complete", "leave_one_out"):
            raise ValueError(f"unknown retrain mode {self.mode!r}")
        if not 0 < self.fraction <= 1:
            raise ValueError("fraction must be in (0, 1]")
        if self.replicas < 1:
            raise ValueError("replica count must be >= 1")


def _arch_layout(architecture, input_dim: int, num_classes: int):
    out = 1 if num_classes == 2 else num_classes
    hidden = tuple(architecture) if architecture else ()
    sizes = (input_dim,) + hidden + (out,)
    return sizes


def init_model(architecture, input_dim: int, num_classes: int, seed: int) -> ParametricModel:
    """He-style uniform initialisation, biases at zero, fixed seed."""
    rng = np.random.default_rng(seed)
    if architecture in ("logistic", None):
        scale = np.sqrt(2.0 / input_dim)
        return LogisticModel(weights=rng.uniform(-scale, scale, input_dim), bias=0.0)
    sizes = _arch_layout(architecture, input_dim, num_classes)
    layers = []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        scale = np.sqrt(2.0 / fan_in)
        layers.append(
            Layer(weights=rng.uniform(-scale, scale, (fan_out, fan_in)), bias=np.zeros(fan_out))
        )
    return ReluNetwork(layers=tuple(layers))


def _as_layer_params(model: ParametricModel):
    """Writable copies of the model's affine layers, for SGD to update."""
    return [(w.copy(), None if b is None else b.copy()) for w, b in affine_layers(model)]


def _softmax(Z: np.ndarray) -> np.ndarray:
    Z = Z - Z.max(axis=1, keepdims=True)
    E = np.exp(Z)
    return E / E.sum(axis=1, keepdims=True)


def _loss_and_param_grads(params, X, y, num_outputs, l2):
    """Cross-entropy (on sigmoid/softmax of the logits) and its gradients."""
    acts = [X]
    V = X
    for i, (w, b) in enumerate(params):
        V = V @ w.T
        if b is not None:
            V = V + b
        if i < len(params) - 1:
            V = np.maximum(V, 0.0)
            acts.append(V)
    m = X.shape[0]
    if num_outputs == 1:
        p = sigmoid(V[:, 0])
        eps = 1e-12
        loss = -np.mean(y * np.log(p + eps) + (1 - y) * np.log(1 - p + eps))
        dz = ((p - y) / m)[:, None]
    else:
        P = _softmax(V)
        onehot = np.zeros_like(P)
        onehot[np.arange(m), np.asarray(y, dtype=np.int64) - 1] = 1.0
        loss = -np.mean(np.log((P * onehot).sum(axis=1) + 1e-12))
        dz = (P - onehot) / m
    grads = []
    g = dz
    for i in range(len(params) - 1, -1, -1):
        w, b = params[i]
        gw = g.T @ acts[i]
        if l2:
            gw = gw + l2 * w
            loss += 0.5 * l2 * float((w**2).sum())
        gb = g.sum(axis=0) if b is not None else None
        grads.append((gw, gb))
        if i > 0:
            g = (g @ w) * (acts[i] > 0)
    grads.reverse()
    return loss, grads


def loss_and_grad(model: ParametricModel, X, y, l2: float = 0.0):
    """Loss and the gradient as a flat vector in flatten() order (for
    finite-difference checks)."""
    params = _as_layer_params(model)
    loss, grads = _loss_and_param_grads(params, np.asarray(X, float), np.asarray(y), model.num_outputs, l2)
    parts = []
    for (w, b), (gw, gb) in zip(params, grads):
        parts.append(gw.flatten(order="F"))
        if gb is not None:
            parts.append(gb)
    return loss, np.concatenate(parts)


def _sgd(params, X, y, num_outputs, config: TrainConfig, epochs: int):
    rng = np.random.default_rng(config.seed)
    m = X.shape[0]
    for _ in range(epochs):
        order = rng.permutation(m)
        for start in range(0, m, config.batch_size):
            batch = order[start : start + config.batch_size]
            loss, grads = _loss_and_param_grads(
                params, X[batch], y[batch], num_outputs, config.l2
            )
            if not np.isfinite(loss):
                raise RuntimeError("training diverged: non-finite loss")
            for i, ((w, b), (gw, gb)) in enumerate(zip(params, grads)):
                w -= config.learning_rate * gw
                if b is not None:
                    b -= config.learning_rate * gb
    return params


def train(X, y, architecture, config: TrainConfig, init: ParametricModel | None = None) -> ParametricModel:
    """Train from a seeded initialisation (or the given warm start)."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    if init is None:
        num_classes = 2 if architecture in ("logistic", None) else _num_classes_from_labels(y)
        init = init_model(architecture, X.shape[1], num_classes, config.seed)
    params = _as_layer_params(init)
    params = _sgd(params, X, y, init.num_outputs, config, config.epochs)
    return from_affine_layers(init, params)


def _is_multi(y) -> bool:
    return int(np.max(y)) > 1 and 0 not in np.unique(y)


def _num_classes_from_labels(y) -> int:
    return int(np.max(y)) if _is_multi(y) else 2


def fine_tune(model: ParametricModel, X, y, iterations: int, config: TrainConfig) -> ParametricModel:
    """Warm-started SGD continuation on a data subset; the input model is
    left untouched."""
    X = np.asarray(X, dtype=np.float64)
    if X.shape[0] == 0 or iterations == 0:
        return model
    params = _as_layer_params(model)
    params = _sgd(params, X, np.asarray(y), model.num_outputs, config, iterations)
    return from_affine_layers(model, params)


def retrain_fleet(
    model: ParametricModel,
    X1,
    y1,
    X2,
    y2,
    spec: RetrainSpec,
    architecture,
    config: TrainConfig,
) -> list[ParametricModel]:
    """Replica retrained models according to the spec's mode."""
    X1, y1 = np.asarray(X1, float), np.asarray(y1)
    X2, y2 = np.asarray(X2, float), np.asarray(y2)
    seeds = spec.seeds or tuple(config.seed + 1000 + r for r in range(spec.replicas))
    # "Same hyperparameter setting" includes the initialisation seed; replica
    # variation comes from the shuffling seed and the data subset.
    fresh_init = init_model(
        architecture, X1.shape[1], _num_classes_from_labels(y1), config.seed
    )
    fleet = []
    for r in range(spec.replicas):
        rng = np.random.default_rng(seeds[r])
        cfg = replace(config, seed=seeds[r])
        if spec.mode == "incremental":
            k = max(1, int(round(spec.fraction * X2.shape[0])))
            pick = rng.choice(X2.shape[0], size=k, replace=False)
            fleet.append(fine_tune(model, X2[pick], y2[pick], spec.iterations, cfg))
        elif spec.mode == "complete":
            X = np.vstack([X1, X2])
            y = np.concatenate([y1, y2])
            fleet.append(train(X, y, architecture, cfg, init=fresh_init))
        else:  # leave_one_out
            keep = rng.permutation(X1.shape[0])[int(np.ceil(spec.removed * X1.shape[0])) :]
            fleet.append(train(X1[keep], y1[keep], architecture, cfg, init=fresh_init))
    return fleet


def estimate_delta_incremental(
    model: ParametricModel,
    X2,
    y2,
    fractions=DEFAULT_FRACTIONS,
    replicas: int = 5,
    iterations: int = 10,
    config: TrainConfig | None = None,
) -> dict:
    """Mean inf-distance to incrementally retrained replicas, per fraction.

    The value at fraction 0.10 is reported as the incremental shift target.
    """
    X2, y2 = np.asarray(X2, float), np.asarray(y2)
    config = config or TrainConfig()
    theta = flatten(model)
    per_fraction = []
    for f in fractions:
        if not 0 <= f <= 1:
            raise ValueError("fractions must lie in [0, 1]")
        dists = []
        for r in range(replicas):
            seed = config.seed + 101 * r + int(round(f * 10000))
            rng = np.random.default_rng(seed)
            k = int(round(f * X2.shape[0]))
            if k == 0:
                dists.append(0.0)
                continue
            pick = rng.choice(X2.shape[0], size=k, replace=False)
            tuned = fine_tune(model, X2[pick], y2[pick], iterations, replace(config, seed=seed))
            dists.append(p_distance(theta, flatten(tuned), "inf"))
        per_fraction.append({"fraction": float(f), "delta": float(np.mean(dists))})
    named = [row["delta"] for row in per_fraction if abs(row["fraction"] - 0.10) < 1e-9]
    delta_inc = named[0] if named else per_fraction[-1]["delta"]
    return {
        "strategy": "incremental",
        "fractions": [row["fraction"] for row in per_fraction],
        "per_point": per_fraction,
        "delta_inc": delta_inc,
    }


def estimate_delta_validation(
    model: ParametricModel,
    retrained: list[ParametricModel],
    X_candidates,
    val_inputs,
    targets=None,
    grid=DEFAULT_DELTA_GRID,
    p="inf",
) -> dict:
    """Smallest grid shift magnitude whose certified counterfactuals are all
    valid under every retrained model.

    Counterfactuals come from the robust nearest-neighbour generator with
    both flags off.  Its candidates, the target-class rows, then depend on
    neither the magnitude nor the input, so each target's candidate set
    (:class:`KDTree`) is built once and walked at every magnitude.
    Magnitudes where it finds none for some validation input are skipped
    with a warning; if no magnitude reaches full validity the grid maximum
    is returned flagged ``not_reached``.
    """
    # Deferred, since generators import the verifier stack; taken from
    # generators so that rebinding a name there (as a tracer does) reaches here.
    from .generators import KDTree, get_candidates, get_robust_ce

    if not retrained:
        raise ValueError("need at least one retrained model")
    X_candidates = np.asarray(X_candidates, dtype=np.float64)
    val_inputs = [np.asarray(v, dtype=np.float64) for v in val_inputs]
    if not val_inputs:
        raise ValueError("need at least one validation input")
    if targets is None:
        targets = [None] * len(val_inputs)
    elif len(targets) != len(val_inputs):
        raise ValueError(f"{len(targets)} targets for {len(val_inputs)} validation inputs")
    grid = sorted(float(g) for g in grid)
    trees = {}  # target -> KDTree of its candidates, None when there are none
    per_point = []
    for delta in grid:
        shift = ShiftSet(p, delta)
        ces, tgt = [], []
        failed = False
        for x, t in zip(val_inputs, targets):
            target = counterfactual_target(model, x, t)
            if target not in trees:
                idx = get_candidates(model, X_candidates, x, shift, target=target)
                trees[target] = KDTree(X_candidates[idx]) if idx.size else None
            tree = trees[target]
            record = None if tree is None else get_robust_ce(model, shift, tree, x, target)
            if record is None or not record.found:
                warnings.warn(
                    f"generator found no counterfactual at delta={delta}; skipping this magnitude"
                )
                failed = True
                break
            ces.append(record.x_prime)
            tgt.append(target)
        if failed:
            per_point.append({"delta": delta, "validity": None})
            continue
        ces = np.vstack(ces)
        valid = np.logical_and.reduce([classify_batch(m, ces) == tgt for m in retrained])
        validity = int(valid.sum()) / len(ces)
        per_point.append({"delta": delta, "validity": validity})
        if validity == 1.0:
            return {
                "strategy": "validation",
                "grid": grid,
                "per_point": per_point,
                "delta_val": delta,
                "not_reached": False,
            }
    return {
        "strategy": "validation",
        "grid": grid,
        "per_point": per_point,
        "delta_val": grid[-1],
        "not_reached": True,
    }
