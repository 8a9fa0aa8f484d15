"""Desk-scale trainers (logistic regression and small MLPs via plain SGD
backprop), the three retraining modes, and the two shift-magnitude
identification strategies.

Labels follow the classification conventions of the rest of the package:
{0, 1} for single-logit models, {1, ..., l} for multi-logit ones.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

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
        if self.seeds and len(self.seeds) != self.replicas:
            raise ValueError(f"{len(self.seeds)} seeds for {self.replicas} replicas")
        if not 0 <= self.removed < 1:
            raise ValueError("removed must be in [0, 1)")
        if self.iterations < 0:
            raise ValueError("iterations must be >= 0")


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


def _softmax(Z: np.ndarray) -> np.ndarray:
    Z = Z - Z.max(axis=-1, keepdims=True)
    E = np.exp(Z)
    return E / E.sum(axis=-1, keepdims=True)


def _stack(model: ParametricModel, replicas: int):
    """Writable copies of the model's affine layers for SGD to update, one
    per replica: ``(R, out, in)`` weights and ``(R, 1, out)`` biases."""
    return [
        (np.tile(w, (replicas, 1, 1)), None if b is None else np.tile(b, (replicas, 1, 1)))
        for w, b in affine_layers(model)
    ]


def _targets(model: ParametricModel, y) -> np.ndarray:
    """What the loss compares the logits with: the 0/1 labels of a
    single-logit model, one-hot rows over the classes otherwise."""
    y = np.asarray(y)
    return y if model.num_outputs == 1 else np.eye(model.num_outputs)[y.astype(np.int64) - 1]


def _loss_and_param_grads(params, X, T, l2):
    """Cross-entropy (on sigmoid/softmax of the logits) of each replica in a
    stack, and its gradients.

    ``params`` is a :func:`_stack`, ``X`` is ``(R, batch, in)`` and ``T``
    the rows' :func:`_targets`.  Replica r's slice is bit for bit a lone
    replica's arithmetic: each matmul slice is the lone 2-D product's BLAS
    call on the same layout, and every reduction runs along replica r's own
    batch axis.
    """
    acts = [X]
    V = X
    for i, (w, b) in enumerate(params):
        V = V @ w.transpose(0, 2, 1)
        if b is not None:
            V += b
        if i < len(params) - 1:
            np.maximum(V, 0.0, out=V)
            acts.append(V)
    m = X.shape[1]
    if T.ndim == 2:
        p = sigmoid(V[..., 0])
        eps = 1e-12
        loss = -(T * np.log(p + eps) + (1 - T) * np.log(1 - p + eps)).sum(axis=1) / m
        dz = ((p - T) / m)[..., None]
    else:
        P = _softmax(V)
        loss = -np.log((P * T).sum(axis=-1) + 1e-12).sum(axis=1) / m
        dz = (P - T) / m
    grads = []
    g = dz
    for i in range(len(params) - 1, -1, -1):
        w, b = params[i]
        gw = g.transpose(0, 2, 1) @ acts[i]
        if l2:
            gw += l2 * w
            loss += 0.5 * l2 * (w**2).sum(axis=(1, 2))
        gb = g.sum(axis=1, keepdims=True) if b is not None else None
        grads.append((gw, gb))
        if i > 0:
            g = (g @ w) * (acts[i] > 0)
    grads.reverse()
    return loss, grads


def loss_and_grad(model: ParametricModel, X, y, l2: float = 0.0):
    """Loss and the gradient as a flat vector in flatten() order (for
    finite-difference checks)."""
    X, y = np.asarray(X, float), np.asarray(y)
    loss, grads = _loss_and_param_grads(_stack(model, 1), X[None], _targets(model, y)[None], l2)
    parts = []
    for gw, gb in grads:
        parts.append(gw[0].flatten(order="F"))
        if gb is not None:
            parts.append(gb[0, 0])
    return loss[0], np.concatenate(parts)


def _sgd(model: ParametricModel, Xs, ys, seeds, config: TrainConfig, epochs: int) -> list:
    """Minibatch SGD from ``model`` for R replicas that step as one stack.

    Replica r trains on rows ``Xs[r]`` with labels ``ys[r]`` and shuffles
    each epoch with its own ``default_rng(seeds[r])``; its parameters equal
    a lone run's bit for bit.  With no epochs or no rows the input model
    itself is every replica.
    """
    R, m = Xs.shape[:2]
    if epochs == 0 or m == 0:
        return [model] * R
    params = _stack(model, R)
    Ts = _targets(model, ys)
    rngs = [np.random.default_rng(seed) for seed in seeds]
    replica = np.arange(R)[:, None]
    rate, size = config.learning_rate, config.batch_size
    for _ in range(epochs):
        order = np.stack([rng.permutation(m) for rng in rngs])
        X, T = Xs[replica, order], Ts[replica, order]
        for start in range(0, m, size):
            loss, grads = _loss_and_param_grads(
                params, X[:, start : start + size], T[:, start : start + size], config.l2
            )
            if not np.isfinite(loss).all():
                raise RuntimeError("training diverged: non-finite loss")
            for (w, b), (gw, gb) in zip(params, grads):
                w -= rate * gw
                if b is not None:
                    b -= rate * gb
    return [
        from_affine_layers(model, [(w[r], None if b is None else b[r, 0]) for w, b in params])
        for r in range(R)
    ]


def train(X, y, architecture, config: TrainConfig, init: ParametricModel | None = None) -> ParametricModel:
    """Train from a seeded initialisation (or the given warm start)."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    if init is None:
        num_classes = 2 if architecture in ("logistic", None) else _num_classes_from_labels(y)
        init = init_model(architecture, X.shape[1], num_classes, config.seed)
    return _sgd(init, X[None], y[None], (config.seed,), config, config.epochs)[0]


def _is_multi(y) -> bool:
    return int(np.max(y)) > 1 and 0 not in np.unique(y)


def _num_classes_from_labels(y) -> int:
    return int(np.max(y)) if _is_multi(y) else 2


def fine_tune(model: ParametricModel, X, y, iterations: int, config: TrainConfig) -> ParametricModel:
    """Warm-started SGD continuation on a data subset; the input model is
    left untouched, and returned as is when there are no iterations or no
    rows."""
    X, y = np.asarray(X, dtype=np.float64), np.asarray(y)
    return _sgd(model, X[None], y[None], (config.seed,), config, iterations)[0]


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
    """Replica retrained models according to the spec's mode.

    A mode's replicas share every shape (the same rows for ``complete``,
    equal-size subsets otherwise), so they train as one stack.  Replica r
    draws its data subset from ``default_rng(seeds[r])`` and its shuffles
    from a fresh generator of the same seed.
    """
    X1, y1 = np.asarray(X1, float), np.asarray(y1)
    X2, y2 = np.asarray(X2, float), np.asarray(y2)
    seeds = spec.seeds or tuple(config.seed + 1000 + r for r in range(spec.replicas))
    rngs = [np.random.default_rng(seed) for seed in seeds]
    if spec.mode == "incremental":
        k = max(1, int(round(spec.fraction * X2.shape[0])))
        pick = np.stack([rng.choice(X2.shape[0], size=k, replace=False) for rng in rngs])
        return _sgd(model, X2[pick], y2[pick], seeds, config, spec.iterations)
    # "Same hyperparameter setting" includes the initialisation seed; replica
    # variation comes from the shuffling seed and the data subset.
    fresh_init = init_model(
        architecture, X1.shape[1], _num_classes_from_labels(y1), config.seed
    )
    if spec.mode == "complete":
        X, y = np.vstack([X1, X2]), np.concatenate([y1, y2])
        rows = np.broadcast_to(np.arange(X.shape[0]), (len(seeds), X.shape[0]))
    else:  # leave_one_out
        X, y = X1, y1
        drop = int(np.ceil(spec.removed * X1.shape[0]))
        rows = np.stack([rng.permutation(X1.shape[0])[drop:] for rng in rngs])
    return _sgd(fresh_init, X[rows], y[rows], seeds, config, config.epochs)


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

    A fraction's replicas fine-tune on equal-size picks, as one stack.  The
    value at fraction 0.10 is reported as the incremental shift target.
    """
    if replicas < 1 or iterations < 0:
        raise ValueError("replica count must be >= 1 and iterations >= 0")
    X2, y2 = np.asarray(X2, float), np.asarray(y2)
    config = config or TrainConfig()
    theta = flatten(model)
    per_fraction = []
    for f in fractions:
        if not 0 <= f <= 1:
            raise ValueError("fractions must lie in [0, 1]")
        k = int(round(f * X2.shape[0]))
        delta = 0.0
        if k:
            seeds = [config.seed + 101 * r + int(round(f * 10000)) for r in range(replicas)]
            pick = np.stack(
                [np.random.default_rng(seed).choice(X2.shape[0], size=k, replace=False) for seed in seeds]
            )
            tuned = _sgd(model, X2[pick], y2[pick], seeds, config, iterations)
            delta = float(np.mean([p_distance(theta, flatten(t), "inf") for t in tuned]))
        per_fraction.append({"fraction": float(f), "delta": delta})
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
