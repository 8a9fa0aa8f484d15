"""Desk-scale trainers (logistic regression and small MLPs via plain SGD
backprop), the three retraining modes, and the two shift-magnitude
identification strategies.

Labels follow the classification conventions of the rest of the package:
{0, 1} for single-logit models, {1, ..., l} for multi-logit ones; any other
label is a ``ValueError``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from itertools import groupby

import numpy as np

from .intervals import ShiftSet, sigmoid
from .kdtree import KDTree
from .models import (
    Layer,
    LogisticModel,
    ParametricModel,
    ReluNetwork,
    affine_layers,
    as_feature_vector,
    classify_batch,
    counterfactual_target,
    flatten,
    from_affine_layers,
    p_distance,
)
from .verifier import robust_flags

__all__ = [
    "TrainConfig",
    "RetrainSpec",
    "init_model",
    "train",
    "fine_tune",
    "loss_and_grad",
    "retrain_fleet",
    "train_with_fleets",
    "estimate_delta_incremental",
    "estimate_delta_validation",
]

DEFAULT_DELTA_GRID = tuple(np.round(np.arange(0.005, 0.30001, 0.005), 6))
DEFAULT_FRACTIONS = (0.02, 0.04, 0.06, 0.08, 0.10, 0.12, 0.14, 0.16, 0.18, 0.20)
# Incremental retraining fine-tunes on this share of D2 for this many epochs,
# both for the retrained fleet and for the delta_inc estimate.
INCREMENTAL_FRACTION = 0.10
INCREMENTAL_ITERATIONS = 10


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
        if not np.isfinite(self.learning_rate):
            raise ValueError(f"learning rate must be finite, got {self.learning_rate}")
        if not (np.isfinite(self.l2) and self.l2 >= 0):
            raise ValueError(f"l2 must be finite and >= 0, got {self.l2}")


@dataclass
class RetrainSpec:
    """How the deployed model gets retrained: incremental fine-tuning on a
    fraction of the incoming data, complete retraining on everything, or
    leave-one-out retraining with 1% of the original data removed."""

    mode: str  # "incremental" | "complete" | "leave_one_out"
    replicas: int = 5
    fraction: float = INCREMENTAL_FRACTION  # incremental only
    iterations: int = INCREMENTAL_ITERATIONS  # incremental fine-tuning epochs
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


def init_model(architecture, input_dim: int, num_classes: int, seed: int) -> ParametricModel:
    """He-style uniform initialisation, biases at zero, fixed seed.  A
    logistic model is the one-layer, one-row case."""
    logistic = architecture in ("logistic", None)
    hidden = () if logistic else tuple(architecture)
    sizes = (input_dim, *hidden, 1 if logistic or num_classes == 2 else num_classes)
    rng = np.random.default_rng(seed)
    layers = []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        scale = np.sqrt(2.0 / fan_in)
        layers.append(
            Layer(weights=rng.uniform(-scale, scale, (fan_out, fan_in)), bias=np.zeros(fan_out))
        )
    if logistic:
        return LogisticModel(weights=layers[0].weights[0], bias=0.0)
    return ReluNetwork(layers=tuple(layers))


def _softmax(Z: np.ndarray) -> np.ndarray:
    Z = Z - Z.max(axis=-1, keepdims=True)
    np.exp(Z, out=Z)
    Z /= Z.sum(axis=-1, keepdims=True)
    return Z


def _stack(model: ParametricModel, replicas: int):
    """Writable copies of the model's affine layers for SGD to update, one
    per replica: ``(R, out, in)`` weights and ``(R, 1, out)`` biases."""
    return [
        (np.tile(w, (replicas, 1, 1)), None if b is None else np.tile(b, (replicas, 1, 1)))
        for w, b in affine_layers(model)
    ]


def _targets(model: ParametricModel, y) -> np.ndarray:
    """What the loss compares the logits with: the 0/1 labels of a
    single-logit model, one-hot rows over the classes 1..l otherwise.  A
    label outside the model's convention is a ``ValueError``."""
    y = np.asarray(y)
    l = model.num_outputs
    bad = y[~np.isin(y, (0, 1) if l == 1 else np.arange(1, l + 1))]
    if bad.size:
        rule = "0 or 1" if l == 1 else f"in 1..{l}"
        raise ValueError(f"label {bad[0]} is not a class of this model: labels must be {rule}")
    return y if l == 1 else np.eye(l)[y.astype(np.int64) - 1]


def _logits_and_param_grads(params, X, T, l2):
    """Logits of each replica in a stack, and the gradients of its
    cross-entropy (on sigmoid/softmax of the logits) plus ``0.5 * l2 * |w|^2``.
    The loss itself is not computed: :func:`loss_and_grad` computes it from
    the logits.

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
    if T.ndim == 2:
        dz = sigmoid(V[..., 0])
        dz -= T
        dz /= X.shape[1]
        dz = dz[..., None]
    else:
        dz = _softmax(V)
        dz -= T
        dz /= X.shape[1]
    grads = []
    g = dz
    for i in range(len(params) - 1, -1, -1):
        w, b = params[i]
        gw = g.transpose(0, 2, 1) @ acts[i]
        if l2:
            gw += l2 * w
        gb = g.sum(axis=1, keepdims=True) if b is not None else None
        grads.append((gw, gb))
        if i > 0:
            g = g @ w
            g *= acts[i] > 0
    grads.reverse()
    return V, grads


def loss_and_grad(model: ParametricModel, X, y, l2: float = 0.0):
    """Loss and the gradient as a flat vector in flatten() order (for
    finite-difference checks).

    The one place the loss is computed: the mean cross-entropy of the
    pass's logits, then ``0.5 * l2 * |w|^2`` layer by layer from the last.
    """
    X, y = np.asarray(X, float), np.asarray(y)
    params, T = _stack(model, 1), _targets(model, y)[None]
    V, grads = _logits_and_param_grads(params, X[None], T, l2)
    m = X.shape[0]
    if T.ndim == 2:
        p = sigmoid(V[..., 0])
        eps = 1e-12
        loss = -(T * np.log(p + eps) + (1 - T) * np.log(1 - p + eps)).sum(axis=1) / m
    else:
        loss = -np.log((_softmax(V) * T).sum(axis=-1) + 1e-12).sum(axis=1) / m
    if l2:
        for w, _ in reversed(params):
            loss += 0.5 * l2 * (w**2).sum(axis=(1, 2))
    parts = []
    for gw, gb in grads:
        parts.append(gw[0].flatten(order="F"))
        if gb is not None:
            parts.append(gb[0, 0])
    return loss[0], np.concatenate(parts)


def _sgd(model: ParametricModel, runs, config: TrainConfig, epochs: int) -> list[list]:
    """Minibatch SGD from ``model`` for every replica of every run, as one
    schedule; one list of trained models per run.

    A run is ``(Xs, ys, seeds)``: R replicas with equal row counts, replica
    r training on rows ``Xs[r]`` with labels ``ys[r]`` and shuffling each
    epoch with its own ``default_rng(seeds[r])``.  Every replica's
    parameters equal a lone run's bit for bit.  A run with no rows, and
    every run when there are no epochs, gives the input model itself as
    each replica.

    One parameter stack holds every replica, run after run.  Each epoch
    gathers every replica's shuffled rows into one padded ``(R, max rows,
    d)`` buffer.  At each minibatch tick, each contiguous block of replicas
    whose next minibatch has the same size steps as one call on a view of
    that buffer, and updates its slice of the stack in place.  Runs of
    unequal row counts therefore share the ticks where their minibatches
    agree; a lone run is the one-block case.

    A step computes the gradients and no loss.  Divergence is checked on
    the parameters once per epoch: if after an epoch's last update any
    parameter of any replica is not finite, training stops with
    ``RuntimeError("training diverged: ...")``.  A step that goes non-finite
    is caught at the end of its epoch (its NaN and inf arithmetic runs
    silently until then), and parameters that stay finite pass however
    large they are.
    """
    runs = [(Xs, _targets(model, ys), seeds) for Xs, ys, seeds in runs]
    fleets = [[model] * len(seeds) for _, _, seeds in runs]
    live = [g for g, (Xs, _, _) in enumerate(runs) if Xs.shape[1]]
    if epochs == 0 or not live:
        return fleets
    Xs, Ts, run_seeds = zip(*(runs[g] for g in live))
    # Each replica's rows lie flat, replica after replica; a replica's
    # gather indexes its own block, and its padding repeats its first row.
    X = np.concatenate([x.reshape(-1, x.shape[2]) for x in Xs])
    T = np.concatenate([t.reshape(-1, *t.shape[2:]) for t in Ts])
    rows = np.repeat([x.shape[1] for x in Xs], [len(s) for s in run_seeds])
    seeds = [seed for s in run_seeds for seed in s]
    R, M = rows.size, int(rows.max())
    base = np.cumsum(rows) - rows
    idx = np.repeat(base, M).reshape(R, M)
    shuffles = [
        (np.random.default_rng(seed), m, idx[r, :m], offset)
        for r, (seed, m, offset) in enumerate(zip(seeds, rows, base))
    ]
    Xb = np.empty((R, M, X.shape[1]))
    Tb = np.empty((R, M, *T.shape[1:]), dtype=T.dtype)
    params = _stack(model, R)
    arrays = [a for layer in params for a in layer if a is not None]
    calls = []  # (rows, targets, parameter slices) per call, tick by tick
    for start in range(0, M, config.batch_size):
        lo = 0
        for n, block in groupby(np.minimum(rows - start, config.batch_size).tolist()):
            hi = lo + len(list(block))
            if n > 0:
                views = [(w[lo:hi], None if b is None else b[lo:hi]) for w, b in params]
                calls.append((Xb[lo:hi, start : start + n], Tb[lo:hi, start : start + n], views))
            lo = hi
    rate = config.learning_rate
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(epochs):
            for rng, m, order, offset in shuffles:
                np.add(rng.permutation(m), offset, out=order)
            # Every index is in range; "clip" lets take write into the buffer directly.
            np.take(X, idx, axis=0, out=Xb, mode="clip")
            np.take(T, idx, axis=0, out=Tb, mode="clip")
            for x, t, views in calls:
                _, grads = _logits_and_param_grads(views, x, t, config.l2)
                for (w, b), (gw, gb) in zip(views, grads):
                    gw *= rate
                    w -= gw
                    if b is not None:
                        gb *= rate
                        b -= gb
            if not all(np.isfinite(a).all() for a in arrays):
                raise RuntimeError(
                    f"training diverged: non-finite parameters after epoch {epoch + 1}"
                )
    trained = [
        from_affine_layers(model, [(w[r], None if b is None else b[r, 0]) for w, b in params])
        for r in range(R)
    ]
    for g, s in zip(live, run_seeds):
        fleets[g], trained = trained[: len(s)], trained[len(s) :]
    return fleets


def train(X, y, architecture, config: TrainConfig) -> ParametricModel:
    """:func:`fine_tune` of the seeded :func:`init_model` for ``config.epochs``."""
    return fine_tune(_seeded_init(X, y, architecture, config), X, y, config.epochs, config)


def _seeded_init(X, y, architecture, config: TrainConfig) -> ParametricModel:
    """:func:`init_model` at ``config.seed``, as wide as X's rows, with the
    classes that the labels y name."""
    num_classes = 2 if architecture in ("logistic", None) else _num_classes_from_labels(y)
    return init_model(architecture, np.shape(X)[1], num_classes, config.seed)


def _num_classes_from_labels(y) -> int:
    """l for labels 1..l with l > 1, else 2 (labels 0/1)."""
    top = int(np.max(y))
    return top if top > 1 and 0 not in np.unique(y) else 2


def fine_tune(model: ParametricModel, X, y, iterations: int, config: TrainConfig) -> ParametricModel:
    """Warm-started SGD continuation on a data subset; the input model is
    left untouched, and returned as is when there are no iterations or no
    rows."""
    X, y = np.asarray(X, dtype=np.float64), np.asarray(y)
    return _sgd(model, [(X[None], y[None], (config.seed,))], config, iterations)[0][0]


def _incremental(model: ParametricModel, X2, y2, k: int, seeds, config: TrainConfig, iterations: int):
    """Incrementally retrained replicas, one run: replica r fine-tunes
    ``model`` on k rows of D2 that ``default_rng(seeds[r])`` picks, and
    shuffles with a fresh generator of the same seed."""
    n = X2.shape[0]
    pick = np.stack([np.random.default_rng(seed).choice(n, size=k, replace=False) for seed in seeds])
    return _sgd(model, [(X2[pick], y2[pick], seeds)], config, iterations)[0]


def _replica_seeds(spec: RetrainSpec, config: TrainConfig) -> tuple:
    """The spec's seeds, else ``config.seed + 1000 + r`` for replica r."""
    return spec.seeds or tuple(config.seed + 1000 + r for r in range(spec.replicas))


def _from_scratch_run(X1, y1, X2, y2, spec: RetrainSpec, config: TrainConfig):
    """A complete or leave-one-out spec's :func:`_sgd` run: every replica
    on all of D1 and D2 (complete), or replica r on D1 less the first
    ``ceil(removed * n)`` rows of ``default_rng(seeds[r])``'s permutation
    (leave-one-out)."""
    seeds = _replica_seeds(spec, config)
    if spec.mode == "complete":
        X, y = np.vstack([X1, X2]), np.concatenate([y1, y2])
        rows = np.broadcast_to(np.arange(X.shape[0]), (len(seeds), X.shape[0]))
    else:  # leave_one_out
        X, y = X1, y1
        drop = int(np.ceil(spec.removed * X1.shape[0]))
        rows = np.stack([np.random.default_rng(seed).permutation(X1.shape[0])[drop:] for seed in seeds])
    return X[rows], y[rows], seeds


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
    equal-size subsets otherwise), so they train as one :func:`_sgd` run.
    Replica r draws its data subset from ``default_rng(seeds[r])`` and its
    shuffles from a fresh generator of the same seed.
    """
    X1, y1 = np.asarray(X1, float), np.asarray(y1)
    X2, y2 = np.asarray(X2, float), np.asarray(y2)
    _targets(model, np.concatenate([y1, y2]))  # every label, not only the rows drawn
    if spec.mode == "incremental":
        k = max(1, int(round(spec.fraction * X2.shape[0])))
        return _incremental(model, X2, y2, k, _replica_seeds(spec, config), config, spec.iterations)
    # "Same hyperparameter setting" includes the initialisation seed; replica
    # variation comes from the shuffling seed and the data subset.
    fresh_init = init_model(architecture, X1.shape[1], model.num_classes, config.seed)
    run = _from_scratch_run(X1, y1, X2, y2, spec, config)
    return _sgd(fresh_init, [run], config, config.epochs)[0]


def train_with_fleets(
    X1, y1, X2, y2, specs, architecture, config: TrainConfig
) -> tuple[ParametricModel, list[ParametricModel]]:
    """The deployed model and its from-scratch retrained fleets, trained as
    one :func:`_sgd` schedule: ``(model, fleet)``.

    ``model`` is :func:`train` on D1; ``fleet`` holds each complete or
    leave-one-out spec's :func:`retrain_fleet` replicas, flat and in spec
    order.  All of them start from the seeded :func:`init_model` and train
    ``config.epochs``, so their minibatches step together wherever their
    sizes agree; every model equals its lone training bit for bit.  An
    incremental spec is a ``ValueError``: its replicas fine-tune the
    deployed model, so they come from :func:`retrain_fleet` afterwards.
    Every label of D1 and D2 is checked before any training.
    """
    if any(spec.mode == "incremental" for spec in specs):
        raise ValueError("incremental replicas fine-tune the deployed model: use retrain_fleet")
    X1, y1 = np.asarray(X1, float), np.asarray(y1)
    X2, y2 = np.asarray(X2, float), np.asarray(y2)
    start = _seeded_init(X1, y1, architecture, config)
    _targets(start, np.concatenate([y1, y2]))  # every label, not only the rows drawn
    runs = [(X1[None], y1[None], (config.seed,))]
    runs += [_from_scratch_run(X1, y1, X2, y2, spec, config) for spec in specs]
    (model,), *fleets = _sgd(start, runs, config, config.epochs)
    return model, [replica for fleet in fleets for replica in fleet]


def estimate_delta_incremental(
    model: ParametricModel,
    X2,
    y2,
    fractions=DEFAULT_FRACTIONS,
    replicas: int = 5,
    iterations: int = INCREMENTAL_ITERATIONS,
    config: TrainConfig | None = None,
) -> dict:
    """Mean inf-distance to incrementally retrained replicas, per fraction.

    A fraction's replicas fine-tune on equal-size picks, as one stack; a
    fraction that picks no rows leaves them at the model, 0 apart.  The
    value at :data:`INCREMENTAL_FRACTION` (else the last fraction's) is
    reported as the incremental shift target.
    """
    if replicas < 1 or iterations < 0:
        raise ValueError("replica count must be >= 1 and iterations >= 0")
    fractions = tuple(fractions)
    if not fractions:
        raise ValueError("need at least one fraction")
    if not all(0 <= f <= 1 for f in fractions):
        raise ValueError("fractions must lie in [0, 1]")
    X2, y2 = np.asarray(X2, float), np.asarray(y2)
    config = config or TrainConfig()
    theta = flatten(model)
    per_fraction = []
    for f in fractions:
        seeds = [config.seed + 101 * r + int(round(f * 10000)) for r in range(replicas)]
        tuned = _incremental(model, X2, y2, int(round(f * X2.shape[0])), seeds, config, iterations)
        delta = float(np.mean([p_distance(theta, flatten(t), "inf") for t in tuned]))
        per_fraction.append({"fraction": float(f), "delta": delta})
    named = [row["delta"] for row in per_fraction if abs(row["fraction"] - INCREMENTAL_FRACTION) < 1e-9]
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

    Each validation input's counterfactual is its nearest candidate that is
    robust for its target at the magnitude, ties to the lowest row: the
    ``rnce-tf`` walk.  Each input's walk over the candidates (:class:`KDTree`)
    is taken once for the grid; each magnitude makes one :func:`robust_flags`
    call per target.  Magnitudes where some input gets none are skipped with
    a warning; if no magnitude reaches full validity the grid maximum is
    returned flagged ``not_reached``.
    """
    if not retrained:
        raise ValueError("need at least one retrained model")
    X_candidates = np.asarray(X_candidates, dtype=np.float64)
    if not X_candidates.size:
        raise ValueError("need at least one candidate row")
    val_inputs = [as_feature_vector(v, model.input_dim) for v in val_inputs]
    if not val_inputs:
        raise ValueError("need at least one validation input")
    if targets is None:
        targets = [None] * len(val_inputs)
    elif len(targets) != len(val_inputs):
        raise ValueError(f"{len(targets)} targets for {len(val_inputs)} validation inputs")
    targets = [counterfactual_target(model, x, t) for x, t in zip(val_inputs, targets)]
    groups = {t: [i for i, u in enumerate(targets) if u == t] for t in dict.fromkeys(targets)}
    tree = KDTree(X_candidates)
    walks = [[j for j, _ in tree.neighbors(x)] for x in val_inputs]
    grid = sorted(float(g) for g in grid)
    per_point = []
    report = {"strategy": "validation", "grid": grid, "per_point": per_point}
    for delta in grid:
        shift = ShiftSet(p, delta)
        ces = [None] * len(val_inputs)
        for target, rows in groups.items():
            flags = robust_flags(model, shift, X_candidates, target)
            for i in rows:
                ces[i] = next((X_candidates[j] for j in walks[i] if flags[j]), None)
            if any(ces[i] is None for i in rows):
                break
        if any(ce is None for ce in ces):
            warnings.warn(
                f"generator found no counterfactual at delta={delta}; skipping this magnitude"
            )
            per_point.append({"delta": delta, "validity": None})
            continue
        ces = np.vstack(ces)
        valid = np.logical_and.reduce([classify_batch(m, ces) == targets for m in retrained])
        validity = int(valid.sum()) / len(ces)
        per_point.append({"delta": delta, "validity": validity})
        if validity == 1.0:
            return {**report, "delta_val": delta, "not_reached": False}
    return {**report, "delta_val": grid[-1], "not_reached": True}
