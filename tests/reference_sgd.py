"""Reference oracle for the trainers: lone SGD, one replica at a time.

``_sgd`` and ``_loss_and_param_grads`` are the one-replica minibatch loop
on 2-D parameter matrices, kept verbatim from before the trainers stacked
their replicas, with the boolean-mask ``sigmoid`` of that time.  ``reference_train``, ``reference_fine_tune``,
``reference_retrain_fleet`` and ``reference_estimate_delta_incremental``
drive it the way the trainers did then: every replica its own call, in
replica order.  ``cfcert.training`` must give every replica's parameters
bit for bit.  Nothing here imports the SGD under test; it is kept only for
the tests.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from cfcert.models import affine_layers, flatten, from_affine_layers, p_distance
from cfcert.training import _num_classes_from_labels, init_model


def _as_layer_params(model):
    return [(w.copy(), None if b is None else b.copy()) for w, b in affine_layers(model)]


def sigmoid(z):
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


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


def _sgd(params, X, y, num_outputs, config, epochs: int):
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


def reference_loss_and_grad(model, X, y, l2: float = 0.0):
    params = _as_layer_params(model)
    loss, grads = _loss_and_param_grads(params, np.asarray(X, float), np.asarray(y), model.num_outputs, l2)
    parts = []
    for gw, gb in grads:
        parts.append(gw.flatten(order="F"))
        if gb is not None:
            parts.append(gb)
    return loss, np.concatenate(parts)


def reference_train(X, y, architecture, config, init=None):
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    if init is None:
        num_classes = 2 if architecture in ("logistic", None) else _num_classes_from_labels(y)
        init = init_model(architecture, X.shape[1], num_classes, config.seed)
    params = _sgd(_as_layer_params(init), X, y, init.num_outputs, config, config.epochs)
    return from_affine_layers(init, params)


def reference_fine_tune(model, X, y, iterations, config):
    X = np.asarray(X, dtype=np.float64)
    if X.shape[0] == 0 or iterations == 0:
        return model
    params = _sgd(_as_layer_params(model), X, np.asarray(y), model.num_outputs, config, iterations)
    return from_affine_layers(model, params)


def reference_retrain_fleet(model, X1, y1, X2, y2, spec, architecture, config):
    X1, y1 = np.asarray(X1, float), np.asarray(y1)
    X2, y2 = np.asarray(X2, float), np.asarray(y2)
    seeds = spec.seeds or tuple(config.seed + 1000 + r for r in range(spec.replicas))
    fresh_init = init_model(architecture, X1.shape[1], _num_classes_from_labels(y1), config.seed)
    fleet = []
    for r in range(spec.replicas):
        rng = np.random.default_rng(seeds[r])
        cfg = replace(config, seed=seeds[r])
        if spec.mode == "incremental":
            k = max(1, int(round(spec.fraction * X2.shape[0])))
            pick = rng.choice(X2.shape[0], size=k, replace=False)
            fleet.append(reference_fine_tune(model, X2[pick], y2[pick], spec.iterations, cfg))
        elif spec.mode == "complete":
            X = np.vstack([X1, X2])
            y = np.concatenate([y1, y2])
            fleet.append(reference_train(X, y, architecture, cfg, init=fresh_init))
        else:  # leave_one_out
            keep = rng.permutation(X1.shape[0])[int(np.ceil(spec.removed * X1.shape[0])) :]
            fleet.append(reference_train(X1[keep], y1[keep], architecture, cfg, init=fresh_init))
    return fleet


def reference_estimate_delta_incremental(model, X2, y2, fractions, replicas, iterations, config):
    """The per-fraction deltas, each the mean over lone fine-tuned replicas."""
    X2, y2 = np.asarray(X2, float), np.asarray(y2)
    theta = flatten(model)
    deltas = []
    for f in fractions:
        dists = []
        for r in range(replicas):
            seed = config.seed + 101 * r + int(round(f * 10000))
            rng = np.random.default_rng(seed)
            k = int(round(f * X2.shape[0]))
            if k == 0:
                dists.append(0.0)
                continue
            pick = rng.choice(X2.shape[0], size=k, replace=False)
            tuned = reference_fine_tune(model, X2[pick], y2[pick], iterations, replace(config, seed=seed))
            dists.append(p_distance(theta, flatten(tuned), "inf"))
        deltas.append(float(np.mean(dists)))
    return deltas
