"""Reference oracle for the gradient generator: the two-pass GCE loop.

Each iterate runs a validating ``classify`` and then a second forward pass
for the validity score and its input gradient.  ``cfcert.generators.gce``
must reproduce this loop exactly -- the same found flag, iterate bytes,
distance, iteration count and trace.  Nothing here imports the generator
under test; it is kept only for the tests.
"""

from __future__ import annotations

import numpy as np

from cfcert.metrics import l1_normalized
from cfcert.models import LogisticModel, ParametricModel, as_feature_vector, classify, forward


def _score_and_grad(model: ParametricModel, x: np.ndarray, target: int):
    """Validity score (positive iff comfortably in the target class) and its
    input gradient; multi-class uses the margin to the runner-up logit."""
    if isinstance(model, LogisticModel):
        z = forward(model, x)[0]
        if target == 1:
            return z, model.weights.copy()
        return -z, -model.weights
    # Forward pass caching ReLU masks.
    masks = []
    v = x
    for layer in model.layers[:-1]:
        pre = layer.weights @ v
        if layer.bias is not None:
            pre = pre + layer.bias
        masks.append(pre > 0)
        v = np.maximum(pre, 0.0)
    last = model.layers[-1]
    logits = last.weights @ v
    if last.bias is not None:
        logits = logits + last.bias

    if model.num_outputs == 1:
        out_vec = np.array([1.0 if target == 1 else -1.0])
        score = logits[0] if target == 1 else -logits[0]
    else:
        t0 = target - 1
        others = np.delete(np.arange(model.num_outputs), t0)
        runner = others[int(np.argmax(logits[others]))]
        out_vec = np.zeros(model.num_outputs)
        out_vec[t0] = 1.0
        out_vec[runner] = -1.0
        score = logits[t0] - logits[runner]

    g = out_vec
    for i in range(len(model.layers) - 1, -1, -1):
        g = model.layers[i].weights.T @ g
        if i > 0:
            g = g * masks[i - 1]
    return score, g


def _soft_threshold(v: np.ndarray, tau: float) -> np.ndarray:
    return np.sign(v) * np.maximum(np.abs(v) - tau, 0.0)


def reference_gce(
    model: ParametricModel,
    x,
    target: int,
    lam: float = 0.1,
    step: float = 0.1,
    max_iters: int = 500,
    margin: float = 0.0,
):
    """Proximal gradient descent on hinge(margin - score) + lam * L1/n,
    projected to the unit box.  Returns (found, x_prime, distance,
    iterations, trace), the fields of the generator's record."""
    x = as_feature_vector(x, model.input_dim)
    n = x.size
    x_cur = x.copy()
    best = None
    best_dist = np.inf
    for it in range(max_iters + 1):
        if classify(model, x_cur) == target:
            d = l1_normalized(x_cur, x)
            if d < best_dist:
                best = x_cur.copy()
                best_dist = d
        if it == max_iters:
            break
        score, grad = _score_and_grad(model, x_cur, target)
        hinge_grad = -grad if score < margin else np.zeros_like(grad)
        z = x_cur - step * hinge_grad
        x_cur = np.clip(x + _soft_threshold(z - x, lam * step / n), 0.0, 1.0)
    if best is None:
        return False, None, None, max_iters, [lam]
    return True, best, best_dist, max_iters, [lam]
