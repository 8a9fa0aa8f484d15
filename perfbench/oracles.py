"""Correctness oracles that share no code with cfcert's simplex or B&B.

* :func:`highs_optimum` solves an encoded MILP with scipy's HiGHS.
* :func:`survives_sampled_shifts` draws parameter shifts from the
  infinity-norm box (uniform points and random vertices) and evaluates the
  shifted model with its own numpy forward pass, so it is independent of the
  encoder as well.
* :func:`logistic_bound` is the closed-form logit range of a logistic model
  over the parameter box, written from the definition.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp

from cfcert.milp import GE, LE

AGREE_TOL = 1e-6
_SAMPLES = 256


def highs_optimum(problem) -> float:
    """Optimal objective of a cfcert ``MilpProblem`` according to HiGHS."""
    lp = problem.lp
    sign = 1.0 if lp.sense == "min" else -1.0
    lower = np.where(lp.rel == LE, -np.inf, lp.rhs)
    upper = np.where(lp.rel == GE, np.inf, lp.rhs)
    integrality = np.zeros(lp.num_vars)
    integrality[problem.binary_idx] = 1
    constraints = [LinearConstraint(lp.A, lower, upper)] if lp.A.shape[0] else []
    res = milp(
        sign * lp.c,
        integrality=integrality,
        bounds=Bounds(lp.lo, lp.hi),
        constraints=constraints,
        options={"mip_rel_gap": 0.0},
    )
    if res.status != 0:
        raise RuntimeError(f"HiGHS did not solve the problem: {res.message}")
    return sign * float(res.fun)


def agrees(a: float, b: float) -> bool:
    return abs(a - b) <= AGREE_TOL * max(1.0, abs(b))


def _layers(model):
    if hasattr(model, "layers"):
        return [(layer.weights, layer.bias) for layer in model.layers]
    bias = None if model.bias is None else np.array([model.bias])
    return [(model.weights.reshape(1, -1), bias)]


def logistic_bound(model, x, delta: float, direction: str) -> float:
    """min / max of (w + dw).x + (b + db) over |dw|, |db| <= delta."""
    z = float(np.dot(model.weights, x)) + (model.bias or 0.0)
    width = delta * (float(np.sum(np.abs(x))) + (0.0 if model.bias is None else 1.0))
    return z - width if direction == "min" else z + width


def _shift(shape, n_samples, delta, rng):
    uniform = rng.uniform(-delta, delta, (n_samples,) + shape)
    vertex = delta * rng.choice((-1.0, 1.0), (n_samples,) + shape)
    return np.concatenate([uniform, vertex])


def shifted_logits(model, x, delta: float, rng, n_samples: int = _SAMPLES) -> np.ndarray:
    """Logits at x of 2 * n_samples models shifted inside the delta box."""
    layers = _layers(model)
    total = 2 * n_samples
    v = np.broadcast_to(np.asarray(x, dtype=np.float64), (total, len(x)))
    for i, (w, b) in enumerate(layers):
        v = np.einsum("noi,ni->no", w + _shift(w.shape, n_samples, delta, rng), v)
        if b is not None:
            v = v + b + _shift(b.shape, n_samples, delta, rng)
        if i < len(layers) - 1:
            v = np.maximum(v, 0.0)
    return v


def survives_sampled_shifts(model, x, delta: float, target: int, rng) -> bool:
    """True iff every sampled shifted model still assigns x the target class."""
    z = shifted_logits(model, x, delta, rng)
    if z.shape[1] == 1:
        return bool(np.all(z[:, 0] >= 0.0) if target == 1 else np.all(z[:, 0] < 0.0))
    t0 = target - 1
    others = np.delete(z, t0, axis=1)
    return bool(np.all(z[:, t0] >= others.max(axis=1)))
