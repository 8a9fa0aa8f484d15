"""Interval abstraction of a classifier under a bounded parameter shift.

Every scalar parameter theta_i is replaced by the interval
[theta_i - delta, theta_i + delta]; forward propagation with interval
arithmetic then encloses the outputs of every model whose parameters sit in
that box.  Classification over output intervals is three-valued: a class is
assigned only when its logit interval dominates, otherwise the verdict is
undefined: ``dominant_class(*interval_forward(abstract(model, shift), x))``.

The box is the same for every norm order p: a shift with ||dtheta||_p <=
delta has every coordinate within +/- delta, so for p in {1, 2} the p-ball
lies inside the inf-box and the abstraction is a sound, looser enclosure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .models import ParametricModel, _norm_p, affine_layers, as_feature_vector

__all__ = [
    "ShiftSet",
    "IntervalLayer",
    "IntervalModel",
    "abstract",
    "interval_bounds",
    "interval_forward",
    "dominant_class",
    "sigmoid",
]


@dataclass(frozen=True)
class ShiftSet:
    """Bounded set of parameter shifts: p-norm of the change at most delta."""

    p: float
    delta: float

    def __post_init__(self):
        object.__setattr__(self, "p", _norm_p(self.p))
        d = float(self.delta)
        if not np.isfinite(d) or d < 0:
            raise ValueError("delta must be finite and >= 0 (0 is the degenerate no-shift case)")
        object.__setattr__(self, "delta", d)

    def to_dict(self) -> dict:
        return {"p": "inf" if self.p == float("inf") else int(self.p), "delta": self.delta}

    @classmethod
    def from_dict(cls, doc: dict) -> "ShiftSet":
        return cls(p=doc["p"], delta=doc["delta"])


@dataclass(frozen=True)
class IntervalLayer:
    w_lo: np.ndarray
    w_hi: np.ndarray
    b_lo: np.ndarray | None
    b_hi: np.ndarray | None


@dataclass(frozen=True)
class IntervalModel:
    """Same architecture as the source model, interval-valued parameters."""

    layers: tuple[IntervalLayer, ...]

    @property
    def input_dim(self) -> int:
        return self.layers[0].w_lo.shape[1]

    @property
    def num_outputs(self) -> int:
        return self.layers[-1].w_lo.shape[0]


def abstract(model: ParametricModel, shift: ShiftSet) -> IntervalModel:
    """Widen every parameter (weights and biases alike) by +/- delta."""
    d = shift.delta
    layers = tuple(
        IntervalLayer(
            w_lo=w - d,
            w_hi=w + d,
            b_lo=None if b is None else b - d,
            b_hi=None if b is None else b + d,
        )
        for w, b in affine_layers(model)
    )
    return IntervalModel(layers=layers)


def _interval_matvec(w_lo, w_hi, v_lo, v_hi):
    """Sound product of an interval matrix with an interval vector, or with
    each row of a batch of them (the matrix broadcasts over leading axes)."""
    p1 = w_lo * v_lo
    p2 = w_lo * v_hi
    p3 = w_hi * v_lo
    p4 = w_hi * v_hi
    lo = np.minimum(np.minimum(p1, p2), np.minimum(p3, p4)).sum(axis=-1)
    hi = np.maximum(np.maximum(p1, p2), np.maximum(p3, p4)).sum(axis=-1)
    return lo, hi


def interval_affine(layer: IntervalLayer, v_lo, v_hi):
    lo, hi = _interval_matvec(layer.w_lo, layer.w_hi, v_lo[..., None, :], v_hi[..., None, :])
    if layer.b_lo is not None:
        lo = lo + layer.b_lo
        hi = hi + layer.b_hi
    return lo, hi


def interval_bounds(im: IntervalModel, v_lo, v_hi) -> list[tuple[np.ndarray, np.ndarray]]:
    """Pre-activation (lo, hi) of every layer, the logits last, enclosing
    every box-shifted model at every input in the box [v_lo, v_hi].  A
    (k, n) pair of input bounds gives (k, width) bounds, row i equal to the
    bounds of input row i alone."""
    bounds = []
    for layer in im.layers:
        if bounds:
            v_lo = np.maximum(bounds[-1][0], 0.0)
            v_hi = np.maximum(bounds[-1][1], 0.0)
        bounds.append(interval_affine(layer, v_lo, v_hi))
    return bounds


def interval_forward(im: IntervalModel, x) -> tuple[np.ndarray, np.ndarray]:
    """Pre-squash logit intervals enclosing every box-shifted model at x."""
    x = as_feature_vector(x, im.input_dim)
    return interval_bounds(im, x, x)[-1]


def dominant_class(lo: np.ndarray, hi: np.ndarray) -> int | None:
    """The class every logit vector in the box [lo, hi] is assigned, else
    None.  One logit: class 1 when the whole interval is >= 0, class 0 when
    it is < 0.  Several logits: the class c (1-based) whose lower bound
    reaches every other upper bound, strictly for lower classes, since ties
    go to the lowest class index as in point classification; at most one
    class can."""
    if lo.size == 1:
        return 1 if lo[0] >= 0.0 else 0 if hi[0] < 0.0 else None
    for i in range(lo.size):
        if lo[i] > hi[:i].max(initial=-np.inf) and lo[i] >= hi[i + 1 :].max(initial=-np.inf):
            return i + 1
    return None


def sigmoid(z):
    """Logistic function, overflow-free: exp only ever sees -|z|."""
    z = np.asarray(z, dtype=np.float64)
    e = np.exp(-np.abs(z))
    d = 1.0 + e
    return np.where(z >= 0, 1.0 / d, e / d)
