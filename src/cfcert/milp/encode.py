"""MILP encodings of the two bound problems.

``encode_output_bound`` builds the output-range problem of the interval
abstraction at a fixed input, where the first layer is a box: node j's
pre-activation ``(w_j +/- delta) . x + (b_j +/- delta)`` reads only row j of
the first layer's parameters, so each node ranges over its own enclosure
independently of the others, a hidden one over ``[relu(lo_j), relu(hi_j)]``.
That layer has no row and no binary.  From layer 1 on, every hidden node
gets the big-M rows with coefficients widened by +/- delta (applied
independently in every row, as the formulation prescribes), every output
node the two widened affine rows.

``encode_nearest_ce`` builds the nearest-counterfactual problem for a fixed
model: input features are the decision variables inside a box, the
normalised L1 objective uses auxiliary absolute-difference variables, ReLUs
use exact big-M rows, and validity demands a logit margin for the target.

Big-M constants are per node, taken from interval propagation
(``cfcert.intervals.interval_bounds``) inflated by 1.5; nodes whose
pre-activation interval is stably signed get their binary fixed up front.
Both encoders build their rows one layer at a time as dense blocks, node
by node: [v <= M (1 - xi)], the upper and the lower affine row.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..intervals import IntervalModel, ShiftSet, abstract, interval_bounds
from ..models import ParametricModel, as_feature_vector, check_target
from .problem import EQ, GE, LE, LinearProgram, MilpProblem

__all__ = ["BigMBounds", "EncodedProblem", "encode_output_bound", "encode_nearest_ce"]

BIGM_INFLATION = 1.5
STRICT_EPS = 1e-6  # tightens constraints that must hold strictly under tie-break


@dataclass
class BigMBounds:
    """Per layer pre-activation enclosures backing the big-M constants (and
    the first layer's box at a fixed input)."""

    pre_lo: list[np.ndarray] = field(default_factory=list)
    pre_hi: list[np.ndarray] = field(default_factory=list)

    def validate(self) -> None:
        for lo, hi in zip(self.pre_lo, self.pre_hi):
            if np.any(lo > hi + 1e-12):
                raise ValueError("big-M lower bound exceeds upper bound")

    def big_m(self, layer: int) -> np.ndarray:
        lo, hi = self.pre_lo[layer], self.pre_hi[layer]
        return BIGM_INFLATION * np.maximum(np.abs(lo), np.abs(hi))


@dataclass
class EncodedProblem:
    problem: MilpProblem
    bigm: BigMBounds
    var_index: dict  # name -> index array, e.g. "x" for CE features, "out"


def _propagate(model: ParametricModel, delta: float, in_lo, in_hi):
    """The delta-widened model and the pre-activation enclosures of its layers."""
    im = abstract(model, ShiftSet("inf", delta))
    pre = interval_bounds(im, in_lo, in_hi)
    bounds = BigMBounds(pre_lo=[lo for lo, _ in pre], pre_hi=[hi for _, hi in pre])
    bounds.validate()
    return im, bounds


def _layout(im: IntervalModel, bigm: BigMBounds, head: int, first: int):
    """Variables after ``head`` leading ones: every hidden node (>= 0), the
    outputs (free), then one binary per hidden node of layer ``first`` on,
    in [0, 1] or fixed when its node is stable.  Returns the node indices of
    every layer, the outputs last, the binaries per layer, and the bounds."""
    hidden = [layer.w_lo.shape[0] for layer in im.layers[:-1]]
    sizes = hidden + [im.num_outputs] + hidden[first:]
    starts = head + np.concatenate([[0], np.cumsum(sizes)])
    blocks = [np.arange(start, start + size) for start, size in zip(starts, sizes)]
    k = len(hidden)
    lo = np.zeros(int(starts[-1]))
    hi = np.full(lo.size, np.inf)
    lo[blocks[k]] = -np.inf
    for layer, idx in enumerate(blocks[k + 1 :], start=first):
        hi[idx] = 1.0
        active = bigm.pre_lo[layer] >= 0.0
        inactive = ~active & (bigm.pre_hi[layer] <= 0.0)
        lo[idx[active]] = hi[idx[active]] = 0.0
        lo[idx[inactive]] = hi[idx[inactive]] = 1.0
    return blocks[: k + 1], blocks[k + 1 :], lo, hi


def _bias(b, size: int) -> np.ndarray:
    return np.zeros(size) if b is None else b


def _rows(num_vars: int, rel: int, rhs, *terms):
    """One row per right-hand side.  A term is (variables, coefficients):
    one variable per row (1-D coefficients or a scalar), or variables shared
    by every row with a 2-D coefficient block.  Coefficients are added onto
    zeros, so a -0.0 coefficient reads 0.0."""
    rhs = np.asarray(rhs, dtype=np.float64).reshape(-1)
    A = np.zeros((rhs.size, num_vars))
    rows = np.arange(rhs.size)
    for cols, coef in terms:
        if np.ndim(coef) == 2:
            A[rows[:, None], cols[None, :]] += coef
        else:
            A[rows, cols] += coef
    return A, np.full(rhs.size, rel, dtype=np.int64), rhs


def _interleave(*blocks):
    """Row blocks of equal height merged node-major: row j of every block,
    then row j + 1."""
    A = np.stack([b[0] for b in blocks], axis=1).reshape(-1, blocks[0][0].shape[1])
    rel = np.stack([b[1] for b in blocks], axis=1).reshape(-1)
    rhs = np.stack([b[2] for b in blocks], axis=1).reshape(-1)
    return A, rel, rhs


def _layer_rows(num_vars, v, prev, up, low, xi=None, m=None):
    """Rows of one layer: v - W_up prev - M xi <= rhs_up and
    v - W_low prev >= rhs_low per node, preceded on a hidden layer (``xi``
    given) by v <= M (1 - xi).  ``up``/``low`` are (W, rhs) pairs."""
    (w_up, rhs_up), (w_low, rhs_low) = up, low
    up_terms = [(v, 1.0), (prev, -w_up)]
    if xi is not None:
        up_terms.append((xi, -m))
    upper = _rows(num_vars, LE, rhs_up, *up_terms)
    lower = _rows(num_vars, GE, rhs_low, (v, 1.0), (prev, -w_low))
    if xi is None:
        return _interleave(upper, lower)
    return _interleave(_rows(num_vars, LE, m, (v, 1.0), (xi, m)), upper, lower)


def _milp(c, blocks, lo, hi, sense, binaries_of) -> MilpProblem:
    A, rel, rhs = (np.concatenate(part) for part in zip(_rows(c.size, LE, ()), *blocks))
    lp = LinearProgram(c=c, A=A, rel=rel, rhs=rhs, lo=lo, hi=hi, sense=sense)
    binaries = np.concatenate(binaries_of) if binaries_of else np.empty(0, dtype=np.int64)
    return MilpProblem(lp=lp, binary_idx=binaries)


def encode_output_bound(
    model: ParametricModel,
    x_fixed,
    delta: float,
    output_index: int = 0,
    direction: str = "min",
) -> EncodedProblem:
    """Bound one output logit of the delta-widened model at a fixed input."""
    if delta < 0:
        raise ValueError("delta must be >= 0")
    if direction not in ("min", "max"):
        raise ValueError("direction must be 'min' or 'max'")
    x = as_feature_vector(x_fixed, model.input_dim)
    out_size = model.num_outputs
    if not 0 <= output_index < out_size:
        raise ValueError(f"output index {output_index} out of range for {out_size} outputs")

    im, bigm = _propagate(model, delta, x, x)
    layer_vars, xi_idx, lo, hi = _layout(im, bigm, head=0, first=1)
    box = layer_vars[0]
    lo[box], hi[box] = bigm.pre_lo[0], bigm.pre_hi[0]
    if len(layer_vars) > 1:  # a hidden first layer: its ReLU outputs
        lo[box], hi[box] = np.maximum(lo[box], 0.0), np.maximum(hi[box], 0.0)

    blocks = []
    for layer in range(1, len(layer_vars)):
        il, v = im.layers[layer], layer_vars[layer]
        up = (il.w_hi, _bias(il.b_hi, v.size))
        low = (il.w_lo, _bias(il.b_lo, v.size))
        # The output layer has no binaries: the two widened affine rows per class.
        relu = (xi_idx[layer - 1], bigm.big_m(layer)) if layer <= len(xi_idx) else ()
        blocks.append(_layer_rows(lo.size, v, layer_vars[layer - 1], up, low, *relu))

    c = np.zeros(lo.size)
    c[layer_vars[-1][output_index]] = 1.0
    return EncodedProblem(
        problem=_milp(c, blocks, lo, hi, direction, xi_idx),
        bigm=bigm,
        var_index={"nodes": layer_vars[:-1], "out": layer_vars[-1], "xi": xi_idx},
    )


def encode_nearest_ce(
    model: ParametricModel,
    x,
    target: int,
    margin: float = 0.0,
    box=None,
) -> EncodedProblem:
    """Minimum normalised-L1 counterfactual with a logit margin for target.

    ``target`` uses the classification label conventions: {0, 1} for
    single-logit models, {1, ..., l} for multi-logit ones.  ``box`` is a
    (lo, hi) pair of per-feature arrays or scalars, default the unit box.
    """
    if margin < 0 or not np.isfinite(margin):
        raise ValueError("margin must be finite and >= 0")
    n = model.input_dim
    x = as_feature_vector(x, n)
    check_target(model, target)
    out_size = model.num_outputs

    if box is None:
        box_lo, box_hi = np.zeros(n), np.ones(n)
    else:
        box_lo = np.broadcast_to(np.asarray(box[0], dtype=np.float64), (n,)).copy()
        box_hi = np.broadcast_to(np.asarray(box[1], dtype=np.float64), (n,)).copy()

    # At delta = 0 the lower endpoints are the model's own parameters, bit for bit.
    im, bigm = _propagate(model, 0.0, box_lo, box_hi)
    x_idx = np.arange(0, n)
    t_idx = np.arange(n, 2 * n)
    layer_vars, xi_idx, lo, hi = _layout(im, bigm, head=2 * n, first=0)
    *node_idx, out_idx = layer_vars
    num_vars = lo.size
    lo[x_idx] = box_lo
    hi[x_idx] = box_hi

    blocks = [  # t_i >= |x'_i - x_i|
        _interleave(
            _rows(num_vars, GE, -x, (t_idx, 1.0), (x_idx, -1.0)),
            _rows(num_vars, GE, x, (t_idx, 1.0), (x_idx, 1.0)),
        )
    ]
    prev = x_idx
    for layer, (v, il) in enumerate(zip(node_idx, im.layers)):
        exact = (il.w_lo, _bias(il.b_lo, v.size))
        relu = (xi_idx[layer], bigm.big_m(layer))
        blocks.append(_layer_rows(num_vars, v, prev, exact, exact, *relu))
        prev = v
    last = im.layers[-1]
    out_bias = _bias(last.b_lo, out_size)
    blocks.append(_rows(num_vars, EQ, out_bias, (out_idx, 1.0), (prev, -last.w_lo)))

    # Validity: the target logit must clear the margin (strictly where the
    # point tie-break would go against the target).
    if out_size == 1:
        if target == 1:
            blocks.append(_rows(num_vars, GE, margin, (out_idx, 1.0)))
        else:
            blocks.append(_rows(num_vars, LE, -margin - STRICT_EPS, (out_idx, 1.0)))
    else:
        t0 = target - 1
        others = np.delete(np.arange(out_size), t0)
        eps = np.where(others < t0, STRICT_EPS, 0.0)
        target_out = np.full(others.size, out_idx[t0])
        blocks.append(
            _rows(num_vars, GE, margin + eps, (target_out, 1.0), (out_idx[others], -1.0))
        )

    c = np.zeros(num_vars)
    c[t_idx] = 1.0 / n
    return EncodedProblem(
        problem=_milp(c, blocks, lo, hi, "min", xi_idx),
        bigm=bigm,
        var_index={"x": x_idx, "t": t_idx, "nodes": node_idx, "out": out_idx, "xi": xi_idx},
    )
