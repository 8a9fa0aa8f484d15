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

Big-M constants are per node: the pre-activation enclosure (lo, hi) from
interval propagation (``cfcert.intervals.interval_bounds``), which is itself
a valid pair of constants (Tjeng et al., ICLR 2019).  Binary xi = 1 switches
a ReLU off: v <= hi (1 - xi) caps it, and the upper affine row gains
+lo xi.  Nodes whose pre-activation interval is stably signed get their
binary fixed up front.  Both encoders write each layer's rows into one
zeroed (nodes, rows per node, variables) block, so they come node by node:
[v + hi xi <= hi], the upper and the lower affine row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..intervals import IntervalModel, ShiftSet, abstract, interval_bounds
from ..models import ParametricModel, as_feature_vector, check_target
from .problem import EQ, GE, LE, LinearProgram, MilpProblem

__all__ = ["EncodedProblem", "encode_output_bound", "encode_nearest_ce"]

STRICT_EPS = 1e-6  # tightens constraints that must hold strictly under tie-break


@dataclass
class EncodedProblem:
    problem: MilpProblem
    pre: list  # (lo, hi) pre-activation enclosure of every layer, the logits last
    var_index: dict  # name -> index array, e.g. "x" for CE features, "out"


def _layout(im: IntervalModel, pre, head: int, first: int):
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
        pre_lo, pre_hi = pre[layer]
        active = pre_lo >= 0.0
        inactive = ~active & (pre_hi <= 0.0)
        lo[idx[active]] = hi[idx[active]] = 0.0
        lo[idx[inactive]] = hi[idx[inactive]] = 1.0
    return blocks[: k + 1], blocks[k + 1 :], lo, hi


def _bias(b, size: int) -> np.ndarray:
    return np.zeros(size) if b is None else b


def _rows(num_vars: int, rels, rhs, v, prev=None, w=()):
    """``len(rels)`` rows per node j, node-major, written into one zeroed
    (nodes, rows per node, variables) block.  Row i of node j has relation
    ``rels[i]``, right-hand side ``rhs[i][j]``, 1.0 on ``v[j]`` and
    -w[i][j] on ``prev`` where ``w[i]`` is not None.  Returns the rows and
    the block, onto which callers add their one-per-node terms.
    Coefficients are added onto zeros, so a -0.0 coefficient reads 0.0."""
    block = np.zeros((v.size, len(rels), num_vars))
    nodes = np.arange(v.size)
    block[nodes, :, v] = 1.0
    for i, w_i in enumerate(w):
        if w_i is not None:
            block[:, i, prev] -= w_i
    rel = np.array(rels * v.size, dtype=np.int64)
    rhs = np.array(rhs, dtype=np.float64).T.reshape(-1)
    return (block.reshape(-1, num_vars), rel, rhs), block


def _layer_rows(num_vars, v, prev, up, low, xi=None, pre=None):
    """Rows of one layer: v - W_up prev + lo xi <= rhs_up and
    v - W_low prev >= rhs_low per node, preceded on a hidden layer (``xi``
    given, with its enclosure ``pre``) by v + hi xi <= hi.  ``up``/``low``
    are (W, rhs) pairs."""
    (w_up, rhs_up), (w_low, rhs_low) = up, low
    if xi is None:
        return _rows(num_vars, (LE, GE), (rhs_up, rhs_low), v, prev, (w_up, w_low))[0]
    pre_lo, pre_hi = pre
    rhs, w = (pre_hi, rhs_up, rhs_low), (None, w_up, w_low)
    rows, block = _rows(num_vars, (LE, LE, GE), rhs, v, prev, w)
    nodes = np.arange(v.size)
    block[nodes, 0, xi] += pre_hi
    block[nodes, 1, xi] += pre_lo
    return rows


def _milp(c, blocks, lo, hi, sense, binaries_of) -> MilpProblem:
    empty = np.empty((0, c.size)), np.empty(0, dtype=np.int64), np.empty(0)
    A, rel, rhs = (np.concatenate(part) for part in zip(empty, *blocks))
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

    im = abstract(model, ShiftSet("inf", delta))
    pre = interval_bounds(im, x, x)
    layer_vars, xi_idx, lo, hi = _layout(im, pre, head=0, first=1)
    box = layer_vars[0]
    lo[box], hi[box] = pre[0]
    if len(layer_vars) > 1:  # a hidden first layer: its ReLU outputs
        lo[box], hi[box] = np.maximum(lo[box], 0.0), np.maximum(hi[box], 0.0)

    blocks = []
    for layer in range(1, len(layer_vars)):
        il, v = im.layers[layer], layer_vars[layer]
        up = (il.w_hi, _bias(il.b_hi, v.size))
        low = (il.w_lo, _bias(il.b_lo, v.size))
        # The output layer has no binaries: the two widened affine rows per class.
        relu = (xi_idx[layer - 1], pre[layer]) if layer <= len(xi_idx) else ()
        blocks.append(_layer_rows(lo.size, v, layer_vars[layer - 1], up, low, *relu))

    c = np.zeros(lo.size)
    c[layer_vars[-1][output_index]] = 1.0
    return EncodedProblem(
        problem=_milp(c, blocks, lo, hi, direction, xi_idx),
        pre=pre,
        var_index={"nodes": layer_vars[:-1], "out": layer_vars[-1], "xi": xi_idx},
    )


def _check_margin(margin: float) -> None:
    if margin < 0 or not np.isfinite(margin):
        raise ValueError("margin must be finite and >= 0")


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
    (lo, hi) pair of finite per-feature arrays or scalars with lo <= hi,
    default the unit box.
    """
    _check_margin(margin)
    n = model.input_dim
    x = as_feature_vector(x, n)
    check_target(model, target)
    out_size = model.num_outputs

    if box is None:
        box_lo, box_hi = np.zeros(n), np.ones(n)
    else:
        box_lo = np.broadcast_to(np.asarray(box[0], dtype=np.float64), (n,)).copy()
        box_hi = np.broadcast_to(np.asarray(box[1], dtype=np.float64), (n,)).copy()
        if not (np.all(np.isfinite(box_lo)) and np.all(np.isfinite(box_hi))):
            raise ValueError("box bounds must be finite")
        if np.any(box_lo > box_hi):
            raise ValueError("box lower bound exceeds its upper bound")

    # At delta = 0 the lower endpoints are the model's own parameters, bit for bit.
    im = abstract(model, ShiftSet("inf", 0.0))
    pre = interval_bounds(im, box_lo, box_hi)
    x_idx = np.arange(0, n)
    t_idx = np.arange(n, 2 * n)
    layer_vars, xi_idx, lo, hi = _layout(im, pre, head=2 * n, first=0)
    *node_idx, out_idx = layer_vars
    num_vars = lo.size
    lo[x_idx] = box_lo
    hi[x_idx] = box_hi

    # t_i >= |x'_i - x_i|: t_i - x'_i >= -x_i and t_i + x'_i >= x_i.
    abs_rows, block = _rows(num_vars, (GE, GE), (-x, x), t_idx)
    block[x_idx, 0, x_idx] -= 1.0  # node i is feature i
    block[x_idx, 1, x_idx] += 1.0
    blocks = [abs_rows]
    prev = x_idx
    for layer, (v, il) in enumerate(zip(node_idx, im.layers)):
        exact = (il.w_lo, _bias(il.b_lo, v.size))
        relu = (xi_idx[layer], pre[layer])
        blocks.append(_layer_rows(num_vars, v, prev, exact, exact, *relu))
        prev = v
    last = im.layers[-1]
    out_bias = _bias(last.b_lo, out_size)
    blocks.append(_rows(num_vars, (EQ,), (out_bias,), out_idx, prev, (last.w_lo,))[0])

    # Validity: the target logit must clear the margin (strictly where the
    # point tie-break would go against the target).
    if out_size == 1:
        rel, rhs = (GE, margin) if target == 1 else (LE, -margin - STRICT_EPS)
        blocks.append(_rows(num_vars, (rel,), (rhs,), out_idx)[0])
    else:
        t0 = target - 1
        others = np.delete(np.arange(out_size), t0)
        eps = np.where(others < t0, STRICT_EPS, 0.0)
        rows, block = _rows(num_vars, (GE,), (margin + eps,), np.full(others.size, out_idx[t0]))
        block[np.arange(others.size), 0, out_idx[others]] -= 1.0
        blocks.append(rows)

    c = np.zeros(num_vars)
    c[t_idx] = 1.0 / n
    return EncodedProblem(
        problem=_milp(c, blocks, lo, hi, "min", xi_idx),
        pre=pre,
        var_index={"x": x_idx, "t": t_idx, "nodes": node_idx, "out": out_idx, "xi": xi_idx},
    )
