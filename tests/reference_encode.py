"""Reference oracle for the big-M encoders: the dict-per-row builder.

``cfcert.milp.encode`` must reproduce these encodings exactly -- the same
objective, rows, relations, right-hand sides, bounds, binaries,
variable index and pre-activation enclosures, bit for bit (``-0.0``
included).  The builder adds one row at a time from a {variable:
coefficient} dict.  Biases enter the enclosures as ``lo + (b - delta)`` /
``hi + (b + delta)``, the form of ``cfcert.intervals``; nothing here imports
that module or the encoder under test.  It is kept only for the tests.

Both encoders take their big-M constants from a node's enclosure (lo, hi)
itself: ``v + hi xi <= hi`` caps the ReLU and the upper affine row gains
``+lo xi``.

``encode_output_bound`` makes the first layer a box at the fixed input: a
first-layer node reads only its own row of parameters, so each ranges over
its own enclosure with no row and no binary.
``encode_output_bound_first_layer_rows`` is the earlier formulation, which
gives the first layer big-M rows and binaries like every other layer, with
the symmetric constant M = 1.5 max(|lo|, |hi|) of its own: an independent
encoding for the pattern-enumeration oracle.  The two must reach the same
optimum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from cfcert.models import LogisticModel, ParametricModel, as_feature_vector
from cfcert.milp.problem import EQ, GE, LE, LinearProgram, MilpProblem

BIGM_INFLATION = 1.5  # encode_output_bound_first_layer_rows' symmetric M alone
STRICT_EPS = 1e-6  # tightens constraints that must hold strictly under tie-break


@dataclass
class EncodedProblem:
    problem: MilpProblem
    pre: list  # (lo, hi) pre-activation enclosure of every layer, the logits last
    var_index: dict  # name -> index array, e.g. "x" for CE features, "out"


def _big_m(pre, layer: int) -> np.ndarray:
    lo, hi = pre[layer]
    return BIGM_INFLATION * np.maximum(np.abs(lo), np.abs(hi))


def _layers_view(model: ParametricModel):
    """Uniform (weights, bias) layer list for both model families."""
    if isinstance(model, LogisticModel):
        b = None if model.bias is None else np.array([model.bias])
        return [(model.weights.reshape(1, -1), b)]
    return [(layer.weights, layer.bias) for layer in model.layers]


def _interval_product_fixed(w_lo, w_hi, v):
    """Bounds of W' @ v over W' in [w_lo, w_hi] for a fixed vector v."""
    p_lo = np.minimum(w_lo * v, w_hi * v)
    p_hi = np.maximum(w_lo * v, w_hi * v)
    return p_lo.sum(axis=1), p_hi.sum(axis=1)


def _interval_product_range(w_lo, w_hi, v_lo, v_hi):
    p1, p2 = w_lo * v_lo, w_lo * v_hi
    p3, p4 = w_hi * v_lo, w_hi * v_hi
    lo = np.minimum(np.minimum(p1, p2), np.minimum(p3, p4)).sum(axis=1)
    hi = np.maximum(np.maximum(p1, p2), np.maximum(p3, p4)).sum(axis=1)
    return lo, hi


def _propagate(layers, delta, in_lo, in_hi) -> list:
    """Pre-activation enclosures of every layer of the delta-widened network."""
    bounds = []
    v_lo, v_hi = in_lo, in_hi
    for i, (w, b) in enumerate(layers):
        if np.array_equal(v_lo, v_hi):
            lo, hi = _interval_product_fixed(w - delta, w + delta, v_lo)
        else:
            lo, hi = _interval_product_range(w - delta, w + delta, v_lo, v_hi)
        if b is not None:
            lo = lo + (b - delta)
            hi = hi + (b + delta)
        bounds.append((lo, hi))
        if i < len(layers) - 1:
            v_lo = np.maximum(lo, 0.0)
            v_hi = np.maximum(hi, 0.0)
    return bounds


class _RowBuilder:
    def __init__(self, num_vars: int):
        self.n = num_vars
        self.rows: list[np.ndarray] = []
        self.rel: list[int] = []
        self.rhs: list[float] = []

    def add(self, coeffs: dict[int, float], rel: int, rhs: float) -> None:
        row = np.zeros(self.n)
        for j, a in coeffs.items():
            row[j] += a
        self.rows.append(row)
        self.rel.append(rel)
        self.rhs.append(rhs)

    def build(self):
        if self.rows:
            return np.vstack(self.rows), np.array(self.rel), np.array(self.rhs)
        return np.zeros((0, self.n)), np.zeros(0, dtype=np.int64), np.zeros(0)


def _relu_layout(layers, extra_head: int, first_binary_layer: int = 0):
    """Index bookkeeping: hidden node vars, output vars, binaries of the
    hidden layers from ``first_binary_layer`` on."""
    hidden_sizes = [w.shape[0] for w, _ in layers[:-1]]
    out_size = layers[-1][0].shape[0]
    node_idx = []
    pos = extra_head
    for h in hidden_sizes:
        node_idx.append(np.arange(pos, pos + h))
        pos += h
    out_idx = np.arange(pos, pos + out_size)
    pos += out_size
    xi_idx = []
    for h in hidden_sizes[first_binary_layer:]:
        xi_idx.append(np.arange(pos, pos + h))
        pos += h
    return node_idx, out_idx, xi_idx, pos


def _fix_stable_binaries(lo, hi, xi_idx, pre, first_binary_layer: int = 0) -> None:
    for layer, idx in enumerate(xi_idx, start=first_binary_layer):
        pre_lo, pre_hi = pre[layer]
        for j, var in enumerate(idx):
            if pre_lo[j] >= 0.0:
                lo[var] = hi[var] = 0.0  # provably active
            elif pre_hi[j] <= 0.0:
                lo[var] = hi[var] = 1.0  # provably inactive


def encode_output_bound(
    model: ParametricModel,
    x_fixed,
    delta: float,
    output_index: int = 0,
    direction: str = "min",
) -> EncodedProblem:
    """Bound one output logit of the delta-widened model at a fixed input.

    The first layer is a box: a hidden node over [relu(lo), relu(hi)] of its
    pre-activation enclosure, an output of a model without hidden layers
    over [lo, hi].  Rows and binaries start at layer 1."""
    if delta < 0:
        raise ValueError("delta must be >= 0")
    if direction not in ("min", "max"):
        raise ValueError("direction must be 'min' or 'max'")
    layers = _layers_view(model)
    x = as_feature_vector(x_fixed, layers[0][0].shape[1])
    out_size = layers[-1][0].shape[0]
    if not 0 <= output_index < out_size:
        raise ValueError(f"output index {output_index} out of range for {out_size} outputs")

    pre = _propagate(layers, delta, x, x)
    node_idx, out_idx, xi_idx, num_vars = _relu_layout(layers, extra_head=0, first_binary_layer=1)

    lo = np.zeros(num_vars)
    hi = np.full(num_vars, np.inf)
    lo[out_idx] = -np.inf
    for idx in xi_idx:
        hi[idx] = 1.0
    _fix_stable_binaries(lo, hi, xi_idx, pre, first_binary_layer=1)
    first = node_idx[0] if node_idx else out_idx
    for j, var in enumerate(first):
        pre_lo, pre_hi = pre[0][0][j], pre[0][1][j]
        if node_idx:  # a hidden node: its ReLU output
            pre_lo = pre_lo if pre_lo > 0.0 else 0.0
            pre_hi = pre_hi if pre_hi > 0.0 else 0.0
        lo[var], hi[var] = pre_lo, pre_hi

    rb = _RowBuilder(num_vars)
    for layer in range(1, len(layers)):
        w, b = layers[layer]
        b_lo = (b - delta) if b is not None else np.zeros(w.shape[0])
        b_hi = (b + delta) if b is not None else np.zeros(w.shape[0])
        prev = node_idx[layer - 1]
        hidden = layer < len(node_idx)
        for j in range(w.shape[0]):
            v = node_idx[layer][j] if hidden else out_idx[j]
            up = {v: 1.0}
            low = {v: 1.0}
            if hidden:
                xi = xi_idx[layer - 1][j]
                pre_lo, pre_hi = pre[layer][0][j], pre[layer][1][j]
                rb.add({v: 1.0, xi: pre_hi}, LE, pre_hi)  # v <= hi (1 - xi)
                up[xi] = pre_lo
            for l, p in enumerate(prev):
                up[p] = -(w[j, l] + delta)
                low[p] = -(w[j, l] - delta)
            rb.add(up, LE, b_hi[j])
            rb.add(low, GE, b_lo[j])

    A, rel, rhs = rb.build()
    c = np.zeros(num_vars)
    c[out_idx[output_index]] = 1.0
    lp = LinearProgram(c=c, A=A, rel=rel, rhs=rhs, lo=lo, hi=hi, sense=direction)
    binaries = np.concatenate(xi_idx) if xi_idx else np.empty(0, dtype=np.int64)
    return EncodedProblem(
        problem=MilpProblem(lp=lp, binary_idx=binaries),
        pre=pre,
        var_index={"nodes": node_idx, "out": out_idx, "xi": xi_idx},
    )


def encode_output_bound_first_layer_rows(
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
    layers = _layers_view(model)
    x = as_feature_vector(x_fixed, layers[0][0].shape[1])
    out_size = layers[-1][0].shape[0]
    if not 0 <= output_index < out_size:
        raise ValueError(f"output index {output_index} out of range for {out_size} outputs")

    pre = _propagate(layers, delta, x, x)
    node_idx, out_idx, xi_idx, num_vars = _relu_layout(layers, extra_head=0)

    lo = np.zeros(num_vars)
    hi = np.full(num_vars, np.inf)
    lo[out_idx] = -np.inf
    for idx in xi_idx:
        hi[idx] = 1.0
    _fix_stable_binaries(lo, hi, xi_idx, pre)

    rb = _RowBuilder(num_vars)
    for layer, (w, b) in enumerate(layers[:-1]):
        m_consts = _big_m(pre, layer)
        b_lo = (b - delta) if b is not None else np.zeros(w.shape[0])
        b_hi = (b + delta) if b is not None else np.zeros(w.shape[0])
        prev = node_idx[layer - 1] if layer > 0 else None
        for j in range(w.shape[0]):
            v = node_idx[layer][j]
            xi = xi_idx[layer][j]
            m = m_consts[j]
            rb.add({v: 1.0, xi: m}, LE, m)  # v <= M (1 - xi)
            if prev is None:
                up_lo, up_hi = _interval_product_fixed(
                    (w - delta)[j : j + 1], (w + delta)[j : j + 1], x
                )
                rb.add({v: 1.0, xi: -m}, LE, float(up_hi[0]) + b_hi[j])
                rb.add({v: 1.0}, GE, float(up_lo[0]) + b_lo[j])
            else:
                up = {v: 1.0, xi: -m}
                low = {v: 1.0}
                for l, p in enumerate(prev):
                    up[p] = -(w[j, l] + delta)
                    low[p] = -(w[j, l] - delta)
                rb.add(up, LE, b_hi[j])
                rb.add(low, GE, b_lo[j])
    # Output layer: the two widened affine rows per class.
    w, b = layers[-1]
    b_lo = (b - delta) if b is not None else np.zeros(out_size)
    b_hi = (b + delta) if b is not None else np.zeros(out_size)
    prev = node_idx[-1] if node_idx else None
    for j in range(out_size):
        v = out_idx[j]
        if prev is None:
            up_lo, up_hi = _interval_product_fixed(
                (w - delta)[j : j + 1], (w + delta)[j : j + 1], x
            )
            rb.add({v: 1.0}, LE, float(up_hi[0]) + b_hi[j])
            rb.add({v: 1.0}, GE, float(up_lo[0]) + b_lo[j])
        else:
            up = {v: 1.0}
            low = {v: 1.0}
            for l, p in enumerate(prev):
                up[p] = -(w[j, l] + delta)
                low[p] = -(w[j, l] - delta)
            rb.add(up, LE, b_hi[j])
            rb.add(low, GE, b_lo[j])

    A, rel, rhs = rb.build()
    c = np.zeros(num_vars)
    c[out_idx[output_index]] = 1.0
    lp = LinearProgram(c=c, A=A, rel=rel, rhs=rhs, lo=lo, hi=hi, sense=direction)
    binaries = np.concatenate(xi_idx) if xi_idx else np.empty(0, dtype=np.int64)
    return EncodedProblem(
        problem=MilpProblem(lp=lp, binary_idx=binaries),
        pre=pre,
        var_index={"nodes": node_idx, "out": out_idx, "xi": xi_idx},
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
    layers = _layers_view(model)
    n = layers[0][0].shape[1]
    x = as_feature_vector(x, n)
    out_size = layers[-1][0].shape[0]
    if out_size == 1:
        if target not in (0, 1):
            raise ValueError("binary target must be 0 or 1")
    elif not 1 <= target <= out_size:
        raise ValueError(f"target class {target} out of range 1..{out_size}")

    if box is None:
        box_lo, box_hi = np.zeros(n), np.ones(n)
    else:
        box_lo = np.broadcast_to(np.asarray(box[0], dtype=np.float64), (n,)).copy()
        box_hi = np.broadcast_to(np.asarray(box[1], dtype=np.float64), (n,)).copy()

    pre = _propagate(layers, 0.0, box_lo, box_hi)
    x_idx = np.arange(0, n)
    t_idx = np.arange(n, 2 * n)
    node_idx, out_idx, xi_idx, num_vars = _relu_layout(layers, extra_head=2 * n)

    lo = np.zeros(num_vars)
    hi = np.full(num_vars, np.inf)
    lo[x_idx] = box_lo
    hi[x_idx] = box_hi
    lo[out_idx] = -np.inf
    for idx in xi_idx:
        hi[idx] = 1.0
    _fix_stable_binaries(lo, hi, xi_idx, pre)

    rb = _RowBuilder(num_vars)
    for i in range(n):  # t_i >= |x'_i - x_i|
        rb.add({t_idx[i]: 1.0, x_idx[i]: -1.0}, GE, -x[i])
        rb.add({t_idx[i]: 1.0, x_idx[i]: 1.0}, GE, x[i])
    for layer, (w, b) in enumerate(layers[:-1]):
        bias = b if b is not None else np.zeros(w.shape[0])
        prev = node_idx[layer - 1] if layer > 0 else x_idx
        for j in range(w.shape[0]):
            v = node_idx[layer][j]
            xi = xi_idx[layer][j]
            pre_lo, pre_hi = pre[layer][0][j], pre[layer][1][j]
            rb.add({v: 1.0, xi: pre_hi}, LE, pre_hi)  # v <= hi (1 - xi)
            up = {v: 1.0, xi: pre_lo}
            low = {v: 1.0}
            for l, p in enumerate(prev):
                up[p] = -w[j, l]
                low[p] = -w[j, l]
            rb.add(up, LE, bias[j])
            rb.add(low, GE, bias[j])
    w, b = layers[-1]
    bias = b if b is not None else np.zeros(out_size)
    prev = node_idx[-1] if node_idx else x_idx
    for j in range(out_size):
        row = {out_idx[j]: 1.0}
        for l, p in enumerate(prev):
            row[p] = -w[j, l]
        rb.add(row, EQ, bias[j])

    # Validity: the target logit must clear the margin (strictly where the
    # point tie-break would go against the target).
    if out_size == 1:
        if target == 1:
            rb.add({out_idx[0]: 1.0}, GE, margin)
        else:
            rb.add({out_idx[0]: 1.0}, LE, -margin - STRICT_EPS)
    else:
        t0 = target - 1
        for j in range(out_size):
            if j == t0:
                continue
            eps = STRICT_EPS if j < t0 else 0.0
            rb.add({out_idx[t0]: 1.0, out_idx[j]: -1.0}, GE, margin + eps)

    A, rel, rhs = rb.build()
    c = np.zeros(num_vars)
    c[t_idx] = 1.0 / n
    lp = LinearProgram(c=c, A=A, rel=rel, rhs=rhs, lo=lo, hi=hi, sense="min")
    binaries = np.concatenate(xi_idx) if xi_idx else np.empty(0, dtype=np.int64)
    return EncodedProblem(
        problem=MilpProblem(lp=lp, binary_idx=binaries),
        pre=pre,
        var_index={"x": x_idx, "t": t_idx, "nodes": node_idx, "out": out_idx, "xi": xi_idx},
    )
