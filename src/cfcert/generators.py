"""Counterfactual generators.

Plain baselines (exact MILP-based minimum-distance, projected proximal
gradient descent, nearest training neighbour) plus the robust variants: an
iterative wrapper that retries the base generator with a relaxed
cost/validity trade-off until the verifier signs off, and the robust
nearest-neighbour method that walks its candidates outward from the query
(:class:`KDTree`, in distance order) and optionally refines the hit with a
line search towards the query.  Every distance is ``metrics.l1_rows``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from .intervals import ShiftSet
from .kdtree import KDTree
from .metrics import l1_normalized, l1_rows
from .milp import DEFAULT_NODE_LIMIT, branch_and_bound, encode_nearest_ce
from .models import (
    ParametricModel,
    affine_layers,
    as_feature_vector,
    check_target,
    class_of_logits,
    classify_batch,
    counterfactual_target,
)
from .verifier import is_delta_robust, robust_flags

__all__ = [
    "CounterfactualRecord",
    "GENERATORS",
    "DEFAULT_METHODS",
    "resolve_method",
    "mce",
    "gce",
    "nnce",
    "iterative_robustify",
    "mce_robust",
    "gce_robust",
    "get_candidates",
    "get_robust_ce",
    "rnce",
    "generate",
    "generate_all",
]

LINE_SEARCH_START = 1.0
LINE_SEARCH_STEP = 0.05
# GCE's proximal step size and iteration count when the caller gives none.
GCE_STEP = 0.1
GCE_MAX_ITERS = 500


@dataclass
class CounterfactualRecord:
    """A candidate counterfactual with provenance.

    ``trace`` carries the per-round knob values of iterative methods (margin
    or trade-off weight), so failed robustification runs stay inspectable.
    """

    method: str
    target_class: int
    found: bool
    x_prime: np.ndarray | None = None
    distance: float | None = None
    robust: bool | None = None
    shift: ShiftSet | None = None
    iterations: int = 1
    trace: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "method": self.method,
            "target_class": self.target_class,
            "found": self.found,
            "x_prime": None if self.x_prime is None else [float(v) for v in self.x_prime],
            "distance": self.distance,
            "robust": self.robust,
            "shift": None if self.shift is None else self.shift.to_dict(),
            "iterations": self.iterations,
            "trace": self.trace,
        }


def _not_found(method: str, target: int, shift=None, iterations=1, trace=None) -> CounterfactualRecord:
    return CounterfactualRecord(
        method=method,
        target_class=target,
        found=False,
        shift=shift,
        iterations=iterations,
        trace=trace or [],
    )


def mce(
    model: ParametricModel,
    x,
    target: int,
    margin: float = 0.0,
    box=None,
    node_limit: int = DEFAULT_NODE_LIMIT,
) -> CounterfactualRecord:
    """Exact minimum normalised-L1 counterfactual with a target logit margin."""
    x = as_feature_vector(x, model.input_dim)
    enc = encode_nearest_ce(model, x, target, margin=margin, box=box)
    res = branch_and_bound(enc.problem, node_limit=node_limit)
    if not res.optimal:
        return _not_found("mce", target)
    x_prime = res.x[enc.var_index["x"]].copy()
    return CounterfactualRecord(
        method="mce",
        target_class=target,
        found=True,
        x_prime=x_prime,
        distance=l1_normalized(x_prime, x),
        trace=[margin],
    )


def _rows_matvec(w: np.ndarray, V: np.ndarray) -> np.ndarray:
    """``w @ v`` for each row v of V.  A stack of vectors goes through the
    same BLAS matrix-vector call as a lone ``w @ v``, so each row equals it
    bit for bit (``V @ w.T`` is one matrix product and does not)."""
    return np.matmul(w, V[..., None])[..., 0]


def _score_rows(layers, target: int, V: np.ndarray):
    """The fused GCE step for a model's affine layers, a target and a stack
    of points, one row each: from one forward pass, each row's point class
    (by :func:`class_of_logits`), validity score (positive iff comfortably
    in the target class; multi-class uses the margin to the runner-up logit)
    and input gradient."""
    # Forward pass caching ReLU masks.
    masks = []
    for w, b in layers[:-1]:
        V = _rows_matvec(w, V)
        if b is not None:
            V = V + b
        masks.append(V > 0)
        V = np.maximum(V, 0.0)
    w, b = layers[-1]
    logits = _rows_matvec(w, V)
    if b is not None:
        logits = logits + b

    rows, width = logits.shape
    if width == 1:
        # The last layer's gradient is its one weight row, signed: the same
        # values as w.T @ [+-1], and the same for every row.
        g = w if target == 1 else -w
        score = logits[:, 0] if target == 1 else -logits[:, 0]
    else:
        t0 = target - 1
        others = np.delete(np.arange(width), t0)
        runner = others[np.argmax(logits[:, others], axis=1)]
        out = np.zeros((rows, width))
        out[:, t0] = 1.0
        out[np.arange(rows), runner] = -1.0
        score = logits[:, t0] - logits[np.arange(rows), runner]
        g = _rows_matvec(w.T, out)

    for i in range(len(layers) - 1, 0, -1):
        g = _rows_matvec(layers[i - 1][0].T, g * masks[i - 1])
    return class_of_logits(logits), score, g


def _soft_threshold(v: np.ndarray, tau: np.ndarray) -> np.ndarray:
    return np.sign(v) * np.maximum(np.abs(v) - tau, 0.0)


def _gce_rows(model, anchors, target: int, lams, step: float, max_iters: int, margin: float):
    """GCE records for rows of one iterate array: row i runs :func:`gce` from
    ``anchors[i]`` (validated feature vectors) with trade-off weight
    ``lams[i]`` and keeps its own best valid iterate.  Every operation is
    elementwise, a per-row reduction or :func:`_rows_matvec`, so each row
    takes the steps a lone run would, bit for bit; no row depends on
    another."""
    check_target(model, target)
    lam_arr = np.asarray(lams, dtype=np.float64).reshape(-1)
    bad = lam_arr[~(np.isfinite(lam_arr) & (lam_arr >= 0.0))]
    if bad.size:
        raise ValueError(f"lam must be finite and >= 0, got {bad[0]}")
    if not (np.isfinite(step) and step > 0.0):
        raise ValueError(f"step must be finite and > 0, got {step}")
    if max_iters < 0:
        raise ValueError(f"max_iters must be >= 0, got {max_iters}")
    if not np.isfinite(margin):
        raise ValueError(f"margin must be finite, got {margin}")
    n = model.input_dim
    A = np.asarray(anchors, dtype=np.float64).reshape(lam_arr.size, n)
    if not A.size:
        return []
    tau = (lam_arr * step / n)[:, None]
    layers = affine_layers(model)
    V = A.copy()
    best = np.empty_like(A)
    best_dist = np.full(A.shape[0], np.inf)
    for it in range(max_iters + 1):
        cls, score, grad = _score_rows(layers, target, V)
        d = l1_rows(V, A)
        better = (cls == target) & (d < best_dist)
        np.copyto(best, V, where=better[:, None])
        np.copyto(best_dist, d, where=better)
        if it == max_iters:
            break
        # V - step * (-grad), bit for bit, on the rows short of the margin.
        Z = np.where((score < margin)[:, None], V + step * grad, V)
        V = (A + _soft_threshold(Z - A, tau)).clip(0.0, 1.0)
    return [
        _not_found("gce", target, iterations=max_iters, trace=[lam])
        if dist == np.inf
        else CounterfactualRecord(
            method="gce", target_class=target, found=True, x_prime=x_best,
            distance=float(dist), iterations=max_iters, trace=[lam],
        )
        for x_best, dist, lam in zip(best, best_dist, lams)
    ]


def gce(
    model: ParametricModel,
    x,
    target: int,
    lam: float = 0.1,
    step: float = GCE_STEP,
    max_iters: int = GCE_MAX_ITERS,
    margin: float = 0.0,
) -> CounterfactualRecord:
    """Proximal gradient descent on hinge(margin - score) + lam * L1/n,
    projected to the unit box; returns the best valid iterate."""
    x = as_feature_vector(x, model.input_dim)
    return _gce_rows(model, [x], target, [lam], step, max_iters, margin)[0]


def nnce(model: ParametricModel, X, x, target: int) -> CounterfactualRecord:
    """Nearest training point classified to the target class."""
    X = np.asarray(X, dtype=np.float64)
    x = as_feature_vector(x, model.input_dim)
    check_target(model, target)
    valid = classify_batch(model, X) == target
    if not valid.any():
        return _not_found("nnce", target)
    idx = np.flatnonzero(valid)
    dists = l1_rows(X[idx], x)
    pos = int(np.argmin(dists))  # argmin takes the lowest index on ties
    return CounterfactualRecord(
        method="nnce",
        target_class=target,
        found=True,
        x_prime=X[idx[pos]].copy(),
        distance=float(dists[pos]),
    )


def iterative_robustify(
    base_generate,
    model: ParametricModel,
    shift: ShiftSet,
    target: int,
    max_rounds: int = 10,
    node_limit: int = DEFAULT_NODE_LIMIT,
    method: str = "robustified",
) -> CounterfactualRecord:
    """Retry a base generator with relaxed knobs until the verifier passes.

    ``base_generate(round_index)`` must return a (record, knob) pair.  On
    success the robust counterfactual is returned immediately; once the round
    budget is exhausted the last counterfactual found is returned flagged
    not robust, preserving the incompleteness of the underlying scheme.
    """
    if max_rounds < 0:
        raise ValueError(f"max_rounds must be >= 0, got {max_rounds}")
    last = None
    trace = []
    for k in range(max_rounds):
        record, knob = base_generate(k)
        trace.append(knob)
        if not record.found:
            continue
        last = record
        verdict = is_delta_robust(model, shift, record.x_prime, target=target, node_limit=node_limit)
        if verdict.robust:
            return replace(
                record, method=method, target_class=target, robust=True, shift=shift,
                iterations=k + 1, trace=trace,
            )
    if last is None:
        return _not_found(method, target, shift=shift, iterations=max_rounds, trace=trace)
    return replace(
        last, method=method, target_class=target, robust=False, shift=shift,
        iterations=max_rounds, trace=trace,
    )


def mce_robust(
    model: ParametricModel,
    shift: ShiftSet,
    x,
    target: int,
    margin_step: float = 0.1,
    max_rounds: int = 10,
    box=None,
    node_limit: int = DEFAULT_NODE_LIMIT,
) -> CounterfactualRecord:
    """MCE wrapped in the iterative scheme: the logit margin grows by
    ``margin_step`` per round, starting from zero."""
    if not (np.isfinite(margin_step) and margin_step >= 0.0):
        raise ValueError(f"margin_step must be finite and >= 0, got {margin_step}")

    def base(k):
        margin = k * margin_step
        return mce(model, x, target, margin=margin, box=box, node_limit=node_limit), margin

    return iterative_robustify(base, model, shift, target, max_rounds, node_limit, method="mce-r")


def gce_robust(
    model: ParametricModel,
    shift: ShiftSet,
    x,
    target: int,
    lam: float = 0.1,
    step: float = GCE_STEP,
    max_iters: int = GCE_MAX_ITERS,
    max_rounds: int = 10,
    node_limit: int = DEFAULT_NODE_LIMIT,
) -> CounterfactualRecord:
    """GCE wrapped in the iterative scheme: the trade-off weight halves per
    round, allowing costlier but more confidently classified iterates.  The
    rounds run as rows of one batch, so every round is computed even when
    round 0 certifies; the verifier still takes them in order."""
    return _gce_robust_rows(model, shift, [x], target, lam, step, max_iters, max_rounds, node_limit)[0]


def _gce_robust_rows(model, shift, inputs, target, lam, step, max_iters, max_rounds, node_limit):
    """:func:`gce_robust` for each of ``inputs``, all inputs x rounds as rows
    of one :func:`_gce_rows` batch."""
    inputs = [as_feature_vector(x, model.input_dim) for x in inputs]
    lams = [lam / (2.0**k) for k in range(max_rounds)]
    rows = _gce_rows(
        model, [x for x in inputs for _ in lams], target, lams * len(inputs), step, max_iters, 0.0
    )
    out = []
    for i in range(len(inputs)):
        rounds = list(zip(rows[i * len(lams) : (i + 1) * len(lams)], lams))
        out.append(iterative_robustify(
            rounds.__getitem__, model, shift, target, max_rounds, node_limit, method="gce-r"
        ))
    return out


def get_candidates(
    model: ParametricModel,
    X,
    x,
    shift: ShiftSet,
    target: int | None = None,
    robust_init: bool = False,
    node_limit: int = DEFAULT_NODE_LIMIT,
) -> np.ndarray:
    """Indices of training rows eligible as counterfactual candidates.

    Without ``robust_init`` a row qualifies when the point model classifies
    it to the target class; with it the row must additionally pass the
    robustness test.  (Robustness implies target-class point classification,
    so the point filter is applied first in both modes.)  The test is one
    :func:`robust_flags` call over the target-class rows: interval arithmetic
    certifies what it can and only the rest is solved as a MILP.  The
    target defaults to the other class of x (:func:`counterfactual_target`).
    """
    X = np.asarray(X, dtype=np.float64)
    target = counterfactual_target(model, x, target)
    idx = np.flatnonzero(classify_batch(model, X) == target)
    if not robust_init:
        return idx
    keep = robust_flags(model, shift, X[idx], target, node_limit)
    return idx[np.asarray(keep, dtype=bool)]


def get_robust_ce(
    model: ParametricModel,
    shift: ShiftSet,
    tree: KDTree,
    x,
    target: int,
    optimal: bool = False,
    candidates_verified: bool = False,
    node_limit: int = DEFAULT_NODE_LIMIT,
) -> CounterfactualRecord:
    """Walk the candidates outward until a robust one appears; optionally
    refine it with a line search towards the query.

    The line search scans the fixed segment between the query and the chosen
    neighbour with interpolation weight a = 1, 1 - s, 1 - 2s, ..., keeping
    the last interpolant that passes the robustness test.  Unless the
    candidates are pre-verified, each neighbour is tested on its own, so the
    walk stays lazy; the interpolants are tested in one batch.  Both go
    through :func:`robust_flags`, which rejects a point of another point
    class and accepts one interval arithmetic certifies before any MILP.
    (With delta = 0 the point class alone decides.)
    """
    x = as_feature_vector(x, model.input_dim)
    check_target(model, target)
    x_prime = None
    queries = 0
    for idx, _dist in tree.neighbors(x):
        queries += 1
        candidate = tree.points[idx]
        if candidates_verified or robust_flags(model, shift, [candidate], target, node_limit)[0]:
            x_prime = candidate.copy()
            break
    if x_prime is None:
        return _not_found("rnce", target, shift=shift, iterations=queries)
    if optimal:
        anchor = x_prime.copy()
        line = []
        k = 1
        a = LINE_SEARCH_START - LINE_SEARCH_STEP
        while a > 1e-12:
            line.append(a * anchor + (1.0 - a) * x)
            k += 1
            a = LINE_SEARCH_START - k * LINE_SEARCH_STEP
        flags = robust_flags(model, shift, line, target, node_limit)
        for x_line, robust in zip(line, flags):
            if robust:
                x_prime = x_line
    return CounterfactualRecord(
        method="rnce",
        target_class=target,
        found=True,
        x_prime=x_prime,
        distance=l1_normalized(x_prime, x),
        robust=True,
        shift=shift,
        iterations=queries,
    )


def rnce(
    model: ParametricModel,
    X,
    x,
    shift: ShiftSet,
    target: int | None = None,
    robust_init: bool = False,
    optimal: bool = False,
    node_limit: int = DEFAULT_NODE_LIMIT,
) -> CounterfactualRecord:
    """Robust nearest-neighbour counterfactual: filter candidates, walk them
    outward from x for a certified hit, optionally line-search refine.

    Sound by construction (only verified points are returned) and complete
    whenever some target-class training point passes the robustness test.
    """
    X = np.asarray(X, dtype=np.float64)
    x = as_feature_vector(x, model.input_dim)
    target = counterfactual_target(model, x, target)
    idx = get_candidates(model, X, x, shift, target, robust_init, node_limit)
    name = _rnce_name(robust_init, optimal)
    if idx.size == 0:
        return _not_found(name, target, shift=shift)
    record = get_robust_ce(
        model, shift, KDTree(X[idx]), x, target, optimal, candidates_verified=robust_init,
        node_limit=node_limit,
    )
    return replace(record, method=name)


def _rnce_name(robust_init: bool, optimal: bool) -> str:
    """``rnce-XY``: X is ``robust_init`` and Y ``optimal``, each t or f."""
    return f"rnce-{'t' if robust_init else 'f'}{'t' if optimal else 'f'}"


# The batch generators: (model, shift, inputs, target, X, knobs) -> records.
# The loops read mce, mce_robust, nnce and rnce from this module at call time,
# so rebinding one of those names (as a tracer does) reaches them.
def _mce_batch(model, shift, inputs, target, X, k):
    return [mce(model, x, target, margin=k["margin"], node_limit=k["node_limit"]) for x in inputs]


def _mce_robust_batch(model, shift, inputs, target, X, k):
    knobs = {key: k[key] for key in ("margin_step", "max_rounds", "node_limit")}
    return [mce_robust(model, shift, x, target, **knobs) for x in inputs]


def _gce_batch(model, shift, inputs, target, X, k):
    xs = [as_feature_vector(x, model.input_dim) for x in inputs]
    return _gce_rows(model, xs, target, [k["lam"]] * len(xs), GCE_STEP, GCE_MAX_ITERS, 0.0)


def _gce_robust_batch(model, shift, inputs, target, X, k):
    knobs = (k["lam"], GCE_STEP, GCE_MAX_ITERS, k["max_rounds"], k["node_limit"])
    return _gce_robust_rows(model, shift, inputs, target, *knobs)


def _nnce_batch(model, shift, inputs, target, X, k):
    return [nnce(model, X, x, target) for x in inputs]


def _rnce_batch(model, shift, inputs, target, X, k, **flags):
    knobs = dict(flags, target=target, node_limit=k["node_limit"])
    return [rnce(model, X, x, shift, **knobs) for x in inputs]


class Method(NamedTuple):
    """A row of :data:`GENERATORS`."""

    run: Callable  # (model, shift, inputs, target, X, knobs) -> one record per input
    robust: bool  # its records carry a verdict at the shift
    uses_data: bool  # it searches the training rows X


# Every generator by method name, in the benchmark's order.
GENERATORS = {
    "mce": Method(_mce_batch, False, False),
    "mce-r": Method(_mce_robust_batch, True, False),
    "gce": Method(_gce_batch, False, False),
    "gce-r": Method(_gce_robust_batch, True, False),
    "nnce": Method(_nnce_batch, False, True),
    "rnce-ff": Method(partial(_rnce_batch, robust_init=False, optimal=False), True, True),
    "rnce-ft": Method(partial(_rnce_batch, robust_init=False, optimal=True), True, True),
    "rnce-tf": Method(partial(_rnce_batch, robust_init=True, optimal=False), True, True),
    "rnce-tt": Method(partial(_rnce_batch, robust_init=True, optimal=True), True, True),
}
# What a benchmark runs when it is given no methods.
DEFAULT_METHODS = ("mce", "mce-r", "nnce", "rnce-ff")


def resolve_method(method: str, robust_init: bool = False, optimal: bool = False) -> str:
    """The :data:`GENERATORS` name of ``method``; the bare ``rnce`` takes both flags."""
    method = _rnce_name(robust_init, optimal) if method == "rnce" else method
    if method not in GENERATORS:
        raise ValueError(f"unknown method {method!r}")
    return method


def generate_all(
    method: str, model: ParametricModel, shift: ShiftSet, inputs, target: int, X=None, *,
    margin: float = 0.0, margin_step: float = 0.1, max_rounds: int = 10, lam: float = 0.1,
    robust_init: bool = False, optimal: bool = False, node_limit: int = DEFAULT_NODE_LIMIT,
) -> list[CounterfactualRecord]:
    """One counterfactual for each of ``inputs`` by method name; ``X`` holds
    the training rows the nearest-neighbour methods search.  ``gce`` runs as
    one batch over the inputs and ``gce-r`` as one over inputs x rounds
    (:func:`_gce_rows`); every record equals a lone run's."""
    knobs = dict(margin=margin, margin_step=margin_step, max_rounds=max_rounds, lam=lam,
                 node_limit=node_limit)
    run = GENERATORS[resolve_method(method, robust_init, optimal)].run
    return run(model, shift, inputs, target, X, knobs)


def generate(method: str, model, shift, x, target: int, X=None, **knobs) -> CounterfactualRecord:
    """One counterfactual by method name: :func:`generate_all` of ``[x]``."""
    return generate_all(method, model, shift, [x], target, X, **knobs)[0]
