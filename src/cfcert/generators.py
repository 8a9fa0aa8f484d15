"""Counterfactual generators.

Plain baselines (exact MILP-based minimum-distance, projected proximal
gradient descent, nearest training neighbour) plus the robust variants: an
iterative wrapper that retries the base generator with a relaxed
cost/validity trade-off until the verifier signs off, and the robust
nearest-neighbour method that queries a k-d tree of candidates and
optionally refines the hit with a line search towards the query.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .intervals import ShiftSet
from .kdtree import KDTree
from .metrics import l1_normalized
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
]

LINE_SEARCH_START = 1.0
LINE_SEARCH_STEP = 0.05

# rnce-XY: X = robust_init, Y = optimal, each t or f.
_RNCE_FLAGS = {f"rnce-{a}{b}": (a == "t", b == "t") for a in "tf" for b in "tf"}


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


def _score_step(layers, target: int):
    """The fused GCE step for a model's affine layers and a target: a
    function of x giving, from one forward pass, the point class (by
    :func:`class_of_logits`), the validity score (positive iff comfortably
    in the target class; multi-class uses the margin to the runner-up logit)
    and its input gradient.  One affine row, the hot case, is stepped in
    closed form."""
    if len(layers) == 1 and layers[0][0].shape[0] == 1:
        w, b = layers[0][0][0], layers[0][1]
        bias = None if b is None else float(b[0])
        grad = w if target == 1 else -w

        def affine_step(x):
            z = float(w @ x)
            if bias is not None:
                z += bias
            return class_of_logits(z), (z if target == 1 else -z), grad

        return affine_step

    def network_step(x):
        # Forward pass caching ReLU masks.
        masks = []
        v = x
        for w, b in layers[:-1]:
            pre = w @ v
            if b is not None:
                pre = pre + b
            masks.append(pre > 0)
            v = np.maximum(pre, 0.0)
        w, b = layers[-1]
        logits = w @ v
        if b is not None:
            logits = logits + b

        if logits.size == 1:
            out_vec = np.array([1.0 if target == 1 else -1.0])
            score = logits[0] if target == 1 else -logits[0]
        else:
            t0 = target - 1
            others = np.delete(np.arange(logits.size), t0)
            runner = others[int(np.argmax(logits[others]))]
            out_vec = np.zeros(logits.size)
            out_vec[t0] = 1.0
            out_vec[runner] = -1.0
            score = logits[t0] - logits[runner]

        g = out_vec
        for i in range(len(layers) - 1, -1, -1):
            g = layers[i][0].T @ g
            if i > 0:
                g = g * masks[i - 1]
        return class_of_logits(logits), score, g

    return network_step


def _soft_threshold(v: np.ndarray, tau: float) -> np.ndarray:
    return np.sign(v) * np.maximum(np.abs(v) - tau, 0.0)


def gce(
    model: ParametricModel,
    x,
    target: int,
    lam: float = 0.1,
    step: float = 0.1,
    max_iters: int = 500,
    margin: float = 0.0,
) -> CounterfactualRecord:
    """Proximal gradient descent on hinge(margin - score) + lam * L1/n,
    projected to the unit box; returns the best valid iterate."""
    x = as_feature_vector(x, model.input_dim)
    check_target(model, target)
    if not (np.isfinite(lam) and lam >= 0.0):
        raise ValueError(f"lam must be finite and >= 0, got {lam}")
    if not (np.isfinite(step) and step > 0.0):
        raise ValueError(f"step must be finite and > 0, got {step}")
    if max_iters < 0:
        raise ValueError(f"max_iters must be >= 0, got {max_iters}")
    n = x.size
    tau = lam * step / n
    x_cur = x.copy()
    best = None
    best_dist = np.inf
    score_step = _score_step(affine_layers(model), target)
    for it in range(max_iters + 1):
        cls, score, grad = score_step(x_cur)
        if cls == target:
            d = float(np.abs(x_cur - x).sum() / n)  # l1_normalized(x_cur, x)
            if d < best_dist:
                best = x_cur
                best_dist = d
        if it == max_iters:
            break
        # x_cur - step * (-grad), bit for bit.
        z = x_cur + step * grad if score < margin else x_cur
        x_cur = (x + _soft_threshold(z - x, tau)).clip(0.0, 1.0)
    if best is None:
        return _not_found("gce", target, iterations=max_iters, trace=[lam])
    return CounterfactualRecord(
        method="gce",
        target_class=target,
        found=True,
        x_prime=best,
        distance=best_dist,
        iterations=max_iters,
        trace=[lam],
    )


def nnce(model: ParametricModel, X, x, target: int) -> CounterfactualRecord:
    """Nearest training point classified to the target class."""
    X = np.asarray(X, dtype=np.float64)
    x = as_feature_vector(x, model.input_dim)
    check_target(model, target)
    valid = classify_batch(model, X) == target
    if not valid.any():
        return _not_found("nnce", target)
    idx = np.flatnonzero(valid)
    # Same distance expression as the k-d tree so orderings agree bitwise.
    dists = np.array([l1_normalized(X[i], x) for i in idx])
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
    x,
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

    def base(k):
        margin = k * margin_step
        return mce(model, x, target, margin=margin, box=box, node_limit=node_limit), margin

    return iterative_robustify(
        base, model, shift, x, target, max_rounds, node_limit, method="mce-r"
    )


def gce_robust(
    model: ParametricModel,
    shift: ShiftSet,
    x,
    target: int,
    lam: float = 0.1,
    step: float = 0.1,
    max_iters: int = 500,
    max_rounds: int = 10,
    node_limit: int = DEFAULT_NODE_LIMIT,
) -> CounterfactualRecord:
    """GCE wrapped in the iterative scheme: the trade-off weight halves per
    round, allowing costlier but more confidently classified iterates."""

    def base(k):
        lam_k = lam / (2.0**k)
        return gce(model, x, target, lam=lam_k, step=step, max_iters=max_iters), lam_k

    return iterative_robustify(
        base, model, shift, x, target, max_rounds, node_limit, method="gce-r"
    )


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
    """Walk the tree outward until a robust candidate appears; optionally
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
    """Robust nearest-neighbour counterfactual: filter candidates, fit a k-d
    tree, query outward for a certified hit, optionally line-search refine.

    Sound by construction (only verified points are returned) and complete
    whenever some target-class training point passes the robustness test.
    """
    X = np.asarray(X, dtype=np.float64)
    x = as_feature_vector(x, model.input_dim)
    target = counterfactual_target(model, x, target)
    idx = get_candidates(
        model, X, x, shift, target=target, robust_init=robust_init, node_limit=node_limit
    )
    flags = f"{'t' if robust_init else 'f'}{'t' if optimal else 'f'}"
    if idx.size == 0:
        return _not_found(f"rnce-{flags}", target, shift=shift)
    tree = KDTree(X[idx])
    record = get_robust_ce(
        model,
        shift,
        tree,
        x,
        target,
        optimal=optimal,
        candidates_verified=robust_init,
        node_limit=node_limit,
    )
    record.method = f"rnce-{flags}"
    return record


def generate(
    method: str,
    model: ParametricModel,
    shift: ShiftSet,
    x,
    target: int,
    X=None,
    *,
    margin: float = 0.0,
    margin_step: float = 0.1,
    max_rounds: int = 10,
    lam: float = 0.1,
    robust_init: bool = False,
    optimal: bool = False,
    node_limit: int = DEFAULT_NODE_LIMIT,
) -> CounterfactualRecord:
    """One counterfactual by method name.

    ``X`` holds the training rows the nearest-neighbour methods search;
    ``rnce-XY`` sets ``robust_init``/``optimal`` from its two t/f letters.
    The generators are looked up at call time, so rebinding a module name
    (as a tracer does) reaches this dispatch too.
    """
    if method == "mce":
        return mce(model, x, target, margin=margin, node_limit=node_limit)
    if method == "mce-r":
        return mce_robust(
            model, shift, x, target, margin_step=margin_step, max_rounds=max_rounds,
            node_limit=node_limit,
        )
    if method == "gce":
        return gce(model, x, target, lam=lam)
    if method == "gce-r":
        return gce_robust(
            model, shift, x, target, lam=lam, max_rounds=max_rounds, node_limit=node_limit
        )
    if method == "nnce":
        return nnce(model, X, x, target)
    if method in _RNCE_FLAGS:
        robust_init, optimal = _RNCE_FLAGS[method]
        method = "rnce"
    if method == "rnce":
        return rnce(
            model, X, x, shift, target=target, robust_init=robust_init, optimal=optimal,
            node_limit=node_limit,
        )
    raise ValueError(f"unknown method {method!r}")
