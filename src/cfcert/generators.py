"""Counterfactual generators.

Plain baselines (exact MILP-based minimum-distance, projected proximal
gradient descent, nearest training neighbour) plus the robust variants: an
iterative loop that verifies the base generator's rounds, each at a more
relaxed cost/validity trade-off, until the verifier signs off, and the robust
nearest-neighbour method that walks its candidates outward from the query
(:class:`KDTree`, in distance order) and optionally refines the hit with a
line search towards the query.  Every distance is ``metrics.l1_rows``.
"""

from __future__ import annotations

from copy import deepcopy
from dataclasses import dataclass, field, replace
from functools import cache, partial
from itertools import count
from typing import Callable, NamedTuple

import numpy as np

from .intervals import ShiftSet
from .kdtree import KDTree
from .metrics import l1_normalized, l1_rows
from .milp import DEFAULT_NODE_LIMIT, branch_and_bound, encode_nearest_ce
from .milp.encode import _check_margin
from .models import (
    ParametricModel,
    _rows_matvec,
    affine_layers,
    as_feature_vector,
    check_target,
    class_of_logits,
    classify_batch,
    counterfactual_target,
    pre_activations,
)
from .verifier import is_delta_robust, robust_flags

__all__ = [
    "CounterfactualRecord",
    "GENERATORS",
    "DEFAULT_METHODS",
    "mce",
    "gce",
    "nnce",
    "iterative_robustify",
    "mce_robust",
    "gce_robust",
    "get_candidates",
    "get_robust_ce",
    "rnce",
    "generate_all",
    "generate_grid",
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


def _score_rows(model, target: int, V: np.ndarray):
    """The fused GCE step for a model, a target and a stack of points, one
    row each: from one :func:`pre_activations` pass, each row's point class
    (by :func:`class_of_logits`), validity score (positive iff comfortably
    in the target class; multi-class uses the margin to the runner-up logit)
    and input gradient."""
    layers = affine_layers(model)
    pre = pre_activations(model, V)
    logits = pre[-1]
    w = layers[-1][0]

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
        g = _rows_matvec(layers[i - 1][0].T, g * (pre[i - 1] > 0))
    return class_of_logits(logits), score, g


def _soft_threshold(v: np.ndarray, tau: np.ndarray) -> np.ndarray:
    return np.sign(v) * np.maximum(np.abs(v) - tau, 0.0)


def _check_lams(lams) -> np.ndarray:
    lam_arr = np.asarray(lams, dtype=np.float64).reshape(-1)
    bad = lam_arr[~(np.isfinite(lam_arr) & (lam_arr >= 0.0))]
    if bad.size:
        raise ValueError(f"lam must be finite and >= 0, got {bad[0]}")
    return lam_arr


def _gce_rows(model, anchors, target: int, lams, step: float, max_iters: int, margin: float):
    """GCE records for rows of one iterate array: row i runs :func:`gce` from
    ``anchors[i]`` (validated feature vectors) with trade-off weight
    ``lams[i]`` and keeps its own best valid iterate.  Every operation is
    elementwise, a per-row reduction or a row-stable matrix-vector product
    (:func:`~cfcert.models.pre_activations` forward, its transposes back),
    so each row takes the steps a lone run would, bit for bit; no row
    depends on another."""
    check_target(model, target)
    lam_arr = _check_lams(lams)
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
    V = A.copy()
    best = np.empty_like(A)
    best_dist = np.full(A.shape[0], np.inf)
    for it in range(max_iters + 1):
        cls, score, grad = _score_rows(model, target, V)
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
    """Nearest target-class training point: the one-input ``nnce`` batch."""
    return _nnce_batch(model, None, [x], target, X, {})[0]


def _check_max_rounds(max_rounds: int) -> None:
    if max_rounds < 0:
        raise ValueError(f"max_rounds must be >= 0, got {max_rounds}")


def _check_margin_step(margin_step: float) -> None:
    if not (np.isfinite(margin_step) and margin_step >= 0.0):
        raise ValueError(f"margin_step must be finite and >= 0, got {margin_step}")


def iterative_robustify(
    rounds,
    model: ParametricModel,
    shift: ShiftSet,
    target: int,
    max_rounds: int = 10,
    node_limit: int = DEFAULT_NODE_LIMIT,
    method: str = "robustified",
) -> CounterfactualRecord:
    """Verify a base generator's rounds in order until one passes.

    ``rounds`` is an iterable of (record, knob) pairs, one per relaxation of
    the knob; at most ``max_rounds`` of them are drawn, so a lazy iterable
    computes no round past the first robust one.  On success the robust
    counterfactual is returned immediately; once the rounds are spent the
    last counterfactual found is returned flagged not robust, preserving the
    incompleteness of the underlying scheme.
    """
    _check_max_rounds(max_rounds)
    last = None
    trace = []
    for k, (record, knob) in zip(range(max_rounds), rounds):
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
        return _not_found(method, target, shift=shift, iterations=len(trace), trace=trace)
    return replace(
        last, method=method, target_class=target, robust=False, shift=shift,
        iterations=len(trace), trace=trace,
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
    _check_margin_step(margin_step)
    margins = (k * margin_step for k in count())
    rounds = ((mce(model, x, target, margin=m, box=box, node_limit=node_limit), m) for m in margins)
    return iterative_robustify(rounds, model, shift, target, max_rounds, node_limit, method="mce-r")


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
    (rounds,) = _gce_rounds(model, [x], target, lam, step, max_iters, max_rounds)
    return iterative_robustify(rounds, model, shift, target, max_rounds, node_limit, method="gce-r")


def _gce_rounds(model, inputs, target, lam, step, max_iters, rounds):
    """GCE for each of ``inputs`` at ``rounds`` trade-off weights, round j at
    ``lam / 2**j``, as rows of one :func:`_gce_rows` batch: per input, its
    rounds' (record, weight) pairs.  Round 0 runs at ``lam`` itself, so its
    records are :func:`gce`'s at ``lam``."""
    xs = [as_feature_vector(x, model.input_dim) for x in inputs]
    lams = [lam / 2.0**j if j else lam for j in range(rounds)]
    rows = _gce_rows(model, [x for x in xs for _ in lams], target, lams * len(xs), step, max_iters, 0.0)
    return [list(zip(rows[i * rounds : (i + 1) * rounds], lams)) for i in range(len(xs))]


def get_candidates(
    model: ParametricModel,
    X,
    shift: ShiftSet,
    target: int,
    robust_init: bool = False,
    node_limit: int = DEFAULT_NODE_LIMIT,
) -> np.ndarray:
    """Indices of training rows eligible as counterfactual candidates for
    ``target``; they do not depend on the query.

    Without ``robust_init`` a row qualifies when the point model classifies
    it to the target class; with it the row must pass the robustness test,
    one :func:`robust_flags` call over all the rows: it rejects a row of
    another point class, certifies what interval arithmetic can and solves
    only the rest as a MILP.
    """
    check_target(model, target)
    X = np.asarray(X, dtype=np.float64)
    if robust_init:
        return np.flatnonzero(robust_flags(model, shift, X, target, node_limit))
    return np.flatnonzero(classify_batch(model, X) == target)


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
    outward from x for a certified hit, optionally line-search refine.  The
    one-input case of the ``rnce-XY`` batch generators; the target defaults
    to the other class of x (:func:`counterfactual_target`).

    Sound by construction (only verified points are returned) and complete
    whenever some target-class training point passes the robustness test.
    """
    x = as_feature_vector(x, model.input_dim)
    target = counterfactual_target(model, x, target)
    knobs = {"node_limit": node_limit}
    return _rnce_batch(model, shift, [x], target, X, knobs, robust_init, optimal)[0]


def _rnce_name(robust_init: bool, optimal: bool) -> str:
    """``rnce-XY``: X is ``robust_init`` and Y ``optimal``, each t or f."""
    return f"rnce-{'t' if robust_init else 'f'}{'t' if optimal else 'f'}"


# The batch generators: (model, shift, inputs, target, X, knobs) -> records.
# They read mce, mce_robust, _gce_rows, iterative_robustify, get_candidates,
# KDTree and get_robust_ce from this module at call time, so rebinding one of
# those names (as a tracer does) reaches them.  The GCE pair reads its rows
# from knobs["gce_rounds"], the grid's one batch (generate_grid).
def _mce_batch(model, shift, inputs, target, X, k):
    return [mce(model, x, target, margin=k["margin"], node_limit=k["node_limit"]) for x in inputs]


def _mce_robust_batch(model, shift, inputs, target, X, k):
    knobs = {key: k[key] for key in ("margin_step", "max_rounds", "node_limit")}
    return [mce_robust(model, shift, x, target, **knobs) for x in inputs]


# The GCE pair hands out copies: the grid's other cells read the same rows.
def _gce_batch(model, shift, inputs, target, X, k):
    return [deepcopy(rounds[0][0]) for rounds in k["gce_rounds"]()]


def _gce_robust_batch(model, shift, inputs, target, X, k):
    return [
        deepcopy(iterative_robustify(
            rounds, model, shift, target, k["max_rounds"], k["node_limit"], method="gce-r"
        ))
        for rounds in k["gce_rounds"]()
    ]


def _nnce_batch(model, shift, inputs, target, X, k):
    """One point-class filter for the batch, then each input's nearest
    candidate, ties to the lowest row index."""
    xs = [as_feature_vector(x, model.input_dim) for x in inputs]
    X = np.asarray(X, dtype=np.float64)
    C = X[get_candidates(model, X, shift, target)]
    if not C.size:
        return [_not_found("nnce", target) for _ in xs]
    records = []
    for x in xs:
        dists = l1_rows(C, x)
        pos = int(np.argmin(dists))  # argmin takes the lowest index on ties
        records.append(CounterfactualRecord(method="nnce", target_class=target, found=True,
                                            x_prime=C[pos].copy(), distance=float(dists[pos])))
    return records


def _rnce_batch(model, shift, inputs, target, X, k, robust_init, optimal):
    """One candidate filter and one :class:`KDTree` for the batch, then one
    walk per input."""
    xs = [as_feature_vector(x, model.input_dim) for x in inputs]
    X = np.asarray(X, dtype=np.float64)
    idx = get_candidates(model, X, shift, target, robust_init, k["node_limit"])
    name = _rnce_name(robust_init, optimal)
    if idx.size == 0:
        return [_not_found(name, target, shift=shift) for _ in xs]
    tree = KDTree(X[idx])
    return [
        replace(
            get_robust_ce(model, shift, tree, x, target, optimal, robust_init, k["node_limit"]),
            method=name,
        )
        for x in xs
    ]


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


def generate_grid(
    methods, model: ParametricModel, shifts, inputs, target: int, X=None, *,
    margin: float = 0.0, margin_step: float = 0.1, max_rounds: int = 10, lam: float = 0.1,
    node_limit: int = DEFAULT_NODE_LIMIT,
):
    """The records of every (method, shift) cell, one cell at a time, in
    ``methods`` order: each robust method once per shift of ``shifts``,
    every other method once.  Yields ``(method, k, records)``, ``k`` being
    the position of the cell's shift in ``shifts`` (None for a method that
    reads no shift) and ``records`` one per input, as :func:`generate_all`
    gives them.

    Work that no shift changes is done once per grid, by the first cell
    that needs it: ``gce`` and ``gce-r`` at every shift read one GCE batch
    over inputs x rounds (:func:`_gce_rounds`), ``gce`` its round-0 rows,
    which do not depend on the rows beside them.

    Every method name and knob but ``node_limit`` is checked before the
    first cell runs."""
    names = list(methods)
    for name in names:
        if name not in GENERATORS:
            raise ValueError(f"unknown method {name!r}")
        if X is None and GENERATORS[name].uses_data:
            raise ValueError(f"method {name!r} needs the training rows X")
    _check_max_rounds(max_rounds)
    _check_margin_step(margin_step)
    _check_lams([lam])
    _check_margin(margin)  # MCE's, the one method that reads it
    rounds = max(max_rounds, 1) if "gce-r" in names else 1
    knobs = dict(
        margin=margin, margin_step=margin_step, max_rounds=max_rounds, node_limit=node_limit,
        gce_rounds=cache(partial(_gce_rounds, model, inputs, target, lam, GCE_STEP,
                                 GCE_MAX_ITERS, rounds)),
    )
    return _grid(names, model, list(shifts), inputs, target, X, knobs)


def _grid(names, model, shifts, inputs, target, X, knobs):
    for name in names:
        method = GENERATORS[name]
        for k, shift in enumerate(shifts) if method.robust else [(None, None)]:
            yield name, k, method.run(model, shift, inputs, target, X, knobs)


def generate_all(
    method: str, model: ParametricModel, shift: ShiftSet, inputs, target: int, X=None, **knobs
) -> list[CounterfactualRecord]:
    """One counterfactual for each of ``inputs`` by method name: the one cell
    of a one-method, one-shift :func:`generate_grid`, which takes the knobs.
    ``X`` holds the training rows the nearest-neighbour methods search.
    ``gce`` runs as one batch over the inputs and ``gce-r`` as one over
    inputs x rounds (:func:`_gce_rows`); every record equals a lone run's."""
    ((_, _, records),) = generate_grid([method], model, [shift], inputs, target, X, **knobs)
    return records
