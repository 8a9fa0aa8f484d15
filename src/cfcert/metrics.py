"""Evaluation metrics: normalised L1 cost, local outlier factor
plausibility, and validity under actually retrained models."""

from __future__ import annotations

import numpy as np

from .models import ParametricModel, classify_batch

__all__ = ["l1_rows", "l1_normalized", "lof_score", "lof_scores", "validity_after_retraining"]

DEFAULT_LOF_K = 20


def l1_rows(P, q) -> np.ndarray:
    """Normalised L1 distance from ``q`` to each row of ``P`` (last axis,
    broadcast): the one L1 expression of the toolkit.  A row's distance
    equals a lone call's on that row bit for bit, so the neighbour walk,
    the nearest-neighbour and GCE searches and the reported costs agree."""
    return np.abs(P - q).sum(axis=-1) / P.shape[-1]


def l1_normalized(x, x_prime) -> float:
    """Normalised L1 distance between two vectors of equal size."""
    a = np.asarray(x, dtype=np.float64)
    b = np.asarray(x_prime, dtype=np.float64)
    if a.ndim != 1 or a.shape != b.shape:
        a, b = a.reshape(-1), b.reshape(-1)
        if a.size != b.size:
            raise ValueError(f"vectors differ in length ({a.size} vs {b.size})")
    return float(l1_rows(a, b))


def _k_neighbourhoods(D: np.ndarray, k: int):
    """k-distances and neighbourhood masks; ties keep every point at the
    k-distance, so neighbourhoods may exceed k."""
    k_dist = np.partition(D, k - 1, axis=1)[:, k - 1]
    mask = D <= k_dist[:, None]
    return k_dist, mask


def _lrd(dists: np.ndarray, k_dist_of_neighbours: np.ndarray) -> float:
    reach = np.maximum(dists, k_dist_of_neighbours)
    mean_reach = reach.mean()
    return np.inf if mean_reach == 0.0 else 1.0 / mean_reach


def lof_score(point, reference, k: int = DEFAULT_LOF_K) -> float:
    """Local outlier factor of a query point against a reference set.

    Standard construction: k-distance with ties kept, reachability distance
    floored by the neighbour's k-distance, local reachability density, ratio
    averaged over the query's neighbourhood.  Scores near 1 mean inlier.
    """
    return float(lof_scores(np.asarray(point, float)[None, :], reference, k)[0])


def lof_scores(points, reference, k: int = DEFAULT_LOF_K) -> np.ndarray:
    """:func:`lof_score` of each row of ``points``.  Query rows and
    reference rows of different widths are a ``ValueError``."""
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    ref = np.asarray(reference, dtype=np.float64)
    if points.ndim != 2 or ref.ndim != 2 or points.shape[1] != ref.shape[1]:
        raise ValueError(
            f"query points are {points.shape[-1]} wide, reference rows {ref.shape[-1]}"
        )
    n = ref.shape[0]
    if not 1 <= k < n:
        raise ValueError(f"need reference size > k >= 1, got k={k}, n={n}")

    # One row at a time, so memory grows with n * n, not n * n * d; a row
    # equals the (n, n, d) broadcast's bit for bit (|a - b| = |b - a|, and
    # each row sums its d terms in the same order).
    D = np.empty((n, n))
    for o in range(n):
        D[o] = l1_rows(ref, ref[o])
    np.fill_diagonal(D, np.inf)  # a point is not its own neighbour
    k_dist, mask = _k_neighbourhoods(D, k)
    lrd_ref = np.empty(n)
    for o in range(n):
        nb = np.flatnonzero(mask[o])
        lrd_ref[o] = _lrd(D[o, nb], k_dist[nb])

    out = np.empty(points.shape[0])
    for q in range(points.shape[0]):
        dq = l1_rows(ref, points[q])
        kd_q = np.partition(dq, k - 1)[k - 1]
        nb = np.flatnonzero(dq <= kd_q)
        lrd_q = _lrd(dq[nb], k_dist[nb])
        num = lrd_ref[nb].mean()
        if np.isinf(lrd_q):
            out[q] = 1.0 if np.isinf(num) else 0.0
        else:
            out[q] = num / lrd_q
    return out


def validity_after_retraining(ce_batch, targets, retrained: list[ParametricModel]) -> float:
    """Mean over (counterfactual, retrained model) pairs of the indicator
    that the model classifies the counterfactual to its target class."""
    ces = np.atleast_2d(np.asarray(ce_batch, dtype=np.float64))
    targets = np.asarray(targets, dtype=np.int64).reshape(-1)
    if ces.shape[0] == 0 or not retrained:
        raise ValueError("need at least one counterfactual and one retrained model")
    if targets.size != ces.shape[0]:
        raise ValueError("one target per counterfactual required")
    hits = [classify_batch(m, ces) == targets for m in retrained]
    return float(np.mean(hits))
