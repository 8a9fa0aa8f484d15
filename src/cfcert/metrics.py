"""Evaluation metrics: normalised L1 cost, local outlier factor
plausibility, and validity under actually retrained models."""

from __future__ import annotations

import numpy as np

from .models import ParametricModel, classify_batch

__all__ = ["l1_normalized", "lof_score", "lof_scores", "validity_after_retraining"]

DEFAULT_LOF_K = 20


def l1_normalized(x, x_prime) -> float:
    """Normalised L1 distance, the one metric of the toolkit; the k-d tree
    and the generators call it in their inner loops, hence the fast path
    for two vectors of equal length."""
    a = np.asarray(x, dtype=np.float64)
    b = np.asarray(x_prime, dtype=np.float64)
    if a.ndim != 1 or a.shape != b.shape:
        a, b = a.reshape(-1), b.reshape(-1)
        if a.size != b.size:
            raise ValueError(f"vectors differ in length ({a.size} vs {b.size})")
    return float(np.abs(a - b).sum() / a.size)


def _pairwise_l1(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    return np.abs(A[:, None, :] - B[None, :, :]).sum(axis=2) / A.shape[1]


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
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    ref = np.asarray(reference, dtype=np.float64)
    n = ref.shape[0]
    if not 1 <= k < n:
        raise ValueError(f"need reference size > k >= 1, got k={k}, n={n}")

    D = _pairwise_l1(ref, ref)
    np.fill_diagonal(D, np.inf)  # a point is not its own neighbour
    k_dist, mask = _k_neighbourhoods(D, k)
    lrd_ref = np.empty(n)
    for o in range(n):
        nb = np.flatnonzero(mask[o])
        lrd_ref[o] = _lrd(D[o, nb], k_dist[nb])

    Dq = _pairwise_l1(points, ref)
    out = np.empty(points.shape[0])
    for q in range(points.shape[0]):
        kd_q = np.partition(Dq[q], k - 1)[k - 1]
        nb = np.flatnonzero(Dq[q] <= kd_q)
        lrd_q = _lrd(Dq[q, nb], k_dist[nb])
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
