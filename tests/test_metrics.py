import tracemalloc

import numpy as np
import pytest

from cfcert.metrics import (
    _k_neighbourhoods,
    _lrd,
    l1_normalized,
    l1_rows,
    lof_score,
    lof_scores,
    validity_after_retraining,
)
from cfcert.models import LogisticModel


def lof_oracle(point, reference, k):
    """Direct-formula LOF evaluation: plain loops, no shared vector code."""
    ref = [np.asarray(r, dtype=float) for r in reference]
    q = np.asarray(point, dtype=float)

    def dist(a, b):
        return float(np.abs(a - b).sum() / a.size)

    def kdist_and_neighbours(center, pool):
        ds = sorted((dist(center, p), i) for i, p in pool)
        kd = ds[k - 1][0]
        nb = [i for d, i in ds if d <= kd]
        return kd, nb

    others = lambda j: [(i, ref[i]) for i in range(len(ref)) if i != j]
    kd = {}
    nbh = {}
    for j in range(len(ref)):
        kd[j], nbh[j] = kdist_and_neighbours(ref[j], others(j))

    def lrd(center, neighbours):
        reach = [max(kd[i], dist(center, ref[i])) for i in neighbours]
        m = sum(reach) / len(reach)
        return float("inf") if m == 0 else 1.0 / m

    lrd_ref = {j: lrd(ref[j], nbh[j]) for j in range(len(ref))}
    kd_q, nb_q = kdist_and_neighbours(q, list(enumerate(ref)))
    lrd_q = lrd(q, nb_q)
    num = sum(lrd_ref[i] for i in nb_q) / len(nb_q)
    if lrd_q == float("inf"):
        return 1.0 if num == float("inf") else 0.0
    return num / lrd_q


def test_l1_normalized_examples():
    assert l1_normalized([1.0, 2.0], [1.0, 2.0]) == 0.0
    assert l1_normalized([0.0, 0.0], [1.0, 1.0]) == 1.0
    assert l1_normalized([0.7, 0.5], [0.7, 0.7]) == pytest.approx(0.1)
    with pytest.raises(ValueError):
        l1_normalized([1.0], [1.0, 2.0])


def test_lof_interior_grid_point_is_inlier():
    xs, ys = np.meshgrid(np.linspace(0, 1, 7), np.linspace(0, 1, 7))
    grid = np.column_stack([xs.ravel(), ys.ravel()])
    center = np.array([3.0 / 6.0, 3.0 / 6.0])
    ref = np.array([p for p in grid if not np.allclose(p, center)])
    score = lof_score(center, ref, k=8)
    assert 0.9 <= score <= 1.1


def test_lof_outlier_exceeds_every_inlier():
    rng = np.random.default_rng(0)
    cluster = rng.normal(0.5, 0.02, (40, 2))
    outlier = np.array([0.95, 0.95])
    inlier_scores = lof_scores(cluster, cluster, k=10)
    assert lof_score(outlier, cluster, k=10) > inlier_scores.max()


def test_lof_matches_direct_formula_on_hand_configs():
    rng = np.random.default_rng(1)
    configs = []
    for n in (8, 12, 20, 30):
        configs.append(rng.uniform(0, 1, (n, 2)))
    configs.append(np.array([[0.0, 0.0], [0.0, 0.1], [0.1, 0.0], [1.0, 1.0], [0.9, 1.0], [0.05, 0.05]]))
    ring = np.array(
        [[0.5 + 0.3 * np.cos(t), 0.5 + 0.3 * np.sin(t)] for t in np.linspace(0, 2 * np.pi, 9)[:-1]]
    )
    configs.append(ring)
    for ref in configs:
        k = min(4, ref.shape[0] - 1)
        for q in (ref.mean(axis=0), np.array([0.9, 0.1])):
            assert lof_score(q, ref, k=k) == pytest.approx(lof_oracle(q, ref, k), abs=1e-9)


def test_lof_ring_center_equals_formula():
    ring = np.array(
        [[0.5 + 0.2 * np.cos(t), 0.5 + 0.2 * np.sin(t)] for t in np.linspace(0, 2 * np.pi, 6)[:-1]]
    )
    got = lof_score([0.5, 0.5], ring, k=4)
    assert np.isfinite(got) and got > 0
    assert got == pytest.approx(lof_oracle([0.5, 0.5], ring, 4), abs=1e-9)


def test_lof_duplicate_floor():
    ref = np.array([[0.5, 0.5]] * 5 + [[0.9, 0.9]])
    score = lof_score([0.5, 0.5], ref, k=3)
    assert score == 1.0  # duplicated mass compares as equally dense


def test_lof_k_validation():
    with pytest.raises(ValueError):
        lof_score([0.0], np.zeros((3, 1)), k=3)


@pytest.mark.parametrize("width", [1, 3])
def test_lof_rejects_query_points_of_another_width(width):
    # A 1-wide point used to broadcast against the 2-wide rows and get a score.
    ref = np.random.default_rng(5).uniform(0, 1, (50, 2))
    point = np.full(width, 0.5)
    with pytest.raises(ValueError, match=f"query points are {width} wide, reference rows 2"):
        lof_scores([point], ref, k=5)
    with pytest.raises(ValueError, match=f"query points are {width} wide, reference rows 2"):
        lof_score(point, ref, k=5)


def lof_broadcast(points, ref, k):
    """``lof_scores`` with its distances from one (n, n, d) and one (q, n, d)
    broadcast, the form it had before it went row by row."""
    n = ref.shape[0]
    D = l1_rows(ref[:, None], ref)
    np.fill_diagonal(D, np.inf)
    k_dist, mask = _k_neighbourhoods(D, k)
    lrd_ref = np.array([_lrd(D[o, mask[o]], k_dist[mask[o]]) for o in range(n)])
    Dq = l1_rows(points[:, None], ref)
    out = np.empty(points.shape[0])
    for q in range(points.shape[0]):
        kd_q = np.partition(Dq[q], k - 1)[k - 1]
        nb = np.flatnonzero(Dq[q] <= kd_q)
        lrd_q = _lrd(Dq[q, nb], k_dist[nb])
        num = lrd_ref[nb].mean()
        out[q] = (1.0 if np.isinf(num) else 0.0) if np.isinf(lrd_q) else num / lrd_q
    return out


@pytest.mark.parametrize("d", [2, 5, 8, 13, 31])
def test_lof_rows_equal_the_broadcast_bit_for_bit(d):
    rng = np.random.default_rng(d)
    for case in range(40):
        n, q = int(rng.integers(4, 40)), int(rng.integers(1, 6))
        ref = rng.uniform(-1, 1, (n, d)) * 10.0 ** rng.integers(-3, 4)
        points = rng.uniform(-1, 1, (q, d))
        if case % 4 == 0:
            # Ties and duplicates: a coarse grid, a repeated row, a query on a row.
            ref = np.round(ref * 4) / 4
            ref[-1] = ref[0]
            points[0] = ref[1]
        k = int(rng.integers(1, n))
        rows = np.array([l1_rows(ref, ref[o]) for o in range(n)])
        assert rows.tobytes() == l1_rows(ref[:, None], ref).tobytes()
        assert lof_scores(points, ref, k).tobytes() == lof_broadcast(points, ref, k).tobytes()


def test_lof_memory_grows_with_the_square_of_the_rows_not_times_the_features():
    # The broadcast form peaked at about 122 MiB here (a (1000, 1000, 8)
    # float64 temporary); row by row holds one (1000, 1000) matrix and its
    # partition.
    rng = np.random.default_rng(0)
    ref, points = rng.uniform(0, 1, (1000, 8)), rng.uniform(0, 1, (20, 8))
    tracemalloc.start()
    try:
        lof_scores(points, ref, k=20)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 40 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def test_validity_after_retraining_counts_pairs():
    base = LogisticModel(weights=[1.0, 1.0], bias=-1.0)
    flipped = LogisticModel(weights=[-1.0, -1.0], bias=1.0)
    ces = [[0.9, 0.9], [0.1, 0.2]]
    targets = [1, 0]
    assert validity_after_retraining(ces, targets, [base]) == 1.0
    assert validity_after_retraining(ces, targets, [flipped]) == 0.0
    assert validity_after_retraining(ces, targets, [base, flipped]) == 0.5
    # 3 of 4 pairs valid: the shifted model rejects the weaker counterfactual.
    assert validity_after_retraining(
        [[0.9, 0.9], [1.0, 1.0]], [1, 1], [base, LogisticModel(weights=[1.0, 1.0], bias=-1.9)]
    ) == pytest.approx(0.75)


def test_validity_after_retraining_validation():
    base = LogisticModel(weights=[1.0], bias=0.0)
    with pytest.raises(ValueError):
        validity_after_retraining([], [], [base])
    with pytest.raises(ValueError):
        validity_after_retraining([[0.5]], [1], [])
