import numpy as np
import pytest

from cfcert.kdtree import KDTree
from cfcert.metrics import l1_normalized


def brute_order(points, q):
    d = np.array([l1_normalized(p, q) for p in points])
    return sorted(range(len(points)), key=lambda i: (d[i], i)), d


def test_yields_each_point_once_in_order():
    rng = np.random.default_rng(0)
    pts = rng.uniform(0, 1, (60, 3))
    tree = KDTree(pts)
    q = rng.uniform(0, 1, 3)
    got = list(tree.neighbors(q))
    assert len(got) == 60
    assert sorted(i for i, _ in got) == list(range(60))
    dists = [d for _, d in got]
    assert all(a <= b + 1e-15 for a, b in zip(dists, dists[1:]))
    want, d = brute_order(pts, q)
    assert [i for i, _ in got] == want
    assert all(d[i] == dist for i, dist in got)  # bitwise-identical distances


def test_tie_break_prefers_low_index():
    pts = np.array([[0.0, 1.0], [1.0, 0.0], [0.5, 0.5], [1.0, 0.0]])
    got = list(KDTree(pts).neighbors([0.2, 0.2]))
    # Point 2 is nearest; 0, 1, 3 tie at distance 0.5 and order by index.
    assert [i for i, _ in got] == [2, 0, 1, 3]


def test_iterator_exhausts_then_stops():
    tree = KDTree(np.array([[0.1], [0.9]]))
    it = tree.neighbors([0.0])
    assert next(it)[0] == 0
    assert next(it)[0] == 1
    with pytest.raises(StopIteration):
        next(it)


def test_many_queries_match_brute_force():
    rng = np.random.default_rng(1)
    pts = rng.uniform(0, 1, (200, 2))
    tree = KDTree(pts)
    for _ in range(25):
        q = rng.uniform(-0.2, 1.2, 2)
        want, _ = brute_order(pts, q)
        assert [i for i, _ in tree.neighbors(q)] == want


def test_validation():
    with pytest.raises(ValueError):
        KDTree(np.empty((0, 2)))
    tree = KDTree(np.array([[0.0, 0.0]]))
    with pytest.raises(ValueError):
        next(tree.neighbors([1.0]))
