"""k-d tree over candidate points with an iterated next-nearest-neighbour
query under normalised L1 distance.

The iterator yields every indexed point exactly once in non-decreasing
distance order (ties to the lowest point index), then stops.  Point distances
come from ``metrics.l1_normalized``, as in the brute-force generators, so
that orderings agree bit-for-bit.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .metrics import l1_normalized

__all__ = ["KDTree"]

_LEAF_SIZE = 8


@dataclass
class _Node:
    lo: np.ndarray
    hi: np.ndarray
    axis: int = -1
    split: float = 0.0
    left: "_Node | None" = None
    right: "_Node | None" = None
    indices: np.ndarray | None = None  # leaf payload


class KDTree:
    def __init__(self, points):
        pts = np.asarray(points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[0] == 0:
            raise ValueError("k-d tree needs a non-empty 2-D point array")
        self.points = pts
        self.n, self.dim = pts.shape
        self._root = self._build(np.arange(self.n), depth=0)

    def _build(self, idx: np.ndarray, depth: int) -> _Node:
        sub = self.points[idx]
        node = _Node(lo=sub.min(axis=0), hi=sub.max(axis=0))
        if idx.size <= _LEAF_SIZE:
            node.indices = idx
            return node
        axis = depth % self.dim
        order = np.argsort(sub[:, axis], kind="stable")
        mid = idx.size // 2
        node.axis = axis
        node.split = float(sub[order[mid], axis])
        node.left = self._build(idx[order[:mid]], depth + 1)
        node.right = self._build(idx[order[mid:]], depth + 1)
        return node

    def _box_dist(self, node: _Node, q: np.ndarray) -> float:
        gap = np.maximum(node.lo - q, 0.0) + np.maximum(q - node.hi, 0.0)
        return float(gap.sum() / self.dim)

    def neighbors(self, query):
        """Yield (index, distance) pairs in non-decreasing distance order."""
        q = np.asarray(query, dtype=np.float64).reshape(-1)
        if q.size != self.dim:
            raise ValueError(f"query has dimension {q.size}, tree holds {self.dim}")
        # Heap entries: (distance, kind, tiebreak, payload).  Boxes (kind 0)
        # pop before points (kind 1) at equal distance, so every point with a
        # smaller-or-equal distance is enqueued before any point is yielded.
        heap: list = []
        counter = 0
        heapq.heappush(heap, (self._box_dist(self._root, q), 0, counter, self._root))
        while heap:
            dist, kind, tiebreak, payload = heapq.heappop(heap)
            if kind == 1:
                yield tiebreak, dist
                continue
            node: _Node = payload
            if node.indices is not None:
                for i in node.indices:
                    d = l1_normalized(self.points[i], q)
                    heapq.heappush(heap, (d, 1, int(i), None))
            else:
                for child in (node.left, node.right):
                    counter += 1
                    heapq.heappush(heap, (self._box_dist(child, q), 0, counter, child))
