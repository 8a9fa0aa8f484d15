"""The candidate rows the robust nearest-neighbour generator walks outward
from a query, under normalised L1 distance.

The walk yields every row exactly once in non-decreasing distance order,
ties to the lowest row index, then stops.  That order is one stable sort of
the row distances, which come from ``metrics.l1_rows`` as in the other
generators, so that orderings agree bit for bit.
"""

from __future__ import annotations

import numpy as np

from .metrics import l1_rows

__all__ = ["KDTree"]


class KDTree:
    """The candidate set of RNCE.  The paper's RNCE keeps its candidates in
    a k-d tree, hence the name; on these few-hundred-row sets a sort of all
    the row distances costs less than a tree search and gives the same walk."""

    def __init__(self, points):
        pts = np.asarray(points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[0] == 0:
            raise ValueError("k-d tree needs a non-empty 2-D point array")
        self.points = pts
        self.n, self.dim = pts.shape

    def neighbors(self, query):
        """Yield (index, distance) pairs in non-decreasing distance order."""
        q = np.asarray(query, dtype=np.float64).reshape(-1)
        if q.size != self.dim:
            raise ValueError(f"query has dimension {q.size}, tree holds {self.dim}")
        dist = l1_rows(self.points, q)
        for i in np.argsort(dist, kind="stable"):
            yield int(i), float(dist[i])
