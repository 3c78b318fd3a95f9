"""Exact nearest-neighbor queries over fixed 3D point sets.

A thin layer over scipy's cKDTree. Query results are made fully
deterministic and brute-force-exact: candidates are re-measured with the
same float64 arithmetic a naive scan would use, and distance ties are
broken by ascending point index. Bulk queries run on every core; each
row is answered alone, so results do not depend on the core count.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree

from .cloud import PointCloud
from .errors import DomainError


class SpatialIndex:
    """kd-tree over the positions of a non-empty cloud.

    Duplicate points are allowed and keep their own indices. Queries cost
    O(log N) expected per point; construction is O(N log N).
    """

    def __init__(self, source):
        positions = source.positions if isinstance(source, PointCloud) else source
        positions = np.ascontiguousarray(positions, dtype=np.float64)
        if positions.ndim != 2 or positions.shape[1] != 3:
            raise DomainError(
                f"spatial index needs (N, 3) positions, got shape {positions.shape}"
            )
        if positions.shape[0] == 0:
            raise DomainError("cannot index an empty cloud")
        self._positions = positions
        self._tree = cKDTree(positions)

    @property
    def count(self) -> int:
        return int(self._positions.shape[0])

    def _exact_order(self, candidates: np.ndarray, query: np.ndarray):
        """Distances recomputed in plain numpy, sorted by (distance, index)."""
        dists = np.linalg.norm(self._positions[candidates] - query, axis=1)
        order = np.lexsort((candidates, dists))
        return candidates[order], dists[order]

    def knn(self, query, k: int):
        """k nearest neighbors of a single query point.

        Parameters
        ----------
        query : array_like, shape (3,)
        k : int
            Requested neighbor count; saturates at the cloud size.

        Returns
        -------
        (indices, distances)
            Parallel arrays sorted by ascending distance, ties broken by
            ascending point index. Length min(k, count).
        """
        if k < 1:
            raise DomainError(f"k must be >= 1, got {k}")
        query = np.asarray(query, dtype=np.float64)
        kk = min(int(k), self.count)
        if kk == self.count:
            return self._exact_order(np.arange(self.count, dtype=np.intp), query)
        dist, _ = self._tree.query(query, k=kk)
        dmax = float(np.max(dist)) if kk > 1 else float(dist)
        # Slightly inflated radius guards against last-ulp disagreement
        # between the tree's internal metric and the numpy recomputation.
        candidates = self._tree.query_ball_point(query, dmax * (1 + 1e-12) + 1e-300)
        idx, d = self._exact_order(np.asarray(candidates, dtype=np.intp), query)
        return idx[:kk], d[:kk]

    def radius_query(self, query, radius: float):
        """All points within `radius` (inclusive) of a single query point.

        Returns (indices, distances) sorted by (distance, index). A radius
        of zero returns exact coordinate duplicates of the query location.
        """
        if radius < 0:
            raise DomainError(f"radius must be >= 0, got {radius}")
        query = np.asarray(query, dtype=np.float64)
        margin = radius * (1 + 1e-12) + max(radius, 1.0) * 1e-15
        candidates = np.asarray(
            self._tree.query_ball_point(query, margin), dtype=np.intp
        )
        if candidates.size == 0:
            return candidates, np.empty(0, dtype=np.float64)
        idx, d = self._exact_order(candidates, query)
        keep = d <= radius
        return idx[keep], d[keep]

    def nearest(self, queries) -> np.ndarray:
        """Vectorized nearest-neighbor index for each query row, on every core.

        Distance ties are resolved toward the smaller point index, matching
        knn(q, 1) for every row whatever the core count.
        """
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        if self.count == 1:
            return np.zeros(queries.shape[0], dtype=np.intp)
        dist, idx = self._tree.query(queries, k=2, workers=-1)
        out = idx[:, 0].astype(np.intp)
        ties = dist[:, 0] == dist[:, 1]
        for row in np.nonzero(ties)[0]:
            out[row] = self.knn(queries[row], 1)[0][0]
        return out

    def query_array(self, queries, k: int):
        """Bulk k-NN over many query rows on every core, as (dist, idx) matrices.

        Tie order within equal distances follows the tree's traversal, not
        the index-ordered rule, whatever the core count; intended for graph
        construction where any deterministic choice is acceptable.
        """
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        kk = min(int(k), self.count)
        dist, idx = self._tree.query(queries, k=kk, workers=-1)
        if kk == 1:
            dist = dist[:, None]
            idx = idx[:, None]
        return dist, idx
