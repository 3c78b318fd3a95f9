"""Exact nearest-neighbor queries over fixed 3D point sets.

A thin layer over scipy's cKDTree. Every query, single or bulk, orders
neighbors by (distance, index) as a brute-force float64 scan does: where
a distance tie could let the tree's order show, candidates are re-measured
in plain numpy and sorted by that rule. Bulk queries run on every core;
each row is answered alone, so results do not depend on the core count.
"""

from __future__ import annotations

import itertools

import numpy as np

from .cloud import PointCloud, _as_point_array, _check_positions
from .errors import DomainError


class SpatialIndex:
    """kd-tree over frozen positions of a non-empty cloud; a writable array is copied.

    Duplicate points are allowed and keep their own indices. Queries cost
    O(log N) expected per point; construction is O(N log N).
    """

    def __init__(self, source):
        from scipy.spatial import cKDTree
        positions = source.positions if isinstance(source, PointCloud) else source
        positions = np.ascontiguousarray(positions, dtype=np.float64)
        if positions.ndim != 2 or positions.shape[1] != 3:
            raise DomainError(
                f"spatial index needs (N, 3) positions, got shape {positions.shape}"
            )
        if positions.shape[0] == 0:
            raise DomainError("cannot index an empty cloud")
        self._positions = _as_point_array(positions, "positions")
        if not isinstance(source, PointCloud):  # a cloud has checked its own
            _check_positions(self._positions)
        self._tree = cKDTree(self._positions)
        self._table = self._site_table = None

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
        """Nearest point index per query row: column 0 of query_array(queries, 1)."""
        return self.query_array(queries, 1)[1][:, 0]

    def query_array(self, queries, k: int):
        """Bulk k-NN over many query rows on every core, as (dist, idx) matrices.

        Row r equals knn(queries[r], k), order included, on any core count.
        Rows whose k + 1 tree distances (inf past the cloud size) tie within
        knn's margin are redone by _resolve; others keep the tree's values.
        """
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        kk = min(int(k), self.count)
        dist, idx = self._tree.query(queries, k=kk + 1, workers=-1)
        tied = np.nonzero((dist[:, 1:] <= dist[:, :-1] * (1 + 1e-12) + 1e-300).any(axis=1))[0]
        dist, idx = dist[:, :kk].copy(), idx[:, :kk].astype(np.intp)
        for rows in (tied[i:i + 32768] for i in range(0, tied.size, 32768)):
            idx[rows], dist[rows] = self._resolve(queries[rows], dist[rows, -1], kk)
        return dist, idx

    def _resolve(self, queries, radius, kk: int):
        """Exact rows from one ball query over the distinct locations at the
        inflated radius, re-measured and sorted by (row, distance, index).
        Each location adds only its kk lowest indices, so m coincident points
        cost O(kk) per row, not O(m)."""
        tree, order, start, size = self._sites()
        balls = tree.query_ball_point(queries, radius * (1 + 1e-12) + 1e-300,
                                      workers=-1, return_sorted=False)
        per_row = np.fromiter(map(len, balls), np.intp, len(balls))
        site = np.fromiter(itertools.chain.from_iterable(balls), np.intp, per_row.sum())
        take = np.minimum(size[site], kk)
        ends = np.cumsum(take)
        cand = order[np.repeat(start[site] - ends + take, take) + np.arange(ends[-1])]
        row = np.repeat(np.repeat(np.arange(len(queries)), per_row), take)
        d = np.linalg.norm(self._positions[cand] - queries[row], axis=1)
        # Sorting by row first leaves each row's segment where it was.
        seg = np.r_[0, ends][np.cumsum(per_row) - per_row]
        first = np.lexsort((cand, d, row))[seg[:, None] + np.arange(kk)]
        return cand[first], d[first]

    def _sites(self):
        """Distinct locations, built on the first tie and kept: (a tree over
        them, point indices by (location, index), each one's start and size)."""
        if self._site_table is None:
            from scipy.spatial import cKDTree
            order = np.lexsort(self._positions.T[::-1])
            p = self._positions[order]
            start = np.flatnonzero(np.r_[True, (p[1:] != p[:-1]).any(axis=1)])
            tree, order = ((cKDTree(p[start]), order) if start.size < self.count
                           else (self._tree, start))  # no duplicates: sites are points
            self._site_table = tree, order, start, np.diff(np.r_[start, self.count])
        return self._site_table

    def neighbors(self, k: int):
        """query_array over the indexed points themselves, as read-only
        slices of one table kept with the index and widened on demand."""
        if self._table is None or self._table[1].shape[1] < min(k, self.count):
            self._table = self.query_array(self._positions, k)
            for table in self._table:
                table.setflags(write=False)
        return self._table[0][:, :k], self._table[1][:, :k]
