"""Exact nearest-neighbor queries over fixed 3D point sets.

A thin layer over scipy's cKDTree. Every query, single or bulk, orders
neighbors by (distance, index) as a brute-force float64 scan does: where
a distance tie could let the tree's order show, candidates are re-measured
in plain numpy and sorted by that rule. Bulk queries of more than PILOT_STRIDE
rows run on every core, within a bound from pilot rows of their block that only
prunes the search: a row's answer depends on that row alone, so not on the core
count.
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import DomainError, check_integer

# Entries, rows x (k + 1), per block of every bulk pass (k-NN queries and their tie
# chunks, PCA normals, keypoint filter, graph matching). Measured (tracemalloc): a
# filter block holds about 10.5 MiB of temporaries, a normals block 7.5 MiB, at any N.
BLOCK_ENTRIES = 2**18
PILOT_STRIDE = 256  # a bulk block's every 256th row bounds the search of the rest
MAX_COORDINATE = 1e150  # so 3 * (2 * MAX_COORDINATE) ** 2, the widest squared distance, is finite


def _checked(queries) -> np.ndarray:
    """float64 query coordinates; DomainError unless each is finite and |x| <= MAX_COORDINATE."""
    queries = np.asarray(queries, dtype=np.float64)
    # One point's values are read faster in Python than by two reductions.
    ends = queries.ravel().tolist() if queries.size <= 3 else [queries.min(), queries.max()]
    if not all(-MAX_COORDINATE <= x <= MAX_COORDINATE for x in ends):  # NaN fails it too
        raise DomainError(f"query coordinates must be finite with |x| <= {MAX_COORDINATE:g}")
    return queries


def _cores(rows) -> int:
    """cKDTree's workers for a query of `rows`: one core up to PILOT_STRIDE rows, else all."""
    return 1 if len(rows) <= PILOT_STRIDE else -1


def row_blocks(n: int, k: int):
    """Consecutive slices over range(n), each of at most BLOCK_ENTRIES // (k + 1) rows."""
    step = max(1, BLOCK_ENTRIES // (k + 1))
    return (slice(start, start + step) for start in range(0, n, step))


class SpatialIndex:
    """kd-tree over the frozen positions of a PointCloud, built
    through cloud.spatial_index.

    Duplicate points are allowed and keep their own indices. Queries cost
    O(log N) expected per point; construction is O(N log N). The index keeps
    its tree and, after the first tie, its distinct locations, but no (N, k)
    result: passes over its own points stream them with self_knn_blocks.
    """

    def __init__(self, cloud):
        from scipy.spatial import cKDTree
        self._positions = cloud.positions  # checked, copied and frozen by the cloud
        self._tree = cKDTree(self._positions)
        self._site_table = None

    @property
    def count(self) -> int:
        return int(self._positions.shape[0])

    @property
    def order(self) -> np.ndarray:
        """Point indices in the tree's leaf order, read-only: neighbours in it
        are neighbours in space, so bulk queries in this order stay in cache."""
        order = self._tree.indices.view()  # the tree's own array: no copy per cloud
        order.setflags(write=False)
        return order

    def knn(self, query, k: int):
        """k nearest neighbors of one query point, as (indices, distances):
        row 0 of query_array(query, k), so min(k, count) long and sorted by
        (distance, index)."""
        dist, idx = self.query_array(query, k)
        return idx[0], dist[0]

    def radius_query(self, query, radius: float):
        """All points within `radius` (inclusive) of a single query point.

        Returns (indices, distances) sorted by (distance, index). A radius
        of zero returns exact coordinate duplicates of the query location.
        """
        if not radius >= 0:  # NaN fails it too
            raise DomainError(f"radius must be >= 0, got {radius}")
        query = _checked(query)
        margin = radius * (1 + 1e-12) + max(radius, 1.0) * 1e-15
        candidates = np.asarray(
            self._tree.query_ball_point(query, margin), dtype=np.intp
        )
        # Distances recomputed in plain numpy, sorted by (distance, index).
        d = np.linalg.norm(np.take(self._positions, candidates, axis=0) - query, axis=1)
        keep = np.flatnonzero(d <= radius)
        order = keep[np.lexsort((candidates[keep], d[keep]))]
        return candidates[order], d[order]

    def nearest(self, queries) -> np.ndarray:
        """Nearest point index per query row: column 0 of query_array(queries, 1)."""
        return self.query_array(queries, 1)[1][:, 0]

    def query_array(self, queries, k: int):
        """Bulk k-NN over many query rows on every core, as (dist, idx) matrices.

        Each row holds its min(k, count) nearest points by (distance, index),
        as a brute-force scan orders them, on any core count. A row is redone
        by _resolve when one of its k + 1 tree distances (inf past the cloud
        size or the search bound) is at most d * (1 + 1e-12) + 1e-300, d being
        the one before it; others keep the tree's values. Rows go in row_blocks,
        each written straight into the outputs, which the index does not keep.
        """
        check_integer("k", k, 1)
        queries = np.atleast_2d(_checked(queries))
        kk = min(int(k), self.count)
        dist, idx = np.empty((len(queries), kk)), np.empty((len(queries), kk), np.intp)
        for rows in row_blocks(len(queries), kk):
            dist[rows], idx[rows] = self._query_rows(queries[rows], kk)
        return dist, idx

    def self_knn_blocks(self, k: int, entries_per_row: int):
        """query_array(., k) over the indexed points themselves, streamed: one
        (rows, dist, idx) per row_blocks(count, entries_per_row) block of the
        leaf order, rows being point indices. Nothing is kept between blocks."""
        for block in row_blocks(self.count, entries_per_row):
            rows = self.order[block]
            yield (rows, *self.query_array(np.take(self._positions, rows, axis=0), k))

    def _query_rows(self, queries, kk: int):
        # Past PILOT_STRIDE rows, a block is searched within 1.25 times its pilot rows'
        # largest kk-th distance, floored so the tree's squared bound stays normal; rows
        # not clear of it by a 1e-9 margin are asked again. The bound only prunes, and an
        # inf (kk + 1)-th distance lies past it, so past the tie test's margin: no row moves.
        bound = np.inf
        if len(queries) > PILOT_STRIDE:
            pilot = queries[::PILOT_STRIDE]
            bound = 1.25 * self._tree.query(pilot, k=[kk], workers=_cores(pilot))[0].max() + 1e-140
        dist, idx = self._tree.query(queries, k=kk + 1, distance_upper_bound=bound,
                                     workers=_cores(queries))
        again = np.flatnonzero(dist[:, kk - 1] * (1 + 1e-9) + 1e-300 >= bound)
        if again.size:
            dist[again], idx[again] = self._tree.query(queries[again], k=kk + 1,
                                                       workers=_cores(again))
        tied = np.nonzero((dist[:, 1:] <= dist[:, :-1] * (1 + 1e-12) + 1e-300).any(axis=1))[0]
        dist, idx = dist[:, :kk], idx[:, :kk]
        # _resolve holds ~150 B a candidate, 1.5-2.7 kk a lattice row: ~7.5 MiB a chunk.
        for rows in (tied[b] for b in row_blocks(tied.size, 8 * kk - 1)):
            idx[rows], dist[rows] = self._resolve(queries[rows], dist[rows, -1], kk)
        return dist, idx

    def _resolve(self, queries, radius, kk: int):
        """Exact rows from one ball query over the distinct locations at the
        inflated radius, re-measured and sorted by (row, distance, index).
        Each location adds only its kk lowest indices, so m coincident points
        cost O(kk) per row, not O(m)."""
        tree, order, start, size = self._sites()
        balls = tree.query_ball_point(queries, radius * (1 + 1e-12) + 1e-300,
                                      workers=_cores(queries), return_sorted=False)
        per_row = np.fromiter(map(len, balls), np.intp, len(balls))
        site = np.fromiter(itertools.chain.from_iterable(balls), np.intp, per_row.sum())
        take = np.minimum(size[site], kk)
        ends = np.cumsum(take)
        cand = order[np.repeat(start[site] - ends + take, take) + np.arange(ends[-1])]
        row = np.repeat(np.repeat(np.arange(len(queries)), per_row), take)
        d = np.linalg.norm(np.take(self._positions, cand, axis=0) - np.take(queries, row, axis=0),
                           axis=1)
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
