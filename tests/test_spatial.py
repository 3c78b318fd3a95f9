import numpy as np
import pytest

from pcqa import (
    DomainError,
    GraphSimConfig,
    PointCloud,
    ResampleConfig,
    SpatialIndex,
    ValidationError,
    graphsim,
    p2_errors,
    psnr_yuv,
    run_baselines,
)

from helpers import random_cloud
from oracles import brute_knn, brute_radius


def test_empty_input_rejected():
    with pytest.raises(DomainError):
        SpatialIndex(np.empty((0, 3)))


def test_bad_shape_rejected():
    with pytest.raises(DomainError):
        SpatialIndex(np.zeros((5, 2)))


def test_raw_arrays_get_the_point_cloud_checks():
    with pytest.raises(ValidationError, match="non-finite coordinate at point 1"):
        SpatialIndex(np.array([[0.0, 0.0, 0.0], [np.nan, 0.0, 0.0]]))
    with pytest.raises(DomainError, match=r"1e\+150 at point 0"):
        SpatialIndex(np.array([[1e300, 0.0, 0.0], [-1e300, 0.0, 0.0], [0.0, 0.0, 0.0]]))


def test_knn_against_scan():
    rng = np.random.default_rng(11)
    for _ in range(50):
        pts = rng.uniform(-1, 1, (rng.integers(5, 80), 3))
        index = SpatialIndex(pts)
        q = rng.uniform(-1, 1, 3)
        k = int(rng.integers(1, len(pts) + 1))
        got_idx, got_d = index.knn(q, k)
        exp_idx, exp_d = brute_knn(pts, q, k)
        assert np.array_equal(got_idx, exp_idx)
        assert np.array_equal(got_d, exp_d)


def test_knn_saturates_at_cloud_size():
    pts = np.random.default_rng(0).uniform(0, 1, (10, 3))
    idx, d = SpatialIndex(pts).knn([0.5, 0.5, 0.5], 50)
    assert len(idx) == 10
    assert np.all(np.diff(d) >= 0)


def test_knn_tie_break_prefers_lower_index():
    # Two exact duplicates and a farther point: the duplicate pair ties.
    pts = np.array([[1.0, 0, 0], [0, 5, 0], [1.0, 0, 0]])
    idx, d = SpatialIndex(pts).knn([0, 0, 0], 2)
    assert idx.tolist() == [0, 2]
    assert d[0] == d[1] == 1.0


def test_knn_invalid_k():
    index = SpatialIndex(np.zeros((1, 3)))
    with pytest.raises(DomainError):
        index.knn([0, 0, 0], 0)


def test_radius_query_against_scan():
    rng = np.random.default_rng(13)
    for _ in range(50):
        pts = rng.uniform(-1, 1, (rng.integers(5, 80), 3))
        index = SpatialIndex(pts)
        q = rng.uniform(-1, 1, 3)
        r = float(rng.uniform(0, 1.5))
        got_idx, got_d = index.radius_query(q, r)
        exp_idx, exp_d = brute_radius(pts, q, r)
        assert np.array_equal(got_idx, exp_idx)
        assert np.array_equal(got_d, exp_d)


def test_radius_boundary_is_inclusive():
    # Integer lattice: distances to the origin are exact in binary.
    pts = np.array([[1.0, 0, 0], [0, 2.0, 0], [0, 0, 3.0]])
    idx, d = SpatialIndex(pts).radius_query([0, 0, 0], 2.0)
    assert idx.tolist() == [0, 1]
    assert d.tolist() == [1.0, 2.0]


def test_radius_zero_finds_duplicates():
    pts = np.array([[0.5, 0.5, 0.5], [0.25, 0, 0], [0.5, 0.5, 0.5]])
    idx, d = SpatialIndex(pts).radius_query([0.5, 0.5, 0.5], 0.0)
    assert idx.tolist() == [0, 2]
    assert np.all(d == 0.0)


def test_negative_radius_rejected():
    with pytest.raises(DomainError):
        SpatialIndex(np.zeros((1, 3))).radius_query([0, 0, 0], -1.0)


def test_nearest_matches_single_knn():
    rng = np.random.default_rng(17)
    pts = rng.uniform(0, 1, (60, 3))
    # Mix in exact duplicates so ties actually occur.
    pts[30:40] = pts[0:10]
    index = SpatialIndex(pts)
    queries = np.vstack([rng.uniform(0, 1, (40, 3)), pts[5:15]])
    got = index.nearest(queries)
    for row, q in zip(got, queries):
        assert row == index.knn(q, 1)[0][0]


@pytest.mark.parametrize("lattice", [True, False], ids=["lattice", "continuous"])
def test_query_array_rows_equal_the_scan(lattice):
    # The lattice puts 1000 points on 6^3 integer sites: duplicates and
    # equidistant neighbours in every row, so the (distance, index) rule decides.
    rng = np.random.default_rng(31)
    pts = (rng.integers(0, 6, (1000, 3)).astype(float) if lattice
           else rng.uniform(0, 6, (1000, 3)))
    n = len(pts)
    index = SpatialIndex(pts)
    tables = {k: index.query_array(pts, k) for k in (1, 2, 11, 12, n, n + 3)}
    for row, q in enumerate(pts):
        # brute_knn(pts, q, k) is the first min(k, n) entries of this scan.
        exp_idx, exp_d = brute_knn(pts, q, n)
        for k, (d, i) in tables.items():
            assert np.array_equal(i[row], exp_idx[:k]), (k, row)
            assert np.array_equal(d[row], exp_d[:k]), (k, row)


def test_nearest_is_column_zero_without_knn_calls(monkeypatch):
    pts = np.stack(np.meshgrid(*[np.arange(8.0)] * 3, indexing="ij"), -1).reshape(-1, 3)
    index = SpatialIndex(pts)
    queries = pts + 0.5  # every query sits at the centre of a lattice cell
    calls = []
    monkeypatch.setattr(SpatialIndex, "knn", lambda *args: calls.append(args))
    got = index.nearest(queries)
    assert np.array_equal(got, index.query_array(queries, 1)[1][:, 0])
    assert calls == []
    for row in range(0, len(queries), 37):
        assert got[row] == brute_knn(pts, queries[row], 1)[0][0]


def test_nearest_single_point_cloud():
    index = SpatialIndex(np.array([[1.0, 2.0, 3.0]]))
    assert index.nearest(np.zeros((4, 3))).tolist() == [0, 0, 0, 0]


def test_query_array_shapes():
    cloud = random_cloud(30, seed=2)
    index = SpatialIndex(cloud)
    d, i = index.query_array(cloud.positions, 5)
    assert d.shape == (30, 5) and i.shape == (30, 5)
    d1, i1 = index.query_array(cloud.positions[:3], 1)
    assert d1.shape == (3, 1) and i1.shape == (3, 1)


def test_match_points_identity_on_distinct_cloud():
    cloud = random_cloud(120, seed=3)
    matches = SpatialIndex(cloud).nearest(cloud.positions)
    assert np.array_equal(matches, np.arange(120))


def test_match_points_survives_small_translation():
    cloud = random_cloud(100, seed=4, span=100.0)
    spacing = min(
        SpatialIndex(cloud).knn(cloud.positions[i], 2)[1][1] for i in range(100)
    )
    shift = 0.25 * spacing
    moved = PointCloud(positions=cloud.positions + shift / np.sqrt(3.0))
    matches = SpatialIndex(cloud).nearest(moved.positions)
    assert np.array_equal(matches, np.arange(100))


def test_match_points_range_for_unequal_sizes():
    source = random_cloud(100, seed=5)
    target = random_cloud(50, seed=6)
    matches = SpatialIndex(target).nearest(source.positions)
    assert matches.shape == (100,)
    assert matches.min() >= 0 and matches.max() < 50


def test_bulk_nearest_against_scan_on_a_lattice():
    # 6000 rows over 1000 lattice sites: duplicates and equidistant
    # neighbours everywhere, so the (distance, index) rule decides.
    rng = np.random.default_rng(29)
    pts = rng.integers(0, 10, (6000, 3)).astype(float)
    queries = np.vstack([rng.integers(-1, 11, (5000, 3)).astype(float),
                         rng.integers(0, 20, (1000, 3)) / 2.0])
    got = SpatialIndex(pts).nearest(queries)
    for row in rng.choice(len(queries), 150, replace=False):
        assert got[row] == brute_knn(pts, queries[row], 1)[0][0]


def test_nearest_to_a_large_duplicate_cluster():
    # 20k copies of the origin plus a far point; 20k queries scattered near
    # the origin tie on the whole cluster and must take its lowest index.
    rng = np.random.default_rng(3)
    pts = np.vstack([[[9.0, 9.0, 9.0]], np.zeros((20_000, 3))])
    queries = rng.normal(0, 0.1, (20_000, 3))
    index = SpatialIndex(pts)
    assert np.all(index.nearest(queries) == 1)
    d, i = index.query_array(queries[:50], 3)
    assert np.array_equal(i, np.broadcast_to([1, 2, 3], i.shape))
    assert np.array_equal(d[:, 0], np.linalg.norm(queries[:50], axis=1))


def test_neighbor_table_is_read_only():
    index = SpatialIndex(np.random.default_rng(4).uniform(0, 1, (50, 3)))
    dist, idx = index.neighbors(4)
    with pytest.raises(ValueError):
        dist[0, 0] = 1.0
    with pytest.raises(ValueError):
        idx[0, 0] = 1


def test_index_copies_the_callers_writable_array():
    pts = np.random.default_rng(5).uniform(0, 1, (50, 3))
    before = pts.copy()
    index = SpatialIndex(pts)
    pts[:] = pts[::-1].copy()  # reversed in place, after the index was built
    dist, idx = index.neighbors(3)
    for row, q in enumerate(before):
        expect_idx, expect_dist = brute_knn(before, q, 3)
        assert np.array_equal(idx[row], expect_idx)
        assert np.array_equal(dist[row], expect_dist)
    assert np.array_equal(index.knn(before[7], 3)[0], idx[7])
    frozen = PointCloud(positions=before).positions
    assert SpatialIndex(frozen)._positions is frozen  # read-only and owned: kept


class TestCloudOwnsItsTree:
    @pytest.fixture
    def builds(self, monkeypatch):
        calls = []
        original = SpatialIndex.__init__

        def counting(self, source):
            calls.append(source)
            original(self, source)

        monkeypatch.setattr(SpatialIndex, "__init__", counting)
        return calls

    def test_every_stage_reuses_one_tree_per_cloud(self, builds):
        ref = random_cloud(400, seed=7)
        dist = PointCloud(
            positions=ref.positions
            + np.random.default_rng(8).normal(0, 0.05, ref.positions.shape),
            colors=ref.colors,
        )
        config = GraphSimConfig(resample=ResampleConfig(count=8))
        graphsim(ref, dist, config)
        graphsim(ref, dist, config)
        graphsim(ref, dist, GraphSimConfig(signal_kind="normal",
                                           resample=ResampleConfig(count=8)))
        run_baselines(ref, dist)
        p2_errors(ref, dist, "plane")
        psnr_yuv(ref, dist)
        assert len(builds) == 2
        assert ref.spatial_index is ref.spatial_index
        assert dist.spatial_index is dist.spatial_index
        assert ref.spatial_index is not dist.spatial_index

    def test_self_comparison_builds_one_tree(self, builds):
        cloud = random_cloud(300, seed=9)
        graphsim(cloud, cloud, GraphSimConfig(resample=ResampleConfig(count=4)))
        assert len(builds) == 1

    def test_one_neighbor_table_per_cloud(self, monkeypatch):
        ref = random_cloud(400, seed=10)
        a, b = (PointCloud(positions=ref.positions + np.random.default_rng(s).normal(
            0, 0.05, ref.positions.shape), colors=ref.colors) for s in (11, 12))
        widths = []
        original = SpatialIndex.query_array

        def recording(index, queries, k):
            if index is ref.spatial_index and np.array_equal(queries, ref.positions):
                widths.append(k)
            return original(index, queries, k)

        monkeypatch.setattr(SpatialIndex, "query_array", recording)
        config = GraphSimConfig(resample=ResampleConfig(count=8))
        graphsim(ref, a, config)
        graphsim(ref, b, config)
        run_baselines(ref, a)
        graphsim(ref, a, GraphSimConfig(signal_kind="normal",
                                        resample=ResampleConfig(count=8)))
        assert widths == [11, 12]
        _, idx = ref.spatial_index.neighbors(11)
        assert np.array_equal(idx, original(ref.spatial_index, ref.positions, 11)[1])

    def test_empty_cloud_has_no_tree(self):
        with pytest.raises(DomainError):
            PointCloud(positions=np.empty((0, 3))).spatial_index
