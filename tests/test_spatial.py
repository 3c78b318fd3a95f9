import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcqa import (
    DistortionSpec,
    DomainError,
    GraphSimConfig,
    PointCloud,
    ResampleConfig,
    SpatialIndex,
    apply_distortion,
    estimate_normals,
    frequency_scores,
    graphsim,
    p2_errors,
    psnr_yuv,
    run_baselines,
    spatial,
)
from pcqa.jsonutil import canonical_dumps
from pcqa.spatial import MAX_COORDINATE

from helpers import random_cloud, streamed_self_table
from oracles import brute_knn, brute_radius


def test_knn_against_scan():
    rng = np.random.default_rng(11)
    for _ in range(50):
        pts = rng.uniform(-1, 1, (rng.integers(5, 80), 3))
        index = PointCloud(positions=pts).spatial_index
        q = rng.uniform(-1, 1, 3)
        k = int(rng.integers(1, len(pts) + 1))
        got_idx, got_d = index.knn(q, k)
        exp_idx, exp_d = brute_knn(pts, q, k)
        assert np.array_equal(got_idx, exp_idx)
        assert np.array_equal(got_d, exp_d)


def test_knn_saturates_at_cloud_size():
    pts = np.random.default_rng(0).uniform(0, 1, (10, 3))
    idx, d = PointCloud(positions=pts).spatial_index.knn([0.5, 0.5, 0.5], 50)
    assert len(idx) == 10
    assert np.all(np.diff(d) >= 0)


def test_knn_tie_break_prefers_lower_index():
    # Two exact duplicates and a farther point: the duplicate pair ties.
    pts = np.array([[1.0, 0, 0], [0, 5, 0], [1.0, 0, 0]])
    idx, d = PointCloud(positions=pts).spatial_index.knn([0, 0, 0], 2)
    assert idx.tolist() == [0, 2]
    assert d[0] == d[1] == 1.0


def test_knn_invalid_k():
    # One check in query_array serves every k-NN entry point.
    index = PointCloud(positions=np.zeros((4, 3))).spatial_index
    for k in (0, -1):
        with pytest.raises(DomainError, match=f"k must be >= 1, got {k}"):
            index.knn([0, 0, 0], k)
        with pytest.raises(DomainError, match=f"k must be >= 1, got {k}"):
            index.query_array(np.zeros((2, 3)), k)
        with pytest.raises(DomainError, match=f"k must be >= 1, got {k}"):
            next(index.self_knn_blocks(k, 1))


def test_knn_k_must_be_an_integer():
    # A float k is refused, not truncated; numpy integers are integers.
    index = PointCloud(positions=np.arange(12.0).reshape(4, 3)).spatial_index
    for call in (lambda k: index.knn([0, 0, 0], k), lambda k: index.query_array(np.zeros((2, 3)), k),
                 lambda k: next(index.self_knn_blocks(k, 1))):
        with pytest.raises(DomainError, match=r"k must be an integer, got 2\.5"):
            call(2.5)
    assert index.knn([0, 0, 0], np.int64(2))[0].tolist() == [0, 1]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1.01 * MAX_COORDINATE])
def test_query_rows_must_be_finite_and_in_range(bad):
    # scipy would raise a bare ValueError on a non-finite row, and rows past
    # MAX_COORDINATE overflow the tree's squared distances.
    index = PointCloud(positions=np.arange(12.0).reshape(4, 3)).spatial_index
    rows = np.zeros((300, 3))
    rows[123, 1] = bad
    for call in (lambda: index.query_array(rows, 2), lambda: index.nearest(rows),
                 lambda: index.knn(rows[123], 1), lambda: index.radius_query(rows[123], 1.0)):
        with pytest.raises(DomainError, match="query coordinates must be finite"):
            call()
    edge = np.full((1, 3), -MAX_COORDINATE)
    assert index.nearest(edge).tolist() == [0]
    assert index.query_array(np.empty((0, 3)), 2)[0].shape == (0, 2)


def test_radius_query_against_scan():
    rng = np.random.default_rng(13)
    for _ in range(50):
        pts = rng.uniform(-1, 1, (rng.integers(5, 80), 3))
        index = PointCloud(positions=pts).spatial_index
        q = rng.uniform(-1, 1, 3)
        r = float(rng.uniform(0, 1.5))
        got_idx, got_d = index.radius_query(q, r)
        exp_idx, exp_d = brute_radius(pts, q, r)
        assert np.array_equal(got_idx, exp_idx)
        assert np.array_equal(got_d, exp_d)


def test_radius_boundary_is_inclusive():
    # Integer lattice: distances to the origin are exact in binary.
    pts = np.array([[1.0, 0, 0], [0, 2.0, 0], [0, 0, 3.0]])
    idx, d = PointCloud(positions=pts).spatial_index.radius_query([0, 0, 0], 2.0)
    assert idx.tolist() == [0, 1]
    assert d.tolist() == [1.0, 2.0]


def test_radius_zero_finds_duplicates():
    pts = np.array([[0.5, 0.5, 0.5], [0.25, 0, 0], [0.5, 0.5, 0.5]])
    idx, d = PointCloud(positions=pts).spatial_index.radius_query([0.5, 0.5, 0.5], 0.0)
    assert idx.tolist() == [0, 2]
    assert np.all(d == 0.0)


def test_negative_radius_rejected():
    with pytest.raises(DomainError):
        PointCloud(positions=np.zeros((1, 3))).spatial_index.radius_query([0, 0, 0], -1.0)


def test_nan_radius_rejected():
    # A NaN radius would find nothing rather than fail.
    with pytest.raises(DomainError, match="radius must be >= 0, got nan"):
        PointCloud(positions=np.zeros((1, 3))).spatial_index.radius_query([0, 0, 0], np.nan)


def test_nearest_matches_single_knn():
    rng = np.random.default_rng(17)
    pts = rng.uniform(0, 1, (60, 3))
    # Mix in exact duplicates so ties actually occur.
    pts[30:40] = pts[0:10]
    index = PointCloud(positions=pts).spatial_index
    queries = np.vstack([rng.uniform(0, 1, (40, 3)), pts[5:15]])
    got = index.nearest(queries)
    for row, q in zip(got, queries):
        assert row == brute_knn(pts, q, 1)[0][0]


@pytest.mark.parametrize("lattice", [True, False], ids=["lattice", "continuous"])
def test_query_array_rows_equal_the_scan(lattice):
    # The lattice puts 1000 points on 6^3 integer sites: duplicates and
    # equidistant neighbours in every row, so the (distance, index) rule decides.
    rng = np.random.default_rng(31)
    pts = (rng.integers(0, 6, (1000, 3)).astype(float) if lattice
           else rng.uniform(0, 6, (1000, 3)))
    n = len(pts)
    index = PointCloud(positions=pts).spatial_index
    tables = {k: index.query_array(pts, k) for k in (1, 2, 11, 12, n, n + 3)}
    for row, q in enumerate(pts):
        # brute_knn(pts, q, k) is the first min(k, n) entries of this scan.
        exp_idx, exp_d = brute_knn(pts, q, n)
        for k, (d, i) in tables.items():
            assert np.array_equal(i[row], exp_idx[:k]), (k, row)
            assert np.array_equal(d[row], exp_d[:k]), (k, row)


@pytest.mark.parametrize("lattice", [True, False], ids=["lattice", "continuous"])
def test_neighbor_table_rows_equal_the_scan(lattice):
    # The streamed self rows are asked in the tree's leaf order; row r put
    # back must still answer point r. The shuffled lattice repeats sites,
    # so rows tie and go through _resolve.
    rng = np.random.default_rng(37)
    if lattice:
        sites = np.stack(np.meshgrid(*[np.arange(6.0)] * 3), axis=-1).reshape(-1, 3)
        pts = rng.permutation(np.vstack([sites, sites[rng.integers(0, len(sites), 300)]]))
    else:
        pts = rng.uniform(0, 6, (516, 3))
    index = PointCloud(positions=pts).spatial_index
    assert sorted(index.order) == list(range(len(pts)))
    assert not index.order.flags.writeable
    assert not np.array_equal(index.order, np.arange(len(pts)))
    dist, idx = index.query_array(pts, 12)
    streamed = streamed_self_table(index, 12)
    assert np.array_equal(streamed[0], dist) and np.array_equal(streamed[1], idx)
    for row, q in enumerate(pts):
        exp_idx, exp_d = brute_knn(pts, q, 12)
        assert np.array_equal(idx[row], exp_idx), row
        assert np.array_equal(dist[row], exp_d), row


def test_nearest_is_column_zero_without_knn_calls(monkeypatch):
    pts = np.stack(np.meshgrid(*[np.arange(8.0)] * 3, indexing="ij"), -1).reshape(-1, 3)
    index = PointCloud(positions=pts).spatial_index
    queries = pts + 0.5  # every query sits at the centre of a lattice cell
    calls = []
    monkeypatch.setattr(SpatialIndex, "knn", lambda *args: calls.append(args))
    got = index.nearest(queries)
    assert np.array_equal(got, index.query_array(queries, 1)[1][:, 0])
    assert calls == []
    for row in range(0, len(queries), 37):
        assert got[row] == brute_knn(pts, queries[row], 1)[0][0]


def test_nearest_single_point_cloud():
    index = PointCloud(positions=np.array([[1.0, 2.0, 3.0]])).spatial_index
    assert index.nearest(np.zeros((4, 3))).tolist() == [0, 0, 0, 0]


def test_query_array_shapes():
    cloud = random_cloud(30, seed=2)
    index = cloud.spatial_index
    d, i = index.query_array(cloud.positions, 5)
    assert d.shape == (30, 5) and i.shape == (30, 5)
    d1, i1 = index.query_array(cloud.positions[:3], 1)
    assert d1.shape == (3, 1) and i1.shape == (3, 1)


def test_match_points_identity_on_distinct_cloud():
    cloud = random_cloud(120, seed=3)
    matches = cloud.spatial_index.nearest(cloud.positions)
    assert np.array_equal(matches, np.arange(120))


def test_match_points_survives_small_translation():
    cloud = random_cloud(100, seed=4, span=100.0)
    spacing = min(
        cloud.spatial_index.knn(cloud.positions[i], 2)[1][1] for i in range(100)
    )
    shift = 0.25 * spacing
    moved = PointCloud(positions=cloud.positions + shift / np.sqrt(3.0))
    matches = cloud.spatial_index.nearest(moved.positions)
    assert np.array_equal(matches, np.arange(100))


def test_match_points_range_for_unequal_sizes():
    source = random_cloud(100, seed=5)
    target = random_cloud(50, seed=6)
    matches = target.spatial_index.nearest(source.positions)
    assert matches.shape == (100,)
    assert matches.min() >= 0 and matches.max() < 50


def test_bulk_nearest_against_scan_on_a_lattice():
    # 6000 rows over 1000 lattice sites: duplicates and equidistant
    # neighbours everywhere, so the (distance, index) rule decides.
    rng = np.random.default_rng(29)
    pts = rng.integers(0, 10, (6000, 3)).astype(float)
    queries = np.vstack([rng.integers(-1, 11, (5000, 3)).astype(float),
                         rng.integers(0, 20, (1000, 3)) / 2.0])
    got = PointCloud(positions=pts).spatial_index.nearest(queries)
    for row in rng.choice(len(queries), 150, replace=False):
        assert got[row] == brute_knn(pts, queries[row], 1)[0][0]


def test_nearest_to_a_large_duplicate_cluster():
    # 20k copies of the origin plus a far point; 20k queries scattered near
    # the origin tie on the whole cluster and must take its lowest index.
    rng = np.random.default_rng(3)
    pts = np.vstack([[[9.0, 9.0, 9.0]], np.zeros((20_000, 3))])
    queries = rng.normal(0, 0.1, (20_000, 3))
    index = PointCloud(positions=pts).spatial_index
    assert np.all(index.nearest(queries) == 1)
    d, i = index.query_array(queries[:50], 3)
    assert np.array_equal(i, np.broadcast_to([1, 2, 3], i.shape))
    assert np.array_equal(d[:, 0], np.linalg.norm(queries[:50], axis=1))


def test_no_neighbor_table_is_kept():
    # The filter and the normals stream their neighbour rows: once both have
    # run, the cloud holds their results and nothing more that grows with it.
    # A kept (N, 12) table of distances and indices would add 3.8 MB here.
    rng = np.random.default_rng(4)
    frequency_scores(PointCloud(positions=rng.uniform(0, 1, (50, 3))))  # lazy imports
    estimate_normals(PointCloud(positions=rng.uniform(0, 1, (50, 3))))
    cloud = PointCloud(positions=rng.uniform(0, 1, (20_000, 3)))
    cloud.spatial_index
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        scores = frequency_scores(cloud)
        normals, degenerate = estimate_normals(cloud)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    results = scores.nbytes + normals.nbytes + degenerate.nbytes
    assert kept <= results + 64 * 1024, (kept, results)


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
        asked, clusters = {}, []
        original = SpatialIndex.query_array

        def recording(index, queries, k):
            if index is ref.spatial_index and k > 1:  # k = 1: the baselines' matches
                asked.setdefault(k, []).append(queries)
            elif len(queries) == 8:  # a graphsim call's stimulus clusters, a row a keypoint
                clusters.append(k)
            return original(index, queries, k)

        monkeypatch.setattr(SpatialIndex, "query_array", recording)
        config = GraphSimConfig(resample=ResampleConfig(count=8))
        graphsim(ref, a, config)
        graphsim(ref, b, config)
        run_baselines(ref, a)
        graphsim(ref, a, GraphSimConfig(signal_kind="normal",
                                        resample=ResampleConfig(count=8)))
        # The filter's width 11 and the normals' width 12, each over every
        # reference point once: rows are streamed, so no width reuses another.
        assert {k: sum(map(len, blocks)) for k, blocks in asked.items()} == {11: 400, 12: 400}
        for blocks in asked.values():
            points = np.vstack(blocks)
            assert np.array_equal(points[np.lexsort(points.T)],
                                  ref.positions[np.lexsort(ref.positions.T)])
        _, idx = streamed_self_table(ref.spatial_index, 11)
        assert np.array_equal(idx, original(ref.spatial_index, ref.positions, 11)[1])
        # Each graphsim call asks its stimulus's clusters in one query, as wide as
        # matching_k, the reference's largest kept cluster and the stimulus allow, + 2.
        largest = max(v[0].size for key, v in ref._results.items() if key[0] == "graphsim cluster")
        assert clusters == [min(50, largest, 400) + 2] * 3


def _recording_tree(calls, **forced):
    """A cKDTree subclass that records each query in `calls` as (method, k, keyword
    arguments, rows); keyword arguments in `forced`, such as workers=1, replace the
    query's own."""
    from scipy.spatial import cKDTree

    class RecordingTree(cKDTree):
        def query(self, x, k=1, **kwargs):
            calls.append(("query", k, kwargs, len(np.atleast_2d(x))))
            return super().query(x, k, **dict(kwargs, **forced))

        def query_ball_point(self, x, *args, **kwargs):
            calls.append(("query_ball_point", None, kwargs, len(np.atleast_2d(x))))
            return super().query_ball_point(x, *args, **dict(kwargs, **forced))

    return RecordingTree


def _knn_passes(calls):
    """The recorded k-NN queries of _query_rows as (pilots, bounds, re-asks): a
    pilot asks a list of columns, a block's main pass states its bound (inf
    without a pilot) and a re-ask does neither."""
    knn = [(k, kwargs) for method, k, kwargs, _ in calls if method == "query"]
    pilots = sum(isinstance(k, list) for k, _ in knn)
    bounds = [kwargs["distance_upper_bound"] for _, kwargs in knn if "distance_upper_bound" in kwargs]
    return pilots, bounds, len(knn) - pilots - len(bounds)


def _worker_reports(reference, kind, level):
    """Report bytes of graphsim (color and normal signals) and run_baselines on a
    fresh copy of `reference` against its `kind` stimulus, so no cache carries over.
    An "outlier" stimulus is the ggn one with one point moved far off, past any
    pilot bound, so that its row is asked again."""
    ref = PointCloud(positions=np.array(reference.positions), colors=reference.colors)
    stim = apply_distortion(ref, DistortionSpec(kind.replace("outlier", "ggn"), level, seed=3))
    if kind == "outlier":
        positions = np.array(stim.positions)
        positions[1000] += 50.0  # not a pilot row: 1000 is no multiple of 256
        stim = PointCloud(positions=positions, colors=stim.colors)
    config = GraphSimConfig(signal_kind=("color", "normal"), resample=ResampleConfig(count=24))
    baselines = {metric: [r.value, r.forward_db, r.backward_db]
                 for metric, r in run_baselines(ref, stim).items()}
    return canonical_dumps(graphsim(ref, stim, config).to_report(config)), canonical_dumps(baselines)


@pytest.mark.parametrize("kind,level", [("ggn", 0.008), ("ot", 6), ("outlier", 0.008)])
@pytest.mark.parametrize("shape", ["lattice", "continuous"])
def test_reports_do_not_depend_on_the_worker_count(monkeypatch, shape, kind, level):
    # Bulk queries of more than PILOT_STRIDE rows ask cKDTree for every core; each
    # row is answered on its own, within a bound from its block's pilot rows that
    # only prunes, so one thread must give the same bytes: ties on a lattice and
    # re-asked rows included.
    rng = np.random.default_rng(17)
    if shape == "lattice":  # 1,728 sites for 2,500 points: repeated points and ties
        positions = rng.integers(0, 12, (2500, 3)).astype(np.float64)
    else:
        positions = rng.uniform(0.0, 10.0, (2500, 3))
    reference = PointCloud(positions=positions, colors=rng.integers(0, 256, (2500, 3)).astype(np.uint8))
    default = _worker_reports(reference, kind, level)
    calls = []
    monkeypatch.setattr("scipy.spatial.cKDTree", _recording_tree(calls, workers=1))
    assert _worker_reports(reference, kind, level) == default
    pilots, bounds, again = _knn_passes(calls)
    assert pilots and any(method == "query_ball_point" for method, *_ in calls)
    # graphsim's stimulus clusters: one k-NN query, a row per keypoint.
    assert [rows for method, _, _, rows in calls if method == "query"].count(24) == 1
    if kind == "outlier":
        assert again


@pytest.mark.parametrize("rows", [1, 12, spatial.PILOT_STRIDE, spatial.PILOT_STRIDE + 1, 1500])
def test_small_queries_run_on_one_core(rows):
    # A tree query of at most PILOT_STRIDE rows asks one core, a larger one every
    # core: each pilot, main pass, re-ask and tie ball query by its own row count.
    rng = np.random.default_rng(rows)
    points = rng.integers(0, 9, (3000, 3)).astype(np.float64)  # ties: the ball query runs
    calls = []
    with mock.patch("scipy.spatial.cKDTree", _recording_tree(calls)):
        PointCloud(positions=points).spatial_index.query_array(points[:rows], 5)
    assert {method for method, *_ in calls} == {"query", "query_ball_point"}
    for method, _, kwargs, n in calls:
        assert kwargs["workers"] == (1 if n <= spatial.PILOT_STRIDE else -1), (method, n)


# Each case of test_bounded_rows_equal_unbounded_rows, and what it must reach.
PILOT_CASES = ("lattice", "coincident", "scaled", "beyond-the-bound", "small-block", "k-is-count")


def _pilot_case(case, rng, n, m, k):
    """(points, queries, k) of one case. Every case but small-block asks more than
    PILOT_STRIDE rows, so its blocks are searched within a pilot bound."""
    if case == "lattice":  # shuffled sites with duplicates: ties everywhere
        points = rng.integers(0, int(rng.integers(2, 7)), (n, 3)).astype(np.float64)
        return points, points[rng.permutation(n)], k
    if case == "coincident":  # every pilot distance is 0: the bound is the 1e-140 floor
        points = np.full((n, 3), rng.uniform(-5, 5))
        return points, np.repeat(points[:1], m, axis=0), k
    if case == "scaled":  # tiny, huge, and up to MAX_COORDINATE
        scale = rng.choice([2.0**-400, 2.0**400, MAX_COORDINATE])
        return rng.uniform(-1, 1, (n, 3)) * scale, rng.uniform(-1, 1, (m, 3)) * scale, k
    points = rng.uniform(0, 1, (n, 3))
    queries = points[rng.integers(0, n, m)] + rng.normal(0, 0.01, (m, 3))
    if case == "beyond-the-bound":  # rows far past the pilots' distances, none a pilot
        far = rng.choice(np.flatnonzero(np.arange(m) % spatial.PILOT_STRIDE), 5)
        queries[far] += rng.uniform(5, 50, (5, 3))
    elif case == "small-block":
        queries = queries[:spatial.PILOT_STRIDE]
    elif case == "k-is-count":
        points = points[:int(rng.integers(1, 40))]
        k = len(points) + int(rng.integers(0, 3))
    return points, queries, k


@pytest.mark.parametrize("case", PILOT_CASES)
@settings(max_examples=30)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(300, 900), m=st.integers(257, 1200),
       k=st.sampled_from([1, 2, 5, 11, 12]))
def test_bounded_rows_equal_unbounded_rows(case, seed, n, m, k):
    # The pilot bound only prunes: every row equals the plain unbounded query of
    # the same block (no pilot when a block has at most PILOT_STRIDE rows), and
    # sampled rows equal the scan.
    points, queries, k = _pilot_case(case, np.random.default_rng(seed), n, m, k)
    calls = []
    with mock.patch("scipy.spatial.cKDTree", _recording_tree(calls)):  # the site tree too
        index = PointCloud(positions=points).spatial_index
        dist, idx = index.query_array(queries, k)
    pilots, bounds, again = _knn_passes(calls)
    with mock.patch.object(spatial, "PILOT_STRIDE", len(queries)):
        unbounded = index.query_array(queries, k)
    assert np.array_equal(dist, unbounded[0]) and np.array_equal(idx, unbounded[1])
    for row in np.random.default_rng(seed).choice(len(queries), 6):
        want_idx, want_d = brute_knn(points, queries[row], k)
        assert np.array_equal(idx[row], want_idx) and np.array_equal(dist[row], want_d), row

    assert (pilots == 0) == (case == "small-block")
    if case == "lattice":  # rows tied, so _resolve asked its ball query
        assert any(method == "query_ball_point" for method, *_ in calls)
    elif case == "coincident":
        assert bounds == [1e-140]
    elif case == "scaled":  # the widest squared distance, so the squared bound, is finite
        assert all(np.isfinite(np.float64(b) ** 2) for b in bounds)
    elif case == "beyond-the-bound":
        assert again
    elif case == "k-is-count":
        assert idx.shape == (len(queries), len(points))
