"""Whole-cloud transients, one at a time: the keypoint filter, graphsim and
the baselines keep at most one cloud-sized temporary beyond what they need,
the tie path of the k-NN queries stays block-sized on a lattice, and a nearest
pass holds one block beside its result, plus the rows it asks again. What
graphsim keeps on a reference is 12 B per column of matching_k + 2 for each
keypoint's clusters, 16 B per keypoint and 24 B per point for its colour signal; what the baselines keep for a
stimulus of the reference's geometry, 32 B per point (the self-match and the
reference's YUV table); what a loaded coloured cloud keeps, 27 B per point.

Peaks are read with tracemalloc, which numpy reports its buffers to, so the
figures are deterministic. Every module a pass imports is loaded first."""

import gc
import tracemalloc

import numpy as np
import pytest

from pcqa import (DistortionSpec, GraphSimConfig, PointCloud, ResampleConfig, apply_distortion,
                  bounding_box, build_local_graph_pair, graphsim, load_ply, save_ply, spatial)
from pcqa.baselines import _match_pair, estimate_normals, run_baselines
from pcqa.graphsim import POOLING_PRESETS, _graph_table, _kept_clusters, _signals, score_graph
from pcqa.resample import frequency_scores, resample

from helpers import pair_table, random_cloud
from oracles import brute_knn

N = 20_000
# Bytes per point of one (N, 3) float64 array.
ROW3 = 3 * 8


@pytest.fixture(autouse=True)
def _imports_loaded():
    graphsim(random_cloud(300, seed=0), random_cloud(300, seed=1), GraphSimConfig())
    run_baselines(random_cloud(300, seed=2), random_cloud(300, seed=3))


def _peak(compute):
    """Peak traced bytes while compute() runs, above what was traced before."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        compute()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_frequency_scores_peak_is_the_operator_plus_one_block(monkeypatch):
    # Two blocks: the first block's arrays must be gone before the second is asked.
    monkeypatch.setattr(spatial, "BLOCK_ENTRIES", 2**17)
    k = 10
    operator = N * k * (8 + 4) + (N + 1) * 8  # weights, 32-bit columns, row pointer
    # Beside it: the filtered copy, one product and one norm temporary, (N, 3) each,
    # and one block of 48 B per entry (k-NN query, tie test and weights).
    bound = operator + 3 * ROW3 * N + 48 * spatial.BLOCK_ENTRIES
    cloud = random_cloud(N, seed=4)  # no tree yet: it is built inside
    peak = _peak(lambda: frequency_scores(cloud))
    assert peak <= bound, (peak, bound)


def test_graphsim_holds_no_decomposed_colors_during_the_filter():
    ref, dist = random_cloud(N, seed=5), random_cloud(N, seed=6)
    filter_peak = _peak(lambda: frequency_scores(PointCloud(positions=ref.positions)))
    peak = _peak(lambda: graphsim(ref, dist, GraphSimConfig()))
    # Each cloud's decomposed colours are one (N, 3) array; the filter's peak is the
    # run's peak only if neither is live while it runs.
    assert peak < filter_peak + ROW3 * N, (peak, filter_peak)


def test_graphsim_holds_no_decomposed_colors_during_the_filter_beside_kept_clusters():
    ref, dist = random_cloud(N, seed=5), random_cloud(N, seed=6)
    config = GraphSimConfig()
    twin = PointCloud(positions=ref.positions)
    keypoints = resample(twin, config.resample).indices  # ref's own filter is still to run
    graphsim(ref, dist, config, keypoints=keypoints)  # ref keeps these clusters and colours
    fresh = PointCloud(positions=ref.positions)
    fresh.spatial_index  # like ref's, built before the peak is read
    filter_peak = _peak(lambda: frequency_scores(fresh))
    peak = _peak(lambda: graphsim(ref, dist, config))
    assert peak < filter_peak + ROW3 * N, (peak, filter_peak)


def test_graphsim_keeps_24_bytes_per_point_16_per_keypoint_12_per_cluster_point():
    ref, dist = random_cloud(N, seed=9), random_cloud(N, seed=10)
    config = GraphSimConfig(resample=ResampleConfig(count=100))
    frequency_scores(ref, config.resample)  # the filter scores, kept first
    keypoints = resample(PointCloud(positions=ref.positions), config.resample).indices
    dist.spatial_index
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        graphsim(ref, dist, config)
        gc.collect()  # empties the free lists, so only what is reachable is counted
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    # Per keypoint, whatever the radius, its row of the keypoint set's reference
    # clusters: matching_k + 1 int32 indices and float64 distances at most, its reach
    # and its index in the entry's key, 12 B a column of matching_k + 2; intp indices
    # would exceed it. Per reference point the kept colour signal, one (N, 3) float64
    # table; per keypoint its kept intp index and float64 score; and the entries'
    # objects and headers.
    bound = 12 * (config.matching_k + 2) * len(keypoints) + ROW3 * N + 16 * len(keypoints) + 2048
    assert kept <= bound, (kept, bound)
    assert set(dist._results) == {("spatial index",)}  # the stimulus keeps only its tree


@pytest.mark.parametrize("block", [spatial.BLOCK_ENTRIES, 2**14])
def test_graph_scoring_peak_is_five_arrays_of_one_batch(monkeypatch, block):
    # At neighborhood_fraction 1 with no matching_k cutoff, each reference graph holds
    # about 19k points, so one pair counts as about 58k entries of a batch: four pairs
    # a batch at the default block, and one pair, larger than the block, at 2**14.
    # The sparse stimulus keeps the matching short.
    monkeypatch.setattr(spatial, "BLOCK_ENTRIES", block)
    ref = random_cloud(N, seed=12)
    dist = PointCloud(positions=ref.positions[::64] + 0.01, colors=ref.colors[::64])
    config = GraphSimConfig(neighborhood_fraction=1.0, matching_k=10**6)
    pairs = [build_local_graph_pair(int(i), ref, dist, config) for i in range(0, N, N // 8)]
    signals = _signals(ref, config, ref)[0], _signals(dist, config, dist)[0]
    batch = max(block, 3 * max(max(p.ref.size, p.dist.size) for p in pairs))
    # Five float64 arrays of one batch: with the table built beforehand, 2.0 at the
    # default block and 2.5 at 2**14 measured. All eight pairs in one batch would
    # hold twice the default block's.
    bound = 5 * 8 * batch
    table = pair_table(pairs)
    peak = _peak(lambda: score_graph(table, *signals, POOLING_PRESETS["c2"], np.ones(3)))
    assert peak <= bound, (peak, bound)


@pytest.mark.parametrize("block", [spatial.BLOCK_ENTRIES, 2**14])
def test_graph_build_transients_are_one_batch(monkeypatch, block):
    # graphsim lays a call's graphs out as flat runs. At neighborhood_fraction 1 with
    # no matching_k cutoff each of 16 reference graphs holds about 18k points. Beside
    # the batches it returns, the build holds one batch in the making and one pair's
    # matching: 1.8 MB at the default block and 0.6 MB at 2**14 measured. A copy of
    # every cluster would add 12 B a cluster point or more (3.5 MB).
    monkeypatch.setattr(spatial, "BLOCK_ENTRIES", block)
    ref = random_cloud(N, seed=12)
    dist = PointCloud(positions=ref.positions[::64] + 0.01, colors=ref.colors[::64])
    config = GraphSimConfig(neighborhood_fraction=1.0, matching_k=10**6)
    keys = np.arange(0, N, N // 16)
    radius = config.neighborhood_fraction * bounding_box(ref).min_extent
    _kept_clusters(ref, keys, radius, config.matching_k)  # kept, as the stimulus tree, first
    dist.spatial_index
    tracemalloc.start()
    try:
        table = _graph_table(ref, dist, keys, radius, config, False)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(table.batches) > 1 and table.sizes[:, 0].sum() > 16 * N // 2
    bound = 5 * 8 * max(block, 3 * table.kept.max())  # five float64 arrays of one batch
    assert peak - current <= bound, (peak - current, bound)


def test_run_baselines_peak_above_matches_and_normals():
    ref, dist = random_cloud(N, seed=7), random_cloud(N, seed=8)
    _match_pair(ref, dist)  # each cloud's tree, as run_baselines builds it
    estimate_normals(ref, 12)
    # Five (N, 3) arrays: one YUV copy beside the other's conversion (its RGB input,
    # three channels and their stack), or one direction's error and projection
    # beside the per-point results.
    bound = 5 * ROW3 * N
    peak = _peak(lambda: run_baselines(ref, dist))
    assert peak <= bound, (peak, bound)


def test_tie_path_on_a_lattice_stays_block_sized(monkeypatch):
    rng = np.random.default_rng(7)
    lattice = apply_distortion(PointCloud(positions=rng.uniform(0, 10, (60_000, 3))),
                               DistortionSpec("ot", 5))
    pts = lattice.positions
    index = lattice.spatial_index
    index.query_array(pts[:1], 11)  # the distinct-location table, built once and kept
    chunks = []
    resolve = spatial.SpatialIndex._resolve

    def counting(self, queries, radius, kk):
        chunks.append(len(queries))
        return resolve(self, queries, radius, kk)

    monkeypatch.setattr(spatial.SpatialIndex, "_resolve", counting)
    outputs = len(pts) * 11 * 16
    peak = _peak(lambda: index.query_array(pts, 11)) - outputs
    # One query block and its tie path: 48 B per entry, at any lattice size.
    assert peak <= 48 * spatial.BLOCK_ENTRIES, peak
    assert sum(chunks) == len(pts) and len(chunks) > 1, chunks  # every row ties

    edges = np.cumsum(chunks)[:-1]
    dist, idx = index.query_array(pts, 11)
    for row in np.concatenate([edges - 1, edges]):
        want_idx, want_d = brute_knn(pts, pts[row], 11)
        assert np.array_equal(idx[row], want_idx) and np.array_equal(dist[row], want_d), row


@pytest.mark.parametrize("asked_again", [False, True], ids=["none-asked-again", "all-asked-again"])
def test_nearest_holds_one_block_and_the_rows_it_asks_again(monkeypatch, asked_again):
    # A nearest pass keeps its result, 16 B a row (the distance and index columns).
    # Beyond it, it holds one block at a time: 48 B a block row for the block's
    # (rows, 2) distances and indices and the tie test's two float temporaries, and
    # 64 B a row it asks again for that row's index, query copy and (1, 2) outputs;
    # 97.5 B a block row measured when every row but the pilots is asked again. The
    # queries are the cloud's own points, so each pilot distance is 0 and the bound
    # is the 1e-140 floor: no row is asked again, or all but the pilots are once
    # those are moved off their points.
    monkeypatch.setattr(spatial, "BLOCK_ENTRIES", 2**14)  # three blocks of 8192 rows
    cloud = random_cloud(N, seed=14)
    index = cloud.spatial_index
    queries = np.array(cloud.positions)
    rows = spatial.BLOCK_ENTRIES // 2
    again = 0
    if asked_again:
        moved = np.arange(N) % spatial.PILOT_STRIDE != 0
        queries[moved] += np.random.default_rng(15).normal(0, 1e-3, (moved.sum(), 3))
        again = rows - rows // spatial.PILOT_STRIDE
    peak = _peak(lambda: index.nearest(queries))
    # Beside them, numpy's and cKDTree's small buffers and headers (9-12 kB measured).
    bound = 16 * N + 48 * rows + 64 * again + 16 * 1024
    assert peak <= bound, (peak, bound)


def test_same_geometry_run_baselines_keeps_32_bytes_per_point():
    ref = random_cloud(N, seed=11)
    stim = PointCloud(positions=np.array(ref.positions), colors=ref.colors[::-1].copy())
    estimate_normals(ref, 12)  # the reference's tree, normals and box, kept first
    bounding_box(ref)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        run_baselines(ref, stim)
        gc.collect()  # empties the free lists, so only what is reachable is counted
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    # The self-match, one intp per point, and the reference's 0-255 YUV table, one
    # (N, 3) float64 array, with their array headers; beside them only numpy's and
    # the worker threads' small bookkeeping (0.7 kB measured). A stimulus tree
    # or a second match array would add 8 B a point or more.
    bound = (8 + ROW3) * N + 2048
    assert kept <= bound, (kept, bound)
    assert "_results" not in stim.__dict__  # no tree, box or match of its own


def test_a_loaded_coloured_cloud_keeps_27_bytes_per_point(tmp_path):
    n = 50_000
    path = tmp_path / "cloud.ply"
    save_ply(random_cloud(n, seed=13), path)  # binary: double x, y, z and uchar colours
    load_ply(path)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        cloud = load_ply(path)
        gc.collect()  # empties the free lists, so only what is reachable is counted
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    # float64 positions and uint8 colours, plus two array headers and the cloud
    # object (376 B measured); float64 colours would keep 21 B a point more.
    bound = (ROW3 + 3) * n + 2048
    assert kept <= bound, (kept, bound)
    assert cloud.colors.dtype == np.uint8
