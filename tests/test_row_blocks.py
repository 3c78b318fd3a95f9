"""Bulk passes in fixed row blocks: k-NN queries, the streamed self rows, PCA
normals, the keypoint filter and graph matching give the same bits at any
block size, and their temporaries stay block-sized as the cloud grows."""

import importlib
import tracemalloc

import numpy as np
import pytest

from pcqa import (DistortionSpec, GraphSimConfig, PointCloud, ResampleConfig, apply_distortion,
                  graphsim, spatial)
from pcqa.baselines import estimate_normals
from pcqa.resample import frequency_scores

from helpers import streamed_self_table
from oracles import brute_knn, dense_frequency_scores


def _shuffled_lattice(rng):
    # 216 integer sites plus 300 repeats: every row ties, so tied rows
    # straddle every block edge and go through the exact resolve path.
    sites = np.stack(np.meshgrid(*[np.arange(6.0)] * 3), axis=-1).reshape(-1, 3)
    return rng.permutation(np.vstack([sites, sites[rng.integers(0, len(sites), 300)]]))


def _bulk_results(pts):
    cloud = PointCloud(positions=pts)
    index = cloud.spatial_index
    out = {f"query_array({k})": index.query_array(pts, k) for k in (1, 2, 11, 13)}
    out["self_knn_blocks(13)"] = streamed_self_table(index, 13)
    foreign = pts[::3] + 0.5
    out["query_array"] = index.query_array(foreign, 12)
    out["nearest"] = index.nearest(foreign)
    out["normals"] = estimate_normals(PointCloud(positions=pts), 12)
    out["scores"] = frequency_scores(PointCloud(positions=pts))
    return out


def _arrays(value):
    return value if isinstance(value, tuple) else (value,)


@pytest.mark.parametrize("block", [1, 40])
@pytest.mark.parametrize("lattice", [True, False], ids=["lattice", "continuous"])
def test_results_do_not_depend_on_block_edges(monkeypatch, lattice, block):
    rng = np.random.default_rng(41)
    pts = _shuffled_lattice(rng) if lattice else rng.uniform(0, 6, (516, 3))
    default = _bulk_results(pts)
    monkeypatch.setattr(spatial, "BLOCK_ENTRIES", block)
    blocked = _bulk_results(pts)

    for name, want in default.items():
        for a, b in zip(_arrays(want), _arrays(blocked[name]), strict=True):
            assert a.dtype == b.dtype and np.array_equal(a, b), name
    dist, idx = blocked["query_array(13)"]
    assert all(np.array_equal(a, b) for a, b in zip(blocked["self_knn_blocks(13)"], (dist, idx)))
    for row, q in enumerate(pts):
        exp_idx, exp_d = brute_knn(pts, q, 13)
        assert np.array_equal(idx[row], exp_idx) and np.array_equal(dist[row], exp_d), row
    foreign = pts[::3] + 0.5
    for row, q in enumerate(foreign):
        exp_idx, exp_d = brute_knn(pts, q, 12)
        assert np.array_equal(blocked["query_array"][1][row], exp_idx), row
        assert np.array_equal(blocked["query_array"][0][row], exp_d), row
        assert blocked["nearest"][row] == exp_idx[0], row
    expected = dense_frequency_scores(pts, k=10, filter_length=4)
    assert np.allclose(blocked["scores"], expected, rtol=0, atol=1e-10)


def _graphsim_reports(pts, colors):
    """Reports of fresh clouds, so nothing kept from an earlier block size is read."""
    ref = PointCloud(positions=pts, colors=colors)
    stimuli = [PointCloud(positions=pts.copy(), colors=colors[::-1].copy())]  # same geometry
    stimuli += [apply_distortion(ref, DistortionSpec(kind, level, seed=3))
                for kind, level in (("ds", 0.7), ("ot", 2), ("ggn", 0.01))]
    config = GraphSimConfig(neighborhood_fraction=0.4, signal_kind=("color", "normal"),
                            resample=ResampleConfig(count=24))
    return [graphsim(ref, stim, config).to_report(config) for stim in stimuli]


def test_graphsim_reports_do_not_depend_on_block_edges(monkeypatch):
    # Graphs on a lattice with repeats keep up to about 50 points (the matching_k
    # cutoff), so one pair counts as about 150 entries of a scoring batch. At 1000 entries
    # a block, a call's 24 graphs are scored in several batches of several pairs; at
    # 40, every pair is a batch of its own and larger than a block, and most matching
    # and k-NN rows are blocks of their own.
    rng = np.random.default_rng(47)
    pts = _shuffled_lattice(rng)
    colors = rng.integers(0, 256, pts.shape).astype(np.float64)
    default = _graphsim_reports(pts, colors)
    assert all(len(report["per_graph"]) > 0 for report in default)
    module = importlib.import_module("pcqa.graphsim")
    batch = module._batch_similarities
    for block in (1000, 40):
        sizes = []
        monkeypatch.setattr(module, "_batch_similarities",
                            lambda pairs, *signals: sizes.append(len(pairs)) or batch(pairs, *signals))
        monkeypatch.setattr(spatial, "BLOCK_ENTRIES", block)
        assert _graphsim_reports(pts, colors) == default, block
        # 4 stimuli x 2 signal kinds make 8 score_graph calls.
        assert len(sizes) > 8 and (max(sizes) > 1 if block == 1000 else set(sizes) == {1})


def _transient_bytes(pts, compute):
    """Peak traced bytes during compute(cloud) above what it leaves behind.
    numpy reports its buffers to tracemalloc; the tree is built beforehand."""
    tracemalloc.start()
    try:
        cloud = PointCloud(positions=pts)
        cloud.spatial_index
        tracemalloc.reset_peak()
        kept = compute(cloud)  # noqa: F841 -- held while the peak is read
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - current


@pytest.mark.parametrize("compute, per_point", [
    # The query and the normals keep every whole-cloud array they make.
    (lambda c: c.spatial_index.query_array(c.positions, 12), 0),
    (lambda c: estimate_normals(c, 12), 0),
    # The filter must hold its shift operator (graph_k = 10 weights and
    # column indices per row, 64-bit at most, plus a row pointer) and the
    # filtered (N, 3) positions; allow six such arrays.
    (frequency_scores, 10 * 16 + 16 + 6 * 24),
], ids=["neighbors", "estimate_normals", "frequency_scores"])
def test_transient_memory_does_not_grow_with_the_cloud(monkeypatch, compute, per_point):
    monkeypatch.setattr(spatial, "BLOCK_ENTRIES", 2**10)
    rng = np.random.default_rng(43)
    small, large = 5_000, 20_000
    t_small = _transient_bytes(rng.uniform(0, 1, (small, 3)), compute)
    t_large = _transient_bytes(rng.uniform(0, 1, (large, 3)), compute)
    # Whole-cloud temporaries would add at least 12 x 8 B per extra point.
    growth = (t_large - t_small) / (large - small)
    assert growth <= per_point + 2, (t_small, t_large)
