"""Shared fixture builders for the test suite."""

from __future__ import annotations

import importlib

import numpy as np

from pcqa import PointCloud
from pcqa.graphsim import GraphTable, match_and_align
from pcqa.spatial import row_blocks


def random_cloud(n, seed=0, span=10.0, colored=True, normals=False):
    """Uniform box cloud with random integral colors."""
    rng = np.random.default_rng(seed)
    positions = rng.uniform(0.0, span, (n, 3))
    colors = None
    if colored:
        colors = rng.integers(0, 256, (n, 3)).astype(np.float64)
    cloud_normals = None
    if normals:
        raw = rng.normal(size=(n, 3))
        cloud_normals = raw / np.linalg.norm(raw, axis=1, keepdims=True)
    return PointCloud(positions=positions, colors=colors, normals=cloud_normals)


def stimulus_refetches(monkeypatch, stimulus):
    """A list that gains an entry per graphsim `_cluster` call on `stimulus`: one per
    row that a call's bulk stimulus cluster query could not vouch for."""
    module = importlib.import_module("pcqa.graphsim")
    cluster, calls = module._cluster, []
    monkeypatch.setattr(module, "_cluster", lambda cloud, *args: (
        calls.append(1) if cloud is stimulus else None) or cluster(cloud, *args))
    return calls


def streamed_self_table(index, k):
    """The index's own k-NN rows from self_knn_blocks, put back in point order."""
    kk = min(k, index.count)
    dist, idx = np.empty((index.count, kk)), np.empty((index.count, kk), np.intp)
    for rows, d, i in index.self_knn_blocks(k, k):
        dist[rows], idx[rows] = d, i
    return dist, idx


def pair_table(pairs):
    """The GraphTable of built `LocalGraphPair`s, for `score_graph`: their sizes and
    cutoffs, and their batches laid out one pair at a time, a run a side per pair,
    with each pair's `match_and_align` orders (which refuse a pair with an empty
    side) offset into its runs."""
    width = 3 * max(max(p.ref.size, p.dist.size) for p in pairs)
    batches = []
    for batch in (pairs[b] for b in row_blocks(len(pairs), width - 1)):
        kept = np.array([[p.ref.size, p.dist.size] for p in batch])
        orders, starts = [match_and_align(p) for p in batch], kept.cumsum(axis=0) - kept
        batches.append((np.array([p.center_index for p in batch]), kept, *[
            (np.concatenate([h.indices for h in hoods]), np.concatenate([h.weights for h in hoods]))
            for hoods in ([p.ref for p in batch], [p.dist for p in batch])],
            [np.concatenate([o[j] + s[j] for o, s in zip(orders, starts)]) for j in (0, 1)]))
    return GraphTable(sizes=np.array([[p.ref_cluster_size, p.dist_cluster_size] for p in pairs]),
                      kept=np.array([[p.ref.size, p.dist.size] for p in pairs]),
                      cutoffs=np.array([p.params.cutoff for p in pairs]), batches=batches)


def smooth_cloud(n, seed=0, span=10.0):
    """Cloud whose colors vary smoothly with position.

    A low-frequency color field makes local gradients informative, which
    keeps the metric sensitive to small geometric and chromatic damage;
    pure random colors drown small distortions in color noise.
    """
    rng = np.random.default_rng(seed)
    positions = rng.uniform(0.0, span, (n, 3))
    phases = rng.uniform(0, 2 * np.pi, 3)
    freqs = rng.uniform(0.5, 1.5, (3, 3))
    raw = np.stack(
        [np.sin(positions @ freqs[c] * 2 * np.pi / span + phases[c]) for c in range(3)],
        axis=1,
    )
    colors = np.rint((raw * 0.5 + 0.5) * 255.0)
    return PointCloud(positions=positions, colors=colors)


def planar_cloud(n, seed=0, span=4.0):
    """Jittered grid on the z = 0 plane (exactly planar)."""
    rng = np.random.default_rng(seed)
    side = int(np.ceil(np.sqrt(n)))
    xs, ys = np.meshgrid(np.linspace(0, span, side), np.linspace(0, span, side))
    xy = np.column_stack([xs.ravel(), ys.ravel()])[:n]
    xy = xy + rng.uniform(-0.1, 0.1, xy.shape) * span / side
    positions = np.column_stack([xy, np.zeros(len(xy))])
    return PointCloud(positions=positions)


def write_ascii_ply(path, rows, *, count=None, extra_header=(),
                    props=("property float x", "property float y", "property float z")):
    """Hand-rolled ASCII PLY writer so parser tests control every byte."""
    count = len(rows) if count is None else count
    lines = ["ply", "format ascii 1.0", f"element vertex {count}"]
    lines += list(props)
    lines += list(extra_header)
    lines.append("end_header")
    lines += [" ".join(str(v) for v in row) for row in rows]
    with open(path, "w", encoding="ascii") as handle:
        handle.write("\n".join(lines) + "\n")
    return path
