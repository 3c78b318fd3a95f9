"""What a reference keeps for the stimuli scored against it: its keypoint draw per
ResampleConfig, its colour signal per colour space and its 0-255 YUV table.

A kept entry must give the bytes a fresh cloud gives, be made once, leave every
warning of a call in place and be read-only. The benchmark cannot see a mis-keyed
entry (its digests only have to repeat), so these tests are the check."""

import importlib

import numpy as np
import pytest

from pcqa import (DegenerateCloudWarning, GraphSimConfig, PointCloud, ResampleConfig, graphsim,
                  resample, run_baselines)
from pcqa.graph import SignalAttribute
from pcqa.jsonutil import canonical_dumps
from pcqa.resample import KeypointSet

from helpers import random_cloud, smooth_cloud

# The modules, which the package's same-named functions hide.
baselines_module, graphsim_module, resample_module = (
    importlib.import_module(f"pcqa.{name}") for name in ("baselines", "graphsim", "resample"))


def fresh(cloud):
    """A cloud with the same arrays and nothing kept."""
    return PointCloud(positions=cloud.positions, colors=cloud.colors, normals=cloud.normals)


def stimuli(ref, count=3):
    """Stimuli of other positions and colours, so no reference work serves them."""
    rng = np.random.default_rng(7)
    return [PointCloud(positions=ref.positions + rng.normal(0, 0.02, ref.positions.shape),
                       colors=rng.permutation(ref.colors)) for _ in range(count)]


CONFIGS = [  # seeds 1, 2, 1; then another count, method and colour space
    GraphSimConfig(resample=ResampleConfig(count=8, seed=1)),
    GraphSimConfig(resample=ResampleConfig(count=8, seed=2)),
    GraphSimConfig(resample=ResampleConfig(count=8, seed=1)),
    GraphSimConfig(resample=ResampleConfig(count=12, seed=1)),
    GraphSimConfig(resample=ResampleConfig(count=8, seed=1, method="random")),
    GraphSimConfig(resample=ResampleConfig(count=8, seed=1), color_space="yuv"),
    GraphSimConfig(resample=ResampleConfig(count=8, seed=1), color_space="rgb"),
    GraphSimConfig(resample=ResampleConfig(count=8, seed=1)),
]


def test_calls_on_one_reference_report_as_on_fresh_clouds():
    ref = smooth_cloud(1500, seed=3)
    dist = stimuli(ref, 1)[0]
    for config in CONFIGS:
        kept = graphsim(ref, dist, config).to_report(config)
        assert canonical_dumps(kept) == canonical_dumps(
            graphsim(fresh(ref), fresh(dist), config).to_report(config)), config
        drawn, again = resample(ref, config.resample), resample(fresh(ref), config.resample)
        assert np.array_equal(drawn.indices, again.indices), config
        assert np.array_equal(drawn.scores, again.scores), config


def test_baselines_on_one_reference_report_as_on_fresh_clouds():
    ref = smooth_cloud(1500, seed=4)
    for dist in [*stimuli(ref), PointCloud(positions=ref.positions, colors=ref.colors[::-1])]:
        kept = {m: vars(r) for m, r in run_baselines(ref, dist).items()}
        assert kept == {m: vars(r) for m, r in run_baselines(fresh(ref), fresh(dist)).items()}


def test_each_entry_is_made_once_per_reference_and_key(monkeypatch):
    draws, decomposed, converted = [], [], []

    def spy(calls, f):
        def called(*args, **kwargs):
            calls.append(args[0] if args else kwargs)
            return f(*args, **kwargs)
        return called

    monkeypatch.setattr(resample_module, "KeypointSet", spy(draws, KeypointSet))
    monkeypatch.setattr(graphsim_module, "decompose", spy(decomposed, graphsim_module.decompose))
    monkeypatch.setattr(baselines_module, "to_yuv", spy(converted, baselines_module.to_yuv))
    refs = [random_cloud(600, seed=s) for s in (1, 2)]
    configs = [GraphSimConfig(resample=ResampleConfig(count=5, seed=s), color_space=space)
               for s, space in ((1, "gcm"), (2, "yuv"))]
    for ref in refs:
        for dist in stimuli(ref):
            for config in configs:
                graphsim(ref, dist, config)
            run_baselines(ref, dist)
    # One draw per (reference, config), one decomposition per (reference, space) beside
    # one per stimulus call, one YUV table per reference beside one per stimulus call.
    assert len(draws) == len(refs) * len(configs)
    assert sum(any(c is ref for ref in refs) for c in decomposed) == len(refs) * len(configs)
    assert len(decomposed) == len(refs) * len(configs) * (1 + 3)
    assert len(converted) == len(refs) * (1 + 3)


def test_warnings_repeat_on_kept_calls():
    # Two coincident groups 0.1 apart and three outliers: only the outliers score
    # above zero, fewer than the keypoints asked for, so the draw falls back to
    # uniform; a keypoint in one group has the other in its cluster.
    positions = np.vstack([np.zeros((20, 3)), np.tile((0.1, 0, 0), (20, 1)), 5 * np.eye(3)])
    cloud = PointCloud(positions=positions, colors=np.arange(129).reshape(43, 3))
    config = GraphSimConfig(resample=ResampleConfig(count=5, graph_k=5, seed=3))
    for _ in range(2):
        with pytest.warns(DegenerateCloudWarning, match="falling back to uniform sampling"):
            resample(cloud, config.resample)
        with pytest.warns(DegenerateCloudWarning, match="falling back to uniform sampling"):
            graphsim(cloud, cloud, config)
    coincident = PointCloud(positions=np.zeros((30, 3)), colors=np.full((30, 3), 9, np.uint8))
    for _ in range(2):
        with pytest.warns(DegenerateCloudWarning, match="all frequency scores are zero"):
            resample(coincident, ResampleConfig(count=3, graph_k=5))


def test_kept_arrays_are_read_only():
    ref = random_cloud(600, seed=5)
    dist = stimuli(ref, 1)[0]
    config = GraphSimConfig(resample=ResampleConfig(count=5))
    keypoints = graphsim(ref, dist, config).keypoints
    run_baselines(ref, dist)
    assert keypoints is resample(ref, config.resample)
    signal = ref._results[("color signal", "gcm")]
    yuv = ref._results[("yuv 0-255",)]
    assert isinstance(signal, SignalAttribute) and yuv.shape == (ref.count, 3)
    for array in (keypoints.indices, keypoints.scores, signal.values, yuv):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0
    # The stimulus keeps its tree and its box, as before, and nothing new.
    assert set(dist._results) == {("spatial index",), ("box",)}
