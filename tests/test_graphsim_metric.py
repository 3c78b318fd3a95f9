import importlib

import numpy as np
import pytest

from pcqa import (
    DistortionSpec,
    GraphSimConfig,
    PointCloud,
    ResampleConfig,
    apply_distortion,
    bounding_box,
    build_local_graph_pair,
    estimate_normals,
    graphsim,
)
from pcqa.errors import DomainError
from pcqa.graphsim import _signals, score_graph
from pcqa.jsonutil import canonical_dumps

from helpers import pair_table, random_cloud, smooth_cloud


@pytest.mark.parametrize("seed,n", [(0, 800), (1, 2000), (2, 5000)])
def test_identity_scores_one(seed, n):
    cloud = random_cloud(n, seed=seed)
    result = graphsim(cloud, cloud)
    assert result.quality == pytest.approx(1.0, abs=1e-9)
    assert result.empty_graphs == 0


def test_identity_all_pooling_presets():
    cloud = random_cloud(1200, seed=3)
    for preset in ("c1", "c2", "c3", "c4"):
        config = GraphSimConfig(pooling=preset)
        assert graphsim(cloud, cloud, config).quality == pytest.approx(1.0, abs=1e-9)


def test_scores_stay_in_unit_interval():
    ref = smooth_cloud(1500, seed=4)
    for level in (0.02, 0.1, 0.3):
        noisy = apply_distortion(ref, DistortionSpec(kind="cn", level=level, seed=1))
        q = graphsim(ref, noisy).quality
        assert 0.0 <= q <= 1.0


def test_more_noise_scores_lower():
    ref = smooth_cloud(2000, seed=5)
    mild = apply_distortion(ref, DistortionSpec(kind="ggn", level=0.004, seed=2))
    harsh = apply_distortion(ref, DistortionSpec(kind="ggn", level=0.03, seed=2))
    config = GraphSimConfig(resample=ResampleConfig(count=32))
    q_mild = graphsim(ref, mild, config).quality
    q_harsh = graphsim(ref, harsh, config).quality
    assert q_harsh < q_mild < 1.0


def test_color_spaces_give_valid_scores():
    ref = smooth_cloud(1200, seed=6)
    noisy = apply_distortion(ref, DistortionSpec(kind="cn", level=0.1, seed=3))
    for space in ("gcm", "yuv", "rgb"):
        config = GraphSimConfig(color_space=space)
        q = graphsim(ref, noisy, config).quality
        assert 0.0 <= q <= 1.0


def test_deterministic_reports():
    ref = smooth_cloud(1000, seed=7)
    noisy = apply_distortion(ref, DistortionSpec(kind="ggn", level=0.01, seed=4))
    config = GraphSimConfig(resample=ResampleConfig(count=16, seed=11))
    a = graphsim(ref, noisy, config).to_report(config)
    b = graphsim(ref, noisy, config).to_report(config)
    assert canonical_dumps(a) == canonical_dumps(b)


def test_random_resampling_records_unit_scores():
    ref = random_cloud(900, seed=8)
    config = GraphSimConfig(resample=ResampleConfig(count=10, method="random"))
    result = graphsim(ref, ref, config)
    assert np.all(result.keypoints.scores == 1.0)
    assert result.quality == pytest.approx(1.0, abs=1e-9)


def test_coordinate_signal_works_without_colors():
    ref = random_cloud(900, seed=9, colored=False)
    noisy = PointCloud(
        positions=ref.positions + np.random.default_rng(5).normal(0, 0.01, (900, 3))
    )
    config = GraphSimConfig(signal_kind="coordinate")
    assert graphsim(ref, ref, config).quality == pytest.approx(1.0, abs=1e-9)
    assert graphsim(ref, noisy, config).quality < 1.0


@pytest.mark.parametrize("signal_kind", ["color", "mixed"])
def test_colorless_pair_fails_before_the_filter(monkeypatch, signal_kind):
    # Colours are decomposed after the keypoint stage; their check is not.
    def no_filter(*args):
        raise AssertionError("the keypoint filter ran")

    monkeypatch.setattr(importlib.import_module("pcqa.resample"), "_filtered_norms", no_filter)
    colored, plain = random_cloud(300, seed=9), random_cloud(300, seed=9, colored=False)
    for ref, dist in ((colored, plain), (plain, colored)):
        with pytest.raises(DomainError, match="no colors"):
            graphsim(ref, dist, GraphSimConfig(signal_kind=signal_kind))


def test_normal_signal_estimates_when_missing():
    ref = random_cloud(600, seed=10, colored=False)
    config = GraphSimConfig(signal_kind="normal", resample=ResampleConfig(count=8))
    assert graphsim(ref, ref, config).quality == pytest.approx(1.0, abs=1e-9)


def test_mixed_signals_average_per_kind_scores():
    ref = smooth_cloud(1200, seed=11)
    noisy = apply_distortion(ref, DistortionSpec(kind="ggn", level=0.01, seed=6))
    keypoints = np.arange(0, 1200, 100)

    mixed = graphsim(ref, noisy, GraphSimConfig(signal_kind="mixed"), keypoints=keypoints)
    labels = set(mixed.per_channel_means)
    assert any(lbl.startswith("color:") for lbl in labels)
    assert any(lbl.startswith("coordinate:") for lbl in labels)
    assert 0.0 <= mixed.quality <= 1.0


def test_report_carries_config_and_counts():
    ref = random_cloud(700, seed=12)
    config = GraphSimConfig(resample=ResampleConfig(count=6))
    result = graphsim(ref, ref, config)
    report = result.to_report(config)
    assert report["config"]["signal_kind"] == ["color"]
    assert len(report["per_graph"]) == len(report["graph_keypoints"])
    assert report["quality"] == result.quality


def test_per_channel_means_skip_empty_graphs():
    # The distorted cloud covers only half the reference, so keypoints on
    # the other half have empty distorted-side graphs.
    ref = smooth_cloud(1500, seed=14)
    noisy = apply_distortion(ref, DistortionSpec(kind="ggn", level=0.01, seed=7))
    half = noisy.positions[:, 0] < 5.0
    dist = PointCloud(positions=noisy.positions[half], colors=noisy.colors[half])
    config = GraphSimConfig(signal_kind=("color", "coordinate"))
    keypoints = np.arange(0, 1500, 60)
    result = graphsim(ref, dist, config, keypoints=keypoints)
    assert 0 < result.empty_graphs < len(result.per_graph)

    radius = config.neighborhood_fraction * bounding_box(ref).min_extent
    signals = list(zip(_signals(ref, config, ref), _signals(dist, config, dist)))
    assert [(rs.kind, ds.kind) for rs, ds in signals] == [("color", "color"),
                                                          ("coordinate", "coordinate")]
    pairs = [build_local_graph_pair(int(center), ref, dist, config, radius=radius)
             for center in keypoints]
    pairs = [pair for pair in pairs if pair.ref.size > 0 and pair.dist.size > 0]
    values = {}
    for rs, ds in signals:  # channel weights touch only the pooled score
        gs = score_graph(pair_table(pairs), rs, ds, ("multiply", "weighted-average"), np.ones(3))
        for label, column in zip(rs.labels, gs.per_channel.T):
            values[f"{rs.kind}:{label}"] = list(column)
    assert len(next(iter(values.values()))) == len(result.per_graph) - result.empty_graphs
    assert result.per_channel_means.keys() == values.keys()
    for label, per_graph in values.items():
        assert result.per_channel_means[label] == pytest.approx(np.mean(per_graph), rel=1e-12)


@pytest.mark.parametrize("keypoints, message", [
    ([3, 300], "keypoint index 300 is outside \\[0, 300\\)"),
    ([-1, 4], "keypoint index -1 is outside \\[0, 300\\)"),
    ([2.0, 1.7, 0.5], "keypoint index 1.7 is not a whole number"),
    ([float("nan")], "keypoint index nan is not a whole number"),
    ([], "keypoint set is empty"),
])
def test_bad_keypoint_indices_are_named(keypoints, message):
    ref = random_cloud(300, seed=2)
    with pytest.raises(DomainError, match=message):
        graphsim(ref, ref, keypoints=keypoints)


def test_whole_float_keypoints_score_as_integers():
    ref = random_cloud(300, seed=2)
    dist = random_cloud(300, seed=3)
    as_floats = graphsim(ref, dist, keypoints=[3.0, 40.0])
    assert as_floats.quality == graphsim(ref, dist, keypoints=[3, 40]).quality


def _kept_clusters(cloud):
    """The reference clusters graphsim keeps on a cloud, by cache key."""
    return {key: value for key, value in cloud.__dict__.get("_results", {}).items()
            if key[0] == "graphsim cluster"}


def test_kept_reference_clusters_are_keyed_and_isolated():
    ref = smooth_cloud(3000, seed=15)
    stimuli = [apply_distortion(ref, DistortionSpec("ggn", 0.01, seed=1)),
               apply_distortion(ref, DistortionSpec("cn", 0.1, seed=2))]
    explicit = np.array([2900, 15, 1200, 640, 2222, 7, 1801])
    calls = [(GraphSimConfig(neighborhood_fraction=fraction,
                             resample=ResampleConfig(count=9, seed=seed)), None)
             for seed in (0, 1) for fraction in (0.08, 0.15)]
    calls += [(GraphSimConfig(), explicit), (GraphSimConfig(), explicit[::-1])]
    keys = set()
    for _ in range(2):  # the second round reads every kept entry
        for stim in stimuli:
            for config, keypoints in calls:
                result = graphsim(ref, stim, config, keypoints=keypoints)
                fresh = PointCloud(positions=ref.positions, colors=ref.colors)
                assert result.to_report() == \
                    graphsim(fresh, stim, config, keypoints=keypoints).to_report()
                radius = config.neighborhood_fraction * bounding_box(ref).min_extent
                keys |= {("graphsim cluster", radius, int(i)) for i in result.keypoints.indices}
    kept = _kept_clusters(ref)
    assert set(kept) == keys  # one entry per (radius, keypoint), shared by the stimuli
    assert all(not a.flags.writeable for arrays in kept.values() for a in arrays)
    assert all(idx.dtype == np.int32 for idx, _ in kept.values())
    assert not any(_kept_clusters(stim) for stim in stimuli)


def test_the_per_pair_reference_path_keeps_no_cluster():
    # The batched build's kept clusters are checked against this path, so it
    # queries both sides afresh and writes no entry of its own.
    ref, dist = random_cloud(400, seed=18), random_cloud(400, seed=19)
    assert build_local_graph_pair(5, ref, dist).ref_cluster_size > 0
    assert set(ref._results) == {("box",), ("spatial index",)}
    assert set(dist._results) == {("spatial index",)}


def test_a_call_that_fails_before_the_keypoint_loop_keeps_nothing():
    ref = random_cloud(400, seed=16)
    with pytest.raises(DomainError, match="no colors"):
        graphsim(ref, random_cloud(400, seed=17, colored=False))
    with pytest.raises(DomainError, match="outside"):
        graphsim(ref, ref, keypoints=[3, 400])
    assert not _kept_clusters(ref)


def test_a_pair_compares_normals_of_one_kind():
    # Stored normals are oriented and PCA estimates sign-fixed into +z, so stored
    # ones are read only when both clouds store them, else both are estimated.
    positions = smooth_cloud(2000, seed=21).positions
    estimate = estimate_normals(PointCloud(positions=positions), 12)[0]
    ref = PointCloud(positions=positions, normals=-estimate)
    config = GraphSimConfig(signal_kind="normal", resample=ResampleConfig(count=16))
    # Against its positions without normals it compares two estimates (0.32 when
    # its stored normals met the copy's estimate), the copy taking the reference's.
    copy = PointCloud(positions=positions.copy())
    assert graphsim(ref, copy, config).quality == pytest.approx(1.0, abs=1e-12)
    assert "_results" not in copy.__dict__
    flipped = PointCloud(positions=positions.copy(), normals=estimate)
    assert graphsim(ref, flipped, config).quality < 0.9  # both stored: both read
    # Off the reference's geometry, a stored side alone changes nothing.
    noisy = apply_distortion(PointCloud(positions=positions), DistortionSpec("ggn", 0.004, 1))
    plain = PointCloud(positions=positions.copy())
    stored = PointCloud(positions=noisy.positions, normals=estimate)
    assert graphsim(ref, noisy, config).to_report() == graphsim(plain, noisy, config).to_report()
    assert graphsim(plain, stored, config).to_report() == \
        graphsim(plain, noisy, config).to_report()
