"""Property tests for the invariances the graph-similarity metric claims.

Clouds are small (at most 400 points) and keypoints are fixed, so the
resampling stage is bypassed and every example runs in milliseconds. The
hypothesis profile loaded in conftest.py derandomizes the examples.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcqa import (
    KINDS,
    LEVEL_PRESETS,
    DistortionSpec,
    GraphSimConfig,
    PointCloud,
    apply_distortion,
    frequency_scores,
    graphsim,
)
from pcqa.graphsim import POOLING_PRESETS

from helpers import smooth_cloud

SIGNALS = ("color", "coordinate", "mixed")

seeds = st.integers(min_value=0, max_value=2**32 - 1)
sizes = st.integers(min_value=150, max_value=400)
matching_ks = st.integers(min_value=1, max_value=60)


def fixed_keypoints(n, seed, count=16):
    return np.random.default_rng(seed).choice(n, size=count, replace=False)


def config_for(preset, signal, matching_k):
    # A quarter of the smallest extent keeps about 10-25 neighbours per
    # keypoint in these uniform boxes, so most graphs are scored.
    return GraphSimConfig.with_pooling_preset(
        preset, signal_kind=signal, matching_k=matching_k,
        neighborhood_fraction=0.25,
    )


@pytest.mark.parametrize("signal", SIGNALS)
@pytest.mark.parametrize("preset", sorted(POOLING_PRESETS))
@settings(max_examples=10)
@given(seed=seeds, n=sizes, matching_k=matching_ks)
def test_identity_scores_one(preset, signal, seed, n, matching_k):
    cloud = smooth_cloud(n, seed=seed)
    result = graphsim(cloud, cloud, config_for(preset, signal, matching_k),
                      keypoints=fixed_keypoints(n, seed))
    assert result.quality == pytest.approx(1.0, abs=1e-12)
    assert result.empty_graphs == 0


@pytest.mark.parametrize("preset", sorted(POOLING_PRESETS))
@settings(max_examples=15)
@given(seed=seeds, n=sizes, matching_k=matching_ks,
       signal=st.sampled_from(SIGNALS), kind=st.sampled_from(KINDS),
       level=st.integers(min_value=0, max_value=5))
def test_noisy_pair_scores_in_unit_interval(preset, seed, n, matching_k, signal,
                                            kind, level):
    ref = smooth_cloud(n, seed=seed)
    spec = DistortionSpec(kind=kind, level=LEVEL_PRESETS[kind][level], seed=seed)
    dist = apply_distortion(ref, spec)
    result = graphsim(ref, dist, config_for(preset, signal, matching_k),
                      keypoints=fixed_keypoints(n, seed))
    assert 0.0 <= result.quality <= 1.0


@settings(max_examples=25)
@given(seed=seeds, n=sizes, matching_k=matching_ks,
       preset=st.sampled_from(sorted(POOLING_PRESETS)),
       k=st.integers(min_value=-8, max_value=8))
def test_power_of_two_scale_leaves_color_quality_unchanged(seed, n, matching_k,
                                                           preset, k):
    # Scaling by 2**k is exact in binary floating point, so every radius,
    # cutoff and distance tie scales exactly and the weights do not move.
    ref = smooth_cloud(n, seed=seed)
    dist = apply_distortion(ref, DistortionSpec(kind="ggn", level=0.008, seed=seed))
    config = config_for(preset, "color", matching_k)
    keypoints = fixed_keypoints(n, seed)

    def scaled(cloud):
        return PointCloud(positions=cloud.positions * 2.0**k, colors=cloud.colors)

    base = graphsim(ref, dist, config, keypoints=keypoints)
    result = graphsim(scaled(ref), scaled(dist), config, keypoints=keypoints)
    assert result.quality == pytest.approx(base.quality, abs=1e-12)
    assert result.empty_graphs == base.empty_graphs
    assert result.skipped_keypoints == base.skipped_keypoints


@pytest.mark.parametrize("factor", [3.0, 0.1])
@settings(max_examples=15)
@given(seed=seeds, n=sizes, matching_k=matching_ks,
       preset=st.sampled_from(sorted(POOLING_PRESETS)))
def test_other_scales_move_color_quality_by_roundoff_only(factor, seed, n, matching_k,
                                                          preset):
    # A factor that is not a power of two rounds every scaled coordinate, so
    # distances and weights move by a few ulps. Over 300 random configurations
    # per factor the worst |dq| was 2.5 eps and the worst score deviation
    # 35 eps of the largest score; the bounds below leave six times that.
    ref = smooth_cloud(n, seed=seed)
    dist = apply_distortion(ref, DistortionSpec(kind="ggn", level=0.008, seed=seed))
    config = config_for(preset, "color", matching_k)
    keypoints = fixed_keypoints(n, seed)

    def scaled(cloud):
        return PointCloud(positions=cloud.positions * factor, colors=cloud.colors)

    eps = np.finfo(np.float64).eps
    big = scaled(ref)
    base = graphsim(ref, dist, config, keypoints=keypoints)
    result = graphsim(big, scaled(dist), config, keypoints=keypoints)
    assert result.quality == pytest.approx(base.quality, rel=0, abs=16 * eps)
    assert result.empty_graphs == base.empty_graphs
    assert result.skipped_keypoints == base.skipped_keypoints

    # The keypoint scores scale linearly, read from each cloud's cache.
    scores = frequency_scores(ref)
    scaled_scores = frequency_scores(big)
    assert frequency_scores(big) is scaled_scores
    assert np.abs(scaled_scores - factor * scores).max() <= 256 * eps * factor * scores.max()


@pytest.mark.parametrize("signal", SIGNALS)
@pytest.mark.parametrize("preset", sorted(POOLING_PRESETS))
@settings(max_examples=6)
@given(seed=seeds, n=sizes, matching_k=matching_ks,
       kind=st.sampled_from(("cn", "ggn", "ds")),
       level=st.integers(min_value=0, max_value=5))
def test_distorted_point_order_leaves_quality_bit_identical(preset, signal, seed, n,
                                                            matching_k, kind, level):
    # Continuous coordinates leave no distance ties, and every query orders
    # its results by (distance, index), so each graph sees the same points
    # in the same order whatever the storage order of the distorted cloud.
    # (The lattice kind "ot" creates ties and is left out.)
    ref = smooth_cloud(n, seed=seed)
    spec = DistortionSpec(kind=kind, level=LEVEL_PRESETS[kind][level], seed=seed)
    dist = apply_distortion(ref, spec)
    order = np.random.default_rng(seed).permutation(dist.count)
    shuffled = PointCloud(positions=dist.positions[order], colors=dist.colors[order])
    config = config_for(preset, signal, matching_k)
    keypoints = fixed_keypoints(n, seed)

    base = graphsim(ref, dist, config, keypoints=keypoints)
    result = graphsim(ref, shuffled, config, keypoints=keypoints)
    assert result.quality == base.quality
    assert np.array_equal(result.per_graph, base.per_graph)
    assert result.per_channel_means == base.per_channel_means
    assert result.empty_graphs == base.empty_graphs
    assert result.skipped_keypoints == base.skipped_keypoints


@settings(max_examples=30)
@given(seed=seeds, n=sizes, matching_k=matching_ks,
       preset=st.sampled_from(sorted(POOLING_PRESETS)),
       signal=st.sampled_from(SIGNALS),
       direction=st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(
           lambda v: np.linalg.norm(v) > 1e-3),
       log_shift=st.floats(min_value=-3.0, max_value=5.0))
def test_rigid_translation_leaves_quality_unchanged(seed, n, matching_k, preset, signal,
                                                    direction, log_shift):
    # Every feature is built from coordinate differences, so a common shift t
    # moves the quality only by the roundoff of the shifted coordinates:
    # about eps * |t| / extent. 64 eps per unit of that ratio is six times
    # the worst case seen over 300 random configurations up to |t| = 1e6 x extent.
    ref = smooth_cloud(n, seed=seed)
    dist = apply_distortion(ref, DistortionSpec(kind="ggn", level=0.008, seed=seed))
    config = config_for(preset, signal, matching_k)
    keypoints = fixed_keypoints(n, seed)
    extent = float(np.ptp(ref.positions, axis=0).max())
    shift = np.asarray(direction) / np.linalg.norm(direction) * extent * 10.0**log_shift

    def moved(cloud):
        return PointCloud(positions=cloud.positions + shift, colors=cloud.colors)

    base = graphsim(ref, dist, config, keypoints=keypoints)
    result = graphsim(moved(ref), moved(dist), config, keypoints=keypoints)
    tolerance = 64 * np.finfo(np.float64).eps * (1.0 + 10.0**log_shift)
    assert result.quality == pytest.approx(base.quality, rel=0, abs=tolerance)
    assert result.empty_graphs == base.empty_graphs
    assert result.skipped_keypoints == base.skipped_keypoints
