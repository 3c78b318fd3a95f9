import math

import numpy as np
import pytest

from pcqa import (
    DomainError,
    GraphSimConfig,
    PointCloud,
    POOLING_PRESETS,
    SignalAttribute,
    WeightedNeighborhood,
    build_local_graph_pair,
    graphsim,
)
from pcqa.graphsim import (
    covariance,
    gradient_moments,
    match_and_align,
    score_graph,
)
from pcqa.colorspace import CHANNEL_WEIGHTS

from helpers import pair_table, planar_cloud, random_cloud
from oracles import local_graph_oracle


def ring(n, radius=1.0, intensities=None):
    """Unit-weight star graph: center index 0 at the origin, n neighbors
    evenly spaced on a circle. Index i+1 in the value array is neighbor i."""
    angles = np.linspace(0, 2 * np.pi, n, endpoint=False)
    positions = np.column_stack([np.cos(angles), np.sin(angles), np.zeros(n)]) * radius
    nbhd = WeightedNeighborhood(
        center_index=0,
        indices=np.arange(1, n + 1),
        positions=positions,
        distances=np.full(n, radius),
        weights=np.ones(n),
    )
    values = np.zeros(n + 1)
    if intensities is not None:
        values[1:] = intensities
    return nbhd, SignalAttribute(values, kind="color")


def test_mass_halves_when_half_the_neighbors_vanish():
    intensities = np.array([2.0, -1.0, 3.0, 0.5, 2.0, -1.0, 3.0, 0.5])
    full, signal = ring(8, intensities=intensities)
    moments_full = gradient_moments(full, signal, np.arange(8))

    half = WeightedNeighborhood(
        center_index=0,
        indices=full.indices[:4],
        positions=full.positions[:4],
        distances=full.distances[:4],
        weights=full.weights[:4],
    )
    moments_half = gradient_moments(half, signal, np.arange(4))
    # The kept half repeats the removed half's intensities, so the total
    # gradient mass drops by exactly one half.
    assert moments_half.mass == 0.5 * moments_full.mass


def test_duplication_doubles_mass_and_keeps_mean():
    intensities = np.array([1.0, 4.0, -2.0, 0.25])
    base, signal = ring(4, intensities=intensities)
    moments = gradient_moments(base, signal, np.arange(4))

    doubled_nbhd, doubled_signal = ring(8, intensities=np.repeat(intensities, 2))
    moments2 = gradient_moments(doubled_nbhd, doubled_signal, np.arange(8))
    assert moments2.mass == 2.0 * moments.mass
    assert moments2.mean == moments.mean


def test_rotation_preserves_mass_and_mean():
    intensities = np.array([1.0, 4.0, -2.0, 0.25, 5.0, 1.5])
    base, signal = ring(6, intensities=intensities)
    moments = gradient_moments(base, signal, np.arange(6))

    theta = 0.7
    rot = np.array([
        [math.cos(theta), -math.sin(theta), 0.0],
        [math.sin(theta), math.cos(theta), 0.0],
        [0.0, 0.0, 1.0],
    ])
    rotated = WeightedNeighborhood(
        center_index=0,
        indices=base.indices,
        positions=base.positions @ rot.T,
        distances=base.distances,
        weights=base.weights,
    )
    moments_rot = gradient_moments(rotated, signal, np.arange(6))
    assert np.array_equal(moments_rot.mass, moments.mass)
    assert np.array_equal(moments_rot.mean, moments.mean)
    assert np.array_equal(moments_rot.variance, moments.variance)


def test_moments_respect_matched_subset():
    intensities = np.array([2.0, 2.0, 8.0, 8.0])
    nbhd, signal = ring(4, intensities=intensities)
    moments = gradient_moments(nbhd, signal, np.array([0, 1]))
    # Mass covers all four neighbors, mean only the matched pair.
    assert moments.mass == pytest.approx(2 + 2 + 8 + 8)
    assert moments.mean == pytest.approx(2.0)
    assert moments.variance == pytest.approx(0.0)


def test_empty_matched_set_rejected():
    nbhd, signal = ring(3, intensities=np.ones(3))
    with pytest.raises(DomainError):
        gradient_moments(nbhd, signal, np.array([], dtype=int))


def test_covariance_matches_textbook_form():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(40, 3))
    b = rng.normal(size=(40, 3))
    got = covariance(a, b)
    expected = [
        np.mean((a[:, c] - a[:, c].mean()) * (b[:, c] - b[:, c].mean()))
        for c in range(3)
    ]
    assert np.allclose(got, expected, rtol=1e-12)
    # Self-covariance is exactly the population variance.
    assert np.allclose(covariance(a, a), a.var(axis=0), rtol=1e-12)


def test_covariance_shape_mismatch():
    with pytest.raises(ValueError):
        covariance(np.ones((3, 1)), np.ones((4, 1)))


def test_covariance_of_1d_sequences_is_the_one_column_result():
    rng = np.random.default_rng(3)
    a, b = rng.normal(size=25), rng.normal(size=25)
    got = covariance(a, b)
    assert got.shape == (1,)
    assert np.array_equal(got, covariance(a[:, None], b[:, None]))


def test_match_and_align_refuses_an_empty_side():
    # The keypoint's stimulus cluster is empty: nothing lies within the radius.
    ref = PointCloud(positions=[[0, 0, 0], [1, 0, 0], [2, 0, 0]])
    dist = PointCloud(positions=[[9, 0, 0]])
    pair, _ = make_pair(ref, dist, 0, radius=2.5)
    assert pair.ref.size == 2 and pair.dist.size == 0
    with pytest.raises(DomainError, match="cannot match an empty neighborhood"):
        match_and_align(pair)


def make_pair(ref, dist, center, radius=None, **config_kwargs):
    config = GraphSimConfig(**config_kwargs)
    return build_local_graph_pair(center, ref, dist, config, radius=radius), config


def test_identical_clouds_build_identical_sides():
    cloud = random_cloud(500, seed=1)
    pair, _ = make_pair(cloud, cloud, 42)
    assert pair.ref.size == pair.dist.size > 0
    assert np.array_equal(pair.ref.indices, pair.dist.indices)
    assert np.array_equal(pair.ref.weights, pair.dist.weights)


def test_center_duplicates_are_excluded_from_both_sides():
    positions = np.vstack([
        np.zeros((2, 3)),                       # keypoint and an exact twin
        np.array([[0.05, 0, 0], [0, 0.08, 0]]),  # near neighbors
        np.random.default_rng(2).uniform(3, 4, (30, 3)),
    ])
    cloud = PointCloud(positions=positions)
    pair, _ = make_pair(cloud, cloud, 0, neighborhood_fraction=0.1)
    assert 1 not in pair.ref.indices
    assert 1 not in pair.dist.indices
    assert 0 not in pair.ref.indices


def test_cutoff_union_takes_kth_pooled_distance():
    # Reference neighbors at 1 and 2; distorted neighbors at 1.5 and 3.
    ref = PointCloud(positions=[[0, 0, 0], [1, 0, 0], [2, 0, 0]])
    dist = PointCloud(positions=[[1.5, 0, 0], [3, 0, 0]])
    pair, _ = make_pair(ref, dist, 0, radius=4.0, matching_k=3)
    # Pooled distances {1, 1.5, 2, 3}; 3rd smallest = 2.
    assert pair.params.cutoff == 2.0
    assert pair.ref.size == 2 and pair.dist.size == 1


def test_cutoff_per_side_takes_worse_side():
    ref = PointCloud(positions=[[0, 0, 0], [1, 0, 0], [2, 0, 0]])
    dist = PointCloud(positions=[[1.5, 0, 0], [3, 0, 0]])
    pair, _ = make_pair(ref, dist, 0, radius=4.0, matching_k=2, tau_scope="per-side")
    # Sides give 2nd-smallest 2.0 (ref) and 3.0 (dist); the larger wins.
    assert pair.params.cutoff == 3.0


def test_flat_cloud_radius_degenerates_loudly():
    # A strictly planar cloud has a zero smallest box extent, so the derived
    # cluster radius is zero: after the keypoint stage, the graph build refuses it
    # by that cause rather than by "no scorable keypoint graphs".
    rng = np.random.default_rng(21)
    flat = np.column_stack([rng.uniform(0, 5, (80, 2)), np.zeros(80)])
    ref = PointCloud(positions=flat, colors=rng.integers(0, 256, (80, 3)).astype(float))
    plane = PointCloud(positions=planar_cloud(2000).positions,
                       colors=rng.integers(0, 256, (2000, 3)).astype(float))
    for cloud, keypoints in ((ref, np.array([0, 1, 2])), (plane, None)):
        for signal in ("color", "coordinate"):
            with pytest.raises(DomainError, match="^smallest reference bounding-box extent "
                                                  "is 0, so the cluster radius is 0$"):
                graphsim(cloud, cloud, GraphSimConfig(signal_kind=signal), keypoints=keypoints)


def test_radius_that_squares_to_zero_is_refused_by_name():
    # A cloud 0.001 across at neighborhood_fraction=1e-320: the radius, ~1e-323, is above
    # 0 but its square is not, so without the check every cluster comes back empty and
    # the call fails as "no scorable keypoint graphs". Both graph builds apply the rule.
    rng = np.random.default_rng(22)
    cloud = PointCloud(positions=rng.uniform(0, 0.001, (300, 3)),
                       colors=rng.integers(0, 256, (300, 3)).astype(float))
    config = GraphSimConfig(neighborhood_fraction=1e-320)
    message = (r"^cluster radius 1e-323 squares to 0: neighborhood_fraction 1e-320 times the "
               r"smallest reference bounding-box extent 0\.000\d+$")
    with pytest.raises(DomainError, match=message):
        graphsim(cloud, cloud, config)
    with pytest.raises(DomainError, match=message):
        build_local_graph_pair(0, cloud, cloud, config)
    flat = PointCloud(positions=planar_cloud(50).positions)
    with pytest.raises(DomainError, match="^smallest reference bounding-box extent is 0"):
        build_local_graph_pair(0, flat, flat)


def test_variance_is_half_squared_cutoff():
    cloud = random_cloud(300, seed=3)
    pair, _ = make_pair(cloud, cloud, 7)
    assert pair.params.variance == pytest.approx(pair.params.cutoff ** 2 / 2.0, rel=0)


def test_match_smaller_side_is_baseline():
    ref = PointCloud(positions=[[0, 0, 0], [1, 0, 0], [1.1, 0, 0]])
    dist = PointCloud(positions=[[0.9, 0, 0]])
    pair, _ = make_pair(ref, dist, 0, radius=2.0)
    ref_order, dist_order = match_and_align(pair)
    # dist side has one in-radius point; it anchors the matching.
    assert len(ref_order) == len(dist_order) == 1
    assert pair.dist.size == 1
    assert pair.ref.indices[ref_order[0]] == 1  # 0.9 is nearest to 1.0


def test_match_ties_choose_earlier_neighbor():
    ref = PointCloud(positions=[[0, 0, 0], [1, 0, 0]])
    # Two distorted points equidistant from ref neighbor (1,0,0).
    dist = PointCloud(positions=[[0.5, 0, 0], [1.5, 0, 0]])
    pair, _ = make_pair(ref, dist, 0, radius=2.0)
    ref_order, dist_order = match_and_align(pair)
    assert len(ref_order) == 1
    assert dist_order[0] == 0  # earlier of the two tied candidates


def test_pipeline_matches_loop_oracle_channelwise():
    from pcqa.cloud import bounding_box
    from pcqa.colorspace import decompose

    ref = random_cloud(220, seed=4)
    dist = random_cloud(220, seed=5)
    config = GraphSimConfig(matching_k=10, neighborhood_fraction=0.2)
    radius = 0.2 * bounding_box(ref).min_extent
    ref_signal = decompose(ref, config.color_space)
    dist_signal = decompose(dist, config.color_space)
    pooling = POOLING_PRESETS[config.pooling]

    checked = 0
    for center in (3, 50, 101):
        oracle = local_graph_oracle(
            ref.positions, dist.positions,
            ref_signal.values, dist_signal.values,
            center, radius, matching_k=10,
        )
        if oracle is None or oracle["score"] is None:
            continue
        pair = build_local_graph_pair(center, ref, dist, config)
        assert np.allclose(pair.ref.weights, oracle["ref_weights"], rtol=1e-10)
        assert np.allclose(pair.dist.weights, oracle["dist_weights"], rtol=1e-10)
        gs = score_graph(pair_table([pair]), ref_signal, dist_signal, pooling, np.ones(3))
        sims = oracle["similarities"]
        assert np.allclose(gs.sim_mass[0], sims[:, 0], rtol=1e-10)
        assert np.allclose(gs.sim_mean[0], sims[:, 1], rtol=1e-10)
        assert np.allclose(gs.sim_cov[0], sims[:, 2], rtol=1e-10)
        checked += 1
    assert checked >= 2


def test_identical_pair_scores_one():
    cloud = random_cloud(400, seed=6)
    config = GraphSimConfig()
    pair, _ = make_pair(cloud, cloud, 11)
    from pcqa.colorspace import decompose

    signal = decompose(cloud, config.color_space)
    gs = score_graph(pair_table([pair]), signal, signal, POOLING_PRESETS[config.pooling],
                     np.asarray(CHANNEL_WEIGHTS[config.color_space]))
    assert gs.per_channel.shape == (1, 3) and gs.pooled.shape == (1,)
    assert np.allclose(gs.per_channel, 1.0, atol=1e-12)
    assert gs.pooled[0] == pytest.approx(1.0, abs=1e-12)


def test_pooling_presets_cover_the_grid():
    assert POOLING_PRESETS == {
        "c1": ("average", "weighted-average"),
        "c2": ("multiply", "weighted-average"),
        "c3": ("average", "multiply"),
        "c4": ("multiply", "multiply"),
    }
    config = GraphSimConfig(pooling="c3").to_dict()
    assert (config["feature_pooling"], config["channel_pooling"]) == ("average", "multiply")
    several = GraphSimConfig(pooling="c4", signal_kind=("color", "normal"))
    assert several.pooling_rules == ("multiply", "weighted-average")
    assert GraphSimConfig().pooling == "c2"
    with pytest.raises(DomainError, match="unknown pooling preset 'c9'"):
        GraphSimConfig(pooling="c9")


@pytest.mark.parametrize("field", ["color_space", "pooling", "tau_scope"])
@pytest.mark.parametrize("value", [["c2"], ("gcm",), {"union": 1}, 2, None])
def test_config_refuses_a_choice_that_is_not_a_string(field, value):
    # Every choice set holds strings, and a dict (the pooling presets) cannot be
    # searched for an unhashable value: any value but a listed str is unknown.
    with pytest.raises(DomainError, match="^unknown "):
        GraphSimConfig(**{field: value})


def test_config_validation():
    with pytest.raises(DomainError):
        GraphSimConfig(neighborhood_fraction=0.0)
    with pytest.raises(DomainError):
        GraphSimConfig(matching_k=0)
    with pytest.raises(DomainError):
        GraphSimConfig(normals_k=0)
    with pytest.raises(DomainError):
        GraphSimConfig(signal_kind="texture")
    with pytest.raises(DomainError):
        GraphSimConfig(tau_scope="global")


@pytest.mark.parametrize("field", ["neighborhood_fraction"])
def test_config_rejects_non_finite_values(field):
    # NaN would make the quality NaN; an infinite radius makes every cluster the whole cloud.
    for value in (float("nan"), float("inf")):
        with pytest.raises(DomainError, match=f"{field} must be positive and finite"):
            GraphSimConfig(**{field: value})


@pytest.mark.parametrize("kinds", [(), []])
def test_config_rejects_an_empty_signal_list(kinds):
    # Caught here, not as an IndexError once the keypoint filter has run.
    with pytest.raises(DomainError, match="signal_kind must name at least one signal kind"):
        GraphSimConfig(signal_kind=kinds)


@pytest.mark.parametrize("kinds", [("color", "color"), ("normal", "color", "normal"),
                                   ["coordinate", "coordinate"]])
def test_config_rejects_a_kind_listed_twice(kinds):
    # One signal per cloud and kind: a repeat would count its kind twice in the pooled score.
    with pytest.raises(DomainError, match=f"signal kind '{kinds[-1]}' is listed twice"):
        GraphSimConfig(signal_kind=kinds)


@pytest.mark.parametrize("field", ["matching_k", "normals_k"])
@pytest.mark.parametrize("value", [2.5, 3.0, "3"])
def test_config_rejects_non_integral_neighbour_counts(field, value):
    with pytest.raises(DomainError, match=f"{field} must be an integer, got {value!r}"):
        GraphSimConfig(**{field: value})
    assert GraphSimConfig(**{field: np.int64(3)}).to_dict()[field] == 3


def test_mixed_alias_expands_to_color_and_coordinate():
    assert GraphSimConfig(signal_kind="mixed").signal_kinds == ("color", "coordinate")
    assert GraphSimConfig(signal_kind=("mixed",)).signal_kinds == ("color", "coordinate")
    assert GraphSimConfig(signal_kind=("normal",)).signal_kinds == ("normal",)


def test_far_distorted_cloud_scores_zero_graphs():
    ref = random_cloud(1500, seed=7)
    far = PointCloud(positions=ref.positions + 1000.0, colors=ref.colors)
    from pcqa import ResampleConfig

    result = graphsim(ref, far, GraphSimConfig(resample=ResampleConfig(count=5)))
    # Every keypoint whose reference cluster is populated must score 0.
    assert result.empty_graphs == 5 - result.skipped_keypoints
    assert result.empty_graphs > 0
    assert result.quality == 0.0


def test_isolated_keypoints_are_skipped():
    # Two tight blobs far apart: a keypoint in the small blob has no
    # in-radius neighbors because the radius tracks the full bounding box.
    rng = np.random.default_rng(8)
    blob = rng.normal(0, 0.01, (60, 3))
    lone = np.array([[100.0, 100.0, 100.0]])
    positions = np.vstack([blob, lone])
    colors = rng.integers(0, 256, (61, 3)).astype(float)
    ref = PointCloud(positions=positions, colors=colors)
    result = graphsim(ref, ref, keypoints=np.array([0, 60]))
    assert result.skipped_keypoints == 1
    assert result.quality == pytest.approx(1.0, abs=1e-9)  # surviving identity graph


def test_all_keypoints_skipped_raises():
    rng = np.random.default_rng(9)
    blob = rng.normal(0, 0.001, (40, 3))
    lone = np.array([[50.0, 50.0, 50.0]])
    ref = PointCloud(
        positions=np.vstack([blob, lone]),
        colors=rng.integers(0, 256, (41, 3)).astype(float),
    )
    with pytest.raises(DomainError):
        graphsim(ref, ref, keypoints=np.array([40]))


def test_color_signal_requires_colors():
    ref = random_cloud(100, seed=10, colored=False)
    with pytest.raises(DomainError):
        graphsim(ref, ref)


def test_point_order_of_distorted_cloud_is_irrelevant():
    ref = random_cloud(500, seed=13)
    noisy = PointCloud(
        positions=ref.positions + np.random.default_rng(2).normal(0, 0.02, (500, 3)),
        colors=ref.colors,
    )
    perm = np.random.default_rng(3).permutation(500)
    shuffled = PointCloud(positions=noisy.positions[perm], colors=noisy.colors[perm])
    keypoints = np.arange(0, 500, 50)
    a = graphsim(ref, noisy, keypoints=keypoints)
    b = graphsim(ref, shuffled, keypoints=keypoints)
    assert a.quality == pytest.approx(b.quality, abs=1e-12)


def test_translation_invariance():
    ref = random_cloud(500, seed=14)
    noisy = PointCloud(
        positions=ref.positions + np.random.default_rng(4).normal(0, 0.02, (500, 3)),
        colors=ref.colors,
    )
    offset = np.array([250.0, -125.0, 60.0])
    ref_t = PointCloud(positions=ref.positions + offset, colors=ref.colors)
    noisy_t = PointCloud(positions=noisy.positions + offset, colors=noisy.colors)
    keypoints = np.arange(0, 500, 50)
    a = graphsim(ref, noisy, keypoints=keypoints)
    b = graphsim(ref_t, noisy_t, keypoints=keypoints)
    assert a.quality == pytest.approx(b.quality, abs=1e-9)


def test_constant_color_zeroes_every_moment():
    nbhd, signal = ring(6, intensities=np.full(6, 3.5))
    values = signal.values.copy()
    values[0] = 3.5  # center carries the same constant
    constant = SignalAttribute(values, kind="color")
    moments = gradient_moments(nbhd, constant, np.arange(6))
    assert np.all(moments.mass == 0.0)
    assert np.all(moments.mean == 0.0)
    assert np.all(moments.variance == 0.0)


def test_covariance_of_negated_sequence_is_negative_variance():
    rng = np.random.default_rng(20)
    g = rng.normal(0, 1, (30, 2))
    var = covariance(g, g)
    assert np.allclose(covariance(g, -g + 7.0), -var, rtol=1e-12)


def test_similarity_ratio_when_one_mass_vanishes():
    from pcqa.graphsim import GraphParams, LocalGraphPair

    def side(value_index):
        return WeightedNeighborhood(
            center_index=-1,
            indices=np.array([value_index]),
            positions=np.array([[1.0, 0.0, 0.0]]),
            distances=np.array([1.0]),
            weights=np.array([1.0]),
        )

    pair = LocalGraphPair(
        center_index=0,
        ref=WeightedNeighborhood(
            center_index=0, indices=np.array([1]),
            positions=np.array([[1.0, 0.0, 0.0]]),
            distances=np.array([1.0]), weights=np.array([1.0])),
        dist=side(0),
        params=GraphParams(cutoff=2.0),
        ref_cluster_size=1,
        dist_cluster_size=1,
    )
    ref_signal = SignalAttribute(np.array([0.0, 1.0]), kind="color")
    dist_signal = SignalAttribute(np.array([0.0]), kind="color")
    score = score_graph(pair_table([pair]), ref_signal, dist_signal, POOLING_PRESETS["c2"],
                        np.ones(1))
    # Reference mass 1 against distorted mass 0 under the 1e-3 stabilizer.
    assert score.sim_mass[0, 0] == pytest.approx(0.001 / 1.001, rel=1e-12)
    assert score.sim_mean[0, 0] == pytest.approx(0.001 / 1.001, rel=1e-12)
    assert score.sim_cov[0, 0] == 1.0


def test_doubling_keeps_mean_similarity_but_not_mass():
    intensities = np.array([1.0, 2.0, 1.5, 2.5])
    base, base_signal = ring(4, intensities=intensities)
    doubled_positions = np.repeat(base.positions, 2, axis=0)
    doubled = WeightedNeighborhood(
        center_index=-1,
        indices=np.arange(8),
        positions=doubled_positions,
        distances=np.repeat(base.distances, 2),
        weights=np.repeat(base.weights, 2),
    )
    from pcqa.graphsim import GraphParams, LocalGraphPair
    pair = LocalGraphPair(
        center_index=0, ref=base, dist=doubled,
        params=GraphParams(cutoff=2.0),
        ref_cluster_size=4, dist_cluster_size=8,
    )
    dist_values = np.repeat(intensities, 2)
    score = score_graph(pair_table([pair]), base_signal,
                        SignalAttribute(dist_values, kind="color"), POOLING_PRESETS["c2"],
                        np.ones(1))
    assert score.sim_mean[0, 0] == pytest.approx(1.0, abs=1e-12)
    assert score.sim_cov[0, 0] == pytest.approx(1.0, abs=1e-12)
    assert score.sim_mass[0, 0] < 1.0


def _prepared_case(name):
    """(reference, stimulus, keypoints) on which the kept clusters are checked."""
    from pcqa import DistortionSpec, apply_distortion

    rng = np.random.default_rng(41)
    if name == "continuous":
        ref = random_cloud(2000, seed=41)
        stim = apply_distortion(ref, DistortionSpec("ggn", 0.01, seed=1))
        return ref, stim, np.arange(7, 2000, 97)
    if name.startswith("lattice"):
        positions = rng.integers(0, 9, (2000, 3)).astype(np.float64)  # 729 sites
        ref = PointCloud(positions=positions,
                         colors=rng.integers(0, 256, (2000, 3)).astype(np.float64))
        _, inverse, counts = np.unique(positions, axis=0, return_inverse=True,
                                       return_counts=True)
        duplicated = np.flatnonzero(counts[inverse.ravel()] > 1)
        # Unsorted, on duplicated sites: the keypoint's twins are dropped from its cluster.
        keypoints = rng.permutation(duplicated)[:20]
        if name == "lattice-cn":  # the reference's geometry, in a copy, as a PLY load gives
            cn = apply_distortion(ref, DistortionSpec("cn", 0.1, seed=2))
            return ref, PointCloud(positions=positions.copy(), colors=cn.colors), keypoints
        return ref, apply_distortion(ref, DistortionSpec("ds", 0.7, seed=2)), keypoints
    positions = rng.uniform(0.0, 1.0, (3000, 3)) * [6.0, 6.0, 0.6]
    ref = PointCloud(positions=positions,
                     colors=rng.integers(0, 256, (3000, 3)).astype(np.float64))
    stim = apply_distortion(ref, DistortionSpec("ggn", 0.01, seed=3))
    return ref, stim, np.arange(0, 3000, 150)


@pytest.mark.parametrize("name", ["continuous", "lattice", "slab", "lattice-cn"])
def test_kept_reference_clusters_build_the_per_pair_graphs(name):
    # A keypoint set's kept reference clusters are the entry kept under its key, one
    # row per keypoint, indices as int32: each row a prefix of a fresh `_cluster`, the
    # whole cluster or at least matching_k points of it. Each pair's graphs agree with
    # the plain-loop oracle, on duplicated lattice sites (the keypoint's twins dropped) too.
    from pcqa.cloud import bounding_box, same_geometry
    from pcqa.colorspace import decompose
    from pcqa.graphsim import _cluster, _kept_clusters

    ref, dist, keypoints = _prepared_case(name)
    keypoints = np.asarray(keypoints, dtype=np.intp)
    config = GraphSimConfig(matching_k=12, neighborhood_fraction=0.15)
    radius = config.neighborhood_fraction * bounding_box(ref).min_extent
    ref_signal = decompose(ref, config.color_space).values
    dist_signal = decompose(dist, config.color_space).values
    assert same_geometry(ref, dist) == (name == "lattice-cn")
    twins = 0
    kept = _kept_clusters(ref, keypoints, radius, 12)
    assert ref._results[("graphsim clusters", radius, 12, keypoints.tobytes())] is kept
    assert kept[0].dtype == np.int32
    for row, center in enumerate(keypoints):
        idx, d = _cluster(ref, ref.positions[center], radius)
        m = int(np.isfinite(kept[1][row]).sum())
        assert m == idx.size or 12 <= m < idx.size
        assert np.array_equal(kept[0][row, :m], idx[:m])
        assert kept[1][row, :m].tobytes() == d[:m].tobytes()
        pair = build_local_graph_pair(int(center), ref, dist, config, radius=radius)
        twins += ref.spatial_index.radius_query(ref.positions[center], 0.0)[0].size - 1

        oracle = local_graph_oracle(ref.positions, dist.positions, ref_signal, dist_signal,
                                    int(center), radius, matching_k=12)
        if oracle is None:
            assert pair.ref_cluster_size == 0
            continue
        # The oracle measures with math.dist, which may differ from numpy by an ulp.
        assert pair.params.cutoff == pytest.approx(oracle["cutoff"], rel=1e-12)
        assert np.allclose(pair.ref.weights, oracle["ref_weights"], rtol=1e-10, atol=0)
        assert np.allclose(pair.dist.weights, oracle["dist_weights"], rtol=1e-10, atol=0)
    assert (twins > 0) == name.startswith("lattice")
