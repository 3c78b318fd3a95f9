import csv
import re

import numpy as np
import pytest

from pcqa import (
    DegenerateCloudWarning,
    DistortionSpec,
    DomainError,
    KeypointSet,
    PointCloud,
    ResampleConfig,
    estimate_normals,
    frequency_scores,
    p2_errors,
    resample,
    run_baselines,
)
from pcqa.resample import MAX_FILTER_LENGTH, write_keypoints_csv

from helpers import random_cloud
from oracles import dense_frequency_scores


def test_count_resolution_floor_rule():
    config = ResampleConfig(ratio=1e-3)
    assert config.resolve_count(729133) == 729
    assert config.resolve_count(1000) == 1
    assert config.resolve_count(500) == 1  # floor would give 0; floor of one applies
    assert ResampleConfig(count=25).resolve_count(100) == 25


_CLOUD = random_cloud(60, seed=4)


@pytest.mark.parametrize("field, make", [
    ("count", lambda v: ResampleConfig(count=v)),
    ("filter_length", lambda v: ResampleConfig(filter_length=v)),
    ("graph_k", lambda v: ResampleConfig(graph_k=v)),
    ("seed", lambda v: ResampleConfig(seed=v)),
    ("seed", lambda v: DistortionSpec("ggn", 0.01, seed=v)),
    ("k", lambda v: estimate_normals(_CLOUD, v)),
    ("normals_k", lambda v: run_baselines(_CLOUD, _CLOUD, normals_k=v)),
    ("normals_k", lambda v: p2_errors(_CLOUD, _CLOUD, "plane", normals_k=v)),
    ("k", lambda v: _CLOUD.spatial_index.knn([0, 0, 0], v)),
    ("k", lambda v: _CLOUD.spatial_index.query_array(np.zeros((2, 3)), v)),
], ids=["count", "filter_length", "graph_k", "seed", "distortion-seed", "estimate_normals",
        "run_baselines", "p2_errors", "knn", "query_array"])
@pytest.mark.parametrize("value", [2.5, 3.0, 4.0, "3", "4"])
def test_integer_fields_reject_non_integral_values(field, make, value):
    # One rule, errors.check_integer, at every entry point: caught there, not as a
    # TypeError once a draw, a noise generator or a neighbour query runs.
    message = rf"{field} must be an integer.*, got {re.escape(repr(value))}"
    with pytest.raises(DomainError, match=message):
        make(value)
    make(np.int64(3))


def test_explicit_count_cannot_exceed_cloud():
    with pytest.raises(DomainError):
        ResampleConfig(count=11).resolve_count(10)


@pytest.mark.parametrize("indices, scores", [([0, 1], [1.0]), ([[0, 1]], [[1.0, 1.0]])])
def test_keypoint_set_needs_parallel_1d_arrays(indices, scores):
    with pytest.raises(DomainError, match="parallel 1-D arrays"):
        KeypointSet(indices=indices, scores=scores)


def test_config_validation():
    with pytest.raises(DomainError):
        ResampleConfig(ratio=0.0)
    with pytest.raises(DomainError):
        ResampleConfig(ratio=1.5)
    with pytest.raises(DomainError):
        ResampleConfig(count=0)
    with pytest.raises(DomainError):
        ResampleConfig(filter_length=1)
    with pytest.raises(DomainError, match=f"filter_length must be <= {MAX_FILTER_LENGTH}"):
        ResampleConfig(filter_length=MAX_FILTER_LENGTH + 1)
    ResampleConfig(filter_length=MAX_FILTER_LENGTH)
    with pytest.raises(DomainError):
        ResampleConfig(method="sobol")


def test_keypoint_set_validation():
    with pytest.raises(DomainError):
        KeypointSet(indices=np.array([1, 1]), scores=np.ones(2))
    with pytest.raises(DomainError):
        KeypointSet(indices=np.array([1, 2]), scores=np.array([1.0, -0.5]))
    with pytest.raises(DomainError, match="keypoint set is empty"):
        KeypointSet(indices=[], scores=np.ones(0))
    with pytest.raises(DomainError, match="1.7 is not a whole number"):
        KeypointSet(indices=np.array([1.0, 1.7]), scores=np.ones(2))


def test_scores_match_dense_oracle():
    for seed in (0, 1):
        cloud = random_cloud(120, seed=seed, colored=False)
        config = ResampleConfig(graph_k=6, filter_length=4)
        got = frequency_scores(cloud, config=config)
        expected = dense_frequency_scores(cloud.positions, k=6, filter_length=4)
        assert np.allclose(got, expected, rtol=1e-10, atol=1e-12)


def test_scores_match_dense_oracle_on_a_lattice_with_duplicates():
    # 300 points on 6^3 integer sites: every row ties, so the scores
    # depend on the neighbor order only through the (distance, index) rule.
    pts = np.random.default_rng(7).integers(0, 6, (300, 3)).astype(float)
    got = frequency_scores(PointCloud(positions=pts),
                           config=ResampleConfig(graph_k=10, filter_length=4))
    expected = dense_frequency_scores(pts, k=10, filter_length=4)
    assert np.allclose(got, expected, rtol=0, atol=1e-10)


def test_scores_translation_invariant():
    cloud = random_cloud(200, seed=2, colored=False)
    shifted = PointCloud(positions=cloud.positions + [100.0, -40.0, 7.0])
    a = frequency_scores(cloud)
    b = frequency_scores(shifted)
    assert np.allclose(a, b, rtol=1e-9, atol=1e-12)


def test_outlier_scores_high():
    rng = np.random.default_rng(3)
    blob = rng.normal(0, 0.05, (150, 3))
    outlier = np.array([[4.0, 4.0, 4.0]])
    cloud = PointCloud(positions=np.vstack([blob, outlier]))
    scores = frequency_scores(cloud)
    assert scores.argmax() == 150


def test_needs_more_points_than_graph_k():
    cloud = random_cloud(10, seed=4, colored=False)
    with pytest.raises(DomainError):
        frequency_scores(cloud, config=ResampleConfig(graph_k=10))


def test_degenerate_cloud_warns_and_falls_back():
    cloud = PointCloud(positions=np.zeros((30, 3)))
    with pytest.warns(DegenerateCloudWarning):
        keypoints = resample(cloud, config=ResampleConfig(count=3, graph_k=5))
    assert keypoints.count == 3
    assert np.all(keypoints.scores == 0.0)


def test_too_few_positive_scores_fall_back_to_a_uniform_draw():
    # Two outliers off a coincident group: only they score above zero.
    cloud = PointCloud(positions=np.vstack([np.zeros((40, 3)), [[5.0, 0, 0], [0, 5.0, 0]]]))
    config = ResampleConfig(count=5, graph_k=5, seed=3)
    scores = frequency_scores(cloud, config)
    assert np.count_nonzero(scores) == 2 < config.count
    with pytest.warns(DegenerateCloudWarning, match="only 2 points have positive scores"):
        keypoints = resample(cloud, config)
    uniform = np.sort(np.random.default_rng(3).choice(42, size=5, replace=False))
    assert np.array_equal(keypoints.indices, uniform)
    assert np.array_equal(keypoints.scores, scores[uniform])


def test_large_coincident_cloud_scores_zero():
    # Every row's k-th distance is 0: the whole group of 20k duplicates is
    # tied, and the exact table must not cost the square of its size.
    cloud = PointCloud(positions=np.full((20_000, 3), 2.5))
    with pytest.warns(DegenerateCloudWarning):
        scores = frequency_scores(cloud)
    assert np.all(scores == 0.0)
    _, idx = cloud.spatial_index.query_array(cloud.positions, 11)
    assert np.array_equal(idx, np.broadcast_to(np.arange(11), idx.shape))


def test_resample_deterministic_per_seed():
    cloud = random_cloud(400, seed=5)
    a = resample(cloud, config=ResampleConfig(count=20, seed=9))
    # A second cloud of the same points, so the draw is made again rather than kept.
    b = resample(random_cloud(400, seed=5), config=ResampleConfig(count=20, seed=9))
    c = resample(cloud, config=ResampleConfig(count=20, seed=10))
    assert np.array_equal(a.indices, b.indices)
    assert np.array_equal(a.scores, b.scores)
    assert not np.array_equal(a.indices, c.indices)


def test_random_method_records_unit_scores():
    cloud = random_cloud(100, seed=6)
    keypoints = resample(cloud, config=ResampleConfig(count=10, method="random"))
    assert np.all(keypoints.scores == 1.0)
    assert np.array_equal(np.sort(keypoints.indices), keypoints.indices)
    assert len(np.unique(keypoints.indices)) == 10


def test_high_pass_draws_follow_scores():
    # One extreme outlier should be selected essentially always.
    rng = np.random.default_rng(7)
    blob = rng.normal(0, 0.05, (120, 3))
    cloud = PointCloud(positions=np.vstack([blob, [[5.0, 5.0, 5.0]]]))
    hits = 0
    for seed in range(20):
        kp = resample(cloud, config=ResampleConfig(count=4, seed=seed))
        hits += int(120 in kp.indices)
    assert hits >= 18


def test_keypoints_csv_round_trip(tmp_path):
    cloud = random_cloud(300, seed=8)
    keypoints = resample(cloud, config=ResampleConfig(count=12, seed=1))
    path = tmp_path / "kp.csv"
    write_keypoints_csv(path, cloud, keypoints)
    with open(path, newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 12
    first = rows[0]
    i = int(first["index"])
    assert float(first["x"]) == cloud.positions[i, 0]
    assert float(first["score"]) == keypoints.scores[0]


def test_uniform_line_scores_concentrate_at_the_ends():
    # A uniform 1-d lattice is locally linear everywhere except its ends,
    # so the high-pass response vanishes in the interior and peaks at the
    # boundary points.
    n = 100
    line = PointCloud(positions=np.column_stack(
        [np.arange(n, dtype=float), np.zeros(n), np.zeros(n)]))
    scores = frequency_scores(line, config=ResampleConfig(graph_k=10))
    # Each of the three filter passes mixes five lattice steps, so the
    # boundary influence dies out fifteen points in.
    interior = scores[15:-15]
    edges = max(scores[0], scores[-1])
    assert edges > 0.0
    assert interior.max() < 1e-6 * edges


def test_count_equal_to_cloud_returns_every_index():
    cloud = random_cloud(60, seed=21)
    keypoints = resample(cloud, config=ResampleConfig(count=60))
    assert np.array_equal(keypoints.indices, np.arange(60))


def count_filter_builds(monkeypatch) -> list:
    """Record the size of every shift operator frequency_scores builds."""
    import scipy.sparse

    built, original = [], scipy.sparse.csr_matrix

    def counting(*args, **kwargs):
        built.append(kwargs["shape"][0])
        return original(*args, **kwargs)

    monkeypatch.setattr(scipy.sparse, "csr_matrix", counting)
    return built


def test_scores_are_cached_per_graph_k_and_filter_length(monkeypatch):
    built = count_filter_builds(monkeypatch)
    cloud = random_cloud(300, seed=30)
    first = frequency_scores(cloud)
    keys = [ResampleConfig(seed=5, count=7), ResampleConfig(method="random"),
            ResampleConfig(filter_length=5), ResampleConfig(graph_k=6),
            ResampleConfig(graph_k=6, filter_length=5)]
    for config in keys + keys:
        frequency_scores(cloud, config)
    # The seed, count and method only move the draw: four keys, four builds.
    assert len(built) == 4
    assert frequency_scores(cloud) is first
    resample(cloud, ResampleConfig(count=9, seed=2))
    assert len(built) == 4


def test_cached_scores_equal_a_fresh_cloud_bit_for_bit():
    cloud = random_cloud(400, seed=31)
    estimate_normals(cloud, k=15)  # a wider self pass first, as a normal signal runs
    for config in (ResampleConfig(), ResampleConfig(graph_k=5, filter_length=6)):
        cached = frequency_scores(cloud, config)
        assert frequency_scores(cloud, config) is cached
        fresh = frequency_scores(PointCloud(positions=cloud.positions.copy()), config)
        assert np.array_equal(cached, fresh)


def test_cached_scores_are_read_only():
    scores = frequency_scores(random_cloud(200, seed=32))
    assert not scores.flags.writeable
    with pytest.raises(ValueError):
        scores[0] = 1.0


def test_degenerate_warning_fires_on_every_call():
    cloud = PointCloud(positions=np.zeros((30, 3)))
    config = ResampleConfig(graph_k=5)
    for _ in range(2):
        with pytest.warns(DegenerateCloudWarning, match="all frequency scores are zero"):
            frequency_scores(cloud, config)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_filter_overflow_raises_on_every_call_and_is_not_stored(monkeypatch):
    # Coordinates near MAX_COORDINATE overflow the scores well inside the
    # filter_length limit (this cloud at L = 59), so the post-loop check stays.
    built = count_filter_builds(monkeypatch)
    cloud = random_cloud(300, seed=33, span=1e149, colored=False)
    for _ in range(2):
        with pytest.raises(DomainError, match="filter_length=100"):
            frequency_scores(cloud, ResampleConfig(filter_length=100))
    assert len(built) == 2
