import math

import numpy as np
import pytest

from pcqa import (
    DomainError,
    ErrorPair,
    GraphSimConfig,
    METRIC_IDS,
    PointCloud,
    SpatialIndex,
    bounding_box,
    estimate_normals,
    geometry_psnr,
    graphsim,
    merged_bounding_box,
    p2_errors,
    psnr_yuv,
    run_baselines,
    to_yuv,
)
from pcqa.baselines import combine_channel_psnr

from helpers import random_cloud, smooth_cloud


def grid_cloud(m=20, spacing=1.0):
    """Flat m x m grid at z=0 with stored +z normals."""
    xs = np.arange(m, dtype=float) * spacing
    gx, gy = np.meshgrid(xs, xs)
    positions = np.column_stack([gx.ravel(), gy.ravel(), np.zeros(m * m)])
    normals = np.tile((0.0, 0.0, 1.0), (m * m, 1))
    return PointCloud(positions=positions, normals=normals)


def shifted(cloud, offset):
    return PointCloud(positions=cloud.positions + np.asarray(offset, dtype=float),
                      normals=cloud.normals)


class TestEstimateNormals:
    def test_flat_plane_gives_plus_z(self):
        cloud = grid_cloud(12)
        normals, degenerate = estimate_normals(
            PointCloud(positions=cloud.positions))
        assert np.allclose(normals, (0.0, 0.0, 1.0), atol=1e-9)
        assert not degenerate.any()

    def test_tilted_plane_recovers_the_plane_normal(self):
        rng = np.random.default_rng(0)
        n = np.array([1.0, 1.0, 1.0]) / math.sqrt(3.0)
        u = np.array([1.0, -1.0, 0.0]) / math.sqrt(2.0)
        v = np.cross(n, u)
        coeffs = rng.uniform(-5, 5, (400, 2))
        cloud = PointCloud(positions=coeffs[:, :1] * u + coeffs[:, 1:] * v)
        normals, degenerate = estimate_normals(cloud)
        assert not degenerate.any()
        assert np.abs(normals @ n) == pytest.approx(1.0, abs=1e-9)

    def test_collinear_neighborhoods_flagged_and_fall_back(self):
        line = np.column_stack([np.linspace(0, 5, 40), np.zeros(40), np.zeros(40)])
        normals, degenerate = estimate_normals(PointCloud(positions=line))
        assert degenerate.all()
        assert np.array_equal(normals, np.tile((0.0, 0.0, 1.0), (40, 1)))

    def test_hemisphere_convention(self):
        cloud = random_cloud(500, seed=1, colored=False)
        normals, _ = estimate_normals(cloud)
        assert (normals[:, 2] >= 0).all()
        assert np.linalg.norm(normals, axis=1) == pytest.approx(1.0, abs=1e-9)

    def test_needs_enough_points(self):
        with pytest.raises(DomainError, match="k=12"):
            estimate_normals(random_cloud(5, seed=2, colored=False))


class TestP2Errors:
    def test_identical_clouds_have_zero_error(self):
        cloud = random_cloud(200, seed=3, colored=False)
        for mode in ("point", "plane"):
            pair = p2_errors(cloud, cloud, mode)
            assert pair.forward == 0.0
            assert pair.backward == 0.0
            assert pair.symmetric == 0.0

    def test_normal_shift_on_a_plane(self):
        ref = grid_cloud()
        delta = 0.25
        dist = shifted(ref, (0.0, 0.0, delta))
        po = p2_errors(ref, dist, "point")
        pl = p2_errors(ref, dist, "plane")
        assert po.forward == pytest.approx(delta**2, rel=1e-12)
        assert po.backward == pytest.approx(delta**2, rel=1e-12)
        assert pl.forward == pytest.approx(delta**2, rel=1e-12)
        assert pl.backward == pytest.approx(delta**2, rel=1e-12)

    def test_tangential_shift_vanishes_under_plane_projection(self):
        ref = grid_cloud()
        delta = 0.25
        dist = shifted(ref, (delta, 0.0, 0.0))
        po = p2_errors(ref, dist, "point")
        pl = p2_errors(ref, dist, "plane")
        assert po.symmetric == pytest.approx(delta**2, rel=1e-12)
        assert pl.symmetric == 0.0

    def test_projection_never_exceeds_distance(self):
        ref = random_cloud(400, seed=4, colored=False)
        dist = random_cloud(400, seed=5, colored=False)
        for agg in ("mse", "hausdorff"):
            po = p2_errors(ref, dist, "point", agg)
            pl = p2_errors(ref, dist, "plane", agg)
            assert pl.forward <= po.forward
            assert pl.backward <= po.backward

    def test_hausdorff_dominates_mse(self):
        ref = random_cloud(300, seed=6, colored=False)
        dist = random_cloud(250, seed=7, colored=False)
        mse = p2_errors(ref, dist, "point", "mse")
        haus = p2_errors(ref, dist, "point", "hausdorff")
        assert haus.forward >= mse.forward
        assert haus.backward >= mse.backward

    def test_symmetric_is_the_worse_direction(self):
        pair = ErrorPair(forward=1.5, backward=0.5)
        assert pair.symmetric == 1.5
        assert ErrorPair(forward=0.1, backward=4.0).symmetric == 4.0

    def test_rejects_unknown_mode_and_agg(self):
        cloud = random_cloud(50, seed=8, colored=False)
        with pytest.raises(DomainError, match="mode"):
            p2_errors(cloud, cloud, "fancy")
        with pytest.raises(DomainError, match="aggregation"):
            p2_errors(cloud, cloud, "point", "median")


class TestGeometryPsnr:
    def test_formula(self):
        box = bounding_box(PointCloud(positions=np.array(
            [[0.0, 0.0, 0.0], [4.0, 2.0, 1.0]])))
        error = 0.003
        assert geometry_psnr(error, box) == pytest.approx(
            10.0 * math.log10(3.0 * 16.0 / error), rel=1e-12)

    def test_zero_error_is_infinite(self):
        box = bounding_box(random_cloud(10, seed=9, colored=False))
        assert geometry_psnr(0.0, box) == math.inf

    def test_negative_error_rejected(self):
        box = bounding_box(random_cloud(10, seed=9, colored=False))
        with pytest.raises(DomainError):
            geometry_psnr(-1e-9, box)


class TestPsnrYuv:
    def test_identical_clouds_are_infinite(self):
        cloud = random_cloud(200, seed=10)
        result = psnr_yuv(cloud, cloud)
        assert result.value == math.inf
        assert result.forward_db == math.inf
        assert result.backward_db == math.inf

    def test_requires_colors(self):
        plain = random_cloud(50, seed=11, colored=False)
        with pytest.raises(DomainError, match="colors"):
            psnr_yuv(plain, plain)

    def test_known_color_delta_matches_hand_computation(self):
        rng = np.random.default_rng(12)
        positions = rng.uniform(0, 10, (80, 3))
        ref_colors = rng.integers(0, 256, (80, 3)).astype(float)
        dist_colors = np.clip(
            ref_colors + rng.integers(-40, 41, (80, 3)), 0, 255).astype(float)
        ref = PointCloud(positions=positions, colors=ref_colors)
        dist = PointCloud(positions=positions, colors=dist_colors)

        diff = to_yuv(dist_colors / 255.0) * 255.0 - to_yuv(ref_colors / 255.0) * 255.0
        mse = (diff * diff).mean(axis=0)
        per_channel = 10.0 * np.log10(255.0**2 / mse)
        expected = combine_channel_psnr(*per_channel)

        result = psnr_yuv(ref, dist)
        assert result.value == pytest.approx(expected, rel=1e-12)
        assert result.forward_db == pytest.approx(result.backward_db, rel=1e-12)

    def test_channel_combination_weights(self):
        assert combine_channel_psnr(40.0, 40.0, 40.0) == 40.0
        assert combine_channel_psnr(48.0, 20.0, 12.0) == (6 * 48.0 + 20.0 + 12.0) / 8


class TestRunBaselines:
    def test_identical_clouds_are_all_infinite(self):
        cloud = random_cloud(300, seed=13)
        results = run_baselines(cloud, cloud)
        assert set(results) == set(METRIC_IDS)
        for result in results.values():
            assert result.value == math.inf

    def test_matches_standalone_functions(self):
        ref = random_cloud(250, seed=14)
        dist = random_cloud(240, seed=15)
        results = run_baselines(ref, dist)
        pair = p2_errors(ref, dist, "point", "mse")
        from pcqa import merged_bounding_box
        box = merged_bounding_box(bounding_box(ref), bounding_box(dist))
        assert results["m-p2po"].value == pytest.approx(
            geometry_psnr(pair.symmetric, box), rel=1e-12)
        assert results["psnr-yuv"].value == pytest.approx(
            psnr_yuv(ref, dist).value, rel=1e-12)

    def test_hausdorff_never_beats_mse(self):
        ref = random_cloud(300, seed=16)
        dist = random_cloud(280, seed=17)
        results = run_baselines(ref, dist)
        assert results["h-p2po"].value <= results["m-p2po"].value
        assert results["h-p2pl"].value <= results["m-p2pl"].value

    def test_p2po_and_color_values_swap_symmetric(self):
        ref = random_cloud(220, seed=18)
        dist = random_cloud(260, seed=19)
        ab = run_baselines(ref, dist)
        ba = run_baselines(dist, ref)
        for metric in ("m-p2po", "h-p2po", "psnr-yuv"):
            assert ab[metric].value == pytest.approx(ba[metric].value, rel=1e-12)
        assert ab["m-p2po"].forward_db == pytest.approx(
            ba["m-p2po"].backward_db, rel=1e-12)

    def test_subset_preserves_request_order(self):
        cloud = random_cloud(100, seed=20)
        subset = ("psnr-yuv", "m-p2po")
        results = run_baselines(cloud, cloud, subset)
        assert tuple(results) == subset

    def test_unknown_metric_rejected(self):
        cloud = random_cloud(50, seed=21)
        with pytest.raises(DomainError, match="ssim"):
            run_baselines(cloud, cloud, ("m-p2po", "ssim"))

    def test_empty_cloud_rejected(self):
        cloud = random_cloud(50, seed=22)
        with pytest.raises(DomainError, match="non-empty"):
            run_baselines(cloud, PointCloud(positions=np.empty((0, 3))))


def test_geometry_psnr_steps_in_decades():
    box = bounding_box(PointCloud(positions=np.array(
        [[0.0, 0.0, 0.0], [2.0, 1.0, 1.0]])))
    peak = 2.0
    assert geometry_psnr(3 * peak**2, box) == pytest.approx(0.0, abs=1e-12)
    assert geometry_psnr(3 * peak**2 / 10, box) == pytest.approx(10.0, abs=1e-12)
    assert geometry_psnr(3 * peak**2 / 100, box) == pytest.approx(20.0, abs=1e-12)


def test_estimated_sphere_normals_point_along_the_radius():
    rng = np.random.default_rng(77)
    raw = rng.normal(size=(4000, 3))
    points = raw / np.linalg.norm(raw, axis=1, keepdims=True)
    normals, degenerate = estimate_normals(PointCloud(points), k=12)
    assert not degenerate.any()
    alignment = np.abs(np.sum(normals * points, axis=1))
    assert alignment.min() >= 0.99


def lattice_pair(seed=23):
    """Integer-lattice clouds with duplicate points, so nearest-match
    distances tie."""
    rng = np.random.default_rng(seed)
    ref_pos = rng.integers(0, 8, (600, 3)).astype(float)
    dist_pos = np.vstack([ref_pos[:300], rng.integers(0, 8, (250, 3))]).astype(float)
    ref = PointCloud(positions=ref_pos,
                     colors=rng.integers(0, 256, (600, 3)).astype(float))
    dist = PointCloud(positions=dist_pos,
                      colors=rng.integers(0, 256, (550, 3)).astype(float))
    return ref, dist


class TestSharedMatches:
    def test_all_metrics_make_one_match_per_direction(self, monkeypatch):
        calls = []
        original = SpatialIndex.nearest

        def counting(self, queries):
            calls.append(len(queries))
            return original(self, queries)

        monkeypatch.setattr(SpatialIndex, "nearest", counting)
        ref, dist = lattice_pair()
        run_baselines(ref, dist)
        assert sorted(calls) == [dist.count, ref.count]

    def test_standalone_functions_equal_run_baselines_under_ties(self):
        ref, dist = lattice_pair()
        results = run_baselines(ref, dist)
        box = merged_bounding_box(bounding_box(ref), bounding_box(dist))
        for metric in ("m-p2po", "m-p2pl", "h-p2po", "h-p2pl"):
            agg, kind = metric.split("-")
            pair = p2_errors(ref, dist, "point" if kind == "p2po" else "plane",
                             "mse" if agg == "m" else "hausdorff")
            assert results[metric].forward_db == geometry_psnr(pair.forward, box)
            assert results[metric].backward_db == geometry_psnr(pair.backward, box)
            assert results[metric].value == geometry_psnr(pair.symmetric, box)
        assert results["psnr-yuv"] == psnr_yuv(ref, dist)


class TestReferenceCache:
    """Normals and frequency scores depend on the reference alone, so each
    is computed once per cloud and parameter key, whatever reads it."""

    @staticmethod
    def count_calls(monkeypatch, owner, name, measure):
        sizes, original = [], getattr(owner, name)

        def counting(*args, **kwargs):
            sizes.append(measure(*args, **kwargs))
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)
        return sizes

    def test_one_computation_per_key_across_metrics(self, monkeypatch):
        import scipy.sparse

        eigh = self.count_calls(monkeypatch, np.linalg, "eigh", lambda cov: len(cov))
        csr = self.count_calls(monkeypatch, scipy.sparse, "csr_matrix",
                               lambda arg1, shape: shape[0])
        ref = smooth_cloud(400, seed=0)
        a, b = smooth_cloud(350, seed=1), smooth_cloud(380, seed=2)
        color = GraphSimConfig()
        graphsim(ref, a, color)
        graphsim(ref, b, color)
        graphsim(ref, a, GraphSimConfig(signal_kind="normal"))
        run_baselines(ref, a)
        p2_errors(ref, b, "plane")
        # The reference's normals once, and the distorted cloud's own normals
        # for the normal signal; the reference's scores once.
        assert eigh == [ref.count, a.count]
        assert csr == [ref.count]

        estimate_normals(ref, k=8)
        estimate_normals(ref, k=8)
        run_baselines(ref, b, normals_k=8)
        assert eigh == [ref.count, a.count, ref.count]

    def test_cached_normals_equal_a_fresh_cloud_bit_for_bit(self):
        cloud = smooth_cloud(500, seed=3)
        # Widen the cloud's neighbour table first, as a keypoint draw would.
        cloud.spatial_index.neighbors(20)
        first = estimate_normals(cloud)
        assert estimate_normals(cloud)[0] is first[0]
        fresh = estimate_normals(PointCloud(positions=cloud.positions.copy()))
        for got, expected in zip(first, fresh):
            assert np.array_equal(got, expected)

    def test_cached_normals_are_read_only(self):
        normals, degenerate = estimate_normals(smooth_cloud(200, seed=4))
        for arr in (normals, degenerate):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = arr[1]
