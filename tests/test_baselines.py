import functools
import importlib
import math

import numpy as np
import pytest

from pcqa import (
    DistortionSpec,
    DomainError,
    ErrorPair,
    GraphSimConfig,
    METRIC_IDS,
    PointCloud,
    ResampleConfig,
    SpatialIndex,
    apply_distortion,
    bounding_box,
    estimate_normals,
    frequency_scores,
    geometry_psnr,
    graphsim,
    merged_bounding_box,
    p2_errors,
    psnr_yuv,
    run_baselines,
    to_yuv,
)
from pcqa import baselines, spatial
from pcqa.baselines import _match_pair, _nearest, combine_channel_psnr
from pcqa.cloud import same_geometry

from helpers import planar_cloud, random_cloud, smooth_cloud
from oracles import brute_knn, pca_normals


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

    def test_matches_equal_single_point_queries_in_both_directions(self):
        # Each direction is asked in the query cloud's leaf order and
        # scattered back; under ties the lower index must still win.
        ref, dist = lattice_pair()
        forward, backward = _match_pair(ref, dist)
        assert forward.tolist() == [ref.spatial_index.knn(q, 1)[0][0] for q in dist.positions]
        assert backward.tolist() == [dist.spatial_index.knn(q, 1)[0][0] for q in ref.positions]

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


def same_geometry_pair(name, seed=29):
    """A reference and a colour-only stimulus on an equal copy of its positions,
    as a PLY load gives one: a shuffled lattice whose every site is held by three
    points, or a continuous cloud."""
    rng = np.random.default_rng(seed)
    if name == "lattice":
        sites = np.stack(np.meshgrid(*[np.arange(5.0)] * 3), axis=-1).reshape(-1, 3)
        positions = np.repeat(sites, 3, axis=0)[rng.permutation(3 * len(sites))]
    else:
        positions = rng.uniform(0.0, 10.0, (400, 3))
    colors = rng.integers(0, 256, positions.shape).astype(float)
    ref = PointCloud(positions=positions, colors=colors)
    stim = PointCloud(positions=np.array(positions), colors=colors[::-1].copy())
    return ref, stim


class TestSameGeometry:
    """A stimulus with the reference's positions reuses the reference's
    self-match and kept clusters, and builds no tree of its own."""

    @pytest.mark.parametrize("name", ["lattice", "continuous"])
    def test_match_pair_is_the_self_match_both_ways(self, name):
        ref, stim = same_geometry_pair(name)
        forward, backward = _match_pair(ref, stim)
        assert forward is backward and "spatial_index" not in stim.__dict__
        assert np.array_equal(forward, _nearest(ref, stim))
        assert np.array_equal(backward, _nearest(stim, ref))
        assert forward.tolist() == [brute_knn(ref.positions, q, 1)[0][0]
                                    for q in stim.positions]
        if name == "lattice":  # each point matches the lowest index on its site
            assert (forward != np.arange(ref.count)).sum() == 2 * ref.count // 3

    def test_stimulus_keeps_nothing_and_the_reference_one_self_match(self, monkeypatch):
        ref, stim = same_geometry_pair("lattice")
        shared = apply_distortion(ref, DistortionSpec("cn", 0.1, seed=4))  # ref's own array
        reports = []
        for kind in ("color", "normal", ("color", "normal")):
            config = GraphSimConfig(neighborhood_fraction=0.3, signal_kind=kind,
                                    resample=ResampleConfig(count=8))
            for dist in (stim, shared):
                reports.append((config, dist, graphsim(ref, dist, config).to_report()))
                run_baselines(ref, dist)
                assert "spatial_index" not in dist.__dict__ and "_results" not in dist.__dict__
        kept = [v for k, v in ref._results.items() if k[0] == "self match"]
        assert len(kept) == 1
        (match,) = kept
        assert match.shape == (ref.count,) and match.dtype == np.intp
        assert not match.flags.writeable
        assert _match_pair(ref, stim)[0] is match
        # Each stimulus on its own tree, clusters and normals scores the same.
        monkeypatch.setattr(importlib.import_module("pcqa.graphsim"), "same_geometry",
                            lambda a, b: False)
        for config, dist, report in reports:
            fresh_ref, fresh = (PointCloud(positions=np.array(c.positions), colors=c.colors)
                                for c in (ref, dist))
            assert graphsim(fresh_ref, fresh, config).to_report() == report
            assert "spatial_index" in fresh.__dict__

    def test_one_ulp_off_takes_the_general_path(self):
        ref, stim = same_geometry_pair("lattice")
        config = GraphSimConfig(neighborhood_fraction=0.3, resample=ResampleConfig(count=8))
        graphsim(ref, stim, config)
        run_baselines(ref, stim)  # ref keeps its clusters and self-match
        positions = np.array(stim.positions)
        positions[5, 2] = np.nextafter(positions[5, 2], np.inf)
        off = PointCloud(positions=positions, colors=stim.colors)
        assert not same_geometry(ref, off)
        fresh = PointCloud(positions=ref.positions.copy(), colors=ref.colors)
        assert graphsim(ref, off, config).to_report() == \
            graphsim(fresh, off, config).to_report()
        assert run_baselines(ref, off) == run_baselines(fresh, off)
        assert "spatial_index" in off.__dict__


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

        pca = self.count_calls(monkeypatch, baselines, "_pca_normals",
                               lambda cloud, k: cloud.count)
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
        assert pca == [ref.count, a.count]
        assert csr == [ref.count]

        estimate_normals(ref, k=8)
        estimate_normals(ref, k=8)
        run_baselines(ref, b, normals_k=8)
        assert pca == [ref.count, a.count, ref.count]

    def test_cached_normals_equal_a_fresh_cloud_bit_for_bit(self):
        cloud = smooth_cloud(500, seed=3)
        # Another self pass over the same index first, as a keypoint draw runs.
        frequency_scores(cloud, ResampleConfig(graph_k=19))
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

    def test_bounding_box_once_per_cloud(self, monkeypatch):
        boxed, original = [], PointCloud._cached

        def counting(cloud, key, compute):
            def counted():
                if key == ("box",):
                    boxed.append(cloud)
                return compute()
            return original(cloud, key, counted)

        monkeypatch.setattr(PointCloud, "_cached", counting)
        ref, dist = smooth_cloud(400, seed=5), smooth_cloud(350, seed=6)
        config = GraphSimConfig(resample=ResampleConfig(count=8))
        graphsim(ref, dist, config)
        run_baselines(ref, dist)
        graphsim(ref, dist, config)
        run_baselines(ref, dist)
        for kind, level in (("ggn", 0.01), ("ot", 4)):
            apply_distortion(ref, DistortionSpec(kind, level))
        assert boxed == [ref, dist]

        box = bounding_box(ref)
        fresh = bounding_box(PointCloud(positions=ref.positions.copy()))
        for got, expected in ((box.min_corner, fresh.min_corner),
                              (box.max_corner, fresh.max_corner)):
            assert np.array_equal(got, expected)
            assert not got.flags.writeable


def _sphere(n, seed):
    raw = np.random.default_rng(seed).normal(size=(n, 3))
    return raw / np.linalg.norm(raw, axis=1, keepdims=True)


def _with_duplicates(points, count, seed):
    rng = np.random.default_rng(seed)
    return rng.permutation(np.vstack([points, points[rng.integers(0, len(points), count)]]))


def _voxelised_sphere(depth, seed):
    # Two far corners set the extent, so the lattice step is about 0.2 at
    # every depth: a unit sphere becomes a blocky shell of axis-aligned faces.
    corners = np.full((2, 3), 0.1 * 2.0**depth) * ((-1.0,), (1.0,))
    cloud = PointCloud(positions=np.vstack([_sphere(1500, seed), corners]))
    return apply_distortion(cloud, DistortionSpec("ot", depth)).positions


def _integer_lattice(seed):
    # 216 sites plus 300 repeats: symmetric neighbourhoods, rows with n_z = 0.
    sites = np.stack(np.meshgrid(*[np.arange(6.0)] * 3), axis=-1).reshape(-1, 3)
    return _with_duplicates(sites, 300, seed)


def _vertical_plane(n, seed):
    yz = planar_cloud(n, seed=seed).positions[:, :2]
    return np.column_stack([np.full(len(yz), 1.5), yz])  # normals are +-x: n_z = 0


def _criterion_7_plane():
    xs = np.arange(24.0)
    gx, gy = np.meshgrid(xs, xs)
    return np.column_stack([gx.ravel(), gy.ravel(), np.zeros(24 * 24)])


def _coincident(seed):
    # Clusters of 13 identical points (zero spread) beside scattered ones.
    rng = np.random.default_rng(seed)
    centers = rng.uniform(0, 10, (12, 3))
    return rng.permutation(np.vstack([np.repeat(centers, 13, axis=0), rng.uniform(0, 10, (60, 3))]))


NORMAL_CASES = {
    "continuous-volume": lambda: smooth_cloud(700, seed=31).positions,
    "continuous-sphere": lambda: _sphere(700, seed=32),
    **{f"ot{depth}-duplicates": (lambda depth=depth: _with_duplicates(
        _voxelised_sphere(depth, seed=33), 120, seed=depth)) for depth in (6, 7, 8, 9)},
    "integer-lattice": lambda: _integer_lattice(seed=34),
    "criterion-7-plane": _criterion_7_plane,
    "vertical-plane": lambda: _vertical_plane(300, seed=35),
    "line": lambda: np.column_stack([np.linspace(0, 5, 40), np.zeros(40), np.zeros(40)]),
    "coincident": lambda: _coincident(seed=36),
    "huge-scale": lambda: smooth_cloud(200, seed=37).positions * 1e140,
    "tiny-scale": lambda: smooth_cloud(200, seed=38).positions * 1e-140,
}


@functools.lru_cache(maxsize=None)
def _oracle_normals(case):
    return pca_normals(NORMAL_CASES[case](), 12)


class TestClosedFormNormals:
    """estimate_normals solves each 3x3 covariance in closed form and sends the
    rows where that could differ from eigh to eigh itself: those rows, and every
    degenerate flag, equal the oracle bit for bit; the rest are within 1e-12."""

    @staticmethod
    def normals_and_exact_rows(monkeypatch, points, k=12):
        masks, original = [], baselines._closed_form_normals

        def recording(cov):
            normals, exact = original(cov)
            masks.append(exact.copy())
            return normals, exact

        monkeypatch.setattr(baselines, "_closed_form_normals", recording)
        cloud = PointCloud(positions=points)
        normals, degenerate = estimate_normals(cloud, k)
        exact = np.empty(cloud.count, dtype=bool)
        exact[cloud.spatial_index.order] = np.concatenate(masks)  # blocks go in leaf order
        return normals, degenerate, exact

    # The normals pass counts 3k + 1 entries per row: 1 and 40 give one-row
    # blocks, 200 five-row blocks, and the default one block per cloud here.
    @pytest.mark.parametrize("block", [None, 1, 40, 200])
    @pytest.mark.parametrize("case", sorted(NORMAL_CASES))
    def test_equal_to_eigh_within_the_bound(self, monkeypatch, case, block):
        points = NORMAL_CASES[case]()
        if block is not None:
            monkeypatch.setattr(spatial, "BLOCK_ENTRIES", block)
        normals, degenerate, exact = self.normals_and_exact_rows(monkeypatch, points)
        want, want_degenerate = _oracle_normals(case)
        assert np.array_equal(degenerate, want_degenerate)
        assert np.array_equal(normals[~exact], want[~exact])
        assert np.abs(normals - want)[exact].max(initial=0.0) <= 1e-12
        assert not degenerate[exact].any()

    @pytest.mark.parametrize("case, at_least, at_most", [
        ("continuous-volume", 0.97, 1.0),
        ("continuous-sphere", 0.97, 1.0),
        ("criterion-7-plane", 1.0, 1.0),
        ("integer-lattice", 0.05, 0.95),
        ("ot7-duplicates", 0.5, 0.99),
        ("vertical-plane", 0.0, 0.0),  # n_z = 0: the sign is eigh's to decide
        ("line", 0.0, 0.0),
        ("coincident", 0.0, 0.5),
    ])
    def test_closed_form_share(self, monkeypatch, case, at_least, at_most):
        _, _, exact = self.normals_and_exact_rows(monkeypatch, NORMAL_CASES[case]())
        assert at_least <= exact.mean() <= at_most

    def test_solver_on_chosen_spectra(self):
        # Rotated diagonal covariances, largest eigenvalue 1: the two smallest
        # a gap g apart across the 1e-2 cut, or the two largest nearly equal,
        # where arccos alone loses half the digits.
        rng = np.random.default_rng(39)
        n = 20_000
        smallest = rng.uniform(0.0, 0.5, 2 * n) * 10.0 ** rng.uniform(-6, 0, 2 * n)
        gap = np.r_[10.0 ** rng.uniform(-2.5, -1.5, n), np.full(n, 0.5)]
        middle = np.r_[smallest[:n] + gap[:n], 1.0 - 10.0 ** rng.uniform(-12, -1, n)]
        spectra = np.stack([smallest, middle, np.ones(2 * n)], axis=1)
        rot = np.linalg.qr(rng.normal(size=(2 * n, 3, 3)))[0]
        cov = np.einsum("nij,nj,nkj->nik", rot, spectra, rot)
        cov = (cov + cov.transpose(0, 2, 1)) / 2
        want = np.linalg.eigh(cov)[1][:, :, 0]
        want *= np.where(want[:, 2] < 0, -1.0, 1.0)[:, None]
        normals, exact = baselines._closed_form_normals(cov.transpose(1, 2, 0).copy())
        assert np.abs(normals - want)[exact].max() <= 1e-12
        assert not exact[gap < 0.99e-2].any()
        assert exact[gap > 1.01e-2].mean() > 0.999
