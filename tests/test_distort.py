import numpy as np
import pytest

from pcqa import (
    DistortionSpec,
    DomainError,
    KINDS,
    LEVEL_PRESETS,
    PointCloud,
    apply_distortion,
    load_ply,
    save_ply,
)
from pcqa.cli import main
from pcqa.distort import _lattice_step

from helpers import random_cloud


class TestSpecValidation:
    def test_unknown_kind(self):
        with pytest.raises(DomainError, match="blur"):
            DistortionSpec(kind="blur", level=0.1)

    @pytest.mark.parametrize("level", [0, 17, 6.5, -2])
    def test_ot_depth_bounds(self, level):
        with pytest.raises(DomainError, match="depth"):
            DistortionSpec(kind="ot", level=level)

    @pytest.mark.parametrize("level", [0.0, 1.2, -0.5])
    def test_ds_ratio_bounds(self, level):
        with pytest.raises(DomainError, match="ratio"):
            DistortionSpec(kind="ds", level=level)

    def test_noise_levels_must_be_nonnegative(self):
        with pytest.raises(DomainError):
            DistortionSpec(kind="cn", level=-0.1)
        with pytest.raises(DomainError):
            DistortionSpec(kind="ggn", level=-0.1)

    def test_to_dict(self):
        spec = DistortionSpec(kind="ds", level=0.4, seed=7)
        assert spec.to_dict() == {"kind": "ds", "level": 0.4, "seed": 7}


class TestColorNoise:
    def test_level_zero_is_identity(self):
        cloud = random_cloud(200, seed=0)
        out = apply_distortion(cloud, DistortionSpec(kind="cn", level=0.0))
        assert np.array_equal(out.positions, cloud.positions)
        assert np.array_equal(out.colors, cloud.colors)

    def test_colors_stay_integral_and_in_range(self):
        cloud = random_cloud(500, seed=1)
        out = apply_distortion(cloud, DistortionSpec(kind="cn", level=0.3, seed=2))
        assert np.array_equal(out.colors, np.rint(out.colors))
        assert out.colors.min() >= 0.0
        assert out.colors.max() <= 255.0
        assert np.array_equal(out.positions, cloud.positions)

    def test_requires_colors(self):
        plain = random_cloud(50, seed=2, colored=False)
        with pytest.raises(DomainError, match="color"):
            apply_distortion(plain, DistortionSpec(kind="cn", level=0.1))

    def test_seed_controls_the_noise(self):
        cloud = random_cloud(300, seed=3)
        a = apply_distortion(cloud, DistortionSpec(kind="cn", level=0.1, seed=5))
        b = apply_distortion(cloud, DistortionSpec(kind="cn", level=0.1, seed=5))
        c = apply_distortion(cloud, DistortionSpec(kind="cn", level=0.1, seed=6))
        assert np.array_equal(a.colors, b.colors)
        assert not np.array_equal(a.colors, c.colors)


class TestGeometryNoise:
    def test_level_zero_is_identity(self):
        cloud = random_cloud(200, seed=4)
        out = apply_distortion(cloud, DistortionSpec(kind="ggn", level=0.0))
        assert np.array_equal(out.positions, cloud.positions)

    def test_noise_scale_tracks_the_smallest_extent(self):
        cloud = random_cloud(20000, seed=5, colored=False)
        level = 0.01
        out = apply_distortion(cloud, DistortionSpec(kind="ggn", level=level, seed=8))
        offsets = out.positions - cloud.positions
        from pcqa import bounding_box
        sigma = level * bounding_box(cloud).min_extent
        assert offsets.std() == pytest.approx(sigma, rel=0.05)

    def test_colors_pass_through_untouched(self):
        cloud = random_cloud(100, seed=6)
        out = apply_distortion(cloud, DistortionSpec(kind="ggn", level=0.02, seed=9))
        assert np.array_equal(out.colors, cloud.colors)

    def test_stored_normals_are_dropped(self, tmp_path, capsys):
        # Displaced points no longer lie on the surface their normals describe;
        # the other kinds keep (or, for ot, average) them.
        cloud = random_cloud(300, seed=7, normals=True)
        out = apply_distortion(cloud, DistortionSpec(kind="ggn", level=0.004, seed=2))
        assert not out.has_normals
        for kind, level in (("cn", 0.1), ("ds", 0.5), ("ot", 4)):
            assert apply_distortion(cloud, DistortionSpec(kind, level)).has_normals
        source, written = tmp_path / "in.ply", tmp_path / "out.ply"
        save_ply(cloud, source)
        assert main(["distort", str(source), "--kind", "ggn", "--level", "0.004",
                     "--seed", "2", "--output", str(written)]) == 0
        capsys.readouterr()
        assert b"property double nx" in source.read_bytes()
        assert b"nx" not in written.read_bytes().split(b"end_header")[0]
        loaded = load_ply(written)
        assert not loaded.has_normals
        assert np.array_equal(loaded.positions, out.positions)

    def test_flat_cloud_gets_zero_sigma(self):
        positions = np.column_stack([
            np.linspace(0, 5, 50), np.linspace(0, 3, 50), np.zeros(50)])
        cloud = PointCloud(positions=positions)
        out = apply_distortion(cloud, DistortionSpec(kind="ggn", level=0.1, seed=1))
        assert np.array_equal(out.positions, cloud.positions)


class TestDownsample:
    def test_ratio_one_is_identity(self):
        cloud = random_cloud(150, seed=7)
        out = apply_distortion(cloud, DistortionSpec(kind="ds", level=1.0))
        assert np.array_equal(out.positions, cloud.positions)
        assert np.array_equal(out.colors, cloud.colors)

    def test_kept_count_rounds(self):
        cloud = random_cloud(1000, seed=8)
        for ratio, expect in ((0.5, 500), (0.333, 333), (0.0015, 2)):
            out = apply_distortion(cloud, DistortionSpec(kind="ds", level=ratio))
            assert out.count == expect

    def test_zero_survivors_rejected(self):
        cloud = random_cloud(100, seed=9)
        with pytest.raises(DomainError, match="no points"):
            apply_distortion(cloud, DistortionSpec(kind="ds", level=0.001))

    def test_keeps_an_ordered_subset(self):
        cloud = random_cloud(200, seed=10)
        out = apply_distortion(cloud, DistortionSpec(kind="ds", level=0.4, seed=3))
        rows = {tuple(row) for row in cloud.positions}
        assert all(tuple(row) in rows for row in out.positions)
        # Row order of survivors matches the source cloud.
        source_index = {tuple(row): i for i, row in enumerate(cloud.positions)}
        picked = [source_index[tuple(row)] for row in out.positions]
        assert picked == sorted(picked)

    def test_seed_determinism(self):
        cloud = random_cloud(400, seed=11)
        a = apply_distortion(cloud, DistortionSpec(kind="ds", level=0.3, seed=4))
        b = apply_distortion(cloud, DistortionSpec(kind="ds", level=0.3, seed=4))
        c = apply_distortion(cloud, DistortionSpec(kind="ds", level=0.3, seed=5))
        assert np.array_equal(a.positions, b.positions)
        assert not np.array_equal(a.positions, c.positions)


class TestQuantize:
    def test_requantizing_is_bit_identical(self):
        cloud = random_cloud(3000, seed=12)
        for depth in (4, 6, 9):
            once = apply_distortion(cloud, DistortionSpec(kind="ot", level=depth))
            twice = apply_distortion(once, DistortionSpec(kind="ot", level=depth))
            assert np.array_equal(once.positions, twice.positions)
            assert np.array_equal(once.colors, twice.colors)

    def test_output_sits_on_the_lattice(self):
        cloud = random_cloud(800, seed=13, colored=False)
        depth = 5
        out = apply_distortion(cloud, DistortionSpec(kind="ot", level=depth))
        from pcqa import bounding_box
        box = bounding_box(cloud)
        for axis in range(3):
            step = _lattice_step(box.extents[axis], depth)
            keys = (out.positions[:, axis] - box.min_corner[axis]) / step
            # Subtracting the anchor back out costs an ulp; the grid offsets
            # must still be integral to far below half a cell.
            assert np.abs(keys - np.rint(keys)).max() < 1e-9
            assert np.rint(keys).min() >= 0

    def test_collisions_merge_and_average_colors(self):
        positions = np.array([
            [0.0, 0.0, 0.0],
            [0.1, 0.0, 0.0],
            [8.0, 0.0, 0.0],
        ])
        colors = np.array([[10.0, 0, 0], [14.0, 0, 0], [200.0, 0, 0]])
        cloud = PointCloud(positions=positions, colors=colors)
        out = apply_distortion(cloud, DistortionSpec(kind="ot", level=1))
        assert out.count == 2
        assert sorted(out.colors[:, 0].tolist()) == [12.0, 200.0]

    def test_deeper_lattices_keep_more_points(self):
        cloud = random_cloud(5000, seed=14)
        counts = [
            apply_distortion(cloud, DistortionSpec(kind="ot", level=d)).count
            for d in LEVEL_PRESETS["ot"]
        ]
        assert counts == sorted(counts, reverse=True)
        assert counts[-1] < cloud.count

    def test_merged_normals_stay_unit_length(self):
        cloud = random_cloud(1000, seed=15, normals=True)
        out = apply_distortion(cloud, DistortionSpec(kind="ot", level=4))
        assert np.linalg.norm(out.normals, axis=1) == pytest.approx(1.0, abs=1e-12)

    def test_lattice_step_values(self):
        assert _lattice_step(8.0, 3) == 1.0
        assert _lattice_step(9.0, 3) == 2.0
        assert _lattice_step(0.0, 5) == 0.0
        # Exact powers of two are their own rounded-up extent.
        assert _lattice_step(4.0, 2) == 1.0


def test_preset_table_shape_and_ordering():
    assert tuple(LEVEL_PRESETS) == KINDS
    for kind, levels in LEVEL_PRESETS.items():
        assert len(levels) == 6
    assert list(LEVEL_PRESETS["cn"]) == sorted(LEVEL_PRESETS["cn"])
    assert list(LEVEL_PRESETS["ggn"]) == sorted(LEVEL_PRESETS["ggn"])
    assert list(LEVEL_PRESETS["ds"]) == sorted(LEVEL_PRESETS["ds"], reverse=True)
    assert list(LEVEL_PRESETS["ot"]) == sorted(LEVEL_PRESETS["ot"], reverse=True)
    assert all(d == int(d) for d in LEVEL_PRESETS["ot"])
