import warnings

import numpy as np
import pytest

from pcqa import DomainError, PointCloud, ValidationError, bounding_box, merged_bounding_box
from pcqa.cloud import MAX_COORDINATE, same_geometry

from helpers import random_cloud


def test_arrays_are_coerced_and_frozen():
    cloud = PointCloud(positions=[[0, 0, 0], [1, 2, 3]])
    assert cloud.positions.dtype == np.float64
    assert cloud.count == 2
    assert not cloud.has_colors and not cloud.has_normals
    with pytest.raises(ValueError):
        cloud.positions[0, 0] = 5.0


def test_cloud_copies_the_callers_array():
    pos = np.random.default_rng(0).uniform(0, 1, (20, 3))
    cloud = PointCloud(positions=pos)
    dist, idx = cloud.spatial_index.query_array(cloud.positions, 4)
    before = cloud.positions.copy(), dist.copy(), idx.copy()
    pos[:] = 7.0  # the caller's array stays writable
    assert np.array_equal(cloud.positions, before[0])
    after = cloud.spatial_index.query_array(cloud.positions, 4)
    assert np.array_equal(after[0], before[1]) and np.array_equal(after[1], before[2])


def test_cloud_copies_only_what_can_still_be_written():
    cloud = random_cloud(20, seed=1)
    assert PointCloud(positions=cloud.positions).positions is cloud.positions
    pos = np.zeros((5, 3))
    view = pos.view()
    view.setflags(write=False)  # read-only, but its base is still writable
    copied = PointCloud(positions=view)
    pos[0] = 1.0
    assert np.all(copied.positions == 0.0)


def test_positions_must_be_n_by_3():
    with pytest.raises(ValidationError):
        PointCloud(positions=np.zeros((4, 2)))


def test_non_finite_coordinate_names_the_point():
    bad = np.zeros((3, 3))
    bad[1, 2] = np.nan
    with pytest.raises(ValidationError, match="point 1"):
        PointCloud(positions=bad)


def test_coordinates_beyond_the_bound_are_rejected():
    edge = np.zeros((3, 3))
    edge[0, 0], edge[2, 1] = MAX_COORDINATE, -MAX_COORDINATE
    PointCloud(positions=edge)
    edge[1, 2] = np.nextafter(-MAX_COORDINATE, -np.inf)
    with pytest.raises(DomainError, match="point 1"):
        PointCloud(positions=edge)


@pytest.mark.parametrize("huge", [1e300, -1e300])
def test_first_non_finite_row_is_named_before_a_huge_one(huge):
    pos = np.zeros((5, 3))
    pos[0, 1] = MAX_COORDINATE  # exactly at the bound: accepted
    pos[1, 2], pos[3, 0] = np.nan, huge
    with pytest.raises(ValidationError, match="non-finite coordinate at point 1"):
        PointCloud(positions=pos)
    for bad in (np.inf, -np.inf):
        pos[1, 2] = bad
        with pytest.raises(ValidationError, match="non-finite coordinate at point 1"):
            PointCloud(positions=pos)
    pos[1, 2] = -MAX_COORDINATE
    with pytest.raises(DomainError, match="point 3"):
        PointCloud(positions=pos)
    pos[3, 0] = 0.0
    PointCloud(positions=pos)


def test_color_length_mismatch_rejected():
    with pytest.raises(ValidationError):
        PointCloud(positions=np.zeros((2, 3)), colors=np.zeros((3, 3)))


def test_normals_length_mismatch_rejected():
    with pytest.raises(ValidationError, match="normals length 1 does not match 2 points"):
        PointCloud(positions=np.zeros((2, 3)), normals=[[0.0, 0.0, 1.0]])


def test_color_range_and_integrality():
    pos = np.zeros((1, 3))
    with pytest.raises(ValidationError):
        PointCloud(positions=pos, colors=[[0, 0, 256]])
    with pytest.raises(ValidationError, match="non-integer"):
        PointCloud(positions=pos, colors=[[0, 0, 12.5]])
    cloud = PointCloud(positions=pos, colors=[[0, 128, 255]])
    assert cloud.has_colors


def test_normals_must_be_unit_length():
    pos = np.zeros((1, 3))
    with pytest.raises(ValidationError):
        PointCloud(positions=pos, normals=[[0.5, 0.5, 0.5]])
    PointCloud(positions=pos, normals=[[0.0, 0.0, 1.0]])


@pytest.mark.parametrize("bad", [1e200, -1e300, np.inf, np.nan])
def test_huge_or_non_finite_normal_is_rejected_without_a_warning(bad):
    # Squaring 1e200 overflows; the normal must still fail as non-unit,
    # with no RuntimeWarning raised first under an error filter.
    normals = [[0.0, 0.0, 1.0], [bad, 0.0, 1.0], [0.0, 1.0, 0.0]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="non-unit normal at point 1"):
            PointCloud(positions=np.zeros((3, 3)), normals=normals)


def test_bounding_box_extents():
    # Axis ranges of a well-known scan: x 182..575, y 10..987, z 121..353.
    cloud = PointCloud(positions=[[182, 10, 121], [575, 987, 353]])
    box = bounding_box(cloud)
    assert np.array_equal(box.extents, [393.0, 977.0, 232.0])
    assert box.min_extent == 232.0
    assert box.max_extent == 977.0


def test_bounding_box_degenerate_and_unit():
    single = bounding_box(PointCloud(positions=[[3.0, -1.0, 2.0]]))
    assert np.array_equal(single.extents, [0.0, 0.0, 0.0])
    assert single.min_extent == single.max_extent == 0.0

    corners = [[0, 0, 0], [1, 1, 1]]
    box = bounding_box(PointCloud(positions=corners))
    assert np.array_equal(box.extents, [1.0, 1.0, 1.0])


def test_bounding_box_permutation_invariant():
    cloud = random_cloud(200, seed=5)
    perm = np.random.default_rng(1).permutation(200)
    shuffled = PointCloud(positions=cloud.positions[perm], colors=cloud.colors[perm])
    a, b = bounding_box(cloud), bounding_box(shuffled)
    assert np.array_equal(a.min_corner, b.min_corner)
    assert np.array_equal(a.max_corner, b.max_corner)


def test_merged_bounding_box_covers_both():
    a = bounding_box(PointCloud(positions=[[0, 0, 0], [1, 1, 1]]))
    b = bounding_box(PointCloud(positions=[[-1, 0.5, 0], [0.5, 2, 0.5]]))
    merged = merged_bounding_box(a, b)
    assert np.array_equal(merged.min_corner, [-1, 0, 0])
    assert np.array_equal(merged.max_corner, [1, 2, 1])


def test_same_geometry_is_one_array_or_identical_bytes():
    cloud = random_cloud(50, seed=3)
    assert same_geometry(cloud, PointCloud(positions=cloud.positions))  # the array itself
    copy = np.array(cloud.positions)
    assert same_geometry(cloud, PointCloud(positions=copy))
    copy[7, 1] = np.nextafter(copy[7, 1], np.inf)  # one ulp
    assert not same_geometry(cloud, PointCloud(positions=copy))
    assert not same_geometry(cloud, PointCloud(positions=cloud.positions[:49]))
    zeros = np.zeros((4, 3))
    signed = zeros.copy()
    signed[2, 0] = -0.0  # equal values, other bytes
    assert not same_geometry(PointCloud(positions=zeros), PointCloud(positions=signed))
