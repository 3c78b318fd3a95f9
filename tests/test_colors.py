"""Colours are stored as one byte a channel: `PointCloud.colors` is a read-only
(N, 3) uint8 array. Other dtypes are checked as before (finite integers in
[0, 255]) and then cast; a frozen uint8 array is kept as it is. The colour
math divides by 255.0, which gives the same bytes from uint8 as from float64,
so a cloud scores as its float64 twin, the storage colours had before, did."""

import numpy as np
import pytest

from pcqa import (DistortionSpec, PointCloud, ValidationError, apply_distortion, decompose,
                  to_yuv)
from pcqa.baselines import _color_psnr, _db, _match_pair, combine_channel_psnr
from pcqa.colorspace import SPACES

from helpers import random_cloud


def _float64_twin(cloud):
    """The cloud with its colours held as float64, as PointCloud stored them before."""
    twin = PointCloud(positions=cloud.positions)
    object.__setattr__(twin, "colors", cloud.colors.astype(np.float64))
    return twin


@pytest.mark.parametrize("dtype", [np.float64, np.int64, np.uint8, None])
def test_colors_are_read_only_uint8_whatever_the_input(dtype):
    rng = np.random.default_rng(0)
    values = rng.integers(0, 256, (40, 3))
    given = values.tolist() if dtype is None else values.astype(dtype)
    cloud = PointCloud(positions=rng.uniform(0, 1, (40, 3)), colors=given)
    assert cloud.colors.dtype == np.uint8 and cloud.colors.shape == (40, 3)
    assert np.array_equal(cloud.colors, values)
    with pytest.raises(ValueError):
        cloud.colors[0, 0] = 1
    if dtype is not None:
        given[:] = 7  # the caller's array stays writable and apart from the cloud
        assert np.array_equal(cloud.colors, values)


@pytest.mark.parametrize("dtype, bad, message", [
    (np.float64, np.nan, "out of range"), (np.float64, -1.0, "out of range"),
    (np.float64, 256.0, "out of range"), (np.float64, 12.5, "non-integer"),
    (np.float64, np.inf, "out of range"), (np.int64, -1, "out of range"),
    (np.int64, 256, "out of range"), (np.int64, 2**40, "out of range"),
])
def test_bad_channels_are_rejected_before_the_cast(dtype, bad, message):
    colors = np.zeros((5, 3), dtype=dtype)
    colors[3, 1] = bad
    with pytest.raises(ValidationError, match=f"{message}.* at point 3"):
        PointCloud(positions=np.zeros((5, 3)), colors=colors)


def test_a_frozen_uint8_array_is_shared_and_a_writable_one_copied():
    ref = random_cloud(200, seed=1)
    assert PointCloud(positions=ref.positions, colors=ref.colors).colors is ref.colors
    assert apply_distortion(ref, DistortionSpec("ggn", 0.01, seed=2)).colors is ref.colors
    ds = apply_distortion(ref, DistortionSpec("ds", 0.5, seed=2))
    assert ds.colors.dtype == np.uint8
    assert {tuple(c) for c in ds.colors} <= {tuple(c) for c in ref.colors}
    writable = np.array(ref.colors)
    assert PointCloud(positions=ref.positions, colors=writable).colors is not writable
    view = writable[::2]
    view.setflags(write=False)  # read-only, but its base is still writable
    assert PointCloud(positions=ref.positions[::2], colors=view).colors.base is None


@pytest.mark.parametrize("space", SPACES)
def test_decompose_gives_the_float64_twins_bytes(space):
    cloud = random_cloud(500, seed=3)
    got, want = decompose(cloud, space).values, decompose(_float64_twin(cloud), space).values
    assert got.dtype == want.dtype == np.float64
    assert got.tobytes() == want.tobytes()


def _psnr_by_channel_means(ref_rgb, dist_rgb, matches):
    """The colour PSNR with numpy's (N, 3) column means, on float64 colours."""
    ref_yuv, dist_yuv = (to_yuv(rgb / 255.0) * 255.0 for rgb in (ref_rgb, dist_rgb))

    def direction(a, b, m):
        mse = ((a - b[m]) ** 2).mean(axis=0)
        return combine_channel_psnr(*(_db(255.0 ** 2, e) for e in mse))
    return direction(dist_yuv, ref_yuv, matches[0]), direction(ref_yuv, dist_yuv, matches[1])


@pytest.mark.parametrize("n", [1, 2, 37, 4000])
def test_color_psnr_gives_the_float64_twins_bytes(n):
    ref, dist = random_cloud(n, seed=4), random_cloud(n + 3, seed=5)
    matches = _match_pair(ref, dist)
    got = _color_psnr(ref, dist, matches)
    twin = _color_psnr(_float64_twin(ref), _float64_twin(dist), matches)
    assert (got.value, got.forward_db, got.backward_db) == \
        (twin.value, twin.forward_db, twin.backward_db)
    # Column sums in row order divided by N are numpy's column means, bit for bit.
    assert (got.forward_db, got.backward_db) == _psnr_by_channel_means(
        ref.colors.astype(np.float64), dist.colors.astype(np.float64), matches)
