import numpy as np
import pytest

from pcqa import DomainError, GraphSimConfig, PointCloud, decompose, to_gcm, to_yuv
from pcqa.colorspace import CHANNEL_WEIGHTS

from helpers import random_cloud
from oracles import gcm_channels


def test_luma_chroma_basis_vectors():
    # The three RGB basis vectors must map to the matrix columns exactly.
    assert to_gcm([1.0, 0.0, 0.0]).tolist() == [0.06, 0.30, 0.34]
    assert to_gcm([0.0, 1.0, 0.0]).tolist() == [0.63, 0.04, -0.60]
    assert to_gcm([0.0, 0.0, 1.0]).tolist() == [0.27, -0.35, 0.17]


def test_gcm_linearity():
    rng = np.random.default_rng(7)
    a, b = rng.uniform(0, 1, (2, 200, 3))
    s = float(rng.uniform(0.1, 3))
    lhs = to_gcm(a * s + b)
    rhs = s * to_gcm(a) + to_gcm(b)
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_gcm_matches_loop_oracle():
    colors = np.random.default_rng(8).integers(0, 256, (50, 3)).astype(float)
    got = to_gcm(colors / 255.0)
    assert np.allclose(got, gcm_channels(colors), atol=1e-12)


def test_yuv_grey_axis():
    grey = to_yuv(np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0], [0.5, 0.5, 0.5]]))
    assert np.allclose(grey[:, 0], [0.0, 1.0, 0.5], atol=1e-12)
    assert np.allclose(grey[:, 1:], 0.5, atol=1e-12)


def test_yuv_primaries_formula():
    # BT.709 luma weights with chroma offsets of one half.
    y, u, v = to_yuv([1.0, 0.0, 0.0])
    assert y == pytest.approx(0.2126, abs=1e-12)
    assert u == pytest.approx((0.0 - 0.2126) / 1.8556 + 0.5, abs=1e-12)
    assert v == pytest.approx((1.0 - 0.2126) / 1.5748 + 0.5, abs=1e-12)


def test_yuv_range_stays_in_unit_box():
    rng = np.random.default_rng(9)
    yuv = to_yuv(rng.uniform(0, 1, (500, 3)))
    assert yuv.min() >= 0.0 and yuv.max() <= 1.0


def test_config_rejects_unknown_space():
    with pytest.raises(DomainError, match="unknown color space 'hsv'"):
        GraphSimConfig(color_space="hsv")
    with pytest.raises(DomainError, match="unknown color space 'hsv'"):
        decompose(random_cloud(4, seed=1), "hsv")


def test_default_channel_weights():
    assert CHANNEL_WEIGHTS == {"gcm": (6.0, 1.0, 1.0), "yuv": (6.0, 1.0, 1.0),
                               "rgb": (1.0, 2.0, 1.0)}
    for space, weights in CHANNEL_WEIGHTS.items():
        assert GraphSimConfig(color_space=space).to_dict()["color_space"] == \
            {"space": space, "weights": list(weights)}


def test_decompose_scales_colors_to_unit():
    cloud = PointCloud(positions=np.zeros((2, 3)), colors=[[255, 0, 0], [0, 255, 0]])
    signal = decompose(cloud, "rgb")
    assert signal.values.tolist() == [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]
    gcm = decompose(cloud, "gcm")
    assert gcm.values[0].tolist() == [0.06, 0.30, 0.34]
    assert gcm.labels == ("lum", "chroma1", "chroma2")


def test_decompose_requires_colors():
    cloud = PointCloud(positions=np.zeros((1, 3)))
    with pytest.raises(DomainError):
        decompose(cloud, "gcm")


def test_decompose_channel_count_matches_labels():
    cloud = random_cloud(20, seed=10)
    for space in ("gcm", "yuv", "rgb"):
        signal = decompose(cloud, space)
        assert signal.values.shape == (20, 3)
        assert len(signal.labels) == 3


def test_gcm_white_gives_the_row_sums():
    got = to_gcm((1.0, 1.0, 1.0))
    assert np.allclose(got, (0.96, -0.01, -0.09), atol=1e-12)


def test_uniform_gray_decomposes_to_constant_channels():
    colors = np.tile((128.0, 128.0, 128.0), (40, 1))
    cloud = PointCloud(positions=np.random.default_rng(9).uniform(0, 1, (40, 3)),
                       colors=colors)
    signal = decompose(cloud, "gcm")
    assert len(signal.labels) == 3
    for c in range(signal.values.shape[1]):
        assert np.ptp(signal.values[:, c]) == 0.0
