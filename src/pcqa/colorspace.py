"""Color transforms and channel decomposition.

Two opponent-style spaces are provided on top of raw RGB:

* "gcm": a Gaussian color model giving one luminance-like and two
  chromatic channels via a fixed 3x3 matrix.
* "yuv": BT.709 full-range luma/chroma, with U and V centered at 0.5 so
  all channels stay in [0, 1].

All transforms take RGB already rescaled to [0, 1]; `decompose` handles the
0-255 -> 0-1 rescale from stored cloud colors.
"""

from __future__ import annotations

import numpy as np

from .cloud import PointCloud
from .errors import DomainError, check_choice
from .graph import SignalAttribute

GCM_MATRIX = np.array([
    [0.06, 0.63, 0.27],
    [0.30, 0.04, -0.35],
    [0.34, -0.60, 0.17],
])

SPACES = ("gcm", "yuv", "rgb")

# Pooling weights per channel, chosen so the luminance-like channel
# dominates in the opponent spaces while green dominates in raw RGB.
CHANNEL_WEIGHTS = {
    "gcm": (6.0, 1.0, 1.0),
    "yuv": (6.0, 1.0, 1.0),
    "rgb": (1.0, 2.0, 1.0),
}

CHANNEL_LABELS = {
    "gcm": ("lum", "chroma1", "chroma2"),
    "yuv": ("y", "u", "v"),
    "rgb": ("r", "g", "b"),
}


def to_gcm(rgb) -> np.ndarray:
    """Gaussian color model channels for RGB input in [0, 1].

    Accepts a single (3,) triple or an (N, 3) array; linear, so
    to_gcm(a*x + b*y) == a*to_gcm(x) + b*to_gcm(y).
    """
    rgb = np.asarray(rgb, dtype=np.float64)
    return rgb @ GCM_MATRIX.T


def to_yuv(rgb) -> np.ndarray:
    """BT.709 full-range YUV for RGB input in [0, 1]; output in [0, 1]^3."""
    rgb = np.asarray(rgb, dtype=np.float64)
    r, g, b = rgb[..., 0], rgb[..., 1], rgb[..., 2]
    y = 0.2126 * r + 0.7152 * g + 0.0722 * b
    u = (b - y) / 1.8556 + 0.5
    v = (r - y) / 1.5748 + 0.5
    return np.stack([y, u, v], axis=-1)


def decompose(cloud: PointCloud, space: str = "gcm") -> SignalAttribute:
    """Per-point color channels of a cloud in `space`, one of SPACES.

    Stored colors (integer 0-255) are rescaled to [0, 1] before the
    transform. Raises DomainError for an unknown space or a cloud
    without colors.
    """
    check_choice("color space", space, SPACES)
    if not cloud.has_colors:
        raise DomainError("cloud has no colors to decompose")
    rgb = cloud.colors / 255.0
    if space == "gcm":
        values = to_gcm(rgb)
    elif space == "yuv":
        values = to_yuv(rgb)
    else:
        values = rgb
    return SignalAttribute(values=values, kind="color", labels=CHANNEL_LABELS[space])
