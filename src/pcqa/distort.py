"""Seeded distortion fixtures for metric validation.

Four families are provided, each deterministic in (input, spec):

* "cn"  - color noise: integer-rounded Gaussian noise added to each color
          channel (sigma = level * 255), clipped to [0, 255]; positions
          untouched.
* "ggn" - geometric Gaussian noise: per-axis displacement with
          sigma = level * B, B the smallest bounding-box extent. Stored
          normals are dropped: they do not describe the displaced surface.
* "ds"  - downsampling: keeps a uniform seeded fraction of the points in
          their original relative order.
* "ot"  - octree-style quantization: snaps coordinates onto the
          2^depth lattice spanned by the bounding box and merges points
          that collide (colors averaged). Idempotent at a fixed depth.

LEVEL_PRESETS orders six severities per family for monotonicity sweeps;
reusing one seed across levels makes the level-ℓ fixtures nested/
proportional, which keeps quality strictly ordered.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .cloud import PointCloud, bounding_box
from .errors import DomainError, check_choice, check_integer

KINDS = ("cn", "ggn", "ds", "ot")

LEVEL_PRESETS: dict[str, tuple[float, ...]] = {
    "cn": (0.02, 0.04, 0.08, 0.14, 0.22, 0.32),
    "ggn": (0.002, 0.004, 0.008, 0.014, 0.022, 0.032),
    "ds": (0.85, 0.70, 0.55, 0.40, 0.25, 0.12),
    "ot": (9, 8, 7, 6, 5, 4),
}


@dataclass(frozen=True)
class DistortionSpec:
    """One distortion application: family, severity parameter, seed.

    level means a noise fraction for "cn"/"ggn", the keep ratio for "ds",
    and the lattice depth (integer >= 1) for "ot".
    """

    kind: str
    level: float
    seed: int = 0

    def __post_init__(self):
        check_choice("distortion kind", self.kind, KINDS)
        if not math.isfinite(self.level):
            raise DomainError(f"{self.kind} level must be finite, got {self.level}")
        check_integer("seed", self.seed, 0)
        if self.kind == "ot":
            if self.level != int(self.level) or not 1 <= self.level <= 16:
                raise DomainError(f"ot depth must be an integer in [1, 16], got {self.level}")
        elif self.kind == "ds":
            if not 0 < self.level <= 1:
                raise DomainError(f"ds keep ratio must be in (0, 1], got {self.level}")
        elif self.level < 0:
            raise DomainError(f"{self.kind} level must be >= 0, got {self.level}")

    def to_dict(self) -> dict:
        return asdict(self)


def apply_distortion(cloud: PointCloud, spec: DistortionSpec) -> PointCloud:
    """Apply one distortion spec to a cloud."""
    rng = np.random.default_rng(spec.seed)
    if spec.kind == "cn":
        return _color_noise(cloud, spec.level, rng)
    if spec.kind == "ggn":
        return _geometry_noise(cloud, spec.level, rng)
    if spec.kind == "ds":
        return _downsample(cloud, spec.level, rng)
    return _quantize(cloud, int(spec.level))


def _color_noise(cloud: PointCloud, level: float, rng) -> PointCloud:
    if not cloud.has_colors:
        raise DomainError("color noise requires a colored cloud")
    noise = np.rint(rng.normal(0.0, level * 255.0, size=cloud.colors.shape))
    colors = np.clip(cloud.colors + noise, 0.0, 255.0)
    return PointCloud(positions=cloud.positions, colors=colors,
                      normals=cloud.normals)


def _geometry_noise(cloud: PointCloud, level: float, rng) -> PointCloud:
    sigma = level * bounding_box(cloud).min_extent
    offsets = rng.normal(0.0, sigma, size=cloud.positions.shape)
    return PointCloud(positions=cloud.positions + offsets, colors=cloud.colors)


def _downsample(cloud: PointCloud, keep_ratio: float, rng) -> PointCloud:
    kept = int(round(keep_ratio * cloud.count))
    if kept < 1:
        raise DomainError(f"keep ratio {keep_ratio} leaves no points out of {cloud.count}")
    keep = np.sort(rng.permutation(cloud.count)[:kept])
    return PointCloud(
        positions=cloud.positions[keep],
        colors=cloud.colors[keep] if cloud.has_colors else None,
        normals=cloud.normals[keep] if cloud.has_normals else None,
    )


def _lattice_step(extent: float, depth: int) -> float:
    """Cell size: the extent rounded up to a power of two, divided by
    2^depth. Power-of-two cells make integer multiples exact, which keeps
    requantization at the same depth bit-identical."""
    if extent <= 0.0:
        return 0.0
    mantissa, exponent = math.frexp(extent)  # extent = mantissa * 2^exponent
    if mantissa == 0.5:
        exponent -= 1
    return math.ldexp(1.0, exponent - depth)


def _quantize(cloud: PointCloud, depth: int) -> PointCloud:
    """Snap coordinates onto a 2^depth lattice anchored at the bounding-box
    minimum, then merge lattice collisions (colors and normals averaged)."""
    box = bounding_box(cloud)
    step = np.array([_lattice_step(e, depth) for e in box.extents])
    rel = cloud.positions - box.min_corner
    grid = np.zeros_like(rel)
    for axis in range(3):
        if step[axis] > 0:
            grid[:, axis] = np.round(rel[:, axis] / step[axis])

    keys, inverse = np.unique(grid.astype(np.int64), axis=0, return_inverse=True)
    m = keys.shape[0]
    positions = box.min_corner + keys * step
    counts = np.bincount(inverse, minlength=m).astype(np.float64)

    def cell_mean(values: np.ndarray) -> np.ndarray:
        return np.column_stack([
            np.bincount(inverse, weights=values[:, axis], minlength=m) / counts
            for axis in range(3)
        ])

    colors = np.rint(cell_mean(cloud.colors)) if cloud.has_colors else None
    normals = None
    if cloud.has_normals:
        normals = cell_mean(cloud.normals)
        norms = np.linalg.norm(normals, axis=1)
        fallback = norms <= 1e-12
        normals[fallback] = (0.0, 0.0, 1.0)
        norms[fallback] = 1.0
        normals /= norms[:, None]
    return PointCloud(positions=positions, colors=colors, normals=normals)
