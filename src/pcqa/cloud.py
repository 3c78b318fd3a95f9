"""Point cloud containers and bounding-box computation."""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ValidationError

MAX_COORDINATE = 1e150  # so 3 * (2 * MAX_COORDINATE) ** 2, the widest squared distance, is finite


def _as_point_array(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    # Copy what the caller can still write to, so no point moves under the
    # cloud's cached tree and neighbor table; fresh or frozen arrays are kept.
    if (arr is values and arr.flags.writeable) or arr.base is not None \
            or not arr.flags.c_contiguous:
        arr = np.array(arr, order="C")
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise ValidationError(f"{name} must be an (N, 3) array, got shape {arr.shape}")
    arr.setflags(write=False)
    return arr


def _first_bad_row(mask: np.ndarray) -> int:
    return int(np.nonzero(mask)[0][0])


def _check_positions(pos: np.ndarray) -> None:
    """ValidationError on a non-finite coordinate, DomainError on one above MAX_COORDINATE."""
    finite = np.isfinite(pos).all(axis=1)
    if not finite.all():
        raise ValidationError(f"non-finite coordinate at point {_first_bad_row(~finite)}")
    huge = (np.abs(pos) > MAX_COORDINATE).any(axis=1)
    if huge.any():
        raise DomainError(f"|coordinate| > {MAX_COORDINATE:g} at point {_first_bad_row(huge)}")


@dataclass(frozen=True, eq=False)
class PointCloud:
    """Immutable point set with optional per-point colors and normals.

    positions
        (N, 3) float64 coordinates, each finite and at most MAX_COORDINATE in magnitude.
    colors
        Optional (N, 3) array of integer-valued channels in [0, 255],
        stored as float64. Downstream color math rescales to [0, 1].
    normals
        Optional (N, 3) array of unit vectors (norm within 1e-6 of 1).
    """

    positions: np.ndarray
    colors: np.ndarray | None = None
    normals: np.ndarray | None = None

    def __post_init__(self):
        pos = _as_point_array(self.positions, "positions")
        object.__setattr__(self, "positions", pos)
        _check_positions(pos)
        n = pos.shape[0]

        if self.colors is not None:
            col = _as_point_array(self.colors, "colors")
            object.__setattr__(self, "colors", col)
            if col.shape[0] != n:
                raise ValidationError(
                    f"colors length {col.shape[0]} does not match {n} points"
                )
            ok = np.isfinite(col).all(axis=1)
            ok &= (col >= 0.0).all(axis=1) & (col <= 255.0).all(axis=1)
            if not ok.all():
                raise ValidationError(
                    f"color out of range [0, 255] at point {_first_bad_row(~ok)}"
                )
            integral = (col == np.rint(col)).all(axis=1)
            if not integral.all():
                raise ValidationError(
                    f"non-integer color channel at point {_first_bad_row(~integral)}"
                )

        if self.normals is not None:
            nrm = _as_point_array(self.normals, "normals")
            object.__setattr__(self, "normals", nrm)
            if nrm.shape[0] != n:
                raise ValidationError(
                    f"normals length {nrm.shape[0]} does not match {n} points"
                )
            norms = np.linalg.norm(nrm, axis=1)
            unit = np.isfinite(norms) & (np.abs(norms - 1.0) <= 1e-6)
            if not unit.all():
                raise ValidationError(
                    f"non-unit normal at point {_first_bad_row(~unit)}"
                )

    @property
    def count(self) -> int:
        return int(self.positions.shape[0])

    @property
    def has_colors(self) -> bool:
        return self.colors is not None

    @property
    def has_normals(self) -> bool:
        return self.normals is not None

    @functools.cached_property
    def spatial_index(self):
        """k-d tree over the positions, built on first use and kept for the
        cloud's lifetime. Raises DomainError on an empty cloud."""
        from .spatial import SpatialIndex  # spatial.py imports this module

        return SpatialIndex(self)

    def _cached(self, key: tuple, compute):
        """compute() on the first call per key, kept read-only for the cloud's
        lifetime; a compute that raises stores nothing."""
        store = self.__dict__.setdefault("_results", {})
        if key not in store:
            value = compute()
            for arr in value if isinstance(value, tuple) else (value,):
                arr.setflags(write=False)
            store[key] = value
        return store[key]


@dataclass(frozen=True, eq=False)
class BoundingBox:
    """Axis-aligned bounds of a point set."""

    min_corner: np.ndarray
    max_corner: np.ndarray

    @property
    def extents(self) -> np.ndarray:
        """Per-axis range, max - min."""
        return self.max_corner - self.min_corner

    @property
    def min_extent(self) -> float:
        """Smallest axis range; local neighborhood radii derive from this."""
        return float(self.extents.min())

    @property
    def max_extent(self) -> float:
        """Largest axis range; the geometry PSNR peak derives from this."""
        return float(self.extents.max())


def bounding_box(cloud: PointCloud) -> BoundingBox:
    """Axis-aligned bounding box of a non-empty cloud.

    Raises DomainError on an empty cloud. Invariant under any permutation
    of the points.
    """
    if cloud.count == 0:
        raise DomainError("bounding box of an empty cloud is undefined")
    return BoundingBox(
        min_corner=cloud.positions.min(axis=0),
        max_corner=cloud.positions.max(axis=0),
    )


def merged_bounding_box(a: BoundingBox, b: BoundingBox) -> BoundingBox:
    """Bounding box of the union of two boxed point sets."""
    return BoundingBox(
        min_corner=np.minimum(a.min_corner, b.min_corner),
        max_corner=np.maximum(a.max_corner, b.max_corner),
    )
