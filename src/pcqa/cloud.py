"""Point cloud containers and bounding-box computation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ValidationError
from .spatial import MAX_COORDINATE, SpatialIndex


def _as_point_array(values, name: str, dtype=np.float64) -> np.ndarray:
    arr = np.asarray(values, dtype=dtype)
    # Copy what the caller can still write to, so no point moves under the
    # cloud's cached tree and results; fresh or frozen arrays are kept.
    if (arr is values and arr.flags.writeable) or arr.base is not None \
            or not arr.flags.c_contiguous:
        arr = np.array(arr, order="C")
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise ValidationError(f"{name} must be an (N, 3) array, got shape {arr.shape}")
    arr.setflags(write=False)
    return arr


def _as_color_array(values) -> np.ndarray:
    """Read-only (N, 3) uint8 colours; other dtypes are checked as float64, then cast."""
    if np.asarray(values).dtype != np.uint8:
        col = _as_point_array(values, "colors")
        ok = (col >= 0.0).all(axis=1) & (col <= 255.0).all(axis=1)  # False for NaN and inf
        if not ok.all():
            raise ValidationError(f"color out of range [0, 255] at point {_first_bad_row(~ok)}")
        values = col.astype(np.uint8)  # truncates, so it equals col only where col is integral
        integral = (values == col).all(axis=1)
        if not integral.all():
            raise ValidationError(f"non-integer color channel at point {_first_bad_row(~integral)}")
        values.setflags(write=False)  # fresh, so kept below
    return _as_point_array(values, "colors", np.uint8)


def _first_bad_row(mask: np.ndarray) -> int:
    return int(np.nonzero(mask)[0][0])


def _check_positions(pos: np.ndarray) -> None:
    """ValidationError on a non-finite coordinate, DomainError on one above MAX_COORDINATE."""
    if (np.abs(pos) <= MAX_COORDINATE).all():  # one pass; NaN fails it too
        return
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
        (N, 3) float64 coordinates, N >= 1, each finite with |x| <= MAX_COORDINATE.
    colors
        Optional (N, 3) integer channels in [0, 255], stored as uint8, which
        wraps: cast before arithmetic. Colour math rescales to [0, 1].
    normals
        Optional (N, 3) array of unit vectors (norm within 1e-6 of 1).
    """

    positions: np.ndarray
    colors: np.ndarray | None = None
    normals: np.ndarray | None = None

    def __post_init__(self):
        pos = _as_point_array(self.positions, "positions")
        object.__setattr__(self, "positions", pos)
        n = pos.shape[0]
        if n == 0:
            raise DomainError("a point cloud needs at least one point")
        _check_positions(pos)

        if self.colors is not None:
            col = _as_color_array(self.colors)
            object.__setattr__(self, "colors", col)
            if col.shape[0] != n:
                raise ValidationError(
                    f"colors length {col.shape[0]} does not match {n} points"
                )

        if self.normals is not None:
            nrm = _as_point_array(self.normals, "normals")
            object.__setattr__(self, "normals", nrm)
            if nrm.shape[0] != n:
                raise ValidationError(
                    f"normals length {nrm.shape[0]} does not match {n} points"
                )
            norms = np.linalg.norm(np.clip(nrm, -2.0, 2.0), axis=1)  # no overflow, still non-unit
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

    @property
    def spatial_index(self):
        """k-d tree over the positions, built on first use and kept for the
        cloud's lifetime."""
        return self._cached(("spatial index",), lambda: SpatialIndex(self))

    def _cached(self, key: tuple, compute):
        """compute() on the first call per key, kept in `_results` for the cloud's
        lifetime; its ndarrays (the value, a tuple's items or an object's attributes)
        are made read-only. A compute that raises stores nothing."""
        store = self.__dict__.setdefault("_results", {})
        if key not in store:
            value = compute()
            parts = value if isinstance(value, tuple) else \
                (value, *getattr(value, "__dict__", {}).values())
            for arr in parts:
                if isinstance(arr, np.ndarray):
                    arr.setflags(write=False)
            store[key] = value
        return store[key]


def same_geometry(a: PointCloud, b: PointCloud) -> bool:
    """Whether the clouds hold one positions array, or equal-shaped byte-identical ones."""
    return a.positions is b.positions or np.array_equal(
        a.positions.view(np.int64), b.positions.view(np.int64))


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
    """Axis-aligned bounding box of a cloud.

    Invariant under any permutation of the points. The corners are
    read-only, computed once per cloud.
    """
    return BoundingBox(*cloud._cached(
        ("box",), lambda: (cloud.positions.min(axis=0), cloud.positions.max(axis=0))))


def merged_bounding_box(a: BoundingBox, b: BoundingBox) -> BoundingBox:
    """Bounding box of the union of two boxed point sets."""
    return BoundingBox(
        min_corner=np.minimum(a.min_corner, b.min_corner),
        max_corner=np.maximum(a.max_corner, b.max_corner),
    )
