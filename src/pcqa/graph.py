"""Gaussian edge weights and neighborhood-level graph operators.

A local graph is a star: one center joined to the points of a weighted
neighborhood. Edge weight falls off as exp(-d^2 / variance) and is zero
beyond a hard distance cutoff; the cutoff compares the plain (unsquared)
Euclidean distance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ValidationError

_TINY = np.finfo(np.float64).tiny


@dataclass(frozen=True)
class GraphParams:
    """Edge-weight parameters: the hard distance cutoff, which fixes the variance."""

    cutoff: float

    def __post_init__(self):
        if not self.cutoff >= 0:
            raise DomainError(f"cutoff must be >= 0, got {self.cutoff}")

    @property
    def variance(self) -> float:
        return float(gaussian_variance(self.cutoff))


def gaussian_variance(cutoff):
    """Gaussian variance cutoff^2 / 2, floored to stay positive. Array-aware."""
    return np.maximum(cutoff * cutoff / 2.0, _TINY)


def edge_weight(distance, params: GraphParams):
    """exp(-d^2 / variance) for d <= cutoff, else 0. Array-aware."""
    d = np.asarray(distance, dtype=np.float64)
    w = np.where(d <= params.cutoff, np.exp(-(d * d) / params.variance), 0.0)
    return float(w) if np.isscalar(distance) or w.ndim == 0 else w


@dataclass(frozen=True, eq=False)
class WeightedNeighborhood:
    """Neighbors of one center point, with precomputed distances and weights.

    center_index is the center's index in the indexed cloud, or -1 when the
    center is not a member of that cloud (e.g. a keypoint measured against a
    different cloud). The center itself is never listed as a neighbor.
    """

    center_index: int
    indices: np.ndarray    # (M,) neighbor indices into the owning cloud
    positions: np.ndarray  # (M, 3) neighbor coordinates
    distances: np.ndarray  # (M,) center-to-neighbor distances
    weights: np.ndarray    # (M,) edge weights, all > 0

    @property
    def size(self) -> int:
        return int(self.indices.shape[0])


@dataclass(frozen=True, eq=False)
class SignalAttribute:
    """Per-point signal with 1 to 3 channels (color, coordinates, normals)."""

    values: np.ndarray
    kind: str = "color"
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        values = np.ascontiguousarray(self.values, dtype=np.float64)
        if values.ndim == 1:
            values = values[:, None]
        if values.ndim != 2 or not 1 <= values.shape[1] <= 3:
            raise ValidationError(
                f"signal must have 1-3 channels, got shape {values.shape}"
            )
        if not np.isfinite(values).all():
            raise ValidationError("signal values must be finite")
        object.__setattr__(self, "values", values)
        if self.labels is None:
            object.__setattr__(
                self, "labels", tuple(f"c{i}" for i in range(values.shape[1]))
            )
        elif len(self.labels) != values.shape[1]:
            raise ValidationError("one label per channel required")


def degree(neighborhood: WeightedNeighborhood) -> float:
    """Sum of incident edge weights; 0 for an isolated center."""
    return float(neighborhood.weights.sum())
