"""Point-wise baseline quality metrics.

Implements the classic MPEG-style point-to-point (p2po) and point-to-plane
(p2pl) geometry PSNRs under MSE and Hausdorff aggregation, plus a matched
color PSNR over BT.709 YUV channels. All symmetric values keep the worse
(larger error / smaller PSNR) of the two matching directions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cloud import BoundingBox, PointCloud, bounding_box, merged_bounding_box
from .colorspace import to_yuv
from .errors import DomainError

METRIC_IDS = ("m-p2po", "m-p2pl", "h-p2po", "h-p2pl", "psnr-yuv")


@dataclass(frozen=True)
class ErrorPair:
    """Directional errors of one metric: forward is distorted-vs-reference,
    backward is reference-vs-distorted."""

    forward: float
    backward: float

    @property
    def symmetric(self) -> float:
        """Worse (larger) of the two directional errors."""
        return max(self.forward, self.backward)


@dataclass(frozen=True)
class BaselineResult:
    """One reported baseline value in dB with its directional components."""

    metric: str
    value: float
    forward_db: float
    backward_db: float


def estimate_normals(cloud: PointCloud, k: int = 12):
    """Per-point unit normals from local PCA.

    Parameters
    ----------
    cloud : PointCloud with at least k points.
    k : neighborhood size (the point itself included).

    Returns
    -------
    (normals, degenerate)
        normals is (N, 3); each row is the eigenvector of the smallest
        eigenvalue of the k-neighborhood covariance, sign-fixed into the
        +z hemisphere (ties toward +y, then +x). degenerate flags rows
        whose neighborhood had rank < 2 (collinear or coincident points);
        those fall back to +z. Both are read-only, computed once per cloud and k.
    """
    if k < 1:
        raise DomainError(f"normal estimation needs k >= 1, got {k}")
    n = cloud.count
    if n < k:
        raise DomainError(f"normal estimation needs at least k={k} points, got {n}")
    return cloud._cached(("normals", k), lambda: _pca_normals(cloud, k))


def _pca_normals(cloud: PointCloud, k: int):
    _, idx = cloud.spatial_index.neighbors(k)
    neighbors = cloud.positions[idx]
    centered = neighbors - neighbors.mean(axis=1, keepdims=True)
    cov = np.einsum("nki,nkj->nij", centered, centered) / k
    eigvals, eigvecs = np.linalg.eigh(cov)
    normals = eigvecs[:, :, 0].copy()
    degenerate = eigvals[:, 1] <= np.maximum(eigvals[:, 2] * 1e-12, 1e-30)
    normals[degenerate] = (0.0, 0.0, 1.0)

    nx, ny, nz = normals[:, 0], normals[:, 1], normals[:, 2]
    flip = (nz < 0) | ((nz == 0) & ((ny < 0) | ((ny == 0) & (nx < 0))))
    normals[flip] *= -1.0
    return normals, degenerate


def _match_pair(ref: PointCloud, dist: PointCloud):
    """The one pair of nearest-match arrays every baseline reads: forward
    maps each distorted point to a reference point, backward the reverse."""
    return (ref.spatial_index.nearest(dist.positions),
            dist.spatial_index.nearest(ref.positions))


def _cloud_normals(cloud: PointCloud, k: int) -> np.ndarray:
    """Stored normals when the cloud has them, else the PCA estimate."""
    return cloud.normals if cloud.has_normals else estimate_normals(cloud, k=k)[0]


def _squared_errors(ref: PointCloud, dist: PointCloud, matches,
                    plane_normals: np.ndarray | None = None) -> dict:
    """Per-point squared (forward, backward) errors over one match pair:
    "p2po" always, "p2pl" when reference `plane_normals` are given."""
    fwd_matches, bwd_matches = matches
    fwd_err = dist.positions - ref.positions[fwd_matches]
    bwd_err = ref.positions - dist.positions[bwd_matches]
    squared = {"p2po": ((fwd_err * fwd_err).sum(axis=1), (bwd_err * bwd_err).sum(axis=1))}
    if plane_normals is not None:
        squared["p2pl"] = ((fwd_err * plane_normals[fwd_matches]).sum(axis=1) ** 2,
                           (bwd_err * plane_normals).sum(axis=1) ** 2)
    return squared


def p2_errors(ref: PointCloud, dist: PointCloud, mode: str = "point",
              agg: str = "mse", *, normals_k: int = 12) -> ErrorPair:
    """Directional point-to-point or point-to-plane errors.

    mode "point" squares the Euclidean error to the nearest match;
    mode "plane" squares its projection on the reference normal (the
    matched reference point's normal in the forward direction, the query
    reference point's own normal in the backward direction). agg "mse"
    averages, agg "hausdorff" keeps the maximum squared error.
    """
    if mode not in ("point", "plane"):
        raise DomainError(f"unknown error mode '{mode}'")
    if agg not in ("mse", "hausdorff"):
        raise DomainError(f"unknown aggregation '{agg}'")
    if normals_k < 1:
        raise DomainError(f"normals_k must be >= 1, got {normals_k}")
    if ref.count == 0 or dist.count == 0:
        raise DomainError("both clouds must be non-empty")
    ref_normals = _cloud_normals(ref, normals_k) if mode == "plane" else None
    squared = _squared_errors(ref, dist, _match_pair(ref, dist), ref_normals)
    fwd_sq, bwd_sq = squared["p2po" if mode == "point" else "p2pl"]
    reduce = np.mean if agg == "mse" else np.max
    return ErrorPair(forward=float(reduce(fwd_sq)), backward=float(reduce(bwd_sq)))


def geometry_psnr(error: float, box: BoundingBox) -> float:
    """Geometry PSNR in dB: 10 log10(3 p^2 / error), p the largest box extent.

    Zero error maps to +inf.
    """
    if error < 0:
        raise DomainError(f"error must be >= 0, got {error}")
    if error == 0.0:
        return math.inf
    peak = box.max_extent
    return 10.0 * math.log10(3.0 * peak * peak / error)


def combine_channel_psnr(y_db: float, u_db: float, v_db: float) -> float:
    """Luma-weighted channel combination: (6 Y + U + V) / 8."""
    return (6.0 * y_db + u_db + v_db) / 8.0


def _channel_psnr(mse: np.ndarray) -> np.ndarray:
    peak_sq = 255.0 ** 2
    out = np.empty(3)
    for c in range(3):
        out[c] = math.inf if mse[c] == 0.0 else 10.0 * math.log10(peak_sq / mse[c])
    return out


def _color_psnr(ref: PointCloud, dist: PointCloud, matches) -> BaselineResult:
    if not (ref.has_colors and dist.has_colors):
        raise DomainError("psnr_yuv requires colors on both clouds")
    ref_yuv = to_yuv(ref.colors / 255.0) * 255.0
    dist_yuv = to_yuv(dist.colors / 255.0) * 255.0

    def direction(from_yuv, to_yuv_values, matches):
        diff = from_yuv - to_yuv_values[matches]
        mse = (diff * diff).mean(axis=0)
        return combine_channel_psnr(*_channel_psnr(mse))

    forward = direction(dist_yuv, ref_yuv, matches[0])
    backward = direction(ref_yuv, dist_yuv, matches[1])
    return BaselineResult(
        metric="psnr-yuv", value=min(forward, backward),
        forward_db=forward, backward_db=backward,
    )


def psnr_yuv(ref: PointCloud, dist: PointCloud) -> BaselineResult:
    """Color PSNR over matched nearest-neighbor pairs in 0-255 YUV.

    Per direction, channel MSEs are converted to PSNR and combined with
    luma weighting; the reported value is the worse direction. Identical
    clouds give +inf.
    """
    return _color_psnr(ref, dist, _match_pair(ref, dist))


def run_baselines(ref: PointCloud, dist: PointCloud,
                  metrics=METRIC_IDS, *, normals_k: int = 12
                  ) -> dict[str, BaselineResult]:
    """Compute the requested baseline metrics from one pair of nearest-match
    arrays, with reference normals estimated at most once.

    Geometry PSNRs use the peak of the merged bounding box of both clouds,
    which keeps the reported value symmetric under swapping the inputs.
    """
    unknown = [m for m in metrics if m not in METRIC_IDS]
    if unknown:
        raise DomainError(f"unknown baseline metric(s): {', '.join(unknown)}")
    if normals_k < 1:
        raise DomainError(f"normals_k must be >= 1, got {normals_k}")
    if ref.count == 0 or dist.count == 0:
        raise DomainError("both clouds must be non-empty")
    matches = _match_pair(ref, dist)
    box = merged_bounding_box(bounding_box(ref), bounding_box(dist))
    results: dict[str, BaselineResult] = {}

    geometry = [m for m in metrics if m != "psnr-yuv"]
    ref_normals = None
    if any(m.endswith("p2pl") for m in geometry):
        ref_normals = _cloud_normals(ref, normals_k)
    squared = _squared_errors(ref, dist, matches, ref_normals) if geometry else {}
    for metric in geometry:
        agg, kind = metric.split("-", 1)
        reduce = np.mean if agg == "m" else np.max
        fwd_sq, bwd_sq = squared[kind]
        pair = ErrorPair(forward=float(reduce(fwd_sq)), backward=float(reduce(bwd_sq)))
        results[metric] = BaselineResult(
            metric=metric,
            value=geometry_psnr(pair.symmetric, box),
            forward_db=geometry_psnr(pair.forward, box),
            backward_db=geometry_psnr(pair.backward, box),
        )

    if "psnr-yuv" in metrics:
        results["psnr-yuv"] = _color_psnr(ref, dist, matches)
    return {m: results[m] for m in metrics}
