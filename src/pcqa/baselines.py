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

from .cloud import BoundingBox, PointCloud, bounding_box, merged_bounding_box, same_geometry
from .colorspace import to_yuv
from .errors import DomainError, check_choice, check_integer

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
        normals is (N, 3); each row is, to 1e-12, LAPACK's eigenvector of the
        smallest eigenvalue of the k-neighborhood covariance, sign-fixed into the
        +z hemisphere (ties toward +y, then +x). degenerate flags rows
        whose neighborhood had rank < 2 (collinear or coincident points);
        those fall back to +z. Both are read-only, computed once per cloud and k,
        from the streamed self k-NN rows block by block; no k-NN table is kept.
    """
    check_integer("k", k, 1)
    if cloud.count < k:
        raise DomainError(f"normal estimation needs at least k={k} points, got {cloud.count}")
    return cloud._cached(("normals", k), lambda: _pca_normals(cloud, k))


def _pca_normals(cloud: PointCloud, k: int):
    """Blocks of rows in leaf order: the closed form where it is exact, else eigh."""
    normals, degenerate = np.empty((cloud.count, 3)), np.zeros(cloud.count, dtype=bool)
    for rows, _, nbrs in cloud.spatial_index.self_knn_blocks(k, 3 * k):  # 3 coordinates a neighbour
        centered = np.stack([column[nbrs] for column in cloud.positions.T])  # (3, b, k)
        centered -= centered.mean(axis=2, keepdims=True)
        nrm, exact = _closed_form_normals(np.einsum("ibk,jbk->ijb", centered, centered) / k)
        rest = np.flatnonzero(~exact)
        hood = cloud.positions[nbrs[rest]]
        hood -= hood.mean(axis=1, keepdims=True)
        eigvals, eigvecs = np.linalg.eigh(np.einsum("nki,nkj->nij", hood, hood) / k)
        deg = eigvals[:, 1] <= np.maximum(eigvals[:, 2] * 1e-12, 1e-30)  # rank < 2
        nrm[rest] = np.where(deg[:, None], (0.0, 0.0, 1.0), eigvecs[:, :, 0])
        nx, ny, nz = nrm[rest].T
        nrm[rest[(nz < 0) | ((nz == 0) & ((ny < 0) | ((ny == 0) & (nx < 0))))]] *= -1.0
        normals[rows], degenerate[rows[rest]] = nrm, deg
    return normals, degenerate


def _closed_form_normals(a: np.ndarray):
    """Smallest-eigenvalue unit vectors of (3, 3, b) covariances, +z hemisphere, by Smith's
    formula (CACM 1961) and adjugate rows; exact rows are within 1e-12 of eigh's, same sign."""
    scale = np.abs(a).max(axis=(0, 1))
    a = a / np.where(scale > 0, scale, 1.0)  # no overflow or underflow below
    q = np.trace(a) / 3
    dev = a - q * np.eye(3)[..., None]
    p = np.sqrt((dev * dev).sum(axis=0).sum(axis=0) / 6)
    b = dev / np.where(p > 0, p, 1.0)
    phi = np.arccos(np.clip((b[0] * np.cross(b[1], b[2], axis=0)).sum(axis=0) / 2, -1.0, 1.0)) / 3
    big, small = q + 2 * p * np.cos(phi), q + 2 * p * np.cos(phi + 2 * np.pi / 3)
    for _ in range(2):  # again at the Rayleigh quotient: accurate where arccos is not
        m = a - small * np.eye(3)[..., None]
        adj = np.stack([np.cross(m[i], m[j], axis=0) for i, j in ((1, 2), (2, 0), (0, 1))])
        length = np.sqrt((adj * adj).sum(axis=1))
        best = length.argmax(axis=0)[None, None]
        v = np.take_along_axis(adj / np.maximum(length, 1e-300)[:, None], best, 0)[0]
        small = (v * (a * v).sum(axis=1)).sum(axis=0)
    # The vector errs by ~1e-16 / (relative gap of the two smallest); signs only near n_z = 0.
    gap = 3 * q - big - 2 * small
    exact = (gap > 1e-2 * big) & (gap * scale > 2e-30) & (np.abs(v[2]) >= 1e-9)
    return (v * np.where(v[2] < 0, -1.0, 1.0)).T, exact


def _match_pair(ref: PointCloud, dist: PointCloud):
    """The one pair of nearest-match arrays every baseline reads: forward
    maps each distorted point to a reference point, backward the reverse."""
    if same_geometry(ref, dist):  # both the reference's self-match, kept (8 B a point)
        return (ref._cached(("self match",), lambda: _nearest(ref, ref)),) * 2
    return _nearest(ref, dist), _nearest(dist, ref)


def _nearest(target: PointCloud, query: PointCloud) -> np.ndarray:
    """target's nearest point per query point, asked in the query cloud's
    own leaf order (its tree serves the other direction) and scattered back."""
    order = query.spatial_index.order
    matches = np.empty(query.count, dtype=np.intp)
    matches[order] = target.spatial_index.nearest(np.take(query.positions, order, axis=0))
    return matches


def _cloud_normals(cloud: PointCloud, k: int) -> np.ndarray:
    """Stored normals when the cloud has them, else the PCA estimate."""
    return cloud.normals if cloud.has_normals else estimate_normals(cloud, k=k)[0]


def _squared_errors(ref: PointCloud, dist: PointCloud, matches,
                    plane_normals: np.ndarray | None = None) -> dict:
    """Per-point squared (forward, backward) errors over one match pair:
    "p2po" always, "p2pl" when reference `plane_normals` are given. Each
    direction works on coordinate columns, summed x + y + z in that order:
    the bytes of an (N, 3) row sum, without its strided reduction."""
    squared = {"p2po": [], "p2pl": []}
    for backward, match in enumerate(matches):
        query, target = (ref, dist) if backward else (dist, ref)
        e0, e1, e2 = (query.positions[:, c] - target.positions[:, c][match] for c in range(3))
        if plane_normals is not None:  # the match's normal forward, the query's own backward
            n0, n1, n2 = (plane_normals[:, c] if backward else plane_normals[:, c][match]
                          for c in range(3))
            squared["p2pl"].append((n0 * e0 + n1 * e1 + n2 * e2) ** 2)
        squared["p2po"].append(e0 * e0 + e1 * e1 + e2 * e2)
    return {kind: tuple(pair) for kind, pair in squared.items() if pair}


def _reduce(squared, agg: str) -> ErrorPair:
    """One (forward, backward) pair of squared errors, averaged ("mse") or
    reduced to the maximum ("hausdorff")."""
    reduce = np.mean if agg == "mse" else np.max
    return ErrorPair(forward=float(reduce(squared[0])), backward=float(reduce(squared[1])))


def p2_errors(ref: PointCloud, dist: PointCloud, mode: str = "point",
              agg: str = "mse", *, normals_k: int = 12) -> ErrorPair:
    """Directional point-to-point or point-to-plane errors.

    mode "point" squares the Euclidean error to the nearest match;
    mode "plane" squares its projection on the reference normal (the
    matched reference point's normal in the forward direction, the query
    reference point's own normal in the backward direction). agg "mse"
    averages, agg "hausdorff" keeps the maximum squared error.
    """
    check_choice("error mode", mode, ("point", "plane"))
    check_choice("aggregation", agg, ("mse", "hausdorff"))
    check_integer("normals_k", normals_k, 1)
    ref_normals = _cloud_normals(ref, normals_k) if mode == "plane" else None
    squared = _squared_errors(ref, dist, _match_pair(ref, dist), ref_normals)
    return _reduce(squared["p2po" if mode == "point" else "p2pl"], agg)


def _db(peak_sq: float, error: float) -> float:
    """10 log10(peak^2 / error) in dB; zero error maps to +inf."""
    return math.inf if error == 0.0 else 10.0 * math.log10(peak_sq / error)


def geometry_psnr(error: float, box: BoundingBox) -> float:
    """Geometry PSNR in dB: 10 log10(3 p^2 / error), p the largest box extent.

    Zero error maps to +inf.
    """
    if error < 0:
        raise DomainError(f"error must be >= 0, got {error}")
    peak = box.max_extent
    return _db(3.0 * peak * peak, error)


def combine_channel_psnr(y_db: float, u_db: float, v_db: float) -> float:
    """Luma-weighted channel combination: (6 Y + U + V) / 8."""
    return (6.0 * y_db + u_db + v_db) / 8.0


def _color_psnr(ref: PointCloud, dist: PointCloud, matches) -> BaselineResult:
    if not (ref.has_colors and dist.has_colors):
        raise DomainError("psnr_yuv requires colors on both clouds")
    ref_yuv = ref._cached(("yuv 0-255",), lambda: to_yuv(ref.colors / 255.0) * 255.0)
    dist_yuv = to_yuv(dist.colors / 255.0) * 255.0

    def direction(from_yuv, to_yuv_values, matches):
        diff = np.take(to_yuv_values, matches, axis=0)
        np.subtract(from_yuv, diff, out=diff)
        diff *= diff
        np.add.accumulate(diff, out=diff)  # mean(axis=0)'s row-order sums, at half its cost
        return combine_channel_psnr(*(_db(255.0 ** 2, e) for e in diff[-1] / len(diff)))

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
    if not metrics or len(set(metrics)) < len(metrics):
        raise DomainError(f"name each baseline metric once and at least one, got {list(metrics)}")
    check_integer("normals_k", normals_k, 1)
    matches = _match_pair(ref, dist)
    box = bounding_box(ref) if matches[0] is matches[1] else \
        merged_bounding_box(bounding_box(ref), bounding_box(dist))  # one geometry: one box
    results: dict[str, BaselineResult] = {}
    geometry = [m for m in metrics if m != "psnr-yuv"]
    ref_normals = None
    if any(m.endswith("p2pl") for m in geometry):
        ref_normals = _cloud_normals(ref, normals_k)
    squared = _squared_errors(ref, dist, matches, ref_normals) if geometry else {}
    for metric in geometry:
        agg, kind = metric.split("-", 1)
        pair = _reduce(squared[kind], "mse" if agg == "m" else "hausdorff")
        results[metric] = BaselineResult(
            metric=metric,
            value=geometry_psnr(pair.symmetric, box),
            forward_db=geometry_psnr(pair.forward, box),
            backward_db=geometry_psnr(pair.backward, box),
        )
    del squared  # last, so the reference's kept YUV table is made after these are freed
    if "psnr-yuv" in metrics:
        results["psnr-yuv"] = _color_psnr(ref, dist, matches)
    return {m: results[m] for m in metrics}
