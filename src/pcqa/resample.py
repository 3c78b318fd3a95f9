"""Keypoint selection by high-frequency graph resampling.

A k-NN graph is built over the cloud, turned into a row-stochastic shift
operator A = D^-1 W, and the positions are passed through the high-pass
filter (I - A) applied (filter_length - 1) times. The Euclidean norm of
the filtered 3-vector scores how much local geometric detail each point
carries; keypoints are then drawn without replacement with probability
proportional to that score (or uniformly, for the ablation method).
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import asdict, dataclass

import numpy as np

from .cloud import PointCloud
from .errors import DegenerateCloudWarning, DomainError, check_choice, check_integer

METHODS = ("high-pass", "random")
MAX_FILTER_LENGTH = 1000  # 999 sparse products; bench contents overflow from L = 1128


@dataclass(frozen=True)
class ResampleConfig:
    """Keypoint sampling parameters.

    count
        Explicit keypoint count; when None, floor(ratio * N) with a floor
        of one keypoint is used.
    ratio
        Keypoint fraction used when count is None.
    filter_length
        High-pass filter length L, 2 to MAX_FILTER_LENGTH; (I - A) is applied L - 1 times.
    graph_k
        Neighbor count of the shift-operator graph.
    method
        "high-pass" (score-weighted draws) or "random" (uniform ablation).
    seed
        Seed for the sampling generator; fixed seed, fixed keypoints.
    """

    count: int | None = None
    ratio: float = 1e-3
    filter_length: int = 4
    graph_k: int = 10
    method: str = "high-pass"
    seed: int = 0

    def __post_init__(self):
        if self.count is not None:
            check_integer("keypoint count", self.count, 1)
        elif not 0 < self.ratio <= 1:
            raise DomainError(f"keypoint ratio must be in (0, 1], got {self.ratio}")
        check_integer("filter_length", self.filter_length, 2, MAX_FILTER_LENGTH)
        check_integer("graph_k", self.graph_k, 1)
        check_integer("seed", self.seed, 0)
        check_choice("resample method", self.method, METHODS)

    def resolve_count(self, n: int) -> int:
        """Keypoint count for an n-point cloud; at least 1, at most n."""
        if self.count is not None:
            if self.count > n:
                raise DomainError(f"requested {self.count} keypoints from {n} points")
            return self.count
        return max(1, min(n, int(np.floor(self.ratio * n))))

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True, eq=False)
class KeypointSet:
    """Selected keypoint indices with their selection scores (read-only when kept by `resample`)."""

    indices: np.ndarray
    scores: np.ndarray

    def __post_init__(self):
        indices = np.asarray(self.indices)
        if indices.dtype.kind == "f":
            fractional = ~(np.isfinite(indices) & (np.trunc(indices) == indices))
            if fractional.any():
                raise DomainError(f"keypoint index {indices[fractional][0]} is not a whole number")
        indices = indices.astype(np.intp)
        scores = np.asarray(self.scores, dtype=np.float64)
        if indices.ndim != 1 or scores.shape != indices.shape:
            raise DomainError("keypoint indices and scores must be parallel 1-D arrays")
        if indices.size == 0:
            raise DomainError("keypoint set is empty: give at least one keypoint index")
        if len(np.unique(indices)) != indices.size:
            raise DomainError("keypoint indices must be unique")
        if (scores < 0).any():
            raise DomainError("keypoint scores must be non-negative")
        object.__setattr__(self, "indices", indices)
        object.__setattr__(self, "scores", scores)

    @property
    def count(self) -> int:
        return int(self.indices.size)


def frequency_scores(cloud: PointCloud, config: ResampleConfig | None = None) -> np.ndarray:
    """High-frequency score per point (norm of the high-pass filtered position).

    Scores are non-negative, invariant under rigid translation, and scale
    linearly with a uniform scaling of the cloud. A fully degenerate cloud
    (all points coincident) yields all-zero scores plus a warning. Each point sums
    its neighbours in distance order, so without tied distances the scores do not
    depend on point labels. Read-only, computed once per cloud, graph_k and filter_length.
    """
    config = config or ResampleConfig()
    n = cloud.count
    if n < config.graph_k + 1:
        raise DomainError(
            f"frequency scores need at least graph_k + 1 = {config.graph_k + 1} "
            f"points, got {n}"
        )
    scores = cloud._cached(("frequency_scores", config.graph_k, config.filter_length),
                           lambda: _filtered_norms(cloud, config.graph_k, config.filter_length))
    if scores.max() == 0.0:
        warnings.warn("degenerate geometry: all frequency scores are zero", DegenerateCloudWarning)
    return scores


def _filtered_norms(cloud: PointCloud, k: int, filter_length: int) -> np.ndarray:
    """Norms of the filtered positions. Each CSR row of the shift operator is a
    streamed self k-NN row, written block by block in (distance, index) order."""
    from scipy.sparse import csr_matrix
    n = cloud.count
    weights, columns = np.empty((n, k)), np.empty((n, k), np.int32 if n <= 2**31 else np.intp)
    # Column 0 is the point itself or a smaller-index duplicate with the same
    # row; the filter is the same whichever copy is dropped.
    for rows, dist, idx in cloud.spatial_index.self_knn_blocks(k + 1, k + 1):
        w = dist[:, 1:]  # exp(-d^2 / local variance), in place: (-a)/b is -(a/b) in IEEE
        w *= w
        local_var = w.mean(axis=1)
        flat = local_var <= 0.0
        w /= np.where(flat, 1.0, local_var)[:, None]
        np.exp(np.negative(w, out=w), out=w)
        w[flat] = 1.0
        w /= w.sum(axis=1)[:, None]
        columns[rows], weights[rows] = idx[:, 1:], w
        del dist, idx, w  # before the next block is asked
    shift = csr_matrix((weights.ravel(), columns.ravel(), np.arange(0, n * k + 1, k)), shape=(n, n))

    filtered = cloud.positions.copy()
    for _ in range(filter_length - 1):
        filtered -= shift @ filtered
    scores = np.linalg.norm(filtered, axis=1)
    if not np.isfinite(scores).all():
        raise DomainError(f"high-pass filter overflowed at filter_length={filter_length}")
    # Coincident neighborhoods cancel only up to roundoff when the cloud
    # sits away from the origin; clamp that residue to an honest zero.
    noise_floor = np.finfo(np.float64).eps * float(np.abs(cloud.positions).max(initial=0.0))
    scores[scores <= noise_floor] = 0.0
    return scores


def resample(cloud: PointCloud, config: ResampleConfig | None = None) -> KeypointSet:
    """Draw keypoints without replacement, seeded and reproducible.

    Under "high-pass", draw probability is proportional to the frequency
    score; if the scores cannot support the requested count (all zero, or
    fewer positive scores than keypoints) sampling falls back to uniform
    with a warning. Under "random", draws are uniform and scores are
    recorded as 1. The set is kept on the cloud per config, so a repeated
    call returns the same read-only set; its warnings are emitted again.
    """
    config = config or ResampleConfig()
    n = cloud.count
    beta = config.resolve_count(n)

    weighted = False
    if config.method == "high-pass":
        scores = frequency_scores(cloud, config)
        total = scores.sum()
        positive = int(np.count_nonzero(scores))
        weighted = total > 0.0 and positive >= beta
        if total > 0.0 and not weighted:
            warnings.warn(
                f"only {positive} points have positive scores for {beta} "
                "keypoints; falling back to uniform sampling",
                DegenerateCloudWarning,
            )

    def draw():
        rng, p = np.random.default_rng(config.seed), scores / total if weighted else None
        chosen = np.sort(rng.choice(n, size=beta, replace=False, p=p))
        if config.method == "random":
            return KeypointSet(indices=chosen, scores=np.ones(beta))
        return KeypointSet(indices=chosen, scores=scores[chosen])
    # The draw depends on the cloud and the config alone; the warnings above repeat per call.
    return cloud._cached(("keypoints", config), draw)


def write_keypoints_csv(path: str, cloud: PointCloud, keypoints: KeypointSet) -> None:
    """Dump keypoints as CSV rows of (index, score, x, y, z)."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["index", "score", "x", "y", "z"])
        for i, s in zip(keypoints.indices, keypoints.scores):
            x, y, z = (float(v) for v in cloud.positions[i])
            writer.writerow([int(i), repr(float(s)), repr(x), repr(y), repr(z)])
