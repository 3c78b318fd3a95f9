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
from dataclasses import dataclass

import numpy as np

from .cloud import PointCloud
from .errors import DegenerateCloudWarning, DomainError

METHODS = ("high-pass", "random")


@dataclass(frozen=True)
class ResampleConfig:
    """Keypoint sampling parameters.

    count
        Explicit keypoint count; when None, floor(ratio * N) with a floor
        of one keypoint is used.
    ratio
        Keypoint fraction used when count is None.
    filter_length
        High-pass filter length L; (I - A) is applied L - 1 times.
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
        if self.count is not None and self.count < 1:
            raise DomainError(f"keypoint count must be >= 1, got {self.count}")
        if self.count is None and not 0 < self.ratio <= 1:
            raise DomainError(f"keypoint ratio must be in (0, 1], got {self.ratio}")
        if self.filter_length < 2:
            raise DomainError(
                f"filter length must be >= 2, got {self.filter_length}"
            )
        if self.graph_k < 1:
            raise DomainError(f"graph_k must be >= 1, got {self.graph_k}")
        if self.method not in METHODS:
            raise DomainError(f"unknown resample method '{self.method}'")
        if self.seed < 0:
            raise DomainError(f"seed must be >= 0, got {self.seed}")

    def resolve_count(self, n: int) -> int:
        """Keypoint count for an n-point cloud; at least 1, at most n."""
        if self.count is not None:
            if self.count > n:
                raise DomainError(
                    f"requested {self.count} keypoints from {n} points"
                )
            return self.count
        return max(1, min(n, int(np.floor(self.ratio * n))))

    def to_dict(self) -> dict:
        return {
            "count": self.count,
            "ratio": self.ratio,
            "filter_length": self.filter_length,
            "graph_k": self.graph_k,
            "method": self.method,
            "seed": self.seed,
        }


@dataclass(frozen=True, eq=False)
class KeypointSet:
    """Selected keypoint indices with their selection scores."""

    indices: np.ndarray
    scores: np.ndarray

    def __post_init__(self):
        indices = np.asarray(self.indices, dtype=np.intp)
        scores = np.asarray(self.scores, dtype=np.float64)
        if indices.ndim != 1 or scores.shape != indices.shape:
            raise DomainError("keypoint indices and scores must be parallel 1-D arrays")
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
    (all points coincident) yields all-zero scores plus a warning. Scores
    are read-only and computed once per cloud, graph_k and filter_length.
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
    from scipy.sparse import csr_matrix
    n = cloud.count
    # Column 0 is the point itself or a smaller-index duplicate with the same
    # row; the filter is the same whichever copy is dropped.
    dist, idx = cloud.spatial_index.neighbors(k + 1)
    d, nbr = dist[:, 1:], idx[:, 1:]

    d2 = d * d
    local_var = d2.mean(axis=1)
    flat = local_var <= 0.0
    safe_var = np.where(flat, 1.0, local_var)
    w = np.exp(-d2 / safe_var[:, None])
    w[flat] = 1.0
    row_sum = w.sum(axis=1)
    shift = csr_matrix(
        ((w / row_sum[:, None]).ravel(), (np.repeat(np.arange(n), k), nbr.ravel())),
        shape=(n, n),
    )

    filtered = cloud.positions
    for _ in range(filter_length - 1):
        filtered = filtered - shift @ filtered
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
    recorded as 1.
    """
    config = config or ResampleConfig()
    n = cloud.count
    if n == 0:
        raise DomainError("cannot resample an empty cloud")
    beta = config.resolve_count(n)
    rng = np.random.default_rng(config.seed)

    if config.method == "random":
        chosen = np.sort(rng.choice(n, size=beta, replace=False))
        return KeypointSet(indices=chosen, scores=np.ones(beta))

    scores = frequency_scores(cloud, config)
    total = scores.sum()
    positive = int(np.count_nonzero(scores))
    if total <= 0.0 or positive < beta:
        if total > 0.0:
            warnings.warn(
                f"only {positive} points have positive scores for {beta} "
                "keypoints; falling back to uniform sampling",
                DegenerateCloudWarning,
            )
        chosen = np.sort(rng.choice(n, size=beta, replace=False))
    else:
        chosen = np.sort(rng.choice(n, size=beta, replace=False, p=scores / total))
    return KeypointSet(indices=chosen, scores=scores[chosen])


def write_keypoints_csv(path: str, cloud: PointCloud, keypoints: KeypointSet) -> None:
    """Dump keypoints as CSV rows of (index, score, x, y, z)."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["index", "score", "x", "y", "z"])
        for i, s in zip(keypoints.indices, keypoints.scores):
            x, y, z = (float(v) for v in cloud.positions[i])
            writer.writerow([int(i), repr(float(s)), repr(x), repr(y), repr(z)])
