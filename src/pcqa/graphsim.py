"""Graph-based full-reference similarity for colored point clouds.

The metric compares a reference and a distorted cloud around a common set
of keypoints sampled from the reference geometry:

1. keypoints are drawn by high-pass graph resampling (see `resample`);
2. around each keypoint, one local graph is built per cloud from the
   points within a radius of `neighborhood_fraction` times the smallest
   reference bounding-box extent;
3. per channel, three gradient statistics are compared between the two
   graphs (total gradient mass, mean, and the covariance of the matched
   gradient sequences), each folded into a bounded similarity ratio;
4. the three feature similarities are pooled per channel, channels are
   pooled with per-color-space weights, and graphs are averaged into the
   final quality score.

The score is 1.0 for identical clouds and decreases toward 0 with
increasing local color/geometry disagreement.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .baselines import estimate_normals
from .cloud import PointCloud, bounding_box, same_geometry
from .colorspace import CHANNEL_WEIGHTS, SPACES, decompose
from .errors import DomainError
from .graph import GraphParams, SignalAttribute, WeightedNeighborhood, edge_weight
from .resample import KeypointSet, ResampleConfig, resample

SIGNAL_KINDS = ("color", "coordinate", "normal")

# Named pooling presets: (feature pooling, channel pooling).
POOLING_PRESETS = {
    "c1": ("average", "weighted-average"),
    "c2": ("multiply", "weighted-average"),
    "c3": ("average", "multiply"),
    "c4": ("multiply", "multiply"),
}

# Stabilizer constants of the mass, mean and covariance similarity ratios.
STABILIZERS = (1e-3, 1e-3, 1e-3)


@dataclass(frozen=True)
class GraphSimConfig:
    """Metric parameters, one per `pcqa score` flag.

    neighborhood_fraction (--theta-fraction)
        Local cluster radius as a fraction of the smallest reference
        bounding-box extent.
    matching_k (--matching-k)
        Neighbor budget used to derive the edge-weight cutoff: the cutoff
        is the largest of the matching_k smallest cluster distances (the
        whole cluster when it is smaller than matching_k).
    color_space (--color-space)
        "gcm", "yuv" or "rgb"; the space fixes the channel weights.
    pooling (--pooling)
        A POOLING_PRESETS key: how the three per-channel similarities and
        then the channels are combined.
    signal_kind (--signal)
        "color", "coordinate", "normal", a tuple of distinct kinds scored
        jointly, or "mixed" (alias for color + coordinate). With several kinds
        the per-kind scores are averaged and channel pooling is forced to the
        weighted average.
    resample (--beta, --beta-ratio, --filter-length, --graph-k, --resample, --seed)
        The keypoint stage, a ResampleConfig.
    tau_scope (--tau-scope)
        "union": the cutoff rule pools both clusters' distances;
        "per-side": the rule runs per cluster and the larger cutoff wins.
    normals_k (--normals-k)
        Neighbor count of the normal estimate behind the normal signal.
    """

    neighborhood_fraction: float = 0.1
    matching_k: int = 50
    color_space: str = "gcm"
    pooling: str = "c2"
    signal_kind: str | tuple[str, ...] = "color"
    resample: ResampleConfig = field(default_factory=ResampleConfig)
    tau_scope: str = "union"
    normals_k: int = 12

    def __post_init__(self):
        if not 0 < self.neighborhood_fraction < math.inf:
            raise DomainError("neighborhood_fraction must be positive and finite, "
                              f"got {self.neighborhood_fraction}")
        for name in ("matching_k", "normals_k"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral):
                raise DomainError(f"{name} must be an integer, got {value!r}")
            if value < 1:
                raise DomainError(f"{name} must be >= 1, got {value}")
        if self.color_space not in SPACES:
            raise DomainError(f"unknown color space '{self.color_space}'")
        if self.pooling not in POOLING_PRESETS:
            raise DomainError(f"unknown pooling preset '{self.pooling}'")
        if self.tau_scope not in ("union", "per-side"):
            raise DomainError(f"unknown tau_scope '{self.tau_scope}'")
        if not self.signal_kinds:
            raise DomainError("signal_kind must name at least one signal kind")
        for i, kind in enumerate(self.signal_kinds):
            if kind not in SIGNAL_KINDS:
                raise DomainError(f"unknown signal kind '{kind}'")
            if kind in self.signal_kinds[:i]:
                raise DomainError(f"signal kind '{kind}' is listed twice")

    @property
    def signal_kinds(self) -> tuple[str, ...]:
        kind = self.signal_kind
        kinds = (kind,) if isinstance(kind, str) else tuple(kind)
        return ("color", "coordinate") if kinds == ("mixed",) else kinds

    @property
    def pooling_rules(self) -> tuple[str, str]:
        """(feature, channel) rules as applied: several kinds average the channels."""
        feature, channel = POOLING_PRESETS[self.pooling]
        return feature, "weighted-average" if len(self.signal_kinds) > 1 else channel

    def to_dict(self) -> dict:
        feature_pooling, channel_pooling = self.pooling_rules
        return {
            "neighborhood_fraction": self.neighborhood_fraction,
            "matching_k": self.matching_k,
            "stabilizers": list(STABILIZERS),
            "color_space": {"space": self.color_space,
                            "weights": list(CHANNEL_WEIGHTS[self.color_space])},
            "feature_pooling": feature_pooling,
            "channel_pooling": channel_pooling,
            "signal_kind": list(self.signal_kinds),
            "resample": self.resample.to_dict(),
            "tau_scope": self.tau_scope,
            "normals_k": self.normals_k,
        }


@dataclass(frozen=True, eq=False)
class LocalGraphPair:
    """Reference and distorted local graphs sharing one keypoint center.

    cluster sizes are the raw radius-query populations (centers excluded)
    before the cutoff filter; the neighborhoods hold the retained points.
    """

    center_index: int
    ref: WeightedNeighborhood
    dist: WeightedNeighborhood
    params: GraphParams
    ref_cluster_size: int
    dist_cluster_size: int


@dataclass(frozen=True, eq=False)
class GradientMoments:
    """Per-channel gradient statistics of one local graph.

    mass is the gradient sum over all retained neighbors; mean and
    variance are population statistics of the matched gradient sequence;
    matched holds that sequence, one row per matched neighbor.
    """

    mass: np.ndarray
    mean: np.ndarray
    variance: np.ndarray
    matched: np.ndarray


@dataclass(frozen=True, eq=False)
class GraphScore:
    """Similarity components of one graph pair for one signal kind."""

    sim_mass: np.ndarray
    sim_mean: np.ndarray
    sim_cov: np.ndarray
    per_channel: np.ndarray
    pooled: float


@dataclass(eq=False)
class SimilarityScore:
    """Final metric output.

    quality averages the per-graph pooled similarities over all scored
    keypoints (keypoints whose distorted-side graph is empty contribute 0;
    keypoints with an empty reference cluster are skipped and only
    counted). per_channel_means average each labeled channel over the
    graphs that produced one.
    """

    quality: float
    per_graph: np.ndarray
    graph_keypoints: np.ndarray
    per_channel_means: dict[str, float]
    empty_graphs: int
    skipped_keypoints: int
    keypoints: KeypointSet

    def to_report(self, config: GraphSimConfig | None = None) -> dict:
        report = {
            "quality": float(self.quality),
            "per_graph": [float(v) for v in self.per_graph],
            "graph_keypoints": [int(v) for v in self.graph_keypoints],
            "per_channel_means": {k: float(v) for k, v in self.per_channel_means.items()},
            "empty_graphs": int(self.empty_graphs),
            "skipped_keypoints": int(self.skipped_keypoints),
            "keypoints": {
                "indices": [int(v) for v in self.keypoints.indices],
                "scores": [float(v) for v in self.keypoints.scores],
            },
        }
        if config is not None:
            report["config"] = config.to_dict()
        return report


def _cluster(cloud: PointCloud, center: np.ndarray, radius: float):
    """Radius query with points at the exact center position removed."""
    idx, d = cloud.spatial_index.radius_query(center, radius)
    keep = d > 0.0
    return idx[keep], d[keep]


def _reference_clusters(ref: PointCloud, indices: np.ndarray, radius: float) -> list:
    """Each keypoint's reference `_cluster`, its indices as int32, kept on the
    reference per (keypoints, radius): both come from the reference alone, so
    every stimulus scored against it reuses them. One array pair per keypoint."""
    dtype = np.int32 if ref.count <= 2**31 else np.intp
    def compute():
        clusters = (_cluster(ref, ref.positions[i], radius) for i in indices)
        return tuple(a for idx, d in clusters for a in (idx.astype(dtype), d))
    flat = ref._cached(("graphsim clusters", radius, indices.tobytes()), compute)
    return list(zip(flat[::2], flat[1::2]))


def _cutoff_from_distances(ref_d: np.ndarray, dist_d: np.ndarray,
                           matching_k: int, scope: str) -> float:
    def side(d):
        if d.size == 0:
            return 0.0
        if d.size >= matching_k:
            return float(np.partition(d, matching_k - 1)[matching_k - 1])
        return float(d.max())

    if scope == "per-side":
        return max(side(ref_d), side(dist_d))
    return side(np.concatenate([ref_d, dist_d]))


def build_local_graph_pair(center_index: int, ref: PointCloud, dist: PointCloud,
                           config: GraphSimConfig | None = None, *,
                           radius: float | None = None,
                           ref_cluster: tuple | None = None,
                           dist_cluster: tuple | None = None) -> LocalGraphPair:
    """Build the local graph pair around one reference keypoint.

    Both clusters exclude points lying exactly at the keypoint position,
    so identical clouds produce identical neighbor index sets. The shared
    edge-weight cutoff comes from the matching_k rule over the cluster
    distances; the Gaussian variance is cutoff^2 / 2. `ref_cluster` and
    `dist_cluster`, when given, are a `_cluster` kept from an earlier call.
    """
    config = config or GraphSimConfig()
    if radius is None:
        radius = config.neighborhood_fraction * bounding_box(ref).min_extent
    center = ref.positions[center_index]

    r_idx, r_d = _cluster(ref, center, radius) if ref_cluster is None else ref_cluster
    d_idx, d_d = _cluster(dist, center, radius) if dist_cluster is None else dist_cluster
    cutoff = _cutoff_from_distances(r_d, d_d, config.matching_k, config.tau_scope)
    params = GraphParams(cutoff)

    def build_side(cloud, idx, d, center_idx):
        keep = d <= cutoff
        idx, d = idx[keep].astype(np.intp, copy=False), d[keep]
        return WeightedNeighborhood(
            center_index=center_idx, indices=idx,
            positions=cloud.positions[idx], distances=d,
            weights=edge_weight(d, params),
        )

    return LocalGraphPair(
        center_index=center_index,
        ref=build_side(ref, r_idx, r_d, center_index),
        dist=build_side(dist, d_idx, d_d, -1),
        params=params,
        ref_cluster_size=int(r_idx.size),
        dist_cluster_size=int(d_idx.size),
    )


def match_and_align(pair: LocalGraphPair):
    """Positionally corresponding neighbor selections of the two graphs.

    The smaller neighborhood is the baseline (the reference wins ties);
    every baseline point is matched to its nearest point in the other
    neighborhood by Euclidean distance, ties toward the earlier neighbor.
    Many-to-one matches are allowed. Returns (ref_order, dist_order) as
    index arrays into the respective neighborhood arrays, equal length
    min(|ref|, |dist|).
    """
    nr, nd = pair.ref.size, pair.dist.size
    if nr == 0 or nd == 0:
        raise DomainError("cannot match an empty neighborhood")
    if nr <= nd:
        ref_order = np.arange(nr, dtype=np.intp)
        dist_order = _nearest_rows(pair.ref.positions, pair.dist.positions)
    else:
        dist_order = np.arange(nd, dtype=np.intp)
        ref_order = _nearest_rows(pair.dist.positions, pair.ref.positions)
    return ref_order, dist_order


def _nearest_rows(queries: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """argmin_j ||q_i - t_j|| per query row, chunked to bound memory."""
    from scipy.spatial.distance import cdist
    out = np.empty(queries.shape[0], dtype=np.intp)
    step = max(1, int(4_000_000 // max(targets.shape[0], 1)))
    for start in range(0, queries.shape[0], step):
        block = queries[start:start + step]
        out[start:start + step] = cdist(block, targets).argmin(axis=1)
    return out


def gradient_moments(neighborhood: WeightedNeighborhood, signal,
                     matched_order: np.ndarray,
                     center_value=None) -> GradientMoments:
    """Gradient statistics of one local graph.

    Per channel: the per-neighbor gradient is sqrt(w_j) * (f_j - f_center);
    mass sums it over every retained neighbor, while mean and variance are
    population statistics over the matched subsequence selected by
    `matched_order`.
    """
    values = signal.values if isinstance(signal, SignalAttribute) else np.asarray(signal)
    if center_value is None:
        if neighborhood.center_index < 0:
            raise DomainError("center is not in this cloud; pass center_value")
        center_value = values[neighborhood.center_index]
    matched_order = np.asarray(matched_order, dtype=np.intp)
    if matched_order.size == 0:
        raise DomainError("moments are undefined for an empty matched set")
    diffs = values[neighborhood.indices] - np.asarray(center_value, dtype=np.float64)
    gradients = np.sqrt(neighborhood.weights)[:, None] * diffs
    matched = gradients[matched_order]
    mean = matched.mean(axis=0)
    variance = ((matched - mean) ** 2).mean(axis=0)
    return GradientMoments(
        mass=gradients.sum(axis=0), mean=mean, variance=variance, matched=matched
    )


def covariance(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-channel population covariance E[(a - E a)(b - E b)] of two
    equally long matched gradient sequences (centered two-pass form)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"matched sequences differ in shape: {a.shape} vs {b.shape}")
    if a.ndim == 1:
        a = a[:, None]
        b = b[:, None]
    return ((a - a.mean(axis=0)) * (b - b.mean(axis=0))).mean(axis=0)


def score_graph(pair: LocalGraphPair, ref_signal: SignalAttribute,
                dist_signal: SignalAttribute, pooling=POOLING_PRESETS["c2"],
                *, channel_weights=None) -> GraphScore:
    """Similarity of one graph pair under one signal.

    Three bounded ratios are computed per channel (each in [-1, 1], equal
    to 1 iff the compared statistics agree):

        sim_mass = (2 m_r m_d + t1) / (m_r^2 + m_d^2 + t1)
        sim_mean = same form on the matched means, with t2
        sim_cov  = (cov + t3) / (std_r * std_d + t3)

    with (t1, t2, t3) = STABILIZERS, then pooled by the (feature, channel)
    rules of `pooling`, a POOLING_PRESETS value (the channel stage pools
    absolute values).
    """
    feature_pooling, channel_pooling = pooling
    t1, t2, t3 = STABILIZERS
    ref_order, dist_order = match_and_align(pair)
    center_value = ref_signal.values[pair.center_index]
    m_ref = gradient_moments(pair.ref, ref_signal, ref_order)
    m_dist = gradient_moments(pair.dist, dist_signal, dist_order,
                              center_value=center_value)

    def ratio(x, y, t):
        return (2.0 * x * y + t) / (x * x + y * y + t)

    sim_mass = ratio(m_ref.mass, m_dist.mass, t1)
    sim_mean = ratio(m_ref.mean, m_dist.mean, t2)
    cov = covariance(m_ref.matched, m_dist.matched)
    sim_cov = (cov + t3) / (np.sqrt(m_ref.variance) * np.sqrt(m_dist.variance) + t3)

    features = np.stack([sim_mass, sim_mean, sim_cov])
    if feature_pooling == "multiply":
        per_channel = features.prod(axis=0)
    else:
        per_channel = features.mean(axis=0)

    if channel_weights is None:
        channel_weights = np.ones(per_channel.shape[0])
    channel_weights = np.asarray(channel_weights, dtype=np.float64)
    if channel_pooling == "weighted-average":
        pooled = float(
            (channel_weights * np.abs(per_channel)).sum() / channel_weights.sum()
        )
    else:
        pooled = float(np.prod(np.abs(per_channel)))
    return GraphScore(
        sim_mass=sim_mass, sim_mean=sim_mean, sim_cov=sim_cov,
        per_channel=per_channel, pooled=pooled,
    )


def _signals(cloud: PointCloud, config: GraphSimConfig, geometry: PointCloud) -> list:
    """The cloud's signal of each configured kind. Normals are the cloud's stored
    ones, else the estimate kept on `geometry`, a cloud with the same positions."""
    def signal(kind):
        if kind == "color":
            return decompose(cloud, config.color_space)
        if kind == "coordinate":
            return SignalAttribute(cloud.positions, kind, ("x", "y", "z"))
        normals = cloud.normals if cloud.has_normals else \
            estimate_normals(geometry, config.normals_k)[0]
        return SignalAttribute(normals, kind, ("nx", "ny", "nz"))
    return [signal(kind) for kind in config.signal_kinds]


def graphsim(ref: PointCloud, dist: PointCloud,
             config: GraphSimConfig | None = None, *,
             keypoints: KeypointSet | np.ndarray | None = None) -> SimilarityScore:
    """Score a distorted cloud against its reference.

    keypoints
        Optional preselected reference keypoint indices (bypasses the
        resampling stage; useful for fixed-keypoint comparisons).
    """
    config = config or GraphSimConfig()
    if ref.count == 0 or dist.count == 0:
        raise DomainError("both clouds must be non-empty")
    if "color" in config.signal_kinds and not (ref.has_colors and dist.has_colors):
        raise DomainError("color signal requested but a cloud has no colors")

    if keypoints is None:
        keypoints = resample(ref, config.resample)
    elif not isinstance(keypoints, KeypointSet):
        keypoints = KeypointSet(indices=keypoints, scores=np.ones(np.shape(keypoints)))
    outside = (keypoints.indices < 0) | (keypoints.indices >= ref.count)
    if outside.any():
        raise DomainError(f"keypoint index {keypoints.indices[outside][0]} "
                          f"is outside [0, {ref.count})")
    same = same_geometry(ref, dist)  # then its clusters and normals are the reference's
    # After the keypoint stage, so decomposed colours are never live beside the filter.
    ref_signals = _signals(ref, config, ref)
    dist_signals = _signals(dist, config, ref if same else dist)
    weights = [np.asarray(CHANNEL_WEIGHTS[config.color_space]) if s.kind == "color"
               else np.ones(3) for s in ref_signals]

    radius = config.neighborhood_fraction * bounding_box(ref).min_extent
    clusters = _reference_clusters(ref, keypoints.indices, radius)
    per_graph, graph_keypoints = [], []
    channel_sums: dict[str, float] = {}
    empty = skipped = 0
    for center_index, ref_cluster in zip(map(int, keypoints.indices), clusters):
        pair = build_local_graph_pair(
            center_index, ref, dist, config, radius=radius, ref_cluster=ref_cluster,
            dist_cluster=ref_cluster if same else None,
        )
        if pair.ref_cluster_size == 0:
            skipped += 1
            continue
        if pair.ref.size == 0 or pair.dist.size == 0:
            empty += 1
            pooled = 0.0
        else:
            kind_scores = []
            for rs, ds, w in zip(ref_signals, dist_signals, weights):
                gs = score_graph(pair, rs, ds, config.pooling_rules, channel_weights=w)
                kind_scores.append(gs.pooled)
                for label, value in zip(rs.labels, gs.per_channel):
                    key = f"{rs.kind}:{label}"
                    channel_sums[key] = channel_sums.get(key, 0.0) + float(value)
            pooled = sum(kind_scores) / len(kind_scores)
        per_graph.append(pooled)
        graph_keypoints.append(center_index)

    if not per_graph:
        raise DomainError(
            "no scorable keypoint graphs (every reference cluster was empty)"
        )
    # Every scored graph adds each label once, so each label's count is the scored count.
    means = {k: channel_sums[k] / (len(per_graph) - empty) for k in sorted(channel_sums)}
    return SimilarityScore(
        quality=float(np.mean(per_graph)),
        per_graph=np.asarray(per_graph),
        graph_keypoints=np.asarray(graph_keypoints, dtype=np.intp),
        per_channel_means=means,
        empty_graphs=empty,
        skipped_keypoints=skipped,
        keypoints=keypoints,
    )
