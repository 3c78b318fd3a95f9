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
from dataclasses import dataclass, field

import numpy as np

from .baselines import estimate_normals
from .cloud import PointCloud, bounding_box, same_geometry
from .colorspace import CHANNEL_WEIGHTS, SPACES, decompose
from .errors import DomainError, check_choice, check_integer
from .graph import (GraphParams, SignalAttribute, WeightedNeighborhood, edge_weight,
                    gaussian_variance)
from .resample import KeypointSet, ResampleConfig, resample
from .spatial import row_blocks

SIGNAL_KINDS = ("color", "coordinate", "normal")
TAU_SCOPES = ("union", "per-side")
WIDTH = 256 + 2  # a first reference cluster query's columns at most; rows past it ask twice as many

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
        check_integer("matching_k", self.matching_k, 1)
        check_integer("normals_k", self.normals_k, 1)
        check_choice("color space", self.color_space, SPACES)
        check_choice("pooling preset", self.pooling, POOLING_PRESETS)
        check_choice("tau_scope", self.tau_scope, TAU_SCOPES)
        if not self.signal_kinds:
            raise DomainError("signal_kind must name at least one signal kind")
        for i, kind in enumerate(self.signal_kinds):
            check_choice("signal kind", kind, SIGNAL_KINDS)
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
class GraphTable:
    """A call's keypoint graphs, one row per keypoint in draw order: each side's
    cluster size and kept size (n, 2) and the edge-weight cutoff (n,); and, for
    `score_graph`, batches of the rows with two non-empty kept sides, each
    (centres, kept sizes, (indices, weights) a side, [ref_order, dist_order]):
    a side's kept points as one run per graph, the match orders offset into them.
    A size may count only its side's vouched prefix, which holds every kept point."""

    sizes: np.ndarray
    kept: np.ndarray
    cutoffs: np.ndarray
    batches: list


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
    """Similarity components of graph pairs for one signal kind, one row per pair."""

    sim_mass: np.ndarray
    sim_mean: np.ndarray
    sim_cov: np.ndarray
    per_channel: np.ndarray
    pooled: np.ndarray


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


def _radius(ref: PointCloud, fraction: float) -> float:
    """`fraction` times the smallest reference box extent; refused if it squares to 0."""
    extent = bounding_box(ref).min_extent
    if extent == 0:
        raise DomainError("smallest reference bounding-box extent is 0, so the cluster radius is 0")
    radius = fraction * extent
    if not radius * radius > 0:
        raise DomainError(f"cluster radius {radius!r} squares to 0: neighborhood_fraction "
                          f"{fraction!r} times the smallest reference bounding-box extent {extent!r}")
    return radius


def _kept_clusters(ref: PointCloud, keys: np.ndarray, radius: float, matching_k: int):
    """`_clusters` of the reference around its own points `keys` at matching_k + 2 columns (at most
    WIDTH), kept on the reference per (radius, matching_k, keypoint set): it comes from the
    reference alone, so every stimulus scored against it reuses it."""
    key = ("graphsim clusters", radius, matching_k, keys.tobytes())
    return ref._cached(key, lambda: _clusters(ref, ref.positions[keys], min(matching_k + 2, WIDTH),
                                              radius, matching_k, np.zeros(len(keys))))


def _cutoff_from_distances(ref_d: np.ndarray, dist_d: np.ndarray,
                           matching_k: int, scope: str) -> np.ndarray:
    """The matching_k rule per row of ascending distances, +inf past the row's size: a side's
    matching_k-th (its last when shorter, 0 if empty), the larger side's ("per-side") or union's."""
    k = min(matching_k, ref_d.shape[1] + dist_d.shape[1])  # the union's longest row
    def side(d):
        n = np.minimum(np.isfinite(d).sum(axis=1), k)
        return np.where(n > 0, d[np.arange(len(d)), n - 1] if d.shape[1] else 0.0, 0.0)

    if scope == "per-side":
        return np.maximum(side(ref_d), side(dist_d))
    return side(np.sort(np.concatenate([ref_d[:, :k], dist_d[:, :k]], axis=1), axis=1))


def _clusters(cloud, centres, width, radius, k, floor, fetched=None):
    """Per centre, the prefix of its `_cluster` that a k-NN query of `width` columns (capped at the
    cloud size) vouches for, as rows (int32 indices, distances, +inf past each prefix) and each
    row's reach, its last tree distance less 1e-12 of it: every point nearer was fetched and kept,
    measured as `radius_query` does, in the query's (distance, index) order. A row whose reach is
    within the radius, the cloud not all fetched, is asked again at twice the width while it keeps
    under k (matching_k) points or reaches only its `floor`; `fetched` rows skip a query."""
    if fetched is None:
        tree_d, idx = cloud.spatial_index.query_array(centres, width)
        d = np.linalg.norm(np.take(cloud.positions, idx, axis=0) - centres[:, None], axis=2)
        reach = np.where(idx.shape[1] < cloud.count, tree_d[:, -1] * (1 - 1e-12) - 1e-300, np.inf)
        d[(d == 0) | (d > radius) | (d >= reach[:, None])] = np.inf
        order = np.argsort(d, axis=1, kind="stable")[:, :np.isfinite(d).sum(1).max()]
        index_type = np.int32 if cloud.count <= 2**31 else np.intp
        fetched = (np.take_along_axis(idx, order, 1).astype(index_type),
                   np.take_along_axis(d, order, 1), reach)
    idx, d, reach = fetched
    again = np.flatnonzero((reach <= radius) & ((np.isfinite(d).sum(1) < k) | (reach <= floor)))
    if again.size:  # widened to the longest prefix, each row a superset of the one it replaces
        wider = _clusters(cloud, centres[again], 2 * width, radius, k, floor[again])
        pad = ((0, 0), (0, max(0, wider[1].shape[1] - d.shape[1])))
        idx, d, reach = np.pad(idx, pad), np.pad(d, pad, constant_values=np.inf), reach.copy()
        idx[again, :wider[0].shape[1]], d[again, :wider[1].shape[1]], reach[again] = wider
    return idx, d, reach


def build_local_graph_pair(center_index: int, ref: PointCloud, dist: PointCloud,
                           config: GraphSimConfig | None = None, *,
                           radius: float | None = None) -> LocalGraphPair:
    """Build the local graph pair around one reference keypoint.

    Both clusters exclude points lying exactly at the keypoint position,
    so identical clouds produce identical neighbor index sets. The shared
    edge-weight cutoff comes from the matching_k rule over the cluster
    distances; the Gaussian variance is cutoff^2 / 2. Neither cluster is kept.
    """
    config = config or GraphSimConfig()
    radius = _radius(ref, config.neighborhood_fraction) if radius is None else radius
    r_idx, r_d = _cluster(ref, ref.positions[center_index], radius)
    d_idx, d_d = _cluster(dist, ref.positions[center_index], radius)
    cutoff = float(_cutoff_from_distances(r_d[None], d_d[None], config.matching_k,
                                          config.tau_scope)[0])
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
    if pair.ref.size == 0 or pair.dist.size == 0:
        raise DomainError("cannot match an empty neighborhood")
    return _align(pair.ref.positions, pair.dist.positions)


def _align(ref_positions: np.ndarray, dist_positions: np.ndarray):
    """`match_and_align` of two non-empty neighbourhoods given by their positions."""
    if len(ref_positions) <= len(dist_positions):
        return np.arange(len(ref_positions)), _nearest_rows(ref_positions, dist_positions)
    return _nearest_rows(dist_positions, ref_positions), np.arange(len(dist_positions))


def _nearest_rows(queries: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """argmin_j ||q_i - t_j|| per query row, in row_blocks of rows x targets entries."""
    from scipy.spatial.distance import cdist
    out = np.empty(queries.shape[0], dtype=np.intp)
    for rows in row_blocks(queries.shape[0], targets.shape[0] - 1):
        out[rows] = cdist(queries[rows], targets).argmin(axis=1)
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


def score_graph(table: GraphTable, ref_signal: SignalAttribute, dist_signal: SignalAttribute,
                pooling: tuple[str, str], channel_weights: np.ndarray) -> GraphScore:
    """Similarities of a table's batched graph pairs under one signal, one row per pair.

    Three bounded ratios are computed per channel (each in [-1, 1], equal
    to 1 iff the compared statistics agree):

        sim_mass = (2 m_r m_d + t1) / (m_r^2 + m_d^2 + t1)
        sim_mean = same form on the matched means, with t2
        sim_cov  = (cov + t3) / (std_r * std_d + t3)

    with (t1, t2, t3) = STABILIZERS, then pooled by the (feature, channel)
    rules of `pooling`, a POOLING_PRESETS value (the channel stage pools
    absolute values, weighed by `channel_weights`). The table's batches hold
    row_blocks(pairs, 3 x largest kept side - 1) pairs; with 2-3 channels,
    each row equals, bit for bit, the one `match_and_align`,
    `gradient_moments` and `covariance` give for its pair alone.
    """
    feature_pooling, channel_pooling = pooling
    sim_mass, sim_mean, sim_cov = map(np.concatenate, zip(*(_batch_similarities(
        *batch, ref_signal.values, dist_signal.values) for batch in table.batches)))
    if feature_pooling == "multiply":
        per_channel = sim_mass * sim_mean * sim_cov
    else:
        per_channel = (sim_mass + sim_mean + sim_cov) / 3

    if channel_pooling == "weighted-average":
        pooled = (channel_weights * np.abs(per_channel)).sum(axis=1) / channel_weights.sum()
    else:
        pooled = np.abs(per_channel).prod(axis=1)
    return GraphScore(
        sim_mass=sim_mass, sim_mean=sim_mean, sim_cov=sim_cov,
        per_channel=per_channel, pooled=pooled,
    )


def _graph_table(ref, dist, keys, radius, config, same) -> GraphTable:
    """The GraphTable of the graphs around `keys`: `build_local_graph_pair` and
    `match_and_align` per keypoint without a pair object, each side's cluster a vouched
    prefix in +inf-padded rows from `_clusters`, cutoffs and kept sizes read per
    row_blocks. Each side keeps a prefix of its sorted cluster; graphs with two non-empty
    sides are batched per row_blocks, each side's kept points laid out as one run per graph."""
    matching_k = min(config.matching_k, ref.count + dist.count)
    sides = [_kept_clusters(ref, keys, radius, config.matching_k)] * 2
    if not same:
        def floor(side):  # under "per-side" a side keeps points up to the other's own cutoff
            return (_cutoff_from_distances(side[1], side[1][:, :0], matching_k, "per-side")
                    if config.tau_scope == "per-side" else np.zeros(len(keys)))
        centres, width = ref.positions[keys], min(matching_k, sides[0][1].shape[1], dist.count) + 2
        sides[1] = _clusters(dist, centres, width, radius, matching_k, floor(sides[0]))
        sides[0] = _clusters(ref, centres, min(config.matching_k + 2, WIDTH), radius, matching_k,
                             floor(sides[1]), sides[0])  # the kept rows and their width
    (ref_idx, ref_d, _), (dist_idx, dist_d, _) = sides
    cutoffs, kept = np.empty(len(keys)), np.empty((len(keys), 2), np.intp)
    for b in row_blocks(len(keys), ref_d.shape[1] + dist_d.shape[1]):
        cutoffs[b] = _cutoff_from_distances(ref_d[b], dist_d[b], matching_k, config.tau_scope)
        kept[b] = np.stack([(d[b] <= cutoffs[b, None]).sum(1) for d in (ref_d, dist_d)], 1)
    sizes = np.stack([np.isfinite(d).sum(1) for d in (ref_d, dist_d)], 1)
    variance = gaussian_variance(cutoffs)

    scored, batches = np.flatnonzero(kept.min(axis=1) > 0), []
    for rows in (scored[b] for b in row_blocks(len(scored), 3 * kept[scored].max(initial=1) - 1)):
        n = kept[rows]
        runs = [(idx[rows][prefix], np.exp(-d[rows][prefix] ** 2 / np.repeat(variance[rows], m)))
                for idx, d, m in ((ref_idx, ref_d, n[:, 0]), (dist_idx, dist_d, n[:, 1]))
                for prefix in [np.arange(d.shape[1]) < m[:, None]]]
        starts = n.cumsum(axis=0) - n  # each graph's offset into its side's runs
        orders = [_align(ref.positions[r], dist.positions[d]) for r, d in
                  zip(np.split(runs[0][0], starts[1:, 0]), np.split(runs[1][0], starts[1:, 1]))]
        match = [np.concatenate([o[j] + s for o, s in zip(orders, starts[:, j])]) for j in (0, 1)]
        batches.append((keys[rows], n, *runs, match))
    return GraphTable(sizes, kept, cutoffs, batches)


def _batch_similarities(centers, kept, ref_side, dist_side, orders, ref_values, dist_values):
    """(sim_mass, sim_mean, sim_cov), one row per pair, over a batch's runs. Each
    graph's sums are np.bincount sums, taken in row order as the per-pair
    (M, channels).sum(axis=0) is (np.add.reduceat sums pairwise)."""
    t1, t2, t3 = STABILIZERS
    m = kept.min(axis=1)
    group = np.repeat(np.arange(len(m)), m)  # the graph of each matched row
    centers = ref_values[centers]

    def sums(graph, x):  # per graph the column sums of its rows of x
        return np.stack([np.bincount(graph, column, len(m)) for column in x.T], axis=1)

    def moment(x):  # per graph the mean of its matched rows of x
        return sums(group, x) / m[:, None]

    def side(values, n, order, indices, weights):
        gradients = np.sqrt(weights)[:, None] * (np.take(values, indices, axis=0)
                                                 - np.repeat(centers, n, axis=0))
        matched = np.take(gradients, order, axis=0)
        mean = moment(matched)
        deviations = matched - np.take(mean, group, axis=0)
        return sums(np.repeat(np.arange(len(m)), n), gradients), mean, deviations

    def ratio(x, y, t):
        return (2.0 * x * y + t) / (x * x + y * y + t)

    mass_r, mean_r, dev_r = side(ref_values, kept[:, 0], orders[0], *ref_side)
    mass_d, mean_d, dev_d = side(dist_values, kept[:, 1], orders[1], *dist_side)
    cov = moment(dev_r * dev_d)
    std = np.sqrt(moment(dev_r ** 2)) * np.sqrt(moment(dev_d ** 2))
    return ratio(mass_r, mass_d, t1), ratio(mean_r, mean_d, t2), (cov + t3) / (std + t3)


def _signals(cloud: PointCloud, config: GraphSimConfig, geometry: PointCloud,
             stored: bool = True, keep: bool = False) -> list:
    """The cloud's signal of each configured kind. Normals are the cloud's stored
    ones when it has them and `stored` holds, else the estimate kept on
    `geometry`, a cloud with the same positions. With `keep` (the reference), the
    colour signal is kept on the cloud per colour space."""
    def signal(kind):
        space = config.color_space
        if kind == "color" and keep:
            return cloud._cached(("color signal", space), lambda: decompose(cloud, space))
        if kind == "color":
            return decompose(cloud, space)
        if kind == "coordinate":
            return SignalAttribute(cloud.positions, kind, ("x", "y", "z"))
        normals = cloud.normals if stored and cloud.has_normals else \
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
    radius = _radius(ref, config.neighborhood_fraction)
    same = same_geometry(ref, dist)  # then its clusters and normals are the reference's
    # Normals of one kind: stored (oriented) on both sides, else estimated on both.
    stored = ref.has_normals and dist.has_normals
    # After the keypoint stage: a first call's colours are never live beside the filter.
    ref_signals = _signals(ref, config, ref, stored, keep=True)
    dist_signals = _signals(dist, config, ref if same else dist, stored)
    weights = [np.asarray(CHANNEL_WEIGHTS[config.color_space]) if s.kind == "color"
               else np.ones(3) for s in ref_signals]

    table = _graph_table(ref, dist, keypoints.indices, radius, config, same)
    graphed = table.sizes[:, 0] > 0  # an empty reference cluster skips its keypoint
    if not graphed.any():
        raise DomainError("no scorable keypoint graphs (every reference cluster was empty)")
    # A graph with an empty side scores 0 and adds no channel value.
    scored = table.kept[graphed].min(axis=1) > 0
    per_graph, means, count = np.zeros(graphed.sum()), {}, int(scored.sum())
    if table.batches:  # one matching for every kind
        scores = [score_graph(table, rs, ds, config.pooling_rules, w)
                  for rs, ds, w in zip(ref_signals, dist_signals, weights)]
        per_graph[scored] = sum(gs.pooled for gs in scores) / len(scores)
        for rs, gs in zip(ref_signals, scores):  # each label summed down the graphs in order
            for label, total in zip(rs.labels, gs.per_channel.sum(axis=0)):
                means[f"{rs.kind}:{label}"] = float(total) / count
    return SimilarityScore(
        quality=float(np.mean(per_graph)),
        per_graph=per_graph,
        graph_keypoints=keypoints.indices[graphed],
        per_channel_means=dict(sorted(means.items())),
        empty_graphs=len(per_graph) - count,
        skipped_keypoints=int((~graphed).sum()),
        keypoints=keypoints,
    )
