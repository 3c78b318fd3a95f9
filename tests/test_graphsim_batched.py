"""`graphsim` scores all keypoint graphs of a call in one batched `score_graph`
pass per signal kind. Its similarities, per-graph scores, quality and
per-channel means must equal, bit for bit, one pair at a time through the
readable reference path (`build_local_graph_pair`, `match_and_align`,
`gradient_moments`, `covariance`), and agree with the plain-loop oracle of
tests/oracles.py to rounding.

The clouds are integer lattices with repeated sites (every match ties) or
continuous boxes, each with a void around its centre that holds one point:
that point's reference cluster is empty until the radius reaches the void's
edge, so its graph is skipped. Cropped stimuli and a matching_k of 1 leave
graphs empty on the distorted or on the reference side. Fixed cases reach each
row that the call's bulk stimulus cluster query cannot vouch for.
"""

import importlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcqa import (DistortionSpec, DomainError, GraphSimConfig, PointCloud, apply_distortion,
                  bounding_box, build_local_graph_pair, graphsim)
from pcqa.cloud import same_geometry
from pcqa.colorspace import CHANNEL_WEIGHTS
from pcqa.graphsim import (POOLING_PRESETS, STABILIZERS, _graph_table, _signals, covariance,
                           gradient_moments, match_and_align, score_graph)

from helpers import pair_table, stimulus_refetches
from oracles import local_graph_oracle

SIGNALS = ("color", "coordinate", "normal", "mixed", ("normal", "color"))
STIMULI = ("same", "crop", "cn", "ggn", "ds", "ot")


def _clouds(seed, n, lattice, stimulus):
    """(reference, stimulus, void point index) on a 4-unit box."""
    rng = np.random.default_rng(seed)
    positions = (rng.integers(0, 5, (n, 3)).astype(np.float64) if lattice
                 else rng.uniform(0.0, 4.0, (n, 3)))
    centre = np.full(3, 2.0)
    positions = np.vstack([positions[np.linalg.norm(positions - centre, axis=1) > 1.5], centre])
    colors = rng.integers(0, 256, positions.shape).astype(np.float64)
    ref = PointCloud(positions=positions, colors=colors)
    if stimulus == "same":
        dist = PointCloud(positions=positions.copy(), colors=colors[::-1].copy())
    elif stimulus == "crop":  # no distorted points past x = 2
        keep = positions[:, 0] <= 2.0
        dist = PointCloud(positions=positions[keep], colors=colors[keep])
    else:
        level = {"cn": 0.1, "ggn": 0.02, "ds": 0.5, "ot": 3}[stimulus]
        dist = apply_distortion(ref, DistortionSpec(stimulus, level, seed=seed % 1000))
    return ref, dist, len(positions) - 1


def _similarities(pair, rs, ds):
    """(sim_mass, sim_mean, sim_cov) of one pair through the reference path."""
    t1, t2, t3 = STABILIZERS
    ref_order, dist_order = match_and_align(pair)
    a = gradient_moments(pair.ref, rs, ref_order)
    b = gradient_moments(pair.dist, ds, dist_order, center_value=rs.values[pair.center_index])

    def ratio(x, y, t):
        return (2.0 * x * y + t) / (x * x + y * y + t)

    cov = covariance(a.matched, b.matched)
    return (ratio(a.mass, b.mass, t1), ratio(a.mean, b.mean, t2),
            (cov + t3) / (np.sqrt(a.variance) * np.sqrt(b.variance) + t3))


def _pooled(sims, config, kind):
    """(per-channel, pooled) of one graph under one kind, as pooled one at a time."""
    feature, channel = config.pooling_rules
    features = np.stack(sims)
    per_channel = features.prod(axis=0) if feature == "multiply" else features.mean(axis=0)
    w = np.asarray(CHANNEL_WEIGHTS[config.color_space] if kind == "color" else np.ones(3))
    if channel == "weighted-average":
        return per_channel, float((w * np.abs(per_channel)).sum() / w.sum())
    return per_channel, float(np.prod(np.abs(per_channel)))


def _score_one_at_a_time(ref, dist, config, keypoints, similarities):
    """graphsim's result fields from a loop over keypoints, one graph pair at a time.

    similarities(pair, center, radius, rs, ds) gives a graph's (mass, mean,
    cov) similarities, None for a graph with an empty side, or "skipped"."""
    same, stored = same_geometry(ref, dist), ref.has_normals and dist.has_normals
    signals = list(zip(_signals(ref, config, ref, stored),
                       _signals(dist, config, ref if same else dist, stored)))
    radius = config.neighborhood_fraction * bounding_box(ref).min_extent
    per_graph, graph_keypoints, sums, skipped, empty, kept = [], [], {}, 0, 0, []
    for center in map(int, keypoints):
        pair = build_local_graph_pair(center, ref, dist, config, radius=radius)
        kinds = [similarities(pair, center, radius, rs, ds) for rs, ds in signals]
        if pair.ref_cluster_size == 0:
            assert all(k == "skipped" for k in kinds)
            skipped += 1
            continue
        graph_keypoints.append(center)
        if pair.ref.size == 0 or pair.dist.size == 0:
            assert all(k is None for k in kinds)
            empty += 1
            per_graph.append(0.0)
            continue
        kept.append(pair)
        scores = []
        for (rs, _), sims in zip(signals, kinds):
            per_channel, pooled = _pooled(sims, config, rs.kind)
            scores.append(pooled)
            for label, value in zip(rs.labels, per_channel):
                sums[f"{rs.kind}:{label}"] = sums.get(f"{rs.kind}:{label}", 0.0) + float(value)
        per_graph.append(sum(scores) / len(scores))
    means = {k: sums[k] / (len(per_graph) - empty) for k in sorted(sums)}
    return per_graph, graph_keypoints, means, empty, skipped, kept, signals


def _reference_path(pair, center, radius, rs, ds):
    if pair.ref_cluster_size == 0:
        return "skipped"
    return None if pair.ref.size == 0 or pair.dist.size == 0 else _similarities(pair, rs, ds)


def _oracle(ref, dist, config):
    def similarities(pair, center, radius, rs, ds):
        out = local_graph_oracle(ref.positions, dist.positions, rs.values, ds.values, center,
                                 radius, config.matching_k, tau_scope=config.tau_scope)
        if out is None:
            return "skipped"
        return None if out["score"] is None else tuple(out["similarities"].T)
    return similarities


def _table_rows_are_the_pairs(table, ref, dist, config, keypoints):
    """Assert that a call's table is its pairs': per keypoint the pair's reference
    cluster size, kept sizes and cutoff, bit for bit, and a stimulus size between the
    pair's kept and cluster sizes (the bulk query vouches for a prefix of the cluster
    that holds every kept point); batched, in order, exactly the rows with two kept
    sides, each batch's runs and match orders those of its pairs laid out one at a
    time. Returns the number of batched rows."""
    radius = config.neighborhood_fraction * bounding_box(ref).min_extent
    pairs = [build_local_graph_pair(int(c), ref, dist, config, radius=radius) for c in keypoints]
    assert table.sizes[:, 0].tolist() == [p.ref_cluster_size for p in pairs]
    assert all(p.dist.size <= size <= p.dist_cluster_size
               for size, p in zip(table.sizes[:, 1].tolist(), pairs))
    assert table.kept.tolist() == [[p.ref.size, p.dist.size] for p in pairs]
    assert table.cutoffs.tolist() == [p.params.cutoff for p in pairs]
    kept = [p for p in pairs if p.ref.size and p.dist.size]
    assert len(kept) == sum(len(batch[0]) for batch in table.batches)
    if kept:  # each batch: (centres, kept sizes, ref run, dist run, match orders)
        def arrays(batch):  # centres, kept sizes, both runs' arrays, both orders
            centres, sizes, ref_run, dist_run, orders = batch
            return [centres, sizes, *ref_run, *dist_run, *orders]

        want = pair_table(kept).batches
        assert len(table.batches) == len(want)
        for got, one in zip(table.batches, want):
            assert all(map(np.array_equal, arrays(got), arrays(one)))
    return len(kept)


@settings(max_examples=100)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(60, 240), lattice=st.booleans(),
       stimulus=st.sampled_from(STIMULI), signal=st.sampled_from(SIGNALS),
       preset=st.sampled_from(sorted(POOLING_PRESETS)),
       tau_scope=st.sampled_from(("union", "per-side")),
       color_space=st.sampled_from(("gcm", "yuv", "rgb")),
       matching_k=st.sampled_from((1, 3, 50, 10**4, 10**30)),
       fraction=st.sampled_from((0.15, 0.3, 0.6, 1.0)),
       count=st.integers(1, 8))
def test_graphsim_equals_the_per_pair_reference_path(seed, n, lattice, stimulus, signal, preset,
                                                     tau_scope, color_space, matching_k,
                                                     fraction, count):
    ref, dist, void = _clouds(seed, n, lattice, stimulus)
    config = GraphSimConfig(neighborhood_fraction=fraction, matching_k=matching_k,
                            color_space=color_space, pooling=preset, signal_kind=signal,
                            tau_scope=tau_scope)
    rng = np.random.default_rng(seed)
    keypoints = rng.permutation(np.append(rng.choice(void, count, replace=False), void))
    per_graph, graph_keypoints, means, empty, skipped, kept, signals = _score_one_at_a_time(
        ref, dist, config, keypoints, _reference_path)
    radius = config.neighborhood_fraction * bounding_box(ref).min_extent
    table = _graph_table(ref, dist, keypoints, radius, config, same_geometry(ref, dist))
    assert _table_rows_are_the_pairs(table, ref, dist, config, keypoints) == len(kept)
    if not per_graph:
        with pytest.raises(DomainError, match="no scorable keypoint graphs"):
            graphsim(ref, dist, config, keypoints=keypoints)
        return
    result = graphsim(ref, dist, config, keypoints=keypoints)
    assert np.array_equal(result.per_graph, per_graph)
    assert result.quality == float(np.mean(per_graph))
    assert result.per_channel_means == means
    assert list(result.graph_keypoints) == graph_keypoints
    assert (result.empty_graphs, result.skipped_keypoints) == (empty, skipped)
    for rs, ds in signals:  # every field of the table's scores, row by row
        batch = score_graph(table, rs, ds, config.pooling_rules, np.ones(3)) if kept else None
        for row, pair in enumerate(kept):
            for got, want in zip((batch.sim_mass, batch.sim_mean, batch.sim_cov),
                                 _similarities(pair, rs, ds)):
                assert np.array_equal(got[row], want)

    o_graph, o_keypoints, o_means, o_empty, o_skipped, _, _ = _score_one_at_a_time(
        ref, dist, config, keypoints, _oracle(ref, dist, config))
    assert (o_keypoints, o_empty, o_skipped) == (graph_keypoints, empty, skipped)
    assert np.allclose(result.per_graph, o_graph, rtol=1e-9, atol=1e-12)
    assert result.per_channel_means.keys() == o_means.keys()
    for key, value in o_means.items():
        assert result.per_channel_means[key] == pytest.approx(value, rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("signal", ["color", "mixed", ("color", "coordinate", "normal")])
def test_one_matching_serves_every_signal_kind(monkeypatch, signal):
    # Matching reads positions only, so a call matches each scored graph once,
    # whatever the number of signal kinds.
    module = importlib.import_module("pcqa.graphsim")
    align, calls = module._align, []
    monkeypatch.setattr(module, "_align", lambda *sides: calls.append(1) or align(*sides))
    ref, dist, void = _clouds(5, 200, False, "ggn")
    keypoints = np.arange(0, void, 20)
    score = graphsim(ref, dist, GraphSimConfig(signal_kind=signal), keypoints=keypoints)
    assert len(calls) == len(score.per_graph) - score.empty_graphs > 1


@pytest.mark.parametrize("signal", ["color", "mixed"])
def test_graphsim_builds_no_pair_object(monkeypatch, signal):
    # The call's graphs are built as flat runs: with the per-pair builder and its
    # pair type made to raise, the report is the same, and each signal kind is
    # scored in one score_graph call.
    module = importlib.import_module("pcqa.graphsim")
    ref, dist, void = _clouds(6, 200, False, "crop")
    config = GraphSimConfig(neighborhood_fraction=0.3, signal_kind=signal)
    keypoints = np.append(np.arange(0, void, 15), void)
    want = graphsim(ref, dist, config, keypoints=keypoints).to_report(config)

    def refuse(*args, **kwargs):
        raise AssertionError("graphsim built a pair object")

    kinds = []
    monkeypatch.setattr(module, "build_local_graph_pair", refuse)
    monkeypatch.setattr(module, "LocalGraphPair", refuse)
    monkeypatch.setattr(module, "score_graph", lambda table, rs, ds, *args:
                        kinds.append(rs.kind) or score_graph(table, rs, ds, *args))
    got = graphsim(ref, dist, config, keypoints=keypoints)
    assert got.to_report(config) == want
    assert got.skipped_keypoints == 1 and 0 < got.empty_graphs < len(got.per_graph)
    assert kinds == list(config.signal_kinds)


def _fallback_case(case):
    """(reference, stimulus, config, keypoints) whose stimulus rows the bulk cluster
    query cannot all vouch for, so some are asked again with `_cluster`."""
    rng = np.random.default_rng(7)

    def cloud(positions):
        return PointCloud(positions=positions, colors=rng.integers(0, 256, positions.shape))

    if case == "lattice-ties":  # ties at 1 and sqrt(2) straddle the 7 columns fetched
        lattice = np.stack(np.meshgrid(*[np.arange(6.0)] * 3), axis=-1).reshape(-1, 3)
        config = GraphSimConfig(neighborhood_fraction=0.5, matching_k=5)
        return cloud(lattice[1:]), cloud(lattice), config, np.arange(0, 215, 7)
    dense = cloud(rng.uniform(0.0, 4.0, (3000, 3)))
    if case == "denser-stimulus":  # matching_k above the reference's widest cluster
        config = GraphSimConfig(neighborhood_fraction=0.2, matching_k=40)
    elif case == "per-side":  # the reference's 5th distance past the stimulus's reach
        config = GraphSimConfig(neighborhood_fraction=0.3, matching_k=5, tau_scope="per-side")
    else:  # "k-past-both": matching_k above both clouds' sizes together
        ref = cloud(rng.uniform(0.0, 4.0, (20, 3)))
        config = GraphSimConfig(neighborhood_fraction=0.4, matching_k=10**4)
        return ref, cloud(rng.uniform(0.0, 4.0, (50, 3))), config, np.arange(20)
    return cloud(rng.uniform(0.0, 4.0, (300, 3))), dense, config, np.arange(0, 300, 10)


@pytest.mark.parametrize("case", ["denser-stimulus", "per-side", "lattice-ties", "k-past-both"])
def test_rows_the_bulk_query_cannot_vouch_for_are_asked_again(monkeypatch, case):
    # Each case reaches a fallback of the stimulus's bulk cluster query, and every
    # table row still equals its pair's, bit for bit.
    ref, dist, config, keypoints = _fallback_case(case)
    assert not same_geometry(ref, dist)
    radius = config.neighborhood_fraction * bounding_box(ref).min_extent
    refetched = stimulus_refetches(monkeypatch, dist)
    table = _graph_table(ref, dist, keypoints, radius, config, False)
    assert 0 < len(refetched) <= len(keypoints)
    monkeypatch.undo()
    assert _table_rows_are_the_pairs(table, ref, dist, config, keypoints) > 0
    if case == "per-side":  # the union's cutoff lies within the fetched points
        union = GraphSimConfig(neighborhood_fraction=0.3, matching_k=5)
        refetched = stimulus_refetches(monkeypatch, dist)
        table = _graph_table(ref, dist, keypoints, radius, union, False)
        assert not refetched
        assert _table_rows_are_the_pairs(table, ref, dist, union, keypoints) > 0


def test_the_stimulus_query_is_no_wider_than_the_largest_reference_cluster(monkeypatch):
    # A huge matching_k fetches the reference's largest cluster + 2 columns a keypoint,
    # not the whole stimulus.
    ref, dist, _, keypoints = _fallback_case("denser-stimulus")
    config = GraphSimConfig(neighborhood_fraction=0.2, matching_k=10**6)
    widths, query = [], type(dist.spatial_index).query_array

    def recording(index, queries, k):
        if index is dist.spatial_index:
            widths.append(k)
        return query(index, queries, k)

    monkeypatch.setattr(type(dist.spatial_index), "query_array", recording)
    radius = config.neighborhood_fraction * bounding_box(ref).min_extent
    table = _graph_table(ref, dist, keypoints, radius, config, False)
    largest = max(v[0].size for key, v in ref._results.items() if key[0] == "graphsim cluster")
    assert widths == [largest + 2] and largest + 2 < dist.count
    monkeypatch.undo()
    assert _table_rows_are_the_pairs(table, ref, dist, config, keypoints) > 0
