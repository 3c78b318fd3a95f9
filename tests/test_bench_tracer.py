"""The benchmark's tracer (bench/spans.py) patches pcqa functions and
SpatialIndex methods by name and reads attributes of their results; a
rename on either side must fail here, not only in a traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

import pytest

import pcqa
from pcqa import DistortionSpec, GraphSimConfig, ResampleConfig, apply_distortion
from pcqa.spatial import SpatialIndex

from helpers import cluster_refetches, smooth_cloud

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves_and_is_put_back(spans):
    originals = {method: getattr(SpatialIndex, method) for method in spans.METHODS}
    with spans.Tracer() as tracer:
        assert tracer._saved, "the tracer patched nothing"
        for method in spans.METHODS:
            assert getattr(SpatialIndex, method) is not originals[method]
    for method, original in originals.items():
        assert getattr(SpatialIndex, method) is original
    module = importlib.import_module("pcqa.graphsim")
    assert not hasattr(module.build_local_graph_pair, "__wrapped__")
    assert not hasattr(pcqa.graphsim, "__wrapped__")


def _graphsim_queries(tracer):
    """The query_array spans that graphsim asks itself, not through a stage it calls."""
    return [s for s in tracer.spans if s["name"] == "spatial.query_array"
            and s["parent"] is not None and tracer.spans[s["parent"]]["name"] == "graphsim.graphsim"]


def test_counters_read_what_graphsim_and_the_baselines_return(spans, monkeypatch):
    ref = smooth_cloud(400, seed=2)
    dist = apply_distortion(ref, DistortionSpec("ggn", 0.01, seed=3))
    config = GraphSimConfig(resample=ResampleConfig(count=6))
    refetched = cluster_refetches(monkeypatch)
    with spans.Tracer() as tracer:
        tracer.unit = "pair"
        # Looked up on the package while the tracer is active, as the benchmark does.
        score = pcqa.graphsim(ref, dist, config)
        pcqa.run_baselines(ref, dist)
    counts = tracer.counts["pair"]
    assert counts["graphsim.graphsim_calls"] == 1
    assert counts["graphsim.keypoints"] == score.keypoints.count == 6
    assert counts["graphsim.scored"] == len(score.per_graph) - score.empty_graphs
    # The graphs are laid out as flat runs, not by build_local_graph_pair, so its span
    # and the cluster sizes read from its pairs count nothing. Each side's clusters come
    # from one bulk query (the reference's then kept), and only the rows a query cannot
    # vouch for are asked again, in bulk: no radius query is asked.
    assert "graphsim.local_graph_calls" not in counts
    assert "graphsim.cluster_points" not in counts
    assert len(_graphsim_queries(tracer)) == 2 + len(refetched)
    assert "spatial.radius_query_calls" not in counts
    # All of a call's graphs are scored in one score_graph call per signal kind.
    assert counts["graphsim.score_graph_calls"] == len(config.signal_kinds) == 1
    assert counts["baselines.run_calls"] == 1
    assert counts["spatial.nearest_rows"] == ref.count + dist.count
    totals = spans.layer_totals(tracer.spans)["pair"]
    assert totals["graphsim.graphsim_s"] >= totals["graphsim.score_graph_s"] > 0


def test_graphsim_scores_its_graphs_in_one_call_per_signal_kind(spans, monkeypatch):
    ref = smooth_cloud(400, seed=2)
    dist = apply_distortion(ref, DistortionSpec("ds", 0.5, seed=3))
    config = GraphSimConfig(signal_kind="mixed", resample=ResampleConfig(count=6))
    refetched = cluster_refetches(monkeypatch)
    with spans.Tracer() as tracer:
        tracer.unit = "pair"
        score = pcqa.graphsim(ref, dist, config)
        pcqa.graphsim(ref, dist, config)
    counts = tracer.counts["pair"]
    assert len(score.per_graph) - score.empty_graphs > 1
    assert counts["graphsim.graphsim_calls"] == 2
    assert counts["graphsim.score_graph_calls"] == 2 * len(config.signal_kinds) == 4
    assert "graphsim.local_graph_calls" not in counts
    # The second call reads the reference's kept clusters and queries the stimulus only:
    # one bulk query a call, and one a round of the rows asked again on either side.
    assert len(_graphsim_queries(tracer)) == 3 + len(refetched)
    assert "spatial.radius_query_calls" not in counts
