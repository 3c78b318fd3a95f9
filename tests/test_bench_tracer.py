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

from helpers import smooth_cloud

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


def test_counters_read_what_graphsim_and_the_baselines_return(spans):
    ref = smooth_cloud(400, seed=2)
    dist = apply_distortion(ref, DistortionSpec("ggn", 0.01, seed=3))
    config = GraphSimConfig(resample=ResampleConfig(count=6))
    with spans.Tracer() as tracer:
        tracer.unit = "pair"
        # Looked up on the package while the tracer is active, as the benchmark does.
        score = pcqa.graphsim(ref, dist, config)
        pcqa.run_baselines(ref, dist)
    counts = tracer.counts["pair"]
    assert counts["graphsim.graphsim_calls"] == 1
    assert counts["graphsim.keypoints"] == score.keypoints.count == 6
    assert counts["graphsim.scored"] == len(score.per_graph) - score.empty_graphs
    assert counts["graphsim.local_graph_calls"] == len(score.per_graph) + score.skipped_keypoints
    assert counts["graphsim.cluster_points"] > 0
    assert counts["baselines.run_calls"] == 1
    assert counts["spatial.nearest_rows"] == ref.count + dist.count
    totals = spans.layer_totals(tracer.spans)["pair"]
    assert totals["graphsim.graphsim_s"] >= totals["graphsim.score_graph_s"] > 0
