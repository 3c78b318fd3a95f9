"""End-to-end command tests driven through main() in process; one contract runs
the command in a real process, where an escaping exception prints a traceback."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pcqa import GraphSimConfig, PointCloud, ResampleConfig, graphsim, load_ply, save_ply
from pcqa import evaluate as evaluate_module
from pcqa.cli import build_parser, main
from pcqa.evaluate import MIN_GROUP_SIZE, logistic_fit, plcc, rmse, srocc
from pcqa.jsonutil import canonical_dumps

from helpers import planar_cloud, random_cloud


@pytest.fixture
def ply_pair(tmp_path):
    ref = random_cloud(400, seed=0)
    noisy = PointCloud(
        positions=ref.positions
        + np.random.default_rng(1).normal(0, 0.01, ref.positions.shape),
        colors=ref.colors,
    )
    ref_path = tmp_path / "ref.ply"
    dist_path = tmp_path / "dist.ply"
    save_ply(ref, ref_path)
    save_ply(noisy, dist_path)
    return str(ref_path), str(dist_path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def last_stderr_json(err):
    lines = [ln for ln in err.strip().splitlines() if ln]
    assert lines, "expected a diagnostic line on stderr"
    return json.loads(lines[-1])


class TestScore:
    def test_identity_report(self, capsys, ply_pair):
        ref, _ = ply_pair
        code, out, err = run(capsys, "score", ref, ref, "--beta", "4")
        assert code == 0
        report = json.loads(out)
        assert report["command"] == "score"
        assert report["scores"]["graphsim"] == pytest.approx(1.0, abs=1e-9)
        assert err == ""

    def test_same_seed_is_byte_identical(self, capsys, ply_pair):
        ref, dist = ply_pair
        argv = ("score", ref, dist, "--beta", "8", "--seed", "3")
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second

    def test_output_file_holds_the_report(self, capsys, ply_pair, tmp_path):
        ref, dist = ply_pair
        target = tmp_path / "score.json"
        code, out, _ = run(capsys, "score", ref, dist, "--beta", "4",
                           "--output", str(target),
                           "--content", "cat", "--distortion", "ggn_1")
        assert code == 0
        assert out == ""
        body = json.loads(target.read_text())
        assert body["content"] == "cat"
        assert body["distortion"] == "ggn_1"
        assert "graphsim" in body["scores"]

    def test_coordinate_signal(self, capsys, tmp_path):
        cloud = random_cloud(300, seed=2, colored=False)
        path = tmp_path / "plain.ply"
        save_ply(cloud, path)
        code, out, _ = run(capsys, "score", str(path), str(path),
                           "--signal", "coordinate", "--beta", "4")
        assert code == 0
        report = json.loads(out)
        assert report["config"]["signal_kind"] == ["coordinate"]

    def test_coord_is_an_unknown_signal_kind(self, capsys, ply_pair):
        ref, dist = ply_pair
        code, out, err = run(capsys, "score", ref, dist, "--signal", "coord",
                             "--beta", "4")
        assert code == 3
        assert out == ""
        diag = last_stderr_json(err)
        assert diag["error"] == "DomainError"
        assert "coord" in diag["message"]

    @pytest.mark.parametrize("fraction", ["inf", "nan"])
    def test_non_finite_theta_fraction_exits_3(self, capsys, ply_pair, fraction):
        ref, dist = ply_pair
        code, out, err = run(capsys, "score", ref, dist, "--theta-fraction", fraction)
        assert (code, out) == (3, "")
        assert "neighborhood_fraction must be positive and finite" in last_stderr_json(err)["message"]

    def test_missing_input_exits_2(self, capsys, tmp_path):
        ghost = str(tmp_path / "absent.ply")
        code, out, err = run(capsys, "score", ghost, ghost)
        assert code == 2
        assert out == ""
        diag = last_stderr_json(err)
        assert "error" in diag and "absent.ply" in diag["message"]

    def test_color_signal_without_colors_exits_3(self, capsys, tmp_path):
        cloud = random_cloud(300, seed=3, colored=False)
        path = tmp_path / "plain.ply"
        save_ply(cloud, path)
        code, _, err = run(capsys, "score", str(path), str(path), "--beta", "4")
        assert code == 3
        assert last_stderr_json(err)["error"] == "DomainError"

    @pytest.mark.parametrize("colored", [(True, False), (False, True)],
                             ids=["colorless-distorted", "colorless-reference"])
    def test_one_colorless_cloud_exits_3(self, capsys, tmp_path, colored):
        # The distorted PLY is read after the reference's keypoints are drawn.
        paths = []
        for seed, has_colors in enumerate(colored):
            paths.append(str(tmp_path / f"{seed}.ply"))
            save_ply(random_cloud(300, seed=seed, colored=has_colors), paths[-1])
        code, out, err = run(capsys, "score", *paths, "--beta", "4")
        assert code == 3
        assert out == ""
        diag = last_stderr_json(err)
        assert diag["error"] == "DomainError" and "colors" in diag["message"]

    def test_zero_extent_reference_exits_3_naming_its_extent(self, capsys, tmp_path):
        # A z = 0 coloured cloud: its cluster radius is 0, refused with that cause.
        cloud = planar_cloud(2000)
        path = str(tmp_path / "flat.ply")
        save_ply(PointCloud(positions=cloud.positions,
                            colors=np.random.default_rng(3).integers(0, 256, (2000, 3))), path)
        code, out, err = run(capsys, "score", path, path)
        assert (code, out) == (3, "")
        assert last_stderr_json(err) == {
            "error": "DomainError",
            "message": "smallest reference bounding-box extent is 0, so the cluster radius is 0"}

    def test_radius_that_squares_to_zero_exits_3_naming_it(self, capsys, tmp_path):
        # A cloud 0.001 across at --theta-fraction 1e-320: a radius of ~1e-323 squares to 0.
        rng = np.random.default_rng(4)
        path = str(tmp_path / "tiny.ply")
        save_ply(PointCloud(positions=rng.uniform(0, 0.001, (300, 3)),
                            colors=rng.integers(0, 256, (300, 3))), path)
        code, out, err = run(capsys, "score", path, path, "--theta-fraction", "1e-320")
        assert (code, out) == (3, "")
        diag = last_stderr_json(err)
        assert diag["error"] == "DomainError"
        assert diag["message"].startswith("cluster radius 1e-323 squares to 0: "
                                          "neighborhood_fraction 1e-320 times")

    @pytest.mark.parametrize("damage", ["missing", "truncated"])
    def test_unreadable_distorted_exits_2_without_traceback(self, ply_pair, tmp_path, damage):
        # A real process: an exception escaping main() would print its traceback.
        ref, dist = ply_pair
        bad = tmp_path / f"{damage}.ply"
        if damage == "truncated":
            bad.write_bytes(Path(dist).read_bytes()[:-100])
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
        proc = subprocess.run([sys.executable, "-m", "pcqa.cli", "score", ref, str(bad),
                               "--beta", "4"], capture_output=True, text=True, env=env)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        assert f"{damage}.ply" in last_stderr_json(proc.stderr)["message"]

    def test_report_equals_in_process_graphsim(self, capsys, ply_pair):
        ref, dist = ply_pair
        code, out, _ = run(capsys, "score", ref, dist, "--beta", "8", "--seed", "3",
                           "--signal", "color,normal")
        assert code == 0
        config = GraphSimConfig(signal_kind=("color", "normal"),
                                resample=ResampleConfig(count=8, seed=3))
        result = graphsim(load_ply(ref), load_ply(dist), config)
        expected = dict(result.to_report(config), seed=3, command="score",
                        inputs={"reference": ref, "distorted": dist}, content="",
                        distortion="", scores={"graphsim": result.quality})
        assert out == canonical_dumps(expected) + "\n"

    def test_config_echoes_the_channel_rule_it_pooled_by(self, capsys, ply_pair):
        # c3 multiplies channels, but with several signal kinds they are averaged.
        ref, dist = ply_pair
        code, out, _ = run(capsys, "score", ref, dist, "--beta", "8",
                           "--signal", "color,normal", "--pooling", "c3")
        assert code == 0
        report = json.loads(out)
        assert (report["config"]["feature_pooling"], report["config"]["channel_pooling"]) \
            == ("average", "weighted-average")
        config = GraphSimConfig(signal_kind=("color", "normal"), pooling="c3",
                                resample=ResampleConfig(count=8))
        assert report["quality"] == graphsim(load_ply(ref), load_ply(dist), config).quality

    def test_a_kind_listed_twice_exits_3(self, capsys, ply_pair):
        ref, dist = ply_pair
        code, out, err = run(capsys, "score", ref, dist, "--beta", "4",
                             "--signal", "color,color", "--pooling", "c3")
        assert (code, out) == (3, "")
        assert "Traceback" not in err
        assert "signal kind 'color' is listed twice" in last_stderr_json(err)["message"]

    @pytest.mark.parametrize("flag", [
        ("--feature-pooling", "multiply"),
        ("--channel-pooling", "multiply"),
        ("--resample", "highpass"),
    ], ids=["feature-pooling", "channel-pooling", "resample-highpass"])
    def test_removed_spellings_exit_2(self, capsys, ply_pair, flag):
        # --pooling c1-c4 names every pooling combination and --resample
        # takes high-pass or random; no second spelling is accepted.
        ref, dist = ply_pair
        with pytest.raises(SystemExit) as exc:
            main(["score", ref, dist, *flag])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""


@pytest.mark.parametrize("argv", [
    ("score", "{ref}", "{dist}", "--beta", "4"),
    ("resample", "{ref}", "--count", "4", "--output", "{out}"),
    ("distort", "{ref}", "--kind", "ggn", "--level", "0.01", "--output", "{out}"),
], ids=["score", "resample", "distort"])
def test_negative_seed_exits_3(capsys, ply_pair, tmp_path, argv):
    ref, dist = ply_pair
    argv = [a.format(ref=ref, dist=dist, out=tmp_path / "out") for a in argv]
    code, out, err = run(capsys, *argv, "--seed", "-1")
    assert code == 3
    assert out == ""
    diag = last_stderr_json(err)
    assert diag["error"] == "DomainError"
    assert "seed" in diag["message"]


@pytest.mark.parametrize("argv, stored_normals", [
    (("baseline",), False),
    (("baseline",), True),
    (("score", "--signal", "normal", "--beta", "4"), False),
], ids=["baseline", "baseline-stored-normals", "score-normal"])
def test_zero_normals_k_exits_3(capsys, ply_pair, tmp_path, argv, stored_normals):
    ref, dist = ply_pair
    if stored_normals:
        ref = dist = str(tmp_path / "normals.ply")
        save_ply(random_cloud(300, seed=5, normals=True), ref)
    command, *options = argv
    code, out, err = run(capsys, command, ref, dist, *options, "--normals-k", "0")
    assert code == 3
    assert out == ""
    diag = last_stderr_json(err)
    assert diag["error"] == "DomainError"
    assert ">= 1" in diag["message"]


@pytest.mark.parametrize("argv", [
    ("resample", "{ref}", "--count", "3", "--output", "{out}"),
    ("score", "{ref}", "{ref}", "--beta", "3"),
], ids=["resample", "score"])
def test_overflowing_filter_exits_3(capsys, ply_pair, tmp_path, argv):
    ref, _ = ply_pair
    argv = [a.format(ref=ref, out=tmp_path / "keys.csv") for a in argv]
    code, out, err = run(capsys, *argv, "--filter-length", "100000")
    assert code == 3
    assert out == ""
    diag = last_stderr_json(err)
    assert diag["error"] == "DomainError"
    assert "filter_length" in diag["message"]


@pytest.mark.parametrize("argv", [
    ("score", "{empty}", "{ref}", "--beta", "4"),
    ("score", "{ref}", "{empty}", "--beta", "4"),
    ("baseline", "{empty}", "{ref}"),
    ("baseline", "{ref}", "{empty}"),
    ("distort", "{empty}", "--kind", "ggn", "--level", "0.01", "--output", "{out}"),
    ("resample", "{empty}", "--count", "4", "--output", "{out}"),
], ids=["score-ref", "score-stimulus", "baseline-ref", "baseline-stimulus", "distort",
        "resample"])
def test_a_ply_with_no_vertices_exits_3(capsys, ply_pair, tmp_path, argv):
    empty = tmp_path / "empty.ply"
    empty.write_text("ply\nformat ascii 1.0\nelement vertex 0\n"
                     "property float x\nproperty float y\nproperty float z\nend_header\n")
    argv = [a.format(empty=empty, ref=ply_pair[0], out=tmp_path / "out") for a in argv]
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == "" and len(err.splitlines()) == 1
    assert json.loads(err) == {"error": "DomainError",
                               "message": "a point cloud needs at least one point"}
    assert not (tmp_path / "out").exists()


def write_ascii_ply(path, positions):
    header = ["ply", "format ascii 1.0", f"element vertex {len(positions)}",
              "property double x", "property double y", "property double z", "end_header"]
    rows = [" ".join(repr(float(v)) for v in row) for row in positions]
    path.write_text("\n".join(header + rows) + "\n")


@pytest.mark.parametrize("row", ["0 0 0", "inf 0 0"], ids=["plain", "per-line"])
def test_vertex_count_past_the_body_exits_2(capsys, tmp_path, row):
    # The header's count must not size a buffer before the body is read; "inf"
    # sends the row through the per-line parser instead of the plain-text one.
    short = tmp_path / "short.ply"
    short.write_text("ply\nformat ascii 1.0\nelement vertex 10000000000000\n"
                     "property float x\nproperty float y\nproperty float z\n"
                     f"end_header\n{row}\n")
    code, out, err = run(capsys, "resample", str(short), "--count", "1",
                         "--output", str(tmp_path / "k.csv"))
    assert code == 2
    assert out == ""
    diag = last_stderr_json(err)
    assert diag["error"] == "TruncationError"
    assert diag["message"].endswith("expected 10000000000000 rows, found 1")


class TestHugeCoordinates:
    """Squared distances overflow float64 beyond about 1e154, so clouds past
    MAX_COORDINATE are rejected where they are made: in distort, at load."""

    def test_distort_to_huge_coordinates_exits_3(self, capsys, ply_pair, tmp_path):
        ref, _ = ply_pair
        target = tmp_path / "huge.ply"
        code, out, err = run(capsys, "distort", ref, "--kind", "ggn", "--level", "1e300",
                             "--output", str(target))
        assert code == 3
        assert out == ""
        assert not target.exists()
        diag = last_stderr_json(err)
        assert diag["error"] == "DomainError"
        assert "1e+150" in diag["message"]

    @pytest.mark.parametrize("argv", [
        ("score", "{ref}", "{huge}", "--signal", "coordinate", "--beta", "4"),
        ("baseline", "{ref}", "{huge}", "--metrics", "m-p2po,h-p2pl"),
        ("resample", "{huge}", "--count", "3", "--output", "{out}"),
    ], ids=["score", "baseline", "resample"])
    def test_loading_huge_coordinates_exits_3(self, capsys, ply_pair, tmp_path, argv):
        ref, _ = ply_pair
        huge = tmp_path / "huge.ply"
        write_ascii_ply(huge, np.random.default_rng(2).normal(0, 1e300, (300, 3)))
        argv = [a.format(ref=ref, huge=huge, out=tmp_path / "k.csv") for a in argv]
        code, out, err = run(capsys, *argv)
        assert code == 3
        assert out == ""
        diag = last_stderr_json(err)
        assert diag["error"] == "DomainError"
        assert "1e+150" in diag["message"]

    def test_coordinates_at_the_bound_still_score(self, capsys, tmp_path):
        edge = tmp_path / "edge.ply"
        write_ascii_ply(edge, np.random.default_rng(3).uniform(-1e150, 1e150, (300, 3)))
        for command, *options in (("score", "--signal", "coordinate", "--beta", "4"),
                                  ("baseline", "--metrics", "m-p2po,h-p2pl")):
            code, _, err = run(capsys, command, str(edge), str(edge), *options)
            assert code == 0, err


class TestBaseline:
    def test_identity_is_all_infinite(self, capsys, ply_pair):
        ref, _ = ply_pair
        code, out, _ = run(capsys, "baseline", ref, ref)
        assert code == 0
        report = json.loads(out)
        assert set(report["scores"]) == {
            "m-p2po", "m-p2pl", "h-p2po", "h-p2pl", "psnr-yuv"}
        assert all(v == "inf" for v in report["scores"].values())

    def test_metric_subset(self, capsys, ply_pair):
        ref, dist = ply_pair
        code, out, _ = run(capsys, "baseline", ref, dist,
                           "--metrics", "psnr-yuv")
        assert code == 0
        report = json.loads(out)
        assert list(report["scores"]) == ["psnr-yuv"]
        assert report["metrics"]["psnr-yuv"]["forward_db"] == pytest.approx(
            report["metrics"]["psnr-yuv"]["backward_db"], rel=1e-9)

    def test_empty_metric_list_exits_2(self, capsys, ply_pair):
        ref, dist = ply_pair
        code, out, err = run(capsys, "baseline", ref, dist, "--metrics", "")
        assert code == 2
        assert out == ""
        diag = last_stderr_json(err)
        assert diag["error"] == "ValidationError"
        assert "--metrics" in diag["message"]

    def test_repeated_metric_exits_3(self, capsys, ply_pair):
        ref, dist = ply_pair
        code, out, err = run(capsys, "baseline", ref, dist, "--metrics", "m-p2po,h-p2po,m-p2po")
        assert (code, out) == (3, "")
        diag = last_stderr_json(err)
        assert diag["error"] == "DomainError"
        assert "name each baseline metric once" in diag["message"]

    def test_unknown_metric_exits_3(self, capsys, ply_pair):
        ref, dist = ply_pair
        code, _, err = run(capsys, "baseline", ref, dist, "--metrics", "vmaf")
        assert code == 3
        assert "vmaf" in last_stderr_json(err)["message"]


def test_cn_stimulus_scores_and_baselines_as_in_process(capsys, ply_pair, tmp_path):
    # The written stimulus holds a copy of the reference's positions: score and
    # baseline take the shared-geometry path on it.
    from pcqa import run_baselines
    from pcqa.cloud import same_geometry

    ref, _ = ply_pair
    cn = str(tmp_path / "cn.ply")
    code, _, _ = run(capsys, "distort", ref, "--kind", "cn", "--level", "0.08",
                     "--output", cn)
    assert code == 0
    assert same_geometry(load_ply(ref), load_ply(cn))
    inputs = {"inputs": {"reference": ref, "distorted": cn}, "content": "", "distortion": ""}

    code, out, _ = run(capsys, "score", ref, cn, "--beta", "8", "--seed", "3")
    assert code == 0
    config = GraphSimConfig(resample=ResampleConfig(count=8, seed=3))
    result = graphsim(load_ply(ref), load_ply(cn), config)
    expected = dict(result.to_report(config), seed=3, command="score", **inputs,
                    scores={"graphsim": result.quality})
    assert out == canonical_dumps(expected) + "\n"

    code, out, _ = run(capsys, "baseline", ref, cn)
    assert code == 0
    results = run_baselines(load_ply(ref), load_ply(cn))
    expected = dict(command="baseline", **inputs,
                    metrics={m: {"value": r.value, "forward_db": r.forward_db,
                                 "backward_db": r.backward_db} for m, r in results.items()},
                    scores={m: r.value for m, r in results.items()})
    assert out == canonical_dumps(expected) + "\n"


class TestDistort:
    def test_level_zero_round_trips_the_cloud(self, capsys, ply_pair, tmp_path):
        ref, _ = ply_pair
        target = tmp_path / "out.ply"
        code, out, _ = run(capsys, "distort", ref, "--kind", "cn",
                           "--level", "0", "--output", str(target))
        assert code == 0
        manifest = json.loads(out)
        assert manifest["points_in"] == manifest["points_out"] == 400
        assert manifest["spec"] == {"kind": "cn", "level": 0.0, "seed": 0}
        written = load_ply(target)
        original = load_ply(ref)
        assert np.array_equal(written.positions, original.positions)
        assert np.array_equal(written.colors, original.colors)

    def test_downsample_reports_reduced_count(self, capsys, ply_pair, tmp_path):
        ref, _ = ply_pair
        target = tmp_path / "ds.ply"
        code, out, _ = run(capsys, "distort", ref, "--kind", "ds",
                           "--level", "0.5", "--output", str(target))
        assert code == 0
        manifest = json.loads(out)
        assert manifest["points_out"] == 200
        assert load_ply(target).count == 200

    def test_fractional_ot_depth_exits_3(self, capsys, ply_pair, tmp_path):
        ref, _ = ply_pair
        code, _, err = run(capsys, "distort", ref, "--kind", "ot",
                           "--level", "3.5", "--output", str(tmp_path / "x.ply"))
        assert code == 3
        assert "depth" in last_stderr_json(err)["message"]

    @pytest.mark.parametrize("kind", ["cn", "ggn", "ds", "ot"])
    @pytest.mark.parametrize("level", ["nan", "inf", "-inf"])
    def test_non_finite_level_exits_3(self, capsys, ply_pair, tmp_path, kind, level):
        ref, _ = ply_pair
        target = tmp_path / "x.ply"
        code, out, err = run(capsys, "distort", ref, "--kind", kind,
                             f"--level={level}", "--output", str(target))
        assert code == 3
        assert out == ""
        assert not target.exists()
        diag = last_stderr_json(err)
        assert diag["error"] == "DomainError"
        assert "finite" in diag["message"]


class TestResample:
    def test_keypoint_count_follows_the_ratio_floor(self, capsys, tmp_path):
        cloud = random_cloud(3000, seed=4, colored=False)
        path = tmp_path / "big.ply"
        save_ply(cloud, path)
        target = tmp_path / "keys.csv"
        code, out, _ = run(capsys, "resample", str(path),
                           "--beta-ratio", "0.001", "--output", str(target))
        assert code == 0
        manifest = json.loads(out)
        assert manifest["count"] == 3
        rows = target.read_text().strip().splitlines()
        assert len(rows) == 4  # header + 3 keypoints

    def test_degenerate_cloud_warns_on_stderr(self, capsys, tmp_path):
        cloud = PointCloud(positions=np.tile((1.0, 2.0, 3.0), (30, 1)))
        path = tmp_path / "flat.ply"
        save_ply(cloud, path)
        code, _, err = run(capsys, "resample", str(path), "--count", "3",
                           "--output", str(tmp_path / "keys.csv"))
        assert code == 0
        diag = last_stderr_json(err)
        assert diag["warning"] == "DegenerateCloudWarning"


ZERO_SCORES_WARNING = ('{"message": "degenerate geometry: all frequency scores are zero", '
                       '"warning": "DegenerateCloudWarning"}\n')


@pytest.fixture
def coincident_ply(tmp_path):
    path = tmp_path / "c.ply"
    save_ply(PointCloud(positions=np.zeros((50, 3)), colors=np.full((50, 3), 7, np.uint8)), path)
    return str(path)


@pytest.mark.parametrize("distorted, code, error", [
    (None, 3, "DomainError"),  # the pair itself: a zero extent, so a zero cluster radius
    ("missing.ply", 2, "FileNotFoundError"),  # read after the keypoint stage warned
])
def test_failed_command_prints_its_warnings_before_the_error(
        capsys, coincident_ply, tmp_path, distorted, code, error):
    distorted = coincident_ply if distorted is None else str(tmp_path / distorted)
    got, out, err = run(capsys, "score", coincident_ply, distorted, "--beta", "3")
    assert (got, out) == (code, "")
    warning, failure = err.splitlines(keepends=True)
    assert warning == ZERO_SCORES_WARNING
    assert json.loads(failure)["error"] == error


def test_successful_command_prints_its_warnings_after_its_output(capsys, coincident_ply,
                                                                 tmp_path):
    code, out, err = run(capsys, "resample", coincident_ply, "--count", "3",
                         "--output", str(tmp_path / "keys.csv"))
    assert code == 0 and json.loads(out)["count"] == 3
    assert err == ZERO_SCORES_WARNING


class TestEval:
    @staticmethod
    def build_corpus(tmp_path, skip=()):
        rng = np.random.default_rng(5)
        scores_dir = tmp_path / "scores"
        scores_dir.mkdir()
        rows = ["content,distortion,mos"]
        for content in ("cat", "dog"):
            for i, distortion in enumerate(("cn_1", "cn_2", "cn_3", "cn_4")):
                mos = 4.5 - i + float(rng.normal(0, 0.05))
                rows.append(f"{content},{distortion},{mos}")
                if (content, distortion) in skip:
                    continue
                report = {
                    "content": content,
                    "distortion": distortion,
                    "scores": {"graphsim": mos / 5.0 + float(rng.normal(0, 0.01))},
                }
                name = f"{content}_{distortion}.json"
                (scores_dir / name).write_text(json.dumps(report))
        mos_csv = tmp_path / "mos.csv"
        mos_csv.write_text("\n".join(rows) + "\n")
        return str(scores_dir), str(mos_csv)

    def test_end_to_end_table_and_report(self, capsys, tmp_path):
        scores_dir, mos_csv = self.build_corpus(tmp_path)
        target = tmp_path / "eval.json"
        code, out, _ = run(capsys, "eval", scores_dir, mos_csv,
                           "--output", str(target))
        assert code == 0
        assert "graphsim" in out
        report = json.loads(target.read_text())
        overall = report["metrics"]["graphsim"]["overall"]
        assert overall["size"] == 8
        assert overall["plcc"] > 0.95
        assert overall["srocc"] > 0.9
        by_content = report["metrics"]["graphsim"]["by_content"]
        assert {g["name"] for g in by_content} == {"cat", "dog"}

    def test_mos_csv_with_utf8_bom(self, capsys, tmp_path):
        scores_dir, mos_csv = self.build_corpus(tmp_path)
        _, plain, _ = run(capsys, "eval", scores_dir, mos_csv)
        path = Path(mos_csv)
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        code, out, err = run(capsys, "eval", scores_dir, mos_csv)
        assert (code, out, err) == (0, plain, "")

    def test_score_reports_with_utf8_bom(self, capsys, tmp_path):
        scores_dir, mos_csv = self.build_corpus(tmp_path)
        _, plain, _ = run(capsys, "eval", scores_dir, mos_csv)
        for path in Path(scores_dir).glob("*.json"):
            path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())  # as Windows editors save
        code, out, err = run(capsys, "eval", scores_dir, mos_csv)
        assert (code, out, err) == (0, plain, "")

    def test_missing_scores_exit_3(self, capsys, tmp_path):
        scores_dir, mos_csv = self.build_corpus(
            tmp_path, skip={("dog", "cn_3")})
        code, _, err = run(capsys, "eval", scores_dir, mos_csv)
        assert code == 3
        assert "dog/cn_3" in last_stderr_json(err)["message"]

    def test_allow_partial_skips_missing_rows(self, capsys, tmp_path):
        scores_dir, mos_csv = self.build_corpus(
            tmp_path, skip={("dog", "cn_3")})
        target = tmp_path / "eval.json"
        code, _, _ = run(capsys, "eval", scores_dir, mos_csv,
                         "--allow-partial", "--output", str(target))
        assert code == 0
        report = json.loads(target.read_text())
        assert report["missing"] == ["graphsim:dog/cn_3"]
        assert report["metrics"]["graphsim"]["overall"]["size"] == 7

    def test_empty_scores_dir_exits_3(self, capsys, tmp_path):
        empty = tmp_path / "none"
        empty.mkdir()
        _, mos_csv = self.build_corpus(tmp_path)
        code, _, err = run(capsys, "eval", str(empty), mos_csv)
        assert code == 3
        assert "scores" in last_stderr_json(err)["message"]

    @pytest.mark.parametrize("payload", [
        json.dumps({"content": "eel", "distortion": "cn_1",
                    "scores": {"graphsim": "abc"}}).encode(),
        json.dumps([{"scores": {"graphsim": 0.5}}]).encode(),
        b'{"scores": {"graphsim": 0.5}, "content": "\xff"}',
        json.dumps({"content": "eel", "distortion": "cn_1",
                    "scores": {"graphsim": True}}).encode(),
    ], ids=["non-numeric-score", "top-level-list", "not-utf8", "bool-score"])
    def test_malformed_report_exits_2_naming_the_file(self, capsys, tmp_path,
                                                       payload):
        scores_dir, mos_csv = self.build_corpus(tmp_path)
        bad = tmp_path / "scores" / "zz_bad.json"
        bad.write_bytes(payload)
        code, _, err = run(capsys, "eval", scores_dir, mos_csv)
        assert code == 2
        diag = last_stderr_json(err)
        assert diag["error"] == "ParseError"
        assert str(bad) in diag["message"]

    def test_mos_csv_not_utf8_exits_2_naming_the_file(self, capsys, tmp_path):
        scores_dir, mos_csv = self.build_corpus(tmp_path)
        with open(mos_csv, "ab") as handle:
            handle.write("caf\u00e9,cn_1,3.0\n".encode("latin-1"))
        code, out, err = run(capsys, "eval", scores_dir, mos_csv)
        assert code == 2
        assert out == ""
        diag = last_stderr_json(err)
        assert diag["error"] == "ParseError"
        assert mos_csv in diag["message"]


    @pytest.mark.parametrize("text, error, message", [
        ("", "SchemaError", "empty file, expected a header row"),
        ("content,distortion,mos\ncat,cn_1\n", "ParseError", "row 2: expected 3 fields, found 2"),
    ], ids=["empty", "short-row"])
    def test_malformed_mos_csv_exits_2_with_one_diagnostic(self, capsys, tmp_path,
                                                           text, error, message):
        scores_dir, mos_csv = self.build_corpus(tmp_path)
        Path(mos_csv).write_text(text)
        code, out, err = run(capsys, "eval", scores_dir, mos_csv)
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": error, "message": f"{mos_csv}: {message}"}

    @pytest.mark.parametrize("scores", [[0.5], "0.5", None], ids=["list", "string", "null"])
    def test_a_report_without_a_scores_object_is_skipped(self, capsys, tmp_path, scores):
        scores_dir, mos_csv = self.build_corpus(tmp_path)
        _, plain, _ = run(capsys, "eval", scores_dir, mos_csv)
        other = {"content": "cat", "distortion": "cn_1", "scores": scores}
        (Path(scores_dir) / "zz_other.json").write_text(json.dumps(other))
        assert run(capsys, "eval", scores_dir, mos_csv) == (0, plain, "")
        for path in Path(scores_dir).glob("[cd]*.json"):  # now no report has one
            path.write_text(json.dumps(other))
        code, out, err = run(capsys, "eval", scores_dir, mos_csv)
        assert (code, out) == (3, "")
        assert json.loads(err) == {"error": "DomainError", "message":
                                   f"no score reports with a 'scores' object found in {scores_dir}"}

    def test_a_duplicate_metric_for_one_key_exits_3_naming_the_file(self, capsys, tmp_path):
        scores_dir, mos_csv = self.build_corpus(tmp_path)
        twin = Path(scores_dir) / "zz_twin.json"
        twin.write_text(json.dumps({"content": "dog", "distortion": "cn_2",
                                    "scores": {"graphsim": 0.5}}))
        code, out, err = run(capsys, "eval", scores_dir, mos_csv)
        assert (code, out) == (3, "")
        assert json.loads(err) == {"error": "DomainError", "message":
                                   f"{twin}: duplicate score for metric 'graphsim' "
                                   "at key ('dog', 'cn_2')"}

    def test_near_constant_mos_warns_on_stderr(self, capsys, tmp_path):
        # MOS values that differ only at roundoff scale: the correlation is
        # flagged on stderr, as scipy.stats.pearsonr flagged it.
        scores_dir = tmp_path / "scores"
        scores_dir.mkdir()
        rows = ["content,distortion,mos"]
        for i in range(6):
            rows.append(f"cat,d{i},{3.0 + i * 1e-13!r}")
            (scores_dir / f"{i}.json").write_text(json.dumps(
                {"content": "cat", "distortion": f"d{i}", "scores": {"graphsim": 0.1 * i}}))
        mos_csv = tmp_path / "mos.csv"
        mos_csv.write_text("\n".join(rows) + "\n")
        code, _, err = run(capsys, "eval", str(scores_dir), str(mos_csv))
        assert code == 0
        diag = last_stderr_json(err)
        assert diag["warning"] == "NearConstantInputWarning"
        assert "nearly constant" in diag["message"]

    def test_constant_mos_fits_without_runtime_warnings(self, capsys, tmp_path):
        # Every MOS equal: the constant map fits them exactly, and no step of the
        # fit divides by their zero spread.
        scores_dir = tmp_path / "scores"
        scores_dir.mkdir()
        rows = ["content,distortion,mos"]
        for i in range(6):
            rows.append(f"cat,d{i},3.0")
            (scores_dir / f"{i}.json").write_text(json.dumps(
                {"content": "cat", "distortion": f"d{i}", "scores": {"graphsim": 0.1 * i}}))
        mos_csv = tmp_path / "mos.csv"
        mos_csv.write_text("\n".join(rows) + "\n")
        target = tmp_path / "eval.json"
        code, _, err = run(capsys, "eval", str(scores_dir), str(mos_csv), "--output", str(target))
        assert code == 0
        assert "RuntimeWarning" not in err
        overall = json.loads(target.read_text())["metrics"]["graphsim"]["overall"]
        assert (overall["plcc"], overall["srocc"], overall["rmse"]) == (0.0, 0.0, 0.0)


    def test_unfittable_metric_is_named(self, capsys, tmp_path):
        # m-p2po is infinite on identical pairs: two finite scores are left to fit.
        scores_dir = tmp_path / "scores"
        scores_dir.mkdir()
        rows = ["content,distortion,mos"]
        for i in range(6):
            rows.append(f"cat,d{i},{1.0 + 0.5 * i}")
            p2po = 20.0 + i if i < 2 else "inf"
            (scores_dir / f"{i}.json").write_text(json.dumps({
                "content": "cat", "distortion": f"d{i}",
                "scores": {"graphsim": 0.1 * i, "m-p2po": p2po}}))
        mos_csv = tmp_path / "mos.csv"
        mos_csv.write_text("\n".join(rows) + "\n")
        code, out, err = run(capsys, "eval", str(scores_dir), str(mos_csv))
        assert code == 3
        diag = last_stderr_json(err)
        assert diag["error"] == "DomainError"
        assert diag["message"] == "m-p2po: need at least 3 pairs to fit, got 2"


class TestEvalBlock:
    """The per-metric block of `pcqa eval --output`, rebuilt from the statistics."""

    # Content "c" and distortions d3-d7 fall below MIN_GROUP_SIZE; "b", d1 and d2 are low-sample.
    LAYOUT = {"a": 7, "b": 4, "c": 2}

    def build(self, tmp_path, metrics=("graphsim",)):
        rng = np.random.default_rng(21)
        scores_dir = tmp_path / "scores"
        scores_dir.mkdir()
        rows, records = ["content,distortion,mos"], []
        for content, count in self.LAYOUT.items():
            for d in range(1, count + 1):
                mos = float(rng.uniform(1.0, 5.0))
                score = mos / 5.0 + float(rng.normal(0.0, 0.05))
                rows.append(f"{content},d{d},{mos!r}")
                records.append((content, f"d{d}", score, mos))
                (scores_dir / f"{content}_d{d}.json").write_text(json.dumps({
                    "content": content, "distortion": f"d{d}",
                    "scores": {m: score for m in metrics}}))
        mos_csv = tmp_path / "mos.csv"
        mos_csv.write_text("\n".join(rows) + "\n")
        return str(scores_dir), str(mos_csv), records

    @staticmethod
    def expected_block(records, fit_scope):
        x = np.array([r[2] for r in records])
        y = np.array([r[3] for r in records])
        fit = logistic_fit(x, y)
        block = {"overall": {
            "size": len(x), "plcc": plcc(fit(x), y), "srocc": srocc(x, y),
            "rmse": rmse(fit(x), y), "degenerate": fit.degenerate,
            "fit": {"params": list(fit.params), "fallback": fit.fallback, "scope": fit_scope},
        }}
        excluded = set()
        for axis, key in (("by_content", 0), ("by_distortion", 1)):
            block[axis] = []
            for name in dict.fromkeys(r[key] for r in records):
                mask = np.array([r[key] == name for r in records])
                gx, gy = x[mask], y[mask]
                if gx.size < MIN_GROUP_SIZE:
                    excluded.add(name)
                    continue
                gfit = logistic_fit(gx, gy) if fit_scope == "per-group" else fit
                block[axis].append({
                    "name": name, "size": int(gx.size), "plcc": plcc(gfit(gx), gy),
                    "srocc": srocc(gx, gy), "rmse": rmse(gfit(gx), gy),
                    "low_sample": gx.size < 5, "degenerate": bool(np.ptp(gx) == 0.0)})
        block["excluded_groups"] = sorted(excluded)
        return json.loads(canonical_dumps(block))

    @pytest.mark.parametrize("fit_scope", ["global", "per-group"])
    def test_block_equals_the_statistics(self, capsys, tmp_path, fit_scope):
        scores_dir, mos_csv, records = self.build(tmp_path)
        target = tmp_path / "eval.json"
        code, _, err = run(capsys, "eval", scores_dir, mos_csv, "--fit-scope", fit_scope,
                           "--output", str(target))
        assert (code, err) == (0, "")
        block = json.loads(target.read_text())["metrics"]["graphsim"]
        assert [g["name"] for g in block["by_distortion"]] == ["d1", "d2"]
        assert block == self.expected_block(records, fit_scope)

    def test_one_fit_per_metric_under_global_scope(self, capsys, tmp_path, monkeypatch):
        scores_dir, mos_csv, _ = self.build(tmp_path, metrics=("graphsim", "m-p2po"))
        calls = []

        def counting_fit(*args, **kwargs):
            calls.append(1)
            return logistic_fit(*args, **kwargs)

        monkeypatch.setattr(evaluate_module, "logistic_fit", counting_fit)
        assert run(capsys, "eval", scores_dir, mos_csv)[0] == 0
        assert len(calls) == 2
        calls.clear()
        # Per group, each kept group (a, b, d1, d2) is refit too.
        assert run(capsys, "eval", scores_dir, mos_csv, "--fit-scope", "per-group")[0] == 0
        assert len(calls) == 2 * (1 + 4)


class TestScoreColorSpaces:
    def test_gcm_and_rgb_both_produce_valid_reports(self, capsys, ply_pair):
        ref, dist = ply_pair
        reports = {}
        for space in ("gcm", "rgb"):
            code, out, _ = run(capsys, "score", ref, dist,
                               "--color-space", space, "--seed", "11")
            assert code == 0
            reports[space] = json.loads(out)
        for space, report in reports.items():
            assert report["config"]["color_space"]["space"] == space
            q = report["scores"]["graphsim"]
            assert 0.0 <= q <= 1.0


class TestEvalMultiMetric:
    def test_three_metrics_yield_three_rows(self, capsys, tmp_path):
        rng = np.random.default_rng(13)
        scores_dir = tmp_path / "scores"
        scores_dir.mkdir()
        metrics = ("graphsim", "m-p2po", "psnr-yuv")
        rows = ["content,distortion,mos"]
        for content in ("a", "b", "c", "d"):
            for i, distortion in enumerate(
                    ("cn_1", "cn_2", "cn_3", "ds_1", "ds_2", "ds_3")):
                mos = 4.8 - 0.6 * i + float(rng.normal(0, 0.05))
                rows.append(f"{content},{distortion},{mos}")
                report = {
                    "content": content,
                    "distortion": distortion,
                    "scores": {m: mos * (k + 1) + float(rng.normal(0, 0.02))
                               for k, m in enumerate(metrics)},
                }
                (scores_dir / f"{content}_{distortion}.json").write_text(
                    json.dumps(report))
        mos_csv = tmp_path / "mos.csv"
        mos_csv.write_text("\n".join(rows) + "\n")
        target = tmp_path / "eval.json"
        code, out, _ = run(capsys, "eval", str(scores_dir), str(mos_csv),
                           "--output", str(target))
        assert code == 0
        report = json.loads(target.read_text())
        assert set(report["metrics"]) == set(metrics)
        for metric in metrics:
            overall = report["metrics"][metric]["overall"]
            assert overall["size"] == 24
            assert overall["plcc"] > 0.95
        for metric in metrics:
            assert metric in out


_PAIR = {"reference": "r.ply", "distorted": "d.ply"}
_SCORE_DEFAULTS = dict(
    _PAIR, command="score", color_space="gcm", signal="color", theta_fraction=0.1,
    matching_k=50, filter_length=4, graph_k=10, beta_ratio=0.001, beta=None,
    resample_method="high-pass", pooling="c2", tau_scope="union", normals_k=12, seed=0,
    content="", distortion="", output=None)
_BASELINE_DEFAULTS = dict(
    _PAIR, command="baseline", metrics="m-p2po,m-p2pl,h-p2po,h-p2pl,psnr-yuv", normals_k=12,
    content="", distortion="", output=None)
_RESAMPLE_DEFAULTS = dict(
    command="resample", input="r.ply", beta_ratio=0.001, count=None, method="high-pass",
    filter_length=4, graph_k=10, seed=0, output="k.csv")
_DISTORT_DEFAULTS = dict(
    command="distort", input="r.ply", kind="cn", level=0.1, seed=0, output="o.ply",
    ply_format="binary")
_EVAL_DEFAULTS = dict(
    command="eval", scores_dir="scores", mos_csv="mos.csv", fit_scope="global",
    allow_partial=False, output=None)

PARSED = {
    "score-defaults": ("score r.ply d.ply", _SCORE_DEFAULTS),
    "score-every-flag": (
        "score r.ply d.ply --color-space yuv --signal color,normal --theta-fraction 0.2 "
        "--matching-k 30 --filter-length 3 --graph-k 8 --beta-ratio 0.002 --beta 7 "
        "--resample random --pooling c4 --tau-scope per-side --normals-k 9 --seed 5 "
        "--content cat --distortion cn_1 --output s.json",
        dict(_SCORE_DEFAULTS, color_space="yuv", signal="color,normal", theta_fraction=0.2,
             matching_k=30, filter_length=3, graph_k=8, beta_ratio=0.002, beta=7,
             resample_method="random", pooling="c4", tau_scope="per-side", normals_k=9,
             seed=5, content="cat", distortion="cn_1", output="s.json")),
    "baseline-defaults": ("baseline r.ply d.ply", _BASELINE_DEFAULTS),
    "baseline-every-flag": (
        "baseline r.ply d.ply --metrics m-p2po,h-p2pl --normals-k 9 --content cat "
        "--distortion cn_1 --output b.json",
        dict(_BASELINE_DEFAULTS, metrics="m-p2po,h-p2pl", normals_k=9, content="cat",
             distortion="cn_1", output="b.json")),
    "resample-defaults": ("resample r.ply --output k.csv", _RESAMPLE_DEFAULTS),
    "resample-every-flag": (
        "resample r.ply --beta-ratio 0.002 --count 7 --method random --filter-length 3 "
        "--graph-k 8 --seed 5 --output k.csv",
        dict(_RESAMPLE_DEFAULTS, beta_ratio=0.002, count=7, method="random",
             filter_length=3, graph_k=8, seed=5)),
    "distort-defaults": ("distort r.ply --kind cn --level 0.1 --output o.ply",
                         _DISTORT_DEFAULTS),
    "distort-every-flag": (
        "distort r.ply --kind ot --level 6 --seed 5 --output o.ply --ply-format ascii",
        dict(_DISTORT_DEFAULTS, kind="ot", level=6.0, seed=5, ply_format="ascii")),
    "eval-defaults": ("eval scores mos.csv", _EVAL_DEFAULTS),
    "eval-every-flag": (
        "eval scores mos.csv --fit-scope per-group --allow-partial --output e.json",
        dict(_EVAL_DEFAULTS, fit_scope="per-group", allow_partial=True, output="e.json")),
}


class TestParser:
    @pytest.mark.parametrize("name", sorted(PARSED))
    def test_every_flag_keeps_its_name_default_and_destination(self, name):
        argv, expected = PARSED[name]
        parsed = vars(build_parser().parse_args(argv.split()))
        parsed.pop("func")
        assert parsed == expected

    @pytest.mark.parametrize("argv, code, flag", [
        ("score missing.ply missing.ply --beta 0", 3, "keypoint count"),
        ("resample missing.ply --count 0 --output k.csv", 3, "keypoint count"),
        ("baseline missing.ply missing.ply --metrics ,", 2, "--metrics"),
        ("score missing.ply missing.ply --signal color,color", 3, "'color' is listed twice"),
    ])
    def test_flags_are_checked_before_any_file_is_read(self, capsys, argv, code, flag):
        status, out, err = run(capsys, *argv.split())
        assert (status, out) == (code, "")
        assert flag in last_stderr_json(err)["message"]

    def test_every_option_has_one_spelling(self, capsys):
        commands = build_parser()._subparsers._group_actions[0].choices
        for name, command in commands.items():
            for action in command._actions:
                if action.dest != "help":
                    assert len(action.option_strings) <= 1, (name, action.option_strings)
        # No prefix stands in for a flag, however unambiguous.
        for argv in ("baseline r.ply d.ply --metric psnr-yuv",
                     "score r.ply d.ply --theta 0.2"):
            with pytest.raises(SystemExit) as exit_:
                main(argv.split())
            assert exit_.value.code == 2
            assert "unrecognized arguments" in capsys.readouterr().err


def test_canonical_json_writes_sentinels_for_numpy_and_non_finite_values():
    # numpy arrays, scalars and bools unwrap to plain JSON; non-finite floats,
    # numpy or not, become the "nan", "inf" and "-inf" sentinels.
    value = {"a": np.float64("nan"), "b": np.int64(3), "c": np.array([1.5, -np.inf]),
             "d": np.bool_(True), "e": float("inf")}
    assert canonical_dumps(value) == '{"a":"nan","b":3,"c":[1.5,"-inf"],"d":true,"e":"inf"}'


@pytest.mark.parametrize("value, name", [(object(), "object"), ({"a": [b"x"]}, "bytes"),
                                         ({1, 2}, "set")])
def test_canonical_json_refuses_a_type_it_does_not_know(value, name):
    # str() of such a value could carry a memory address, so report bytes would vary.
    with pytest.raises(TypeError, match=f"^cannot write a {name} into a report$"):
        canonical_dumps(value)


@pytest.mark.parametrize("key, name", [(None, "NoneType"), (True, "bool"), (1.5, "float"),
                                       (object(), "object"), ((1, 2), "tuple")])
def test_canonical_json_keys_take_the_value_rule(key, name):
    # A str key stays as it is and an integer key, numpy or not, is written as its
    # decimal, as json.dumps writes it; any other key is refused, so no report holds
    # "None" where json.dumps writes "null", or a memory address.
    assert canonical_dumps({"a": 1, 2: 2, np.int64(3): {4: 4}}) == '{"2":2,"3":{"4":4},"a":1}'
    with pytest.raises(TypeError, match=f"^cannot write a {name} key into a report$"):
        canonical_dumps({"a": {key: 1}})
