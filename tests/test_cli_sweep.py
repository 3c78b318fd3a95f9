"""A bounded sweep of the command line over tiny, degenerate PLYs: whatever the
argv, `main` exits 0, 2 or 3, and no exception escapes it to print a traceback.

The clouds are a small random cube, a lattice, repeated points, a plane, a line
and a single point, with and without colours or normals, plus a missing and a
malformed file. Flag
values mix valid settings with zeros, negatives and non-finite numbers. The
hypothesis profile loaded in conftest.py derandomizes the examples."""

import contextlib
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcqa import PointCloud, save_ply
from pcqa.cli import main


def _tiny_clouds():
    rng = np.random.default_rng(5)
    sites = np.stack(np.meshgrid(*[np.arange(3.0)] * 3), axis=-1).reshape(-1, 3)
    grid = np.stack(np.meshgrid(np.arange(4.0), np.arange(4.0)), axis=-1).reshape(-1, 2)
    shapes = {
        "cube": rng.uniform(0.0, 1.0, (60, 3)),
        "lattice": sites,
        "duplicates": np.repeat(sites[::7], 4, axis=0),
        "plane": np.column_stack([grid, np.zeros(len(grid))]),
        "line": np.column_stack([np.arange(8.0), np.zeros(8), np.zeros(8)]),
        "point": np.array([[1.0, 2.0, 3.0]]),
    }
    clouds = {}
    for name, positions in shapes.items():
        colors = rng.integers(0, 256, positions.shape).astype(np.float64)
        clouds[name] = PointCloud(positions=positions, colors=colors)
    clouds["lattice-normals"] = PointCloud(positions=sites, colors=clouds["lattice"].colors,
                                           normals=np.tile([0.0, 0.0, 1.0], (len(sites), 1)))
    clouds["plane-bare"] = PointCloud(positions=shapes["plane"])
    return clouds


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("sweep")
    plys = []
    for name, cloud in _tiny_clouds().items():
        save_ply(cloud, root / f"{name}.ply", format="ascii" if "plane" in name else "binary")
        plys.append(str(root / f"{name}.ply"))
    (root / "broken.ply").write_bytes(b"ply\nformat ascii 1.0\nelement vertex 3\nend_header\n1 2\n")
    plys += [str(root / "broken.ply"), str(root / "missing.ply")]
    reports = root / "reports"
    reports.mkdir()
    for i, distortion in enumerate(("cn_1", "cn_2", "ggn_1", "ggn_2")):
        body = {"content": "c", "distortion": distortion, "scores": {"graphsim": 0.2 * i}}
        (reports / f"{distortion}.json").write_text(json.dumps(body))
    (root / "mos.csv").write_text("content,distortion,mos\n"
                                  + "".join(f"c,{d},{m}\n" for d, m in
                                            (("cn_1", 4), ("cn_2", 3), ("ggn_1", 2.5))))
    return {"plys": plys, "dirs": [str(reports), str(root), str(root / "none")],
            "csvs": [str(root / "mos.csv"), plys[0], str(root / "none.csv")],
            "outputs": {suffix: [str(root / f"out{suffix}"), str(root / "none" / f"x{suffix}")]
                        for suffix in (".ply", ".csv", ".json")}}


def _values(*items):
    return st.sampled_from([str(item) for item in items])


COUNTS = _values(-1, 0, 1, 3, 40)
RATIOS = _values(0, 1e-3, 0.5, 1, 2, -1, "nan", "inf")
KEYPOINT_FLAGS = {"--beta-ratio": RATIOS, "--filter-length": COUNTS, "--graph-k": COUNTS,
                  "--seed": _values(-1, 0, 7)}
PAIR_FLAGS = {"--normals-k": COUNTS, "--content": _values("", "c"),
              "--distortion": _values("", "cn_1")}
FLAGS = {
    "score": dict(PAIR_FLAGS, **KEYPOINT_FLAGS, **{
        "--signal": _values("color", "coordinate", "normal", "mixed", "color,normal", ",",
                            "color,color", "bogus"),
        "--theta-fraction": _values(1e-9, 0.05, 0.3, 0.6, 1, 10, 0, -1, "nan", "inf"),
        "--matching-k": COUNTS, "--beta": COUNTS,
        "--resample": _values("high-pass", "random", "other"),
        "--pooling": _values("c1", "c2", "c3", "c4"),
        "--tau-scope": _values("union", "per-side"),
        "--color-space": _values("gcm", "yuv", "rgb")}),
    "baseline": dict(PAIR_FLAGS, **{
        "--metrics": _values("m-p2po,h-p2pl", "psnr-yuv", "m-p2pl,m-p2pl", ",", "vmaf")}),
    "distort": {"--kind": _values("cn", "ggn", "ds", "ot", "blur"),
                "--level": _values(0, 0.01, 0.5, 1, 4, 16, 17, -1, "nan", "inf", 1e300),
                "--seed": _values(-1, 0, 7), "--ply-format": _values("binary", "ascii")},
    "resample": dict(KEYPOINT_FLAGS, **{"--count": COUNTS,
                                        "--method": _values("high-pass", "random")}),
    "eval": {"--fit-scope": _values("global", "per-group"), "--allow-partial": st.just(None)},
}
OUTPUT = {"score": ".json", "baseline": ".json", "distort": ".ply", "resample": ".csv",
          "eval": ".json"}
UNKNOWN = ["--metric", "--theta", "--jobs"]


def _argv(data, files):
    command = data.draw(st.sampled_from(sorted(FLAGS)))
    if command == "eval":
        argv = [command, data.draw(st.sampled_from(files["dirs"])),
                data.draw(st.sampled_from(files["csvs"]))]
    else:
        pair = 2 if command in ("score", "baseline") else 1
        argv = [command] + data.draw(st.lists(st.sampled_from(files["plys"]),
                                              min_size=pair, max_size=pair))
    flags = data.draw(st.lists(st.sampled_from(sorted(FLAGS[command])), unique=True,
                               max_size=8))
    flags += [flag for flag in [data.draw(st.sampled_from([None] * 9 + UNKNOWN))] if flag]
    for flag in flags:
        argv.append(flag)
        value = data.draw(FLAGS[command].get(flag, _values(1)))
        if value is not None:
            argv.append(value)
    required = command in ("distort", "resample")
    if required or data.draw(st.booleans()):
        good, bad = files["outputs"][OUTPUT[command]]
        argv += ["--output", data.draw(st.sampled_from([good, good, good, bad]))]
    if command == "distort" and "--kind" not in flags:
        argv += ["--kind", "cn", "--level", "0.1"] if data.draw(st.booleans()) else []
    return argv


@settings(max_examples=400)
@given(data=st.data())
def test_every_argv_exits_0_2_or_3_without_a_traceback(files, data):
    argv = _argv(data, files)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the flags
            code = exc.code
    assert code in (0, 2, 3), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue(), argv
