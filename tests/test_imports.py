"""What each entry point loads: the package imports numpy only, and scipy
modules load inside the functions that use them.

Each check runs in a fresh interpreter, because the test process itself
has long since loaded scipy.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from pcqa import save_ply

from helpers import random_cloud

SRC = str(Path(__file__).resolve().parent.parent / "src")


def loaded_after(code):
    """Module names present in sys.modules after running `code` in a fresh
    interpreter with the package source on its path."""
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    probe = code + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    result = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                            capture_output=True, text=True)
    return json.loads(result.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("module", ["pcqa", "pcqa.cli"])
def test_import_loads_no_scipy(module):
    loaded = loaded_after(f"import {module}")
    assert module in loaded
    assert [m for m in loaded if m == "scipy" or m.startswith("scipy.")] == []


def test_distort_runs_without_scipy_spatial(tmp_path):
    source = tmp_path / "in.ply"
    save_ply(random_cloud(200, seed=3), source)
    target = tmp_path / "out.ply"
    loaded = loaded_after(
        "from pcqa.cli import main\n"
        f"assert main(['distort', {str(source)!r}, '--kind', 'ggn', '--level', '0.01',"
        f" '--output', {str(target)!r}]) == 0"
    )
    assert target.exists()
    assert "pcqa.distort" in loaded
    assert not [m for m in loaded if m == "scipy.spatial" or m.startswith("scipy.spatial.")]


def test_eval_runs_without_scipy(tmp_path):
    # The logistic fit is numpy only: `pcqa eval` on five reports loads no scipy module.
    reports = tmp_path / "reports"
    reports.mkdir()
    rows = ["content,distortion,mos"]
    for i in range(5):
        rows.append(f"c,d{i},{1.0 + i + 0.1 * (i % 2)}")
        (reports / f"{i}.json").write_text(json.dumps(
            {"content": "c", "distortion": f"d{i}", "scores": {"graphsim": 0.2 * i + 0.01}}))
    (tmp_path / "mos.csv").write_text("\n".join(rows) + "\n")
    target = tmp_path / "eval.json"
    loaded = loaded_after(
        "from pcqa.cli import main\n"
        f"assert main(['eval', {str(reports)!r}, {str(tmp_path / 'mos.csv')!r},"
        f" '--output', {str(target)!r}]) == 0"
    )
    report = json.loads(target.read_text())
    assert report["metrics"]["graphsim"]["overall"]["fit"]["fallback"] is False
    assert "pcqa.evaluate" in loaded
    assert [m for m in loaded if m == "scipy" or m.startswith("scipy.")] == []
