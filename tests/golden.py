"""Golden `graphsim`, `run_baselines`, keypoint, distortion and evaluation
reports: every report of five fixed sweeps, committed.

The inputs are made here from fixed seeds at 2-5k points (no PLY is
committed): a continuous volume, a bumpy surface, an integer lattice with
duplicated sites and a thin slab, each scored against its cn, ggn, ds and
ot stimuli under the signals color, coordinate, normal and color+normal,
both `tau_scope` rules and two resample seeds. The volume and the lattice
also get explicit unsorted keypoints, and, against cn and ggn, every
pooling preset in every colour space under color and color+normal (where
channel pooling is forced to the weighted average); those reports carry the
config echo, so stabilizers, weights and both pooling names are pinned too.
The volume gets two more `neighborhood_fraction` values. Every case of one
reference scores the same
reference object, as a study does, so per-cloud caches are exercised too.

The baselines sweep scores all five metrics of each reference against its
cn, ggn, ds and ot stimuli, against itself, and against a cn stimulus built
on a copy of its positions, as a PLY load gives one.

The resample sweep keeps each reference's keypoints (indices and scores)
under both methods and two seeds. The distortions sweep keeps the positions
and colours that every distortion kind gives at two levels, on the first
DISTORTED points of the volume and the lattice. The evaluate sweep keeps the
`evaluate_records` blocks of a four-record table, where every fit is the
straight line, and of a 64-record table on the logistic path, each under
both fit scopes.

Indices and counts must match exactly; floats within RTOL relative, since
SIMD `exp`/`log` may differ by an ulp between CPUs, and the logistic blocks
within LOGISTIC_RTOL: nudging every score or rating of that table by one ulp
moves none of its floats by more than 4.1e-13 relative.

    python tests/golden.py            # compare with the committed file
    python tests/golden.py --update   # rewrite tests/golden/*.json

A change to any value must be explained; the compare run prints each
field's largest relative difference.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from pcqa import (  # noqa: E402
    POOLING_PRESETS,
    DistortionSpec,
    GraphSimConfig,
    PointCloud,
    ResampleConfig,
    apply_distortion,
    evaluate_records,
    graphsim,
    resample,
    run_baselines,
)
from pcqa.colorspace import SPACES  # noqa: E402
from pcqa.distort import KINDS, LEVEL_PRESETS  # noqa: E402

GOLDEN = Path(__file__).parent / "golden"
RTOL = 1e-12
LOGISTIC_RTOL = 1e-9
KEYPOINTS = 12
STIMULI = {"cn": 0.08, "ggn": 0.008, "ds": 0.55, "ot": 7}
DISTORTED = 150
SIGNALS = {"color": "color", "coordinate": "coordinate", "normal": "normal",
           "color+normal": ("color", "normal")}


def _colored(positions, rng):
    """A smooth colour field over the positions, plus a little integer noise
    so that coincident points differ in colour."""
    phase = rng.uniform(0, 2 * np.pi, 3)
    freq = rng.uniform(0.3, 0.9, (3, 3))
    field = np.sin(positions @ freq.T + phase) * 0.5 + 0.5
    noise = rng.integers(-6, 7, positions.shape)
    colors = np.clip(np.rint(field * 255.0) + noise, 0, 255).astype(np.float64)
    return PointCloud(positions=positions, colors=colors)


def references() -> dict[str, PointCloud]:
    rng = np.random.default_rng(2024)
    volume = rng.uniform(0.0, 10.0, (4000, 3))
    xy = rng.uniform(0.0, 6.0, (3000, 2))
    z = 0.8 * np.sin(1.3 * xy[:, 0]) * np.cos(0.9 * xy[:, 1]) \
        + 0.3 * np.sin(3.1 * xy[:, 0] + 2.3 * xy[:, 1])
    surface = np.column_stack([xy, z])
    lattice = rng.integers(0, 12, (3000, 3)).astype(np.float64)  # 1728 sites: duplicates
    slab = rng.uniform(0.0, 1.0, (5000, 3)) * [5.0, 5.0, 1.0]
    return {name: _colored(positions, rng) for name, positions in
            (("volume", volume), ("surface", surface), ("lattice", lattice), ("slab", slab))}


def explicit_keypoints(ref: PointCloud) -> np.ndarray:
    """KEYPOINTS unsorted indices, on duplicated sites first where there are any."""
    _, inverse, counts = np.unique(ref.positions, axis=0, return_inverse=True,
                                   return_counts=True)
    duplicated = np.flatnonzero(counts[inverse.ravel()] > 1)
    pool = duplicated if duplicated.size >= KEYPOINTS else np.arange(ref.count)
    return np.random.default_rng(7).choice(pool, KEYPOINTS, replace=False)


def cases():
    """(name, reference, stimulus, config, keypoints or None, echo), reference by
    reference; echo: the report carries its config."""
    for ref_name, ref in references().items():
        for stim_name, level in STIMULI.items():
            stim = apply_distortion(ref, DistortionSpec(stim_name, level, seed=11))
            for signal, kind in SIGNALS.items():
                for scope in ("union", "per-side"):
                    for seed in (0, 1):
                        config = GraphSimConfig(
                            signal_kind=kind, tau_scope=scope,
                            resample=ResampleConfig(count=KEYPOINTS, seed=seed))
                        yield (f"{ref_name}/{stim_name}/{signal}/{scope}/seed{seed}",
                               ref, stim, config, None, False)
            if ref_name in ("volume", "lattice"):
                keypoints = explicit_keypoints(ref)
                for signal in ("color", "color+normal"):
                    yield (f"{ref_name}/{stim_name}/{signal}/explicit", ref, stim,
                           GraphSimConfig(signal_kind=SIGNALS[signal]), keypoints, False)
            if ref_name in ("volume", "lattice") and stim_name in ("cn", "ggn"):
                for signal in ("color", "color+normal"):
                    for preset in POOLING_PRESETS:
                        for space in SPACES:
                            config = GraphSimConfig(
                                color_space=space, pooling=preset,
                                signal_kind=SIGNALS[signal],
                                resample=ResampleConfig(count=KEYPOINTS))
                            yield (f"{ref_name}/{stim_name}/{signal}/{preset}/{space}",
                                   ref, stim, config, None, True)
            if ref_name == "volume":
                for fraction in (0.05, 0.2):
                    for scope in ("union", "per-side"):
                        config = GraphSimConfig(
                            neighborhood_fraction=fraction, tau_scope=scope,
                            resample=ResampleConfig(count=KEYPOINTS))
                        yield (f"{ref_name}/{stim_name}/color/{scope}/fraction{fraction}",
                               ref, stim, config, None, False)


def reports() -> dict[str, dict]:
    return {name: graphsim(ref, stim, config, keypoints=keypoints)
                  .to_report(config if echo else None)
            for name, ref, stim, config, keypoints, echo in cases()}


def baseline_cases():
    """(name, reference, stimulus), reference by reference."""
    for ref_name, ref in references().items():
        stimuli = {name: apply_distortion(ref, DistortionSpec(name, level, seed=11))
                   for name, level in STIMULI.items()}
        stimuli["self"] = ref
        stimuli["cn-copy"] = PointCloud(positions=np.array(ref.positions),
                                        colors=stimuli["cn"].colors)
        for stim_name, stim in stimuli.items():
            yield f"{ref_name}/{stim_name}", ref, stim


def baseline_reports() -> dict[str, dict]:
    return {name: {metric: {"value": r.value, "forward_db": r.forward_db,
                            "backward_db": r.backward_db}
                   for metric, r in run_baselines(ref, stim).items()}
            for name, ref, stim in baseline_cases()}


def resample_reports() -> dict[str, dict]:
    out = {}
    for ref_name, ref in references().items():
        for method in ("high-pass", "random"):
            for seed in (0, 1):
                keypoints = resample(ref, ResampleConfig(count=KEYPOINTS, method=method,
                                                         seed=seed))
                out[f"{ref_name}/{method}/seed{seed}"] = {
                    "indices": keypoints.indices.tolist(), "scores": keypoints.scores.tolist()}
    return out


def distortion_reports() -> dict[str, dict]:
    """Every kind at its second and fifth preset level; ot's merges average colours."""
    out, refs = {}, references()
    for ref_name in ("volume", "lattice"):
        ref = refs[ref_name]
        cloud = PointCloud(positions=ref.positions[:DISTORTED], colors=ref.colors[:DISTORTED])
        for kind in KINDS:
            for level in LEVEL_PRESETS[kind][1::3]:
                got = apply_distortion(cloud, DistortionSpec(kind, level, seed=11))
                out[f"{ref_name}/{kind}/{level}"] = {
                    "positions": got.positions.tolist(),
                    # uint8 colours as the float values they are, so the file keeps its bytes
                    "colors": got.colors.astype(np.float64).tolist()}
    return out


def logistic_records() -> list[dict]:
    """64 records of 4 contents x 4 distortions, 4 each, whose ratings follow a
    logistic of the score (knee shifted per content) plus rating noise, so
    every fit, overall and per group, takes the logistic path."""
    rng = np.random.default_rng(27)
    records = []
    for c in range(4):
        for d in range(4):
            for _ in range(4):
                score = float(rng.uniform(0.2, 1.0))
                mos = 1.0 + 4.0 / (1.0 + np.exp(-9.0 * (score - 0.55 - 0.03 * c)))
                records.append({"content": f"c{c}", "distortion": f"d{d}", "score": score,
                                "mos": float(mos + rng.normal(0.0, 0.25))})
    return records


def evaluate_reports() -> dict[str, dict]:
    """The four-record table's blocks, named by fit scope, and the logistic ones.
    With four records every fit is the straight line. The fourth record's
    content and the second's distortion fall below the smallest group; the
    others form one group on each axis, with a tied score."""
    rows = (("slab", "ot", 0.62, 3.9), ("slab", "ds", 0.35, 2.2),
            ("slab", "ot", 0.62, 3.4), ("lattice", "ot", 0.80, 4.5))
    records = [dict(zip(("content", "distortion", "score", "mos"), row)) for row in rows]
    out = {}
    for scope in ("global", "per-group"):
        out[scope] = evaluate_records(records, fit_scope=scope).to_dict()
        out[f"logistic {scope}"] = evaluate_records(logistic_records(), fit_scope=scope).to_dict()
    return out


def tolerance(name: str) -> float:
    """The relative tolerance that the report `name` is compared at."""
    return LOGISTIC_RTOL if name.startswith("logistic") else RTOL


SWEEPS = {"graphsim": reports, "baselines": baseline_reports, "resample": resample_reports,
          "distortions": distortion_reports, "evaluate": evaluate_reports}


def differences(want, got, path="", rtol=RTOL):
    """(path, relative difference) for every leaf where got differs from want:
    floats beyond rtol relative, anything else at all (inf when not comparable)."""
    if isinstance(want, dict) and isinstance(got, dict):
        if want.keys() != got.keys():
            return [(path, float("inf"))]
        return [d for key in want for d in differences(want[key], got[key], f"{path}/{key}", rtol)]
    if isinstance(want, list) and isinstance(got, list):
        if len(want) != len(got):
            return [(path, float("inf"))]
        return [d for i, (w, g) in enumerate(zip(want, got))
                for d in differences(w, g, f"{path}[{i}]", rtol)]
    if type(want) is float and type(got) is float:
        scale = max(abs(want), abs(got))
        rel = 0.0 if want == got else abs(want - got) / scale
        return [(path, rel)] if rel > rtol else []
    return [] if type(want) is type(got) and want == got else [(path, float("inf"))]


def path(sweep: str) -> Path:
    return GOLDEN / f"{sweep}.json"


def load(sweep: str = "graphsim") -> dict[str, dict]:
    return json.loads(path(sweep).read_text(encoding="utf-8"))


def write(sweep: str, values: dict[str, dict]) -> None:
    GOLDEN.mkdir(exist_ok=True)
    lines = [f"{json.dumps(name)}: {json.dumps(values[name], sort_keys=True)}"
             for name in sorted(values)]
    path(sweep).write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")


def main(argv) -> int:
    failed = False
    for sweep, make in SWEEPS.items():
        got = make()
        if "--update" in argv:
            write(sweep, got)
            print(f"wrote {len(got)} reports to {path(sweep)}")
            continue
        want = load(sweep)
        worst: dict[str, float] = {}
        changed = 0
        for name in sorted(want.keys() | got.keys()):
            found = differences(want.get(name), got.get(name), rtol=tolerance(name))
            changed += bool(found)
            for at, rel in found:
                field = at.split("[")[0] or "(whole report)"
                worst[field] = max(worst.get(field, 0.0), rel)
        for field, rel in sorted(worst.items()):
            print(f"{sweep}{field}: largest relative difference {rel:.3g}")
        print(f"{sweep}: {changed} of {len(want.keys() | got.keys())} reports differ")
        failed |= bool(changed)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
