"""Worker processes of the benchmark, one fresh interpreter each.

    python bench/worker.py inproc <job.json>   in-process workload loop
    python bench/worker.py setup <job.json>    set-up sample plus checks
    python bench/worker.py cli <spans.json> <pcqa arguments...>
                                               one traced `pcqa` command

A job file names the workload, its corpus directory, the seed, the
seconds to measure, whether to trace, and where to write the result JSON.
The clock for `setup_s` starts before `pcqa` is imported and stops just
before the first timed call.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))

import corpus  # noqa: E402
from spans import Tracer  # noqa: E402


DENSE_KEYPOINTS = 5000
# Calibration passes between two ops: one where ops take well under a
# second, three (their median) where they take seconds.
KERNEL_PASSES = {"corpus-study": 1, "dense-keypoints": 3}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def graphsim_config(workload: str, seed: int):
    from pcqa import GraphSimConfig, ResampleConfig

    if workload == "dense-keypoints":
        return GraphSimConfig(signal_kind="mixed", resample=ResampleConfig(count=DENSE_KEYPOINTS, seed=seed))
    return GraphSimConfig(resample=ResampleConfig(seed=seed))


def cycle(workload: str, seed: int):
    """The ops of one cycle: (op kind, reference name, distorted name, seed)."""
    if workload == "dense-keypoints":
        return [("graphsim", "ref", "ggn", seed), ("graphsim", "ref", "ds", seed)]
    ops = []
    for content, _, _, _, stem in corpus.study_stimuli(seed):
        ops += [("graphsim", content, stem, seed), ("graphsim", content, stem, seed + 1),
                ("baselines", content, stem, None)]
    return ops


def graphsim_calls_per_cycle(workload: str) -> int:
    return sum(1 for op in cycle(workload, 0) if op[0] == "graphsim")


def load_clouds(root: Path) -> dict:
    from pcqa import load_ply

    return {p.stem: load_ply(p) for p in sorted(root.glob("*.ply"))}


def run_op(op, clouds, workload):
    """Run one op; returns (digest, problem or None)."""
    from pcqa import run_baselines
    from pcqa.graphsim import graphsim
    from pcqa.jsonutil import canonical_dumps

    kind, ref, dist, seed = op
    if kind == "graphsim":
        config = graphsim_config(workload, seed)
        result = graphsim(clouds[ref], clouds[dist], config)
        problem = None if 0.0 <= result.quality <= 1.0 else f"quality {result.quality} outside [0, 1]"
        return _sha(canonical_dumps(result.to_report(config))), problem
    results = run_baselines(clouds[ref], clouds[dist])
    body = {m: [r.value, r.forward_db, r.backward_db] for m, r in results.items()}
    nan = [m for m, v in body.items() if any(isinstance(x, float) and math.isnan(x) for x in v)]
    return _sha(canonical_dumps(body)), (f"NaN baseline values: {nan}" if nan else None)


def inproc(job: dict) -> dict:
    """Set up, then run op cycles as a closed loop for job['seconds'].

    The calibration kernel (calib.py) runs after set-up and between ops;
    each op record carries the mean of the passes before and after it.
    The loop stops once the time is spent and every op of the cycle has run
    at least once. Traced jobs run whole cycles only, so that per-cycle
    counts are exact.
    """
    root, workload, seed = Path(job["root"]), job["workload"], job["seed"]
    with Tracer() if job["trace"] else contextlib.nullcontext() as tracer:
        clouds = load_clouds(root)
        setup_s = time.perf_counter() - STARTED
        from calib import Kernel

        kernel = Kernel()
        setup_kernel_s = kernel.median()
        ops = cycle(workload, seed)
        records, start, i = [], time.perf_counter(), 0
        passes = KERNEL_PASSES[workload]
        before = kernel.median(passes)
        while True:
            spent = time.perf_counter() - start >= job["seconds"] and i >= len(ops)
            if spent and (not tracer or i % len(ops) == 0):
                break
            if tracer:
                tracer.unit = i // len(ops)
            t0 = time.perf_counter()
            try:
                digest, problem = run_op(ops[i % len(ops)], clouds, workload)
            except Exception:  # an op failure is counted, not fatal
                digest, problem = None, traceback.format_exc(limit=3)
            wall = time.perf_counter() - t0
            after = kernel.median(passes)
            records.append({"op": i % len(ops), "wall": wall, "kernel_s": (before + after) / 2,
                            "digest": digest, "problem": problem})
            before = after
            i += 1
    out = {"setup_s": setup_s, "setup_kernel_s": setup_kernel_s, "ops": records,
           "cycles": i // len(ops)}
    if tracer:
        out.update(spans=tracer.spans, counts=tracer.counts)
    return out


def setup(job: dict) -> dict:
    """One set-up sample and the kernel time after it, then the checks
    named in job['checks']."""
    from pcqa import load_ply

    root = Path(job["root"])
    if job["workload"] == "cli-pair":
        clouds = {"ref": load_ply(root / "ref.ply"), "dist": load_ply(root / "session" / "dist.ply")}
    else:
        clouds = load_clouds(root)
    setup_s = time.perf_counter() - STARTED
    from calib import Kernel

    out = {"setup_s": setup_s, "kernel_s": Kernel().median(), "checks": []}
    for name in job["checks"]:
        try:
            problem = CHECKS[name](clouds, job)
        except Exception:
            problem = traceback.format_exc(limit=3)
        out["checks"].append({"name": name, "problem": problem})
    return out


def check_cli_score(clouds, job):
    """The CLI score report equals the in-process result on the same pair."""
    from pcqa.graphsim import graphsim
    from pcqa.jsonutil import canonical_dumps

    config = graphsim_config("cli-pair", job["seed"])
    expected = json.loads(canonical_dumps(graphsim(clouds["ref"], clouds["dist"], config).to_report(config)))
    report = json.loads((Path(job["root"]) / "session" / "score.out").read_text())
    got = {k: v for k, v in report.items() if k in expected}
    if got != expected:
        differ = sorted(k for k in expected if got.get(k) != expected[k])
        return f"CLI score report differs from in-process graphsim in {differ}"
    return None


def check_cli_distort(clouds, job):
    """The CLI distort output equals the in-process distortion."""
    import numpy as np
    from pcqa import DistortionSpec, apply_distortion

    expected = apply_distortion(clouds["ref"], DistortionSpec("ggn", 0.008, job["seed"]))
    if not (np.array_equal(expected.positions, clouds["dist"].positions)
            and np.array_equal(expected.colors, clouds["dist"].colors)):
        return "CLI distort output differs from in-process apply_distortion"
    return None


def check_identity(clouds, job):
    """Identical clouds score 1.0 and give infinite baselines."""
    from pcqa import graphsim, run_baselines

    refs = ["ref"] if job["workload"] == "dense-keypoints" else ["volume", "surface"]
    for name in refs:
        quality = graphsim(clouds[name], clouds[name]).quality
        if abs(quality - 1.0) > 1e-12:
            return f"identity quality {quality!r} on {name}"
    if job["workload"] == "corpus-study":
        finite = {m: r.value for m, r in run_baselines(clouds["volume"], clouds["volume"]).items()
                  if r.value != math.inf}
        if finite:
            return f"identity baselines not infinite: {finite}"
    return None


def check_repeat(clouds, job):
    """Op 0 scored in this process has the digest the loop worker saw."""
    digest, problem = run_op(cycle(job["workload"], job["seed"])[0], clouds, job["workload"])
    if problem or digest != job["expect_digest"]:
        return problem or "op 0 report digest differs between two processes"
    return None


CHECKS = {"cli-score": check_cli_score, "cli-distort": check_cli_distort,
          "identity": check_identity, "repeat": check_repeat}


def cli(spans_path: str, argv: list[str]) -> int:
    """Run one `pcqa` command under the tracer and write its spans."""
    t0 = time.perf_counter()
    import pcqa.cli

    import_s = time.perf_counter() - t0
    with Tracer() as tracer:
        code = pcqa.cli.main(argv)
    Path(spans_path).write_text(json.dumps(
        {"import_s": import_s, "spans": tracer.spans, "counts": tracer.counts}))
    return code


def main() -> int:
    mode = sys.argv[1]
    if mode == "cli":
        return cli(sys.argv[2], sys.argv[3:])
    job = json.loads(Path(sys.argv[2]).read_text())
    out = inproc(job) if mode == "inproc" else setup(job)
    Path(job["out"]).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
