"""Benchmark for pcqa: seeded corpus, closed-loop workloads, checked outputs.

Run from the root of a pcqa checkout:

    python3 bench/run.py --workload cli-pair --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

Each workload is a closed loop: one client issues one call after another
from one process, for `--seconds` seconds and at least one whole cycle of
its ops. `--trace 0` reports the end-to-end metrics; `--trace 1` wraps the
public functions of each pcqa module from outside (see spans.py) and
reports per-layer metrics. `--workload all` runs every workload in both
modes and prints every metric by name with its unit, including the
per-command and throughput figures that only one workload has.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; the line before it holds the summary
and provenance. Any failed operation or check makes the exit code 1.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

# One BLAS thread per process: the CLI `score` default `--jobs $(nproc)`
# already uses every core, and more threads than cores would measure the
# scheduler. A setting made by the caller wins.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import calib  # noqa: E402
import corpus  # noqa: E402
from spans import layer_totals  # noqa: E402
from worker import DENSE_KEYPOINTS, cycle, graphsim_calls_per_cycle  # noqa: E402

WORKLOADS = ("cli-pair", "corpus-study", "dense-keypoints")
IMPORT_SAMPLES = 3
# Whole cli-pair sessions a run makes at least, so that every command's
# median is taken over three calls: one call of a command varies by
# 15-30% from the next on a shared machine.
MIN_SESSIONS = 3
CHILD_TIMEOUT_S = 150

# Per-layer metrics every workload reports: name -> (unit, key in the
# per-cycle totals). Layers that some workload never calls (baselines,
# distort, evaluate, saving PLYs) are reported by call count here; their
# times are in the summary line.
PER_LAYER = {
    "cli.import_s": ("s", "cli.import_s"),
    "ply_io.load_s": ("s", "ply_io.load_s"),
    "ply_io.load_calls": ("count", "ply_io.load_calls"),
    "ply_io.save_calls": ("count", "ply_io.save_calls"),
    "spatial.build_s": ("s", "spatial.build_s"),
    "spatial.builds": ("count", "spatial.build_calls"),
    "spatial.query_array_s": ("s", "spatial.query_array_s"),
    "spatial.query_array_rows": ("count", "spatial.query_array_rows"),
    "spatial.nearest_calls": ("count", "spatial.nearest_calls"),
    "spatial.nearest_rows": ("count", "spatial.nearest_rows"),
    "spatial.knn_calls": ("count", "spatial.knn_calls"),
    "spatial.radius_query_s": ("s", "spatial.radius_query_s"),
    "spatial.radius_query_calls": ("count", "spatial.radius_query_calls"),
    "resample.frequency_scores_s": ("s", "resample.frequency_scores_s"),
    "resample.resample_s": ("s", "resample.resample_s"),
    "colorspace.decompose_s": ("s", "colorspace.decompose_s"),
    "graphsim.calls": ("count", "graphsim.graphsim_calls"),
    "graphsim.graphsim_s": ("s", "graphsim.graphsim_s"),
    "graphsim.self_s": ("s", "graphsim.graphsim.self_s"),
    "graphsim.local_graph_s": ("s", "graphsim.local_graph_s"),
    "graphsim.score_graph_s": ("s", "graphsim.score_graph_s"),
    "graphsim.keypoints": ("count", "graphsim.keypoints"),
    "graphsim.cluster_points": ("count", "graphsim.cluster_points"),
    "graphsim.scored_ratio": ("ratio", None),
    "baselines.run_calls": ("count", "baselines.run_calls"),
    "distort.apply_calls": ("count", "distort.apply_calls"),
    "evaluate.evaluate_records_calls": ("count", "evaluate.evaluate_records_calls"),
    "trace.cycle_s": ("s", None),
}


class Run:
    """State of one benchmark invocation."""

    def __init__(self, root: Path, work: Path, args):
        self.root, self.work, self.args = root, work, args
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.attempted = 0
        self.problems: list[str] = []
        self.digests: dict[str, str] = {}

    def op(self, problem: str | None) -> bool:
        """Count one attempted operation or check; True if it had no problem."""
        self.attempted += 1
        if problem:
            self.problems.append(problem)
        return not problem

    def same_digest(self, key: str, digest: str | None) -> str | None:
        """Problem text if `key` produced a different digest before."""
        if digest is None:
            return None
        first = self.digests.setdefault(key, digest)
        return None if first == digest else f"{key}: report digest changed on repeat"

    def child(self, argv, stdout_path: Path | None = None):
        """Run one process to the end; returns (exit code, wall s, peak RSS MB, stderr)."""
        err_path = self.work / "child.stderr"
        with open(stdout_path or os.devnull, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, env=self.env, cwd=self.work, stdout=out, stderr=err)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, wall, usage.ru_maxrss / 1024.0, err_path.read_text(errors="replace")

    def worker(self, mode: str, job: dict):
        """Run bench/worker.py on a job; returns (result dict, peak RSS MB)."""
        job = dict(job, root=str(self.work), workload=self.args.workload, seed=self.args.seed,
                   out=str(self.work / f"{mode}.out.json"))
        job_path = self.work / f"{mode}.job.json"
        job_path.write_text(json.dumps(job))
        code, _, rss, err = self.child([sys.executable, str(BENCH / "worker.py"), mode, str(job_path)])
        if code != 0:
            raise RuntimeError(f"{mode} worker exited {code}: {err[-2000:]}")
        return json.loads(Path(job["out"]).read_text()), rss

    def import_probe(self, samples: int = IMPORT_SAMPLES) -> float:
        """Median wall time of `python -c "import pcqa.cli"`."""
        walls = []
        for _ in range(samples):
            code, wall, _, err = self.child([sys.executable, "-c", "import pcqa.cli"])
            if self.op(f"import pcqa.cli exited {code}: {err[-500:]}" if code else None):
                walls.append(wall)
        return statistics.median(walls) if walls else math.nan


# ---------------------------------------------------------------- cli-pair

def session_commands(seed: int):
    s = str(seed)
    tags = ["--content", "volume", "--distortion", "ggn_0.008"]
    return [
        ("distort", ["distort", "ref.ply", "--kind", "ggn", "--level", "0.008", "--seed", s,
                     "--output", "session/dist.ply"]),
        ("resample", ["resample", "ref.ply", "--seed", s, "--output", "session/keys.csv"]),
        ("score", ["score", "ref.ply", "session/dist.ply", "--seed", s, *tags]),
        ("baseline", ["baseline", "ref.ply", "session/dist.ply", *tags]),
        ("eval", ["eval", "eval/reports", "eval/mos.csv", "--output", "session/eval.json"]),
    ]


def _file_sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_command(name: str, session: Path, stdout: Path):
    """(digest, problem) of one CLI command's output.

    Digests leave out the input and output paths a report names.
    """
    if name == "eval":
        report = json.loads((session / "eval.json").read_text())
        srocc = report["metrics"]["graphsim"]["overall"]["srocc"]
        problem = None if abs(srocc - 1.0) <= 1e-9 else f"eval: graphsim SROCC {srocc} under a monotone link"
        return _file_sha(session / "eval.json"), problem
    body = json.loads(stdout.read_text())
    for key in ("inputs", "input", "output"):
        body.pop(key, None)
    problem = None
    if name == "distort":
        body["ply_sha256"] = _file_sha(session / "dist.ply")
    elif name == "resample":
        body["csv_sha256"] = _file_sha(session / "keys.csv")
    elif name == "score":
        quality = body["scores"]["graphsim"]
        if not 0.0 <= quality <= 1.0:
            problem = f"score: graphsim {quality} outside [0, 1]"
    elif name == "baseline":
        bad = {m: v for m, v in body["scores"].items()
               if not (isinstance(v, float) or v in ("inf", "-inf"))}
        if bad:
            problem = f"baseline: non-numeric scores {bad}"
    return hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest(), problem


def cli_command(run: Run, name: str, argv: list, unit: int, out: dict) -> float | None:
    """Run one `pcqa` command as a subprocess and check its output.

    Returns its wall time, or None if it failed.
    """
    session = run.work / "session"
    session.mkdir(exist_ok=True)
    stdout = session / f"{name}.out"
    trace_path = session / f"{name}.spans.json"
    if run.args.trace:
        cmd = [sys.executable, str(BENCH / "worker.py"), "cli", str(trace_path), *argv]
    else:
        cmd = [sys.executable, "-m", "pcqa.cli", *argv]
    code, wall, rss, err = run.child(cmd, stdout)
    out["peak_rss_mb"] = max(out["peak_rss_mb"], rss)
    if code != 0:
        run.op(f"{name} exited {code}: {err[-1000:]}")
        return None
    try:
        digest, problem = check_command(name, session, stdout)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        digest, problem = None, f"{name}: unreadable output ({exc!r})"
    ok = run.op(problem or run.same_digest(name, digest))
    if run.args.trace:
        body = json.loads(trace_path.read_text())
        for span in body["spans"]:
            span["unit"] = unit
        out["span_sets"].append(body["spans"])
        out["count_sets"].append((unit, body["counts"].get("setup", {})))
        out["count_sets"].append((unit, {"cli.import_in_command_s": body["import_s"]}))
    return wall if ok else None


def run_cli_pair(run: Run) -> dict:
    """Whole sessions of five commands, one after another, for --seconds
    and at least MIN_SESSIONS sessions.

    Every command runs as often as the others, so that each median has as
    many samples. An untimed import first fills the page cache with what
    every command loads. The calibration kernel runs in this process
    before the first command and after each one, while no command runs.
    """
    commands = session_commands(run.args.seed)
    out = {"walls": {}, "ref_walls": {}, "peak_rss_mb": 0.0, "span_sets": [],
           "count_sets": [], "items_per_cycle": 1, "kernel_samples": []}
    run.import_probe(samples=1)
    kernel = calib.Kernel()
    start, i = time.perf_counter(), 0
    before = kernel.median()
    while not run.problems:
        sessions, mid_session = divmod(i, len(commands))
        if (time.perf_counter() - start >= run.args.seconds and not mid_session
                and sessions >= MIN_SESSIONS):
            break
        name, argv = commands[i % len(commands)]
        wall = cli_command(run, name, argv, i // len(commands), out)
        after = kernel.median()
        if wall is not None:
            add_wall(out, name, wall, (before + after) / 2)
        before = after
        i += 1
    out["cycles"] = i // len(commands)
    if run.args.trace:
        out["import_s"] = run.import_probe()
        return out
    out["setup_samples"] = setup_workers(run, [["cli-score"], ["cli-distort"], []])
    return out


def add_wall(out: dict, key: str, wall: float, kernel_s: float) -> None:
    """Record one op's wall time, raw and at reference speed."""
    out["kernel_samples"].append(kernel_s)
    out["walls"].setdefault(key, []).append(wall)
    out["ref_walls"].setdefault(key, []).append(calib.at_reference(wall, kernel_s))


def setup_workers(run: Run, check_lists, **job) -> list[tuple[float, float]]:
    """Fresh workers that each give one set-up sample and run some checks.

    Returns (set-up wall s, kernel s) per worker.
    """
    samples = []
    for checks in check_lists:
        try:
            result, _ = run.worker("setup", dict(job, checks=checks))
        except RuntimeError as exc:
            run.op(str(exc))
            continue
        samples.append((result["setup_s"], result["kernel_s"]))
        for check in result["checks"]:
            run.op(check["problem"] and f"{check['name']}: {check['problem']}")
    return samples


# ------------------------------------------------------- in-process loops

def run_inproc(run: Run) -> dict:
    ops = cycle(run.args.workload, run.args.seed)
    result, peak = run.worker("inproc", {"seconds": run.args.seconds, "trace": run.args.trace})
    out = {"walls": {}, "ref_walls": {}, "peak_rss_mb": peak, "cycles": result["cycles"],
           "items_per_cycle": graphsim_calls_per_cycle(run.args.workload), "kernel_samples": []}
    first_digest = None
    for rec in result["ops"]:
        kind, ref, dist, seed = ops[rec["op"]]
        key = f"{kind}:{ref}:{dist}:{seed}"
        if rec["op"] == 0:
            first_digest = first_digest or rec["digest"]
        problem = f"{key}: {rec['problem']}" if rec["problem"] else None
        if run.op(problem or run.same_digest(key, rec["digest"])):
            add_wall(out, key, rec["wall"], rec["kernel_s"])
    if run.args.trace:
        out["import_s"] = run.import_probe()
        out["span_sets"] = [result["spans"]]
        out["count_sets"] = [(u, c) for u, c in result["counts"].items()]
        return out
    # Ops repeat inside the loop from the second cycle on; a loop that
    # did not get there has op 0 scored again in another process.
    checks = [["identity"], ["repeat"] if result["cycles"] < 2 else []]
    out["setup_samples"] = ([(result["setup_s"], result["setup_kernel_s"])]
                            + setup_workers(run, checks, expect_digest=first_digest))
    return out


# ----------------------------------------------------------------- metrics

def high_percentile(samples):
    """(percentile, value) of the highest percentile with at least ten
    samples beyond it, or None when there are fewer than eleven samples."""
    n = len(samples)
    if n < 11:
        return None
    return math.floor(100.0 * (n - 10) / n), sorted(samples)[n - 11]


def timing(samples) -> dict:
    hp = high_percentile(samples)
    return {"median": statistics.median(samples), "n": len(samples),
            "high_percentile": None if hp is None else {"p": hp[0], "value": hp[1]}}


def cycle_seconds(out: dict, key: str = "walls") -> float:
    """Seconds of one cycle: the sum over its ops of each op's median."""
    return sum(statistics.median(w) for w in out[key].values())


def end_to_end(out: dict) -> dict:
    """latency_s (seconds per item of a cycle), setup_s and peak_rss_mb;
    the times at reference speed (see calib.py)."""
    setups = [calib.at_reference(wall, kernel_s) for wall, kernel_s in out["setup_samples"]]
    return {
        "latency_s": (cycle_seconds(out, "ref_walls") / out["items_per_cycle"], "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (out["peak_rss_mb"], "MB"),
    }


def per_layer(out: dict) -> tuple[dict, dict]:
    """(metrics listed in BENCHMARK.json, every layer total), per cycle plus set-up."""
    cycles = out["cycles"]
    merged: dict[str, float] = {}

    def add(unit, values):
        share = 1.0 if str(unit) == "setup" else 1.0 / cycles
        for key, value in values.items():
            merged[key] = merged.get(key, 0.0) + value * share

    for spans in out["span_sets"]:
        for unit, values in layer_totals(spans).items():
            add(unit, values)
    for unit, values in out["count_sets"]:
        add(unit, values)
    merged["cli.import_s"] = out["import_s"]
    keypoints = merged.get("graphsim.keypoints", 0.0)
    merged["graphsim.scored_ratio"] = merged.get("graphsim.scored", 0.0) / keypoints if keypoints else 0.0
    merged["trace.cycle_s"] = cycle_seconds(out, "ref_walls")
    metrics = {}
    for name, (unit, key) in PER_LAYER.items():
        value = merged.get(key or name, 0.0)
        metrics[name] = (round(value) if unit == "count" and abs(value - round(value)) < 1e-9
                         else value, unit)
    return metrics, merged


def provenance(run: Run, corpus_digest: str) -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    versions = {}
    for package in ("numpy", "scipy"):
        try:
            versions[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            versions[package] = None
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "blas_threads": {k: os.environ.get(k, "unset") for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "python": platform.python_version(),
        **versions,
        "git_commit": git_commit(run.root),
        "corpus_sha256": corpus_digest,
        "report_sha256": run.digests,
    }


def git_commit(root: Path):
    """HEAD of the checkout, read from .git without running git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (root / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


# -------------------------------------------------------------------- main

def one_workload(args) -> int:
    root = Path.cwd()
    if not (root / "src" / "pcqa" / "__init__.py").is_file():
        print("bench: no src/pcqa here; run from the root of a pcqa checkout", file=sys.stderr)
        return 2
    # The only build a Python checkout has: byte-compile the package, so
    # that the first timed command does not pay for it.
    compileall.compile_dir(root / "src" / "pcqa", quiet=1)
    work = root / ".bench_work" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    corpus.build(args.workload, args.seed, work)
    run = Run(root, work, args)
    corpus_digest = corpus.digest(work)
    try:
        out = run_cli_pair(run) if args.workload == "cli-pair" else run_inproc(run)
    except RuntimeError as exc:
        run.op(str(exc))
        out = None
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics, summary = {}, {"workload": args.workload, "seed": args.seed, "trace": args.trace}
    if out is not None and not run.problems:
        if args.trace:
            metrics, layers = per_layer(out)
            summary["layers_per_cycle"] = layers
        else:
            metrics = end_to_end(out)
            summary["setup_samples_s"] = [wall for wall, _ in out["setup_samples"]]
            summary["setup_kernel_s"] = [kernel_s for _, kernel_s in out["setup_samples"]]
            summary["wall_latency_s"] = cycle_seconds(out) / out["items_per_cycle"]
            summary["wall_setup_s"] = statistics.median(summary["setup_samples_s"])
        summary["timings_s"] = {k: timing(v) for k, v in out["walls"].items()}
        summary["timings_at_reference_s"] = {k: timing(v) for k, v in out["ref_walls"].items()}
        summary["kernel_reference_s"] = calib.REFERENCE_S
        summary["kernel_median_s"] = statistics.median(out["kernel_samples"])
        by_kind: dict[str, list[float]] = {}
        for key, walls in out["walls"].items():
            by_kind.setdefault(key.split(":")[0], []).extend(walls)
        summary["timings_by_kind_s"] = {k: timing(v) for k, v in by_kind.items()}
        summary["cycles"] = out["cycles"]
        summary["cycle_s"] = cycle_seconds(out, "ref_walls")
        summary["items_per_cycle"] = out["items_per_cycle"]
    summary["error_rate"] = len(run.problems) / max(run.attempted, 1)
    summary["problems"] = run.problems
    summary["provenance"] = provenance(run, corpus_digest)
    for problem in run.problems:
        print(f"bench: FAILED {problem}", file=sys.stderr)
    print(json.dumps({"summary": summary}))
    correct = not run.problems
    print(json.dumps({
        "correct": correct,
        "attempted": max(run.attempted, 1),
        "failed": len(run.problems),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


def all_workloads(args) -> int:
    """Every workload, untraced then traced; print every metric by name."""
    status = 0
    rows = []
    for workload in WORKLOADS:
        results = {}
        for trace in (0, 1):
            argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                    "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
            lines = proc.stdout.strip().splitlines()
            status |= proc.returncode
            if len(lines) < 2:
                print(f"{workload} trace {trace}: no result (exit {proc.returncode})")
                continue
            results[trace] = (json.loads(lines[-2])["summary"], json.loads(lines[-1]))
        rows += named_rows(workload, results)
    width = max(len(r[0]) for r in rows)
    for name, workload, value, unit, note in rows:
        shown = f"{value:>12d}" if unit == "count" else f"{value:>12.6g}"
        print(f"{name:<{width}}  {workload:<16} {shown} {unit:<6} {note}")
    return status


def named_rows(workload: str, results: dict):
    """(metric, workload, value, unit, note) rows for one workload."""
    rows = []
    if 0 in results:
        summary, final = results[0]
        m = final["metrics"]
        if workload == "cli-pair":
            for command in ("score", "baseline", "distort", "resample", "eval"):
                t = summary["timings_at_reference_s"][command]
                hp = t["high_percentile"]
                note = f"median of n={t['n']}" + (f", p{hp['p']}={hp['value']:.4g}" if hp else "")
                rows.append((f"cli_{command}_s", workload, t["median"], "s", note))
        elif workload == "corpus-study":
            rows.append(("corpus_stimuli_per_s", workload, 1.0 / m["latency_s"]["value"], "1/s",
                         "stimuli per second, baseline time included"))
        else:
            rows.append(("dense_keypoints_per_s", workload,
                         DENSE_KEYPOINTS / m["latency_s"]["value"], "1/s",
                         "keypoints per second of graphsim wall time"))
        for name in ("latency_s", "setup_s", "peak_rss_mb"):
            rows.append((name, workload, m[name]["value"], m[name]["unit"], "end-to-end"))
        rows.append(("error_rate", workload, summary["error_rate"], "ratio",
                     f"{final['failed']} of {final['attempted']} operations failed"))
    if 1 in results:
        summary, final = results[1]
        for name, body in final["metrics"].items():
            rows.append((name, workload, body["value"], body["unit"], "per layer, per cycle"))
        if 0 in results:
            overhead = summary["cycle_s"] - results[0][0]["cycle_s"]
            rows.append(("trace.overhead_s", workload, overhead, "s",
                         "traced minus untraced time per cycle, at reference speed"))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return all_workloads(args) if args.workload == "all" else one_workload(args)


if __name__ == "__main__":
    sys.exit(main())
