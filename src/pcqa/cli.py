"""Command-line front door.

Five subcommands cover the full workflow: ``score`` (graph-similarity
metric), ``baseline`` (point-wise metrics), ``distort`` and ``resample``
(fixture generation), and ``eval`` (MOS correlation).

Contract: stdout carries only the requested artifact, stderr carries
line-delimited JSON diagnostics. Exit 0 on success, 2 for I/O, parse, or
flag-validation failures, 3 for domain rejections (empty results,
colorless input with a color signal, and the like). Every command is
deterministic for a fixed seed.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import warnings
from pathlib import Path

from .baselines import METRIC_IDS, run_baselines
from .colorspace import SPACES
from .distort import KINDS, DistortionSpec, apply_distortion
from .errors import DomainError, ParseError, ValidationError
from .evaluate import FIT_SCOPES, evaluate_records
from .graphsim import POOLING_PRESETS, TAU_SCOPES, GraphSimConfig, graphsim
from .jsonutil import canonical_dumps, write_report
from .mos import load_mos_csv
from .ply_io import PLY_FORMATS, load_ply, save_ply
from .resample import METHODS, ResampleConfig, resample, write_keypoints_csv

__all__ = ["main", "build_parser"]


def _diag(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True), file=sys.stderr)


def _names(raw: str, flag: str, what: str) -> tuple[str, ...]:
    """The names of a comma-separated flag value; at least one."""
    names = tuple(p.strip() for p in raw.split(",") if p.strip())
    if not names:
        raise ValidationError(f"{flag} must name at least one {what}")
    return names


def _resample_config(args: argparse.Namespace, count: int | None, method: str) -> ResampleConfig:
    """The keypoint stage of ``score`` and ``resample`` from their shared flags."""
    return ResampleConfig(
        count=count,
        ratio=args.beta_ratio,
        filter_length=args.filter_length,
        graph_k=args.graph_k,
        method=method,
        seed=args.seed,
    )


def _score_config(args: argparse.Namespace) -> GraphSimConfig:
    return GraphSimConfig(
        neighborhood_fraction=args.theta_fraction,
        matching_k=args.matching_k,
        color_space=args.color_space,
        pooling=args.pooling,
        signal_kind=_names(args.signal, "--signal", "signal kind"),
        tau_scope=args.tau_scope,
        normals_k=args.normals_k,
        resample=_resample_config(args, args.beta, args.resample_method),
    )


def _emit_pair(args: argparse.Namespace, command: str, report: dict, scores: dict) -> int:
    """Add the fields every pair report carries, then print or write it."""
    report.update(
        command=command,
        inputs={"reference": args.reference, "distorted": args.distorted},
        content=args.content,
        distortion=args.distortion,
        scores=scores,
    )
    if args.output:
        write_report(report, args.output)
    else:
        print(canonical_dumps(report))
    return 0


def cmd_score(args: argparse.Namespace) -> int:
    config = _score_config(args)
    # The stimulus is read once the reference's keypoint filter has let go of its transients.
    ref = load_ply(args.reference)
    keypoints = resample(ref, config.resample)
    result = graphsim(ref, load_ply(args.distorted), config, keypoints=keypoints)
    report = dict(result.to_report(config), seed=args.seed)
    return _emit_pair(args, "score", report, {"graphsim": result.quality})


def cmd_baseline(args: argparse.Namespace) -> int:
    metrics = _names(args.metrics, "--metrics", "baseline metric")
    results = run_baselines(load_ply(args.reference), load_ply(args.distorted), metrics,
                            normals_k=args.normals_k)
    report = {
        "metrics": {
            m: {
                "value": r.value,
                "forward_db": r.forward_db,
                "backward_db": r.backward_db,
            }
            for m, r in results.items()
        },
    }
    return _emit_pair(args, "baseline", report, {m: r.value for m, r in results.items()})


def _print_manifest(args: argparse.Namespace, command: str, **fields) -> int:
    """Print what a fixture command read and wrote, plus its own fields."""
    print(canonical_dumps(dict(fields, command=command, input=args.input, output=args.output)))
    return 0


def cmd_distort(args: argparse.Namespace) -> int:
    spec = DistortionSpec(kind=args.kind, level=args.level, seed=args.seed)
    cloud = load_ply(args.input)
    distorted = apply_distortion(cloud, spec)
    save_ply(distorted, args.output, format=args.ply_format)
    return _print_manifest(args, "distort", spec=spec.to_dict(),
                           points_in=cloud.count, points_out=distorted.count)


def cmd_resample(args: argparse.Namespace) -> int:
    config = _resample_config(args, args.count, args.method)
    cloud = load_ply(args.input)
    keypoints = resample(cloud, config=config)
    write_keypoints_csv(args.output, cloud, keypoints)
    return _print_manifest(args, "resample", config=config.to_dict(), count=keypoints.count)


def _load_score_reports(directory: str):
    """Collect (content, distortion) -> {metric: value} from report JSONs."""
    root = Path(directory)
    if not root.is_dir():
        raise DomainError(f"not a directory: {directory}")
    table: dict[tuple[str, str], dict[str, float]] = {}
    for path in sorted(root.glob("*.json")):
        try:
            body = json.loads(path.read_text(encoding="utf-8-sig"))  # as the MOS CSV
        except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
            raise ParseError(f"{path}: invalid JSON ({exc})") from exc
        if not isinstance(body, dict):
            raise ParseError(f"{path}: a score report must be a JSON object")
        scores = body.get("scores")
        if not isinstance(scores, dict):
            continue
        key = (str(body.get("content") or ""), str(body.get("distortion") or ""))
        bucket = table.setdefault(key, {})
        for metric, value in scores.items():
            if metric in bucket:
                raise DomainError(
                    f"{path}: duplicate score for metric '{metric}' at key {key}"
                )
            # Canonical reports store non-finite values as the strings
            # "inf"/"-inf"/"nan", which float() parses directly. A JSON
            # boolean is not a score, though float(True) reads 1.0.
            try:
                if isinstance(value, bool):
                    raise TypeError
                bucket[metric] = float(value)
            except (TypeError, ValueError):
                raise ParseError(f"{path}: score '{metric}' is not a number") from None
    return table


def _print_eval_table(report: dict) -> None:
    header = f"{'metric':<12} {'scope':<12} {'group':<16} {'n':>4} {'plcc':>9} {'srocc':>9} {'rmse':>9}"
    print(header)
    print("-" * len(header))

    def row(metric, scope, group, n, p, s, r):
        print(f"{metric:<12} {scope:<12} {group:<16} {n:>4d} {p:>9.4f} {s:>9.4f} {r:>9.4f}")

    for metric in sorted(report["metrics"]):
        body = report["metrics"][metric]
        o = body["overall"]
        row(metric, "overall", "-", o["size"], o["plcc"], o["srocc"], o["rmse"])
        for scope in ("by_content", "by_distortion"):
            for g in body[scope]:
                row(metric, scope[3:], g["name"], g["size"], g["plcc"], g["srocc"], g["rmse"])


def cmd_eval(args: argparse.Namespace) -> int:
    mos = load_mos_csv(args.mos_csv)
    scores = _load_score_reports(args.scores_dir)

    metrics = sorted({m for bucket in scores.values() for m in bucket})
    if not metrics:
        raise DomainError(f"no score reports with a 'scores' object found in {args.scores_dir}")

    missing: list[str] = []
    dropped = 0
    records: dict[str, list[dict]] = {}  # metric -> its finite scores, each with its MOS row
    for mos_row in mos:
        key = (mos_row.content, mos_row.distortion)
        bucket = scores.get(key, {})
        for metric in metrics:
            if metric not in bucket:
                missing.append(f"{metric}:{mos_row.content}/{mos_row.distortion}")
                continue
            value = bucket[metric]
            if not math.isfinite(value):
                dropped += 1
                continue
            records.setdefault(metric, []).append(dict(vars(mos_row), score=value))
    if missing and not args.allow_partial:
        raise DomainError(
            "missing scores for MOS rows (use --allow-partial to skip): "
            + ", ".join(sorted(missing))
        )

    report = {
        "command": "eval",
        "fit_scope": args.fit_scope,
        "mos_rows": len(mos),
        "non_finite_dropped": dropped,
        "missing": sorted(missing),
        "metrics": {},
    }
    for metric, recs in sorted(records.items()):
        try:
            report["metrics"][metric] = evaluate_records(recs, fit_scope=args.fit_scope).to_dict()
        except DomainError as exc:
            raise DomainError(f"{metric}: {exc}") from None
    _print_eval_table(report)
    if args.output:
        write_report(report, args.output)
    return 0


def build_parser() -> argparse.ArgumentParser:
    # Every parser takes each option by its full name only: no prefix reads as a flag.
    new_parser = functools.partial(argparse.ArgumentParser, allow_abbrev=False)
    parser = new_parser(prog="pcqa", description="Point-cloud quality assessment toolkit.")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=new_parser)

    # Flags shared by the pair commands, and by the two keypoint stages.
    pair = new_parser(add_help=False)
    pair.add_argument("reference")
    pair.add_argument("distorted")
    pair.add_argument("--normals-k", type=int, default=12)
    pair.add_argument("--content", default="")
    pair.add_argument("--distortion", default="")
    pair.add_argument("--output", default=None)
    keypoints = new_parser(add_help=False)
    keypoints.add_argument("--beta-ratio", type=float, default=1e-3,
                           help="keypoint budget as a fraction of the reference size")
    keypoints.add_argument("--filter-length", type=int, default=4)
    keypoints.add_argument("--graph-k", type=int, default=10)
    keypoints.add_argument("--seed", type=int, default=0)

    score = sub.add_parser("score", parents=[pair, keypoints],
                           help="graph-similarity quality score for a cloud pair")
    score.add_argument("--color-space", choices=SPACES, default="gcm")
    score.add_argument("--signal", default="color",
                       help="signal kind(s): color, coordinate, normal, mixed, or a comma list")
    score.add_argument("--theta-fraction", type=float, default=0.1,
                       help="cluster radius as a fraction of the smallest box extent")
    score.add_argument("--matching-k", type=int, default=50,
                       help="neighbor rank that sets the edge cutoff")
    score.add_argument("--beta", type=int, default=None, help="explicit keypoint count")
    score.add_argument("--resample", dest="resample_method", choices=METHODS,
                       default="high-pass", help="keypoint selection method")
    score.add_argument("--pooling", choices=sorted(POOLING_PRESETS), default="c2",
                       help="feature/channel pooling preset")
    score.add_argument("--tau-scope", choices=TAU_SCOPES, default="union")
    score.set_defaults(func=cmd_score)

    baseline = sub.add_parser("baseline", parents=[pair],
                              help="point-wise baseline metrics for a cloud pair")
    baseline.add_argument("--metrics", default=",".join(METRIC_IDS),
                          help="comma-separated metric ids")
    baseline.set_defaults(func=cmd_baseline)

    distort = sub.add_parser("distort", help="apply a seeded distortion to a cloud")
    distort.add_argument("input")
    distort.add_argument("--kind", choices=KINDS, required=True)
    distort.add_argument("--level", type=float, required=True)
    distort.add_argument("--seed", type=int, default=0)
    distort.add_argument("--output", required=True, help="destination PLY path")
    distort.add_argument("--ply-format", choices=PLY_FORMATS, default="binary")
    distort.set_defaults(func=cmd_distort)

    res = sub.add_parser("resample", parents=[keypoints], help="select reference keypoints")
    res.add_argument("input")
    res.add_argument("--count", type=int, default=None)
    res.add_argument("--method", choices=METHODS, default="high-pass")
    res.add_argument("--output", required=True, help="destination CSV path")
    res.set_defaults(func=cmd_resample)

    ev = sub.add_parser("eval", help="correlate score reports against a MOS table")
    ev.add_argument("scores_dir")
    ev.add_argument("mos_csv")
    ev.add_argument("--fit-scope", choices=FIT_SCOPES, default="global")
    ev.add_argument("--allow-partial", action="store_true",
                    help="tolerate MOS rows without a matching score")
    ev.add_argument("--output", default=None, help="also write the JSON report here")
    ev.set_defaults(func=cmd_eval)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code, error = args.func(args), None
        except (ParseError, ValidationError, OSError) as exc:
            code, error = 2, exc
        except DomainError as exc:
            code, error = 3, exc
        except MemoryError as exc:  # numpy's subclass; its message names the size and shape
            code, error = 3, MemoryError(str(exc))
    # A failed command's warnings often explain it: they come first, then the error.
    for w in caught:
        _diag({"warning": w.category.__name__, "message": str(w.message)})
    if error is not None:
        _diag({"error": type(error).__name__, "message": str(error)})
    return code


if __name__ == "__main__":
    sys.exit(main())
