"""Correlation analysis between objective scores and subjective ratings.

The harness fits a monotonic regression from raw metric output to the
rating scale, then reports the usual agreement statistics: Pearson
correlation on the mapped scores, Spearman rank correlation on the raw
scores, and RMSE on the mapped scores.
"""

from __future__ import annotations

import warnings
from dataclasses import asdict, dataclass, field, replace
from typing import Mapping, Sequence

import numpy as np

from .errors import DomainError, check_choice

__all__ = [
    "LogisticFit",
    "GroupReport",
    "EvalReport",
    "logistic_fit",
    "plcc",
    "srocc",
    "rmse",
    "evaluate_scores",
    "evaluate_records",
]

#: Groups smaller than this are dropped outright: a regression through one
#: or two points is meaningless.
MIN_GROUP_SIZE = 3

#: Groups at least MIN_GROUP_SIZE but smaller than this are reported with a
#: low-sample flag so downstream consumers can discount them.
SMALL_GROUP_SIZE = 5

FIT_SCOPES = ("global", "per-group")


def _logistic(x: np.ndarray, b1: float, b2: float, b3: float, b4: float, b5: float) -> np.ndarray:
    """Five-parameter monotone map: scaled logistic plus a linear ramp."""
    z = np.clip(b2 * (x - b3), -500.0, 500.0)
    return b1 * (0.5 - 1.0 / (1.0 + np.exp(z))) + b4 * x + b5


@dataclass(frozen=True)
class LogisticFit:
    """Fitted regression from raw scores to the rating scale."""

    params: tuple[float, float, float, float, float]
    fallback: bool = False
    degenerate: bool = False

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        return _logistic(x, *self.params)


MAX_ITERATIONS = 100  # Levenberg-Marquardt steps of the run that logistic_fit keeps


def _solve_linear(x: np.ndarray, y: np.ndarray, b2: float, b3: float) -> tuple[np.ndarray, float]:
    """The five parameters, b1, b4 and b5 by least squares for fixed (b2, b3), and their SSE."""
    s = _logistic(x, 1.0, b2, b3, 0.0, 0.0)
    (b1, b4, b5), *_ = np.linalg.lstsq(np.column_stack([s, x, np.ones_like(x)]), y, rcond=None)
    params = np.array([b1, b2, b3, b4, b5])
    return params, float(np.sum((y - _logistic(x, *params)) ** 2))


def _refine(x, y, params, sse, lo, hi, steps=MAX_ITERATIONS):
    """Levenberg-Marquardt on the analytic Jacobian and Hessian, with (b2, b3) kept in
    [lo, hi] and b1, b4, b5 solved again at each trial; returns (params, sse, iterations)."""
    damping = 1e-3
    for iteration in range(1, steps + 1):
        b1, b2, b3 = params[:3]
        s = _logistic(x, 1.0, b2, b3, 0.0, 0.0)
        u, ds = x - b3, 0.25 - s * s  # ds/dz at z = b2 * u
        dds = -2.0 * s * ds
        r = y - _logistic(x, *params)
        jac = np.column_stack([s, b1 * ds * u, -b1 * b2 * ds, x, np.ones_like(x)])
        cross = -b1 * (ds + b2 * dds * u)
        second = np.array([[0.0 * u, ds * u, -b2 * ds],  # the map's second derivatives
                           [ds * u, b1 * dds * u * u, cross],
                           [-b2 * ds, cross, b1 * b2 * b2 * dds]])
        hess, grad = jac.T @ jac, jac.T @ r
        hess[:3, :3] -= second @ r
        # A parameter at a bound that the step would cross is held there.
        theta, slope = params[1:3], grad[1:3]
        pinned = 1 + np.flatnonzero(((theta <= lo) & (slope < 0)) | ((theta >= hi) & (slope > 0)))
        hess[pinned], hess[:, pinned], grad[pinned] = 0.0, 0.0, 0.0
        scale = np.linalg.norm(jac, axis=0)
        scale[scale == 0.0] = 1.0
        while True:
            step = np.linalg.solve(hess / np.outer(scale, scale) + damping * np.eye(5),
                                   grad / scale) / scale
            trial, trial_sse = _solve_linear(x, y, *np.clip(params[1:3] + step[1:3], lo, hi))
            if trial_sse <= sse * (1.0 + 1e-15):
                break
            if (damping := damping * 10.0) > 1e16:
                return params, sse, iteration
        moved = max(abs(trial[1] - b2) / trial[1], abs(trial[2] - b3) * trial[1])
        params, sse, damping = trial, trial_sse, max(damping / 10.0, 1e-12)
        if moved <= 1e-10:
            return params, sse, iteration
    return params, sse, steps


def logistic_fit(predictions: Sequence[float], ratings: Sequence[float]) -> LogisticFit:
    """Fit the five-parameter map, falling back to least squares.

    b1, b4 and b5 are the least-squares solve for fixed (b2, b3) (variable
    projection). With b1 carrying the sign, b2 stays in [0.5, 100] / ptp(x)
    and b3 within one score range of the scores. The best point of each
    quarter of the slopes of a 24 x 24 grid over that box takes 5
    Levenberg-Marquardt steps; the lowest SSE then runs until a step moves b2
    by at most 1e-10 of itself and b3 by at most 1e-10 / b2, until no damped
    step keeps the SSE within 1e-15 of its value, or for MAX_ITERATIONS steps.
    Constant scores or ratings give the constant map; fewer than five points,
    or a fit worse than the straight line, give the line.
    """
    x = np.asarray(predictions, dtype=np.float64)
    y = np.asarray(ratings, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1 or not np.isfinite([x, y]).all():
        raise DomainError("predictions and ratings must be finite, 1-d and the same length")
    if x.size < MIN_GROUP_SIZE:
        raise DomainError(f"need at least {MIN_GROUP_SIZE} pairs to fit, got {x.size}")

    if (span := np.ptp(x)) == 0.0 or np.ptp(y) == 0.0:  # nothing to regress on, or to
        return LogisticFit((0.0, 1.0, 0.0, 0.0, float(np.mean(y))), fallback=True,
                           degenerate=bool(span == 0.0))

    (slope, intercept), *_ = np.linalg.lstsq(np.column_stack([x, np.ones_like(x)]), y, rcond=None)
    linear = (0.0, 1.0, 0.0, float(slope), float(intercept))
    linear_sse = float(np.sum((_logistic(x, *linear) - y) ** 2))
    if x.size < 5:  # fewer points than parameters: only the straight line is identifiable
        return LogisticFit(linear, fallback=True)

    lo, hi = np.array([0.5 / span, x.min() - span]), np.array([100.0 / span, x.max() + span])
    b2, b3 = np.meshgrid(np.geomspace(lo[0], hi[0], 24), np.linspace(lo[1], hi[1], 24),
                         indexing="ij")
    line = np.linalg.qr(np.column_stack([np.ones_like(x), x]))[0]
    s = _logistic(x, 1.0, b2.reshape(-1, 1), b3.reshape(-1, 1), 0.0, 0.0)
    s, rest = s - (s @ line) @ line.T, y - line @ (line.T @ y)  # both off the straight line
    gain = ((s @ rest) ** 2 / np.maximum(np.einsum("ij,ij->i", s, s), 1e-300)).reshape(4, 144)
    runs = [_refine(x, y, *_solve_linear(x, y, b2.flat[i], b3.flat[i]), lo, hi, steps=5)
            for i in np.argmax(gain, axis=1) + 144 * np.arange(4)]
    params, sse, _ = _refine(x, y, *min(runs, key=lambda run: run[1])[:2], lo, hi)
    fit = LogisticFit(tuple(float(p) for p in params))
    return fit if sse <= linear_sse else LogisticFit(linear, fallback=True)  # a NaN SSE too


class NearConstantInputWarning(RuntimeWarning):
    """A correlation input varies only at roundoff scale around its mean."""


def _average_ranks(a: np.ndarray) -> np.ndarray:
    """1-based ranks; each run of tied values gets the mean of its ranks."""
    order = np.argsort(a, kind="mergesort")
    bounds = np.flatnonzero(np.r_[True, a[order][1:] != a[order][:-1], True])
    return np.repeat(0.5 * (bounds[:-1] + bounds[1:] + 1), np.diff(bounds))[np.argsort(order)]


def plcc(mapped: Sequence[float], ratings: Sequence[float]) -> float:
    """Pearson linear correlation as scipy.stats.pearsonr forms it (centred vectors
    scaled by their largest magnitude before the norm); 0.0 when either side is constant."""
    a = np.asarray(mapped, dtype=np.float64)
    b = np.asarray(ratings, dtype=np.float64)
    if np.ptp(a) == 0.0 or np.ptp(b) == 0.0:
        return 0.0
    am, bm = a - a.mean(), b - b.mean()
    na, nb = (abs(v).max() * np.sqrt(np.sum((v / abs(v).max()) ** 2)) for v in (am, bm))
    if na < 2.0**-39 * abs(a.mean()) or nb < 2.0**-39 * abs(b.mean()):  # 2**-39 = eps**0.75
        warnings.warn("An input array is nearly constant; the computed correlation "
                      "coefficient may be inaccurate.", NearConstantInputWarning)
    return float(np.clip(np.dot(am / na, bm / nb), -1.0, 1.0))


def srocc(predictions: Sequence[float], ratings: Sequence[float]) -> float:
    """Spearman rank correlation on the raw scores; 0.0 when degenerate."""
    a = np.asarray(predictions, dtype=np.float64)
    b = np.asarray(ratings, dtype=np.float64)
    if np.ptp(a) == 0.0 or np.ptp(b) == 0.0:
        return 0.0
    return float(np.corrcoef(_average_ranks(a), _average_ranks(b))[1, 0])


def rmse(mapped: Sequence[float], ratings: Sequence[float]) -> float:
    a = np.asarray(mapped, dtype=np.float64)
    b = np.asarray(ratings, dtype=np.float64)
    return float(np.sqrt(np.mean((a - b) ** 2)))


@dataclass(frozen=True)
class GroupReport:
    """Agreement statistics for one content or distortion group."""

    name: str
    size: int
    plcc: float
    srocc: float
    rmse: float
    low_sample: bool = False
    degenerate: bool = False


@dataclass(frozen=True)
class EvalReport:
    """Overall agreement statistics plus the per-content and per-distortion breakdowns."""

    size: int
    plcc: float
    srocc: float
    rmse: float
    fit_params: tuple[float, float, float, float, float]
    fit_fallback: bool
    degenerate: bool
    fit_scope: str = "global"
    by_content: tuple[GroupReport, ...] = field(default_factory=tuple)
    by_distortion: tuple[GroupReport, ...] = field(default_factory=tuple)
    excluded_groups: tuple[str, ...] = field(default_factory=tuple)

    def to_dict(self) -> dict:
        """The per-metric block of a ``pcqa eval`` report."""
        fit = {"params": list(self.fit_params), "fallback": self.fit_fallback,
               "scope": self.fit_scope}
        return {
            "overall": {"size": self.size, "plcc": self.plcc, "srocc": self.srocc,
                        "rmse": self.rmse, "fit": fit, "degenerate": self.degenerate},
            "by_content": [asdict(g) for g in self.by_content],
            "by_distortion": [asdict(g) for g in self.by_distortion],
            "excluded_groups": list(self.excluded_groups),
        }


def _agreement(x: np.ndarray, y: np.ndarray, params: tuple[float, ...]) -> dict:
    """Size, PLCC, SROCC and RMSE of one pool under the fitted map's parameters."""
    mapped = _logistic(x, *params)
    return {"size": int(x.size), "plcc": plcc(mapped, y), "srocc": srocc(x, y),
            "rmse": rmse(mapped, y)}


def evaluate_scores(predictions: Sequence[float], ratings: Sequence[float]) -> EvalReport:
    """Fit the regression and report PLCC / SROCC / RMSE for one pool."""
    x = np.asarray(predictions, dtype=np.float64)
    y = np.asarray(ratings, dtype=np.float64)
    fit = logistic_fit(x, y)
    return EvalReport(**_agreement(x, y, fit.params), fit_params=fit.params,
                      fit_fallback=fit.fallback, degenerate=fit.degenerate)


def evaluate_records(records: Sequence[Mapping[str, object]], *,
                     fit_scope: str = "global") -> EvalReport:
    """Evaluate scored records overall, by content and by distortion.

    Each record needs ``score`` and ``mos`` keys; its optional ``content``
    and ``distortion`` keys place it in one group on each axis (an absent or
    empty key places it in none). Groups come in first-seen order. With
    ``fit_scope="global"`` the one overall regression maps every group; with
    ``"per-group"`` each group is refit before its statistics are taken.
    Groups smaller than MIN_GROUP_SIZE are left out and named, sorted, in
    ``excluded_groups``.
    """
    check_choice("fit scope", fit_scope, FIT_SCOPES)
    if not records:
        raise DomainError("no records to evaluate")

    x_all, y_all = [], []
    labels: dict[str, list[str]] = {"content": [], "distortion": []}
    for i, rec in enumerate(records):
        try:
            x_all.append(float(rec["score"]))  # type: ignore[arg-type]
            y_all.append(float(rec["mos"]))  # type: ignore[arg-type]
        except (KeyError, TypeError, ValueError) as exc:
            raise DomainError(f"record {i}: missing or non-numeric score/mos") from exc
        for axis, names in labels.items():
            names.append(str(rec.get(axis, "")))
    x_arr = np.asarray(x_all)
    y_arr = np.asarray(y_all)

    overall = evaluate_scores(x_arr, y_arr)
    excluded: set[str] = set()

    def groups(names: list[str]) -> tuple[GroupReport, ...]:
        out = []
        for name in filter(None, dict.fromkeys(names)):
            mask = np.array([lbl == name for lbl in names])
            gx, gy = x_arr[mask], y_arr[mask]
            if gx.size < MIN_GROUP_SIZE:
                excluded.add(name)
                continue
            params = logistic_fit(gx, gy).params if fit_scope == "per-group" \
                else overall.fit_params
            # A fit is degenerate exactly when its scores are constant, and
            # the overall scores are constant only if every group's are.
            out.append(GroupReport(
                name=name, **_agreement(gx, gy, params), low_sample=gx.size < SMALL_GROUP_SIZE,
                degenerate=bool(np.ptp(gx) == 0.0),
            ))
        return tuple(out)

    return replace(overall, fit_scope=fit_scope, by_content=groups(labels["content"]),
                   by_distortion=groups(labels["distortion"]),
                   excluded_groups=tuple(sorted(excluded)))
