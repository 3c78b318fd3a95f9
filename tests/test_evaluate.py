import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import stats

from pcqa import DomainError, evaluate_records, evaluate_scores, logistic_fit
from pcqa import evaluate as evaluate_module
from pcqa.evaluate import MAX_ITERATIONS, NearConstantInputWarning, plcc, rmse, srocc

from golden import LOGISTIC_RTOL, logistic_records
from oracles import spearman as spearman_oracle


def noisy_monotone(n, seed, noise=0.15):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0, 1, n)
    y = 1.0 + 4.0 * x + rng.normal(0, noise, n)
    return x, y


class TestLogisticFit:
    def test_perfect_linear_predictor(self):
        x = np.linspace(0.1, 0.9, 30)
        y = 2.0 * x + 1.0
        report = evaluate_scores(x, y)
        assert report.plcc == pytest.approx(1.0, abs=1e-6)
        assert report.srocc == pytest.approx(1.0, abs=1e-12)
        assert report.rmse == pytest.approx(0.0, abs=1e-6)

    def test_reversed_predictor_is_rescued_by_the_fit(self):
        x = np.linspace(0.1, 0.9, 40)
        y = 5.0 - 4.0 * x
        report = evaluate_scores(x, y)
        assert report.plcc >= 0.999
        assert report.srocc == pytest.approx(-1.0, abs=1e-12)

    def test_sigmoid_shaped_relation(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(-3, 3, 200)
        y = 1.0 + 4.0 / (1.0 + np.exp(-2.0 * x))
        report = evaluate_scores(x, y)
        assert report.plcc >= 0.999
        assert not report.fit_fallback

    def test_constant_predictor_degenerates(self):
        x = np.full(10, 0.5)
        y = np.linspace(1, 5, 10)
        fit = logistic_fit(x, y)
        assert fit.degenerate
        assert np.allclose(fit(x), y.mean())
        report = evaluate_scores(x, y)
        assert report.plcc == 0.0
        assert report.srocc == 0.0

    def test_too_few_pairs(self):
        with pytest.raises(DomainError, match="at least 3"):
            logistic_fit([1.0, 2.0], [1.0, 2.0])

    def test_shape_mismatch(self):
        with pytest.raises(DomainError, match="same length"):
            logistic_fit([1.0, 2.0, 3.0], [1.0, 2.0])

    def test_fit_params_have_five_entries(self):
        x, y = noisy_monotone(50, seed=1)
        fit = logistic_fit(x, y)
        assert len(fit.params) == 5
        assert np.isfinite(fit.params).all()

    def test_non_finite_input_is_rejected(self):
        with pytest.raises(DomainError, match="finite"):
            logistic_fit([1.0, 2.0, np.nan, 4.0, 5.0], [1.0, 2.0, 3.0, 4.0, 5.0])

    def test_constant_ratings_fit_the_constant_map_without_warnings(self):
        x = np.linspace(0.1, 0.6, 6)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = evaluate_scores(x, np.full(6, 3.0))
        assert (report.plcc, report.srocc, report.rmse) == (0.0, 0.0, 0.0)
        assert report.fit_fallback and not report.degenerate

    def test_fit_repeats_under_one_ulp_nudges(self):
        # The golden logistic table: the fit runs to its minimum, so moving every
        # rating (or score) by one ulp moves the outputs by rounding only. The
        # golden file compares these blocks at LOGISTIC_RTOL.
        records = logistic_records()
        x = np.array([r["score"] for r in records])
        y = np.array([r["mos"] for r in records])
        base = evaluate_scores(x, y)
        assert not base.fit_fallback
        for nx, ny in ((x, np.nextafter(y, np.inf)), (x, np.nextafter(y, -np.inf)),
                       (np.nextafter(x, np.inf), y)):
            got = evaluate_scores(nx, ny)
            for want, have in ((base.fit_params, got.fit_params), (base.plcc, got.plcc),
                               (base.rmse, got.rmse)):
                np.testing.assert_allclose(have, want, rtol=LOGISTIC_RTOL, atol=0)


def study_table(seed, n=50):
    """A seeded n-record table: ratings follow a steep logistic, a straight line,
    a concave curve or a gentle logistic on a 0-40 score scale, plus noise."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(0, 1, n)
    if seed % 4 == 0:
        y = 1 + 4 / (1 + np.exp(-8 * (x - 0.5))) + rng.normal(0, 0.3, n)
    elif seed % 4 == 1:
        y = 1 + 4 * x + rng.normal(0, 0.4, n)
    elif seed % 4 == 2:
        y = 5 - 3 * x ** 2 + rng.normal(0, 0.3, n)
    else:
        x = 40 * x
        y = 1 + 4 / (1 + np.exp(-(x - 25) / 3)) + rng.normal(0, 0.5, n)
    return x, y


def curve_fit_params(x, y):
    """The fit `pcqa eval` made before: scipy's curve_fit from a sign-aware guess,
    the straight line when it fails or ends worse than the line."""
    from scipy import optimize
    line = np.polyfit(x, y, 1)
    line_params = (0.0, 1.0, 0.0, *line)
    guess = (np.sign(np.corrcoef(x, y)[0, 1]) * np.ptp(y), 1 / np.std(x), np.median(x), 0.0,
             np.mean(y))
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", optimize.OptimizeWarning)
            params, _ = optimize.curve_fit(evaluate_module._logistic, x, y, p0=guess, maxfev=20000)
    except RuntimeError:
        return line_params
    return min((tuple(params), line_params), key=lambda p: sse(x, y, p))


def sse(x, y, params):
    return float(np.sum((y - evaluate_module._logistic(x, *params)) ** 2))


def test_fit_is_at_least_as_good_as_curve_fit(monkeypatch):
    # On 40 seeded 50-record tables the fit's SSE is never above curve_fit's,
    # except where curve_fit's slope or knee lies outside the box the fit keeps
    # (b2 * ptp(x) in [0.5, 100], the knee within one score range): there the
    # map is a near-cubic, a near-step or a near-exponential. Each run that
    # logistic_fit keeps converges before the cap.
    kept = []
    refine = evaluate_module._refine

    def counting(*args, **kwargs):
        run = refine(*args, **kwargs)
        if not kwargs:  # the run that is kept, not a 5-step start
            kept.append(run[2])
        return run

    monkeypatch.setattr(evaluate_module, "_refine", counting)
    outside = []
    for seed in range(40):
        x, y = study_table(seed)
        ours, theirs = logistic_fit(x, y).params, curve_fit_params(x, y)
        if sse(x, y, ours) > sse(x, y, theirs):
            span = np.ptp(x)
            b2, b3 = abs(theirs[1]) * span, theirs[2]
            assert not (0.5 <= b2 <= 100 and x.min() - span <= b3 <= x.max() + span), seed
            outside.append(seed)
    assert len(kept) == 40 and max(kept) < MAX_ITERATIONS
    assert set(outside) <= {2}  # here curve_fit's knee sits two score ranges above the scores


class TestCorrelations:
    def test_srocc_invariant_under_monotone_transforms(self):
        x, y = noisy_monotone(60, seed=2)
        base = srocc(x, y)
        assert srocc(np.exp(x), y) == pytest.approx(base, abs=1e-12)
        assert srocc(x**3 + 7.0, y) == pytest.approx(base, abs=1e-12)

    def test_srocc_with_ties_matches_rank_oracle(self):
        x = np.array([1.0, 2.0, 2.0, 3.0, 4.0, 4.0, 4.0, 5.0])
        y = np.array([1.2, 1.9, 2.4, 2.9, 3.3, 4.6, 4.1, 4.9])
        assert srocc(x, y) == pytest.approx(spearman_oracle(x, y), abs=1e-12)

    def test_plcc_matches_manual_pearson(self):
        x, y = noisy_monotone(40, seed=3)
        manual = np.corrcoef(x, y)[0, 1]
        assert plcc(x, y) == pytest.approx(manual, abs=1e-12)

    def test_zero_variance_yields_zero(self):
        flat = np.ones(8)
        vary = np.arange(8.0)
        assert plcc(flat, vary) == 0.0
        assert srocc(flat, vary) == 0.0
        assert srocc(vary, flat) == 0.0

    @settings(max_examples=100)
    @given(data=st.data(), n=st.integers(min_value=3, max_value=300),
           values=st.sampled_from([
               st.integers(-3, 3).map(float),  # few distinct values: many ties
               st.floats(-1e6, 1e6, allow_nan=False, allow_subnormal=False),
           ]))
    def test_numpy_correlations_match_scipy(self, data, n, values):
        x, y = (data.draw(arrays(np.float64, n, elements=values)) for _ in range(2))
        assume(np.ptp(x) > 0.0 and np.ptp(y) > 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # near-constant draws
            assert plcc(x, y) == pytest.approx(stats.pearsonr(x, y)[0], rel=0, abs=1e-12)
            assert srocc(x, y) == pytest.approx(stats.spearmanr(x, y)[0], rel=0, abs=1e-12)

    def test_near_constant_input_warns_as_scipy_does(self):
        # Spread at roundoff scale around a large mean: the product of the
        # centred vectors is mostly rounding error, so the value is flagged.
        near = 1e6 + np.arange(6) * 1e-10
        vary = np.arange(6.0)
        with pytest.warns(stats.NearConstantInputWarning):
            stats.pearsonr(near, vary)
        with pytest.warns(NearConstantInputWarning, match="nearly constant"):
            plcc(near, vary)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            plcc(near - 1e6, vary)  # the same spread around zero is fine
            srocc(near, vary)  # ranks are never near constant

    def test_rmse_formula(self):
        a = np.array([1.0, 2.0, 3.0])
        b = np.array([1.0, 2.0, 5.0])
        assert rmse(a, b) == pytest.approx(np.sqrt(4.0 / 3.0), rel=1e-12)


class TestEvaluateRecords:
    @staticmethod
    def records_for(groups, seed=4, per_group=8, noise=0.1, axis="content"):
        rng = np.random.default_rng(seed)
        out = []
        for g, name in enumerate(groups):
            x = rng.uniform(0, 1, per_group)
            y = 1.0 + 4.0 * x + rng.normal(0, noise, per_group)
            out.extend(
                {"score": float(xi), "mos": float(yi), axis: name}
                for xi, yi in zip(x, y)
            )
        return out

    def test_groups_reported_in_first_seen_order(self):
        records = self.records_for(["b", "a", "c"])
        report = evaluate_records(records)
        assert [g.name for g in report.by_content] == ["b", "a", "c"]
        assert report.by_distortion == ()
        assert report.size == 24

    def test_each_record_joins_one_group_per_axis(self):
        records = self.records_for(["a", "b"])
        for i, rec in enumerate(records):
            rec["distortion"] = f"d{i % 4}"
        report = evaluate_records(records)
        assert [g.name for g in report.by_content] == ["a", "b"]
        assert [g.name for g in report.by_distortion] == ["d0", "d1", "d2", "d3"]
        assert all(g.size == 4 and g.low_sample for g in report.by_distortion)

    def test_small_groups_are_flagged_and_tiny_ones_excluded(self):
        records = self.records_for(["big"], per_group=10)
        records += self.records_for(["small"], seed=5, per_group=4)
        records += self.records_for(["tiny"], seed=6, per_group=2)
        records += self.records_for(["rare"], seed=7, per_group=1, axis="distortion")
        report = evaluate_records(records)
        by_name = {g.name: g for g in report.by_content}
        assert not by_name["big"].low_sample
        assert by_name["small"].low_sample
        assert "tiny" not in by_name
        assert report.by_distortion == ()
        assert report.excluded_groups == ("rare", "tiny")  # both axes, sorted

    def test_global_scope_shares_one_regression(self):
        records = self.records_for(["a", "b"], noise=0.05)
        report = evaluate_records(records, fit_scope="global")
        assert report.fit_scope == "global"
        for group in report.by_content:
            assert group.plcc > 0.9

    def test_per_group_scope_refits_each_group(self):
        rng = np.random.default_rng(7)
        records = []
        # Two groups whose score scales differ wildly; a shared fit cannot
        # track both, separate fits can.
        for name, scale in (("lo", 1.0), ("hi", 1000.0)):
            x = rng.uniform(0, 1, 12)
            y = 1.0 + 4.0 * x
            records.extend(
                {"score": float(xi * scale + (500.0 if name == "hi" else 0.0)),
                 "mos": float(yi), "distortion": name}
                for xi, yi in zip(x, y)
            )
        per_group = evaluate_records(records, fit_scope="per-group")
        assert all(g.plcc > 0.999 for g in per_group.by_distortion)

    def test_ungrouped_records_have_no_groups(self):
        records = [{"score": s, "mos": m}
                   for s, m in zip([0.1, 0.5, 0.9, 0.3], [1.0, 3.0, 5.0, 2.0])]
        report = evaluate_records(records)
        assert report.by_content == report.by_distortion == ()
        assert report.excluded_groups == ()
        assert report.plcc > 0.99

    def test_bad_records_rejected(self):
        with pytest.raises(DomainError, match="record 1"):
            evaluate_records([{"score": 1.0, "mos": 2.0},
                              {"score": 1.0}, {"score": 2.0, "mos": 3.0}])
        with pytest.raises(DomainError, match="record 0"):
            evaluate_records([{"score": "wat", "mos": 2.0}])
        with pytest.raises(DomainError, match="no records"):
            evaluate_records([])

    def test_unknown_fit_scope(self):
        records = self.records_for(["a"])
        with pytest.raises(DomainError, match="scope"):
            evaluate_records(records, fit_scope="weekly")

    def test_constant_group_is_marked_degenerate(self):
        records = self.records_for(["ok"], per_group=8)
        records += [{"score": 0.7, "mos": float(m), "content": "flat"}
                    for m in (1, 2, 3, 4)]
        report = evaluate_records(records)
        by_name = {g.name: g for g in report.by_content}
        assert by_name["flat"].degenerate
        assert by_name["flat"].plcc == 0.0
        assert not by_name["ok"].degenerate

    def test_report_round_trips_to_dict(self):
        records = self.records_for(["a", "b"])
        report = evaluate_records(records)
        payload = report.to_dict()
        assert set(payload) == {"overall", "by_content", "by_distortion", "excluded_groups"}
        assert payload["overall"]["size"] == report.size
        assert payload["overall"]["fit"]["scope"] == "global"
        assert len(payload["overall"]["fit"]["params"]) == 5
        assert len(payload["by_content"]) == 2
        assert payload["by_content"][0]["name"] == "a"
        assert payload["by_distortion"] == []


def test_shuffled_predictor_correlates_with_nothing():
    rng = np.random.default_rng(99)
    mos = rng.uniform(1.0, 5.0, 200)
    scores = mos + rng.normal(0.0, 0.2, 200)
    near_zero = 0
    for seed in range(100):
        shuffled = np.random.default_rng(seed).permutation(scores)
        if abs(srocc(shuffled, mos)) < 0.2:
            near_zero += 1
    assert near_zero >= 99
