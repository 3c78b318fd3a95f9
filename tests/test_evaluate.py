import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import stats

from pcqa import DomainError, evaluate_records, evaluate_scores, logistic_fit
from pcqa.evaluate import NearConstantInputWarning, plcc, rmse, srocc

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
