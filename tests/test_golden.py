"""Every report of the golden `graphsim`, `run_baselines`, keypoint,
distortion and evaluation sweeps equals the committed one.

The sweep and the comparison rule live in golden.py; after a deliberate
change of values, `python tests/golden.py --update` rewrites the file."""

import golden


def _assert_sweep_equals_the_golden_file(sweep):
    want, got = golden.load(sweep), golden.SWEEPS[sweep]()
    assert sorted(got) == sorted(want)
    differing = {name: golden.differences(want[name], got[name])[:3]
                 for name in want if golden.differences(want[name], got[name])}
    assert not differing, (len(differing), dict(list(differing.items())[:5]))


def test_graphsim_reports_equal_the_golden_file():
    _assert_sweep_equals_the_golden_file("graphsim")


def test_baseline_reports_equal_the_golden_file():
    _assert_sweep_equals_the_golden_file("baselines")


def test_keypoints_equal_the_golden_file():
    _assert_sweep_equals_the_golden_file("resample")


def test_distortions_equal_the_golden_file():
    _assert_sweep_equals_the_golden_file("distortions")


def test_evaluation_equals_the_golden_file():
    _assert_sweep_equals_the_golden_file("evaluate")


def test_the_comparison_is_exact_on_ints_and_relative_on_floats():
    rtol = golden.RTOL
    assert golden.differences({"a": [1, 2.0]}, {"a": [1, 2.0 * (1 + rtol / 2)]}) == []
    assert golden.differences({"a": [1, 2.0]}, {"a": [1, 2.0 * (1 + 4 * rtol)]})[0][0] == "/a[1]"
    assert golden.differences({"n": 3}, {"n": 4}) == [("/n", float("inf"))]
    assert golden.differences({"n": 3}, {"n": 3.0}) == [("/n", float("inf"))]
    assert golden.differences({"v": [1, 2]}, {"v": [1]}) == [("/v", float("inf"))]
    assert golden.differences({"v": 1}, {"w": 1}) == [("", float("inf"))]
