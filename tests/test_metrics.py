import itertools
import math
import subprocess
import sys
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import stdtrit
from scipy.stats import rankdata
from scipy.stats import t as t_dist

from semimpute.dataset import Dataset, VariableSpec
from semimpute.errors import InputError
from semimpute.metrics import (
    EXACT_WILCOXON_MAX_N,
    T975_SERIES_DF,
    _t975,
    effect_size,
    evaluate,
    mape,
    r2,
    report_to_csv,
    report_to_dict,
    rmse,
    wasserstein_1d,
    wilcoxon_signed_rank,
)


def test_rmse_basic_values():
    assert rmse([0.0, 0.0], [0.0, 0.0]) == 0.0
    assert rmse([1.0, 1.0], [0.0, 0.0]) == 1.0
    assert rmse([3.0], [0.0]) == 3.0
    assert rmse([1.0, -1.0], [0.0, 0.0]) == 1.0


def test_rmse_rejects_mismatched_or_empty():
    with pytest.raises(InputError):
        rmse([1.0], [1.0, 2.0])
    with pytest.raises(InputError):
        rmse([], [])


def test_mape_hand_example_with_zero_skipping():
    result = mape([110.0], [100.0])
    assert result.percent == 10.0
    assert result.skipped == 0
    # The zero-truth pair drops out; only the 10% error remains.
    result = mape([110.0, 5.0], [100.0, 0.0])
    assert result.percent == 10.0
    assert result.skipped == 1


def test_mape_all_zero_truth_is_an_error():
    with pytest.raises(InputError):
        mape([1.0, 2.0], [0.0, 0.0])


def test_r2_worked_example_and_bounds():
    assert r2([1.0, -1.0], [-1.0, 1.0]) == -3.0
    assert r2([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 1.0


def test_r2_constant_truth_is_an_error():
    with pytest.raises(InputError):
        r2([1.0, 2.0], [5.0, 5.0])


def test_wasserstein_matches_hand_values():
    # Equal distributions at different multiplicities still coincide.
    assert wasserstein_1d([0.0, 1.0], [0.0, 0.0, 1.0, 1.0]) == 0.0
    assert wasserstein_1d([0.0], [1.0]) == 1.0
    assert wasserstein_1d([0.0, 0.0], [1.0, 1.0]) == 1.0


def test_wasserstein_metric_properties():
    rng = np.random.default_rng(0)
    a = rng.normal(size=40)
    b = rng.normal(size=25) + 0.3
    assert wasserstein_1d(a, a) < 1e-15
    assert abs(wasserstein_1d(a, b) - wasserstein_1d(b, a)) < 1e-12
    # Translating both samples together changes nothing.
    assert abs(wasserstein_1d(a + 5.0, b + 5.0) - wasserstein_1d(a, b)) < 1e-9
    # Shifting one sample by c costs at most |c| extra.
    c = 0.7
    assert wasserstein_1d(a, a + c) == pytest.approx(c, abs=1e-9)


def test_wasserstein_against_quantile_form_on_equal_sizes():
    rng = np.random.default_rng(1)
    a = rng.normal(size=64)
    b = rng.normal(size=64) * 2.0
    expected = float(np.mean(np.abs(np.sort(a) - np.sort(b))))
    assert wasserstein_1d(a, b) == pytest.approx(expected, abs=1e-9)


def test_effect_size_reference_values():
    assert round(effect_size(20992.5, 1000), 4) == 663.8411
    assert round(effect_size(4631.5, 1000), 4) == 146.4609
    with pytest.raises(InputError):
        effect_size(1.0, 0)


def test_wilcoxon_three_positive_pairs():
    # All three differences positive with distinct magnitudes: W = 6 and
    # the exact two-sided p is 2/8.
    result = wilcoxon_signed_rank([1.1, 2.2, 3.3], [1.0, 2.0, 3.0])
    assert result.statistic == 6.0
    assert result.p_value == 0.25
    assert result.n_pairs == 3
    assert result.zeros_dropped == 0


def test_wilcoxon_drops_zero_differences():
    result = wilcoxon_signed_rank([1.0, 2.5, 3.0], [1.0, 2.0, 3.0])
    assert result.zeros_dropped == 2
    assert result.n_pairs == 1
    assert result.statistic == 1.0


def test_wilcoxon_identical_inputs_degenerate():
    result = wilcoxon_signed_rank([4.0, 4.0], [4.0, 4.0])
    assert result.statistic == 0.0
    assert result.p_value == 1.0
    assert result.n_pairs == 0
    assert result.zeros_dropped == 2


def test_wilcoxon_effect_size_uses_supplied_sample_size():
    result = wilcoxon_signed_rank([1.1, 2.2], [1.0, 2.0], sample_size=400)
    assert result.effect_size == result.statistic / 20.0


def test_wilcoxon_ci_matches_t_interval():
    pred = np.array([1.0, 2.0, 3.0])
    result = wilcoxon_signed_rank(pred, [0.0, 0.0, 0.0])
    half = float(t_dist.ppf(0.975, 2)) * pred.std(ddof=1) / math.sqrt(3)
    assert result.ci_lower == pytest.approx(2.0 - half, abs=1e-12)
    assert result.ci_upper == pytest.approx(2.0 + half, abs=1e-12)


def test_t975_matches_stdtrit():
    # Every df the finite sum serves, then the series on a stride to 1e5.
    dfs = np.concatenate([np.arange(1, T975_SERIES_DF + 1), np.arange(T975_SERIES_DF, 10**5 + 1, 97)])
    got = np.array([_t975(int(df)) for df in dfs])
    rel = np.abs(got / stdtrit(dfs, 0.975) - 1.0)
    assert rel.max() <= 5e-14, f"df {dfs[rel.argmax()]}: {rel.max():.2e}"


def test_t975_matches_a_40_digit_root():
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        for df in [*range(1, 61), T975_SERIES_DF - 1, T975_SERIES_DF]:
            nu = mpmath.mpf(df)
            # P(T > t) = I_{nu / (nu + t^2)}(nu / 2, 1 / 2) / 2 = 0.025
            root = mpmath.findroot(
                lambda t: mpmath.betainc(nu / 2, 0.5, 0, nu / (nu + t * t), regularized=True) - mpmath.mpf("0.05"),
                mpmath.mpf(2),
            )
            assert abs(mpmath.mpf(_t975(df)) / root - 1) <= 2e-14, df


@given(st.integers(1, 10**6 - 1))
@example(1)
@example(T975_SERIES_DF - 1)
@settings(max_examples=200, deadline=None)
def test_t975_falls_with_df_and_stays_above_the_normal_quantile(df):
    assert _t975(df) > _t975(df + 1) > NormalDist().inv_cdf(0.975)


_NO_SCIPY_PROBE = """
import sys
from semimpute.metrics import wilcoxon_signed_rank
result = wilcoxon_signed_rank([1.0, 2.0, 3.5, 0.25], [0.0, 0.5, 1.0, 1.0])
assert result.ci_lower < result.ci_upper, result
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_wilcoxon_imports_no_scipy(tmp_path, child_env):
    proc = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY_PROBE],
        cwd=tmp_path,
        env=child_env(),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def _brute_force_two_sided_p(diffs):
    """Enumerate every sign assignment of the midranked magnitudes."""
    ranks = rankdata(np.abs(diffs))
    w_obs = ranks[np.asarray(diffs) > 0].sum()
    n = len(diffs)
    stats = []
    for signs in itertools.product((0, 1), repeat=n):
        stats.append(sum(r for s, r in zip(signs, ranks) if s))
    stats = np.asarray(stats)
    denom = 2**n
    p_le = np.sum(stats <= w_obs + 1e-9) / denom
    p_ge = np.sum(stats >= w_obs - 1e-9) / denom
    return min(1.0, 2.0 * min(p_le, p_ge))


@given(
    st.lists(
        st.integers(min_value=-9, max_value=9).filter(lambda v: v != 0),
        min_size=1,
        max_size=10,
    )
)
@settings(max_examples=60, deadline=None)
def test_wilcoxon_exact_p_equals_enumeration(diff_ints):
    diffs = [float(v) for v in diff_ints]
    truth = list(range(len(diffs)))
    pred = [t + d for t, d in zip(truth, diffs)]
    result = wilcoxon_signed_rank(pred, truth)
    assert result.p_value == pytest.approx(_brute_force_two_sided_p(diffs), abs=1e-12)


def test_wilcoxon_normal_tail_tracks_exact_near_cutoff():
    # Just above the exact-enumeration cutoff the normal path takes over;
    # it should sit within 0.01 of enumeration at the cutoff size.
    rng = np.random.default_rng(7)
    for trial in range(5):
        n = EXACT_WILCOXON_MAX_N
        diffs = rng.normal(size=n)
        diffs[diffs == 0] = 1.0
        truth = np.zeros(n)
        exact = wilcoxon_signed_rank(diffs, truth).p_value
        from semimpute.metrics import _normal_two_sided_p

        ranks = rankdata(np.abs(diffs))
        w = float(ranks[diffs > 0].sum())
        approx = _normal_two_sided_p(np.asarray(ranks, dtype=np.float64), w)
        assert abs(exact - approx) < 0.01


def _eval_pair(scale=1.0):
    rng = np.random.default_rng(3)
    n = 60
    truth_vals = np.column_stack(
        [rng.normal(size=n) * scale, rng.normal(size=n) + 5.0]
    )
    imput_vals = truth_vals + rng.normal(size=(n, 2)) * 0.1
    specs = (
        VariableSpec("alpha", "continuous"),
        VariableSpec("beta", "continuous"),
    )
    complete = np.ones((n, 2), dtype=bool)
    truth = Dataset(values=truth_vals, mask=complete, specs=specs)
    imputed = Dataset(values=imput_vals, mask=complete, specs=specs)
    mask = np.zeros((n, 2), dtype=bool)
    mask[: n // 2, 0] = True
    mask[n // 2 :, 1] = True
    return imputed, truth, mask


def test_evaluate_reports_per_variable_and_aggregate():
    imputed, truth, mask = _eval_pair()
    report = evaluate(imputed, truth, mask, sample_size=60, metadata={"method": "x"})
    assert [v.name for v in report.per_variable] == ["alpha", "beta"]
    for v in report.per_variable:
        assert v.n_cells == 30
        assert v.rmse > 0
        assert np.isfinite(v.wilcoxon.p_value)
    assert report.aggregate.rmse == pytest.approx(
        np.mean([v.rmse for v in report.per_variable])
    )
    assert report.metadata["method"] == "x"
    assert report.metadata["sample_size"] == 60


def test_evaluate_excludes_unmasked_variables():
    imputed, truth, mask = _eval_pair()
    mask[:, 1] = False
    report = evaluate(imputed, truth, mask, sample_size=60)
    assert [v.name for v in report.per_variable] == ["alpha"]
    assert report.metadata["excluded_variables"] == ["beta"]


def test_evaluate_flags_undefined_metrics_with_nan():
    n = 8
    specs = (VariableSpec("flat", "continuous"),)
    complete = np.ones((n, 1), dtype=bool)
    truth = Dataset(values=np.zeros((n, 1)), mask=complete, specs=specs)
    imputed = Dataset(values=np.ones((n, 1)) * 0.5, mask=complete, specs=specs)
    mask = complete.copy()
    report = evaluate(imputed, truth, mask, sample_size=n)
    row = report.per_variable[0]
    assert math.isnan(row.mape_pct)
    assert math.isnan(row.r2)
    notes = " ".join(report.metadata["notes"])
    assert "MAPE undefined" in notes and "R2 undefined" in notes


def test_evaluate_requires_some_masked_cells():
    imputed, truth, mask = _eval_pair()
    with pytest.raises(InputError):
        evaluate(imputed, truth, np.zeros_like(mask), sample_size=60)


def test_evaluate_rejects_shape_mismatch():
    imputed, truth, mask = _eval_pair()
    with pytest.raises(InputError):
        evaluate(imputed, truth, mask[:, :1], sample_size=60)


def test_report_round_trips_to_dict_and_csv():
    imputed, truth, mask = _eval_pair()
    report = evaluate(imputed, truth, mask, sample_size=60)
    d = report_to_dict(report)
    assert {v["name"] for v in d["per_variable"]} == {"alpha", "beta"}
    assert set(d["aggregate"]) == {"rmse", "mape_pct", "r2", "wasserstein"}
    assert d["per_variable"][0]["wilcoxon"]["n_pairs"] > 0

    text = report_to_csv(report)
    lines = text.strip().split("\n")
    assert lines[0].startswith("variable,rmse,")
    assert len(lines) == 4  # header, two variables, aggregate
    assert lines[-1].startswith("AGGREGATE,")
    # Floats are serialized with repr so the CSV survives a round trip.
    first_rmse = float(lines[1].split(",")[1])
    assert first_rmse == report.per_variable[0].rmse
