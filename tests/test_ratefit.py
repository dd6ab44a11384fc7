import math
import warnings

import numpy as np
import pytest

from vvlab.ratefit import _percentile, fit_double_exponential_form, fit_rate


class TestExactRecovery:
    def test_pure_power_law(self):
        nus = np.geomspace(1e-5, 1e-2, 8)
        errs = 3.7 * nus ** 0.5
        fit = fit_rate(nus, errs)
        assert fit.exponent == pytest.approx(0.5, abs=1e-10)
        assert math.exp(fit.intercept) == pytest.approx(3.7, rel=1e-9)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
        assert fit.ci_low <= 0.5 <= fit.ci_high

    def test_transformed_coordinate(self):
        nus = np.geomspace(1e-6, 1e-3, 6)
        vals = 0.9 * (nus / np.abs(np.log(nus))) ** 0.4
        fit = fit_double_exponential_form(nus, vals)
        assert fit.transformed
        assert fit.exponent == pytest.approx(0.4, abs=1e-10)

    def test_untransformed_fit_of_transformed_data_biased(self):
        # the log correction bends the plain log-log fit away from the truth
        nus = np.geomspace(1e-8, 1e-3, 10)
        vals = (nus / np.abs(np.log(nus))) ** 0.5
        plain = fit_rate(nus, vals)
        assert plain.exponent > 0.5 + 0.01


class TestBootstrap:
    def test_ci_contains_truth_under_noise(self):
        # calibration: over many noise draws the 95% interval covers the true
        # slope nearly always (OLS noise here is mild)
        rng = np.random.default_rng(42)
        nus = np.geomspace(1e-5, 1e-2, 10)
        hits = 0
        trials = 40
        for k in range(trials):
            errs = nus ** 0.75 * np.exp(rng.normal(0, 0.05, size=len(nus)))
            fit = fit_rate(nus, errs, rng_seed=k)
            hits += fit.ci_low <= 0.75 <= fit.ci_high
        assert hits >= int(0.85 * trials)

    def test_deterministic_given_seed(self):
        nus = np.geomspace(1e-5, 1e-2, 6)
        rng = np.random.default_rng(1)
        errs = nus ** 0.6 * np.exp(rng.normal(0, 0.1, size=len(nus)))
        a = fit_rate(nus, errs, rng_seed=9)
        b = fit_rate(nus, errs, rng_seed=9)
        assert (a.ci_low, a.ci_high) == (b.ci_low, b.ci_high)


def polyfit_bootstrap_ci(nus, errors, n_bootstrap=2000, rng_seed=0):
    """The bootstrap CI as first written: one draw and one np.polyfit per resample."""
    x, y = np.log(nus), np.log(errors)
    slope = np.polyfit(x, y, 1)[0]
    rng = np.random.default_rng(rng_seed)
    slopes = np.empty(n_bootstrap)
    m = len(x)
    for b in range(n_bootstrap):
        idx = rng.integers(0, m, size=m)
        if np.ptp(x[idx]) == 0:
            slopes[b] = slope
            continue
        slopes[b] = np.polyfit(x[idx], y[idx], 1)[0]
    return np.percentile(slopes, [2.5, 97.5])


class TestVectorizedBootstrap:
    @pytest.mark.parametrize("m", [4, 5, 6, 7, 10])
    def test_ci_matches_polyfit_loop(self, m):
        # small ladders resample a single abscissa now and then (the fallback)
        rng = np.random.default_rng(m)
        nus = np.geomspace(3e-4, 3e-3, m)
        errs = nus ** 0.8 * np.exp(rng.normal(0, 0.05, size=m))
        for seed in (0, 1, 17):
            fit = fit_rate(nus, errs, rng_seed=seed)
            lo, hi = polyfit_bootstrap_ci(nus, errs, rng_seed=seed)
            assert fit.ci_low == pytest.approx(lo, rel=1e-12, abs=0)
            assert fit.ci_high == pytest.approx(hi, rel=1e-12, abs=0)
            assert fit.exponent == np.polyfit(np.log(nus), np.log(errs), 1)[0]


def test_percentile_is_np_percentile_bit_for_bit():
    # the bootstrap interval's percentiles, on every resample count from 4 to
    # 2000 (fit_double_exponential_form draws 500, fit_rate 2000): distinct
    # values, values with ties and constant values
    rng = np.random.default_rng(5)
    for n in range(4, 2001):
        for values in (rng.normal(size=n), 0.3 * rng.integers(0, 3, size=n),
                       np.full(n, rng.normal())):
            ordered = np.sort(values)
            got = np.array([_percentile(ordered, q) for q in (2.5, 97.5)])
            assert got.tobytes() == np.percentile(values, [2.5, 97.5]).tobytes(), n


class TestValidation:
    def test_zero_rows_dropped_with_warning(self):
        nus = np.geomspace(1e-5, 1e-2, 6)
        errs = nus ** 0.5
        errs[2] = 0.0
        with pytest.warns(UserWarning, match="zero-error"):
            fit = fit_rate(nus, errs)
        assert fit.n_points == 5
        assert fit.exponent == pytest.approx(0.5, abs=1e-9)

    def test_too_few_rows_rejected(self):
        with pytest.raises(ValueError, match="at least 4"):
            fit_rate([1e-3, 1e-4, 1e-5], [1.0, 0.5, 0.25])

    def test_one_viscosity_left_after_zero_rows_rejected(self):
        with pytest.warns(UserWarning, match="zero-error"):
            with pytest.raises(ValueError, match="2 distinct viscosities"):
                fit_rate([1e-2] + [1e-3] * 4, [0.0, 0.5, 0.4, 0.3, 0.2])

    def test_narrow_ladder_warns(self):
        nus = np.array([1e-3, 1.5e-3, 2e-3, 3e-3])
        with pytest.warns(UserWarning, match="decade"):
            fit_rate(nus, nus ** 0.5)

    @pytest.mark.parametrize("nus,errors,transformed,named", [
        ([1e-2, 1e-3, 0.0, 1e-5], [0.1, 0.03, 0.01, 0.003], False, "(0, inf), got [0.0]"),
        ([1e-2, 1e-3, -1e-4, 1e-5], [0.1, 0.03, 0.01, 0.003], False, "got [-0.0001]"),
        ([1.0, 1e-2, 1e-3, 1e-4], [0.1, 0.03, 0.01, 0.003], True, "(0, 1), got [1.0]"),
        ([1e-2, 1e-3, 1e-4, 1e-5], [0.1, math.inf, 0.01, 0.003], False, "finite, got [inf]"),
        ([1e-2, 1e-3, 1e-4, 1e-5], [0.1, math.nan, 0.01, 0.003], False, "finite, got [nan]"),
        ([1e-2, 1e-3, 1e-4, 1e-5], [0.1, -0.01, 0.01, 0.003], False, "nonnegative, got [-0.01]"),
        ([1e-3] * 4, [0.1, 0.03, 0.01, 0.003], False, "2 distinct viscosities to fit a rate, got only 0.001"),
    ], ids=["zero_nu", "negative_nu", "transformed_unit_nu", "inf_error", "nan_error",
            "negative_error", "one_viscosity"])
    def test_bad_input_rejected_naming_the_values(self, nus, errors, transformed, named, capfd):
        # not a LAPACK failure, a NaN exponent or a dropped "zero-error" row
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as info:
                fit_rate(nus, errors, transformed=transformed)
        assert named in str(info.value)
        assert capfd.readouterr().err == ""

    def test_unit_viscosity_allowed_untransformed(self):
        nus = np.array([1.0, 1e-1, 1e-2, 1e-3])
        assert fit_rate(nus, nus ** 0.5).exponent == pytest.approx(0.5, abs=1e-9)
