import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vvlab.envelope import (
    CrossoverResult,
    EnvelopeCurve,
    OsgoodParams,
    RatePrediction,
    Regime,
    crossover_time,
    integrate_envelope,
    osgood_modulus,
    rhs,
    theorem_rate,
)


class TestModulus:
    def test_zero_extension(self):
        assert osgood_modulus(0.0) == 0.0

    def test_value_at_one(self):
        assert osgood_modulus(1.0) == pytest.approx(1.0 + math.log(2.0), rel=1e-14)

    def test_rhs_at_zero_is_c_nu(self):
        assert rhs(0.0, 2e-3, 3.0) == pytest.approx(6e-3, rel=1e-14)

    def test_rhs_rejects_negative(self):
        with pytest.raises(ValueError):
            rhs(-0.1, 1e-3, 1.0)

    @given(st.floats(1e-12, 1e3), st.floats(1e-12, 1e3))
    @settings(max_examples=100, deadline=None)
    def test_monotone_increasing(self, a, b):
        lo, hi = sorted((a, b))
        assert osgood_modulus(lo) <= osgood_modulus(hi) + 1e-15

    def test_superlinear_near_zero(self):
        # s (1 + log(1 + 1/s)) / s -> infinity as s -> 0
        r_small = osgood_modulus(1e-8) / 1e-8
        r_large = osgood_modulus(1e-2) / 1e-2
        assert r_small > r_large > 1.0


class TestParams:
    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            OsgoodParams(c=0.0, nu=1e-3)
        with pytest.raises(ValueError):
            OsgoodParams(c=1.0, nu=-1e-3)
        with pytest.raises(ValueError):
            OsgoodParams(c=1.0, nu=1e-3, q0=-1.0)


class TestIntegration:
    def test_linear_growth_before_log_kicks_in(self):
        # for tiny t the solution is ~ C nu t
        p = OsgoodParams(c=2.0, nu=1e-6)
        curve = integrate_envelope(p, t_end=1e-4, dt=1e-5)
        expected = p.c * p.nu * curve.times
        np.testing.assert_allclose(curve.values[1:], expected[1:], rtol=0.05)

    def test_comparison_in_q0(self):
        pa = OsgoodParams(c=1.0, nu=1e-4, q0=0.0)
        pb = OsgoodParams(c=1.0, nu=1e-4, q0=1e-3)
        a = integrate_envelope(pa, 1.0, 0.05)
        b = integrate_envelope(pb, 1.0, 0.05)
        assert np.all(b.values >= a.values - 1e-14)

    def test_comparison_in_nu_and_c(self):
        base = integrate_envelope(OsgoodParams(c=1.0, nu=1e-4), 1.0, 0.05)
        more_nu = integrate_envelope(OsgoodParams(c=1.0, nu=1e-3), 1.0, 0.05)
        more_c = integrate_envelope(OsgoodParams(c=2.0, nu=1e-4), 1.0, 0.05)
        assert np.all(more_nu.values[1:] > base.values[1:])
        assert np.all(more_c.values[1:] > base.values[1:])

    def test_monotone_in_time(self):
        curve = integrate_envelope(OsgoodParams(c=1.5, nu=1e-5), 2.0, 0.1)
        assert np.all(np.diff(curve.values) > 0)

    def test_substituted_variable_satisfies_inequality(self):
        # q + nu t obeys d/dt (q + nu t) <= C' [(q + nu t)(1 + log(1 + 1/(q + nu t))) + nu]
        # with C' = C + 1; checked numerically along the envelope
        p = OsgoodParams(c=1.0, nu=1e-4)
        curve = integrate_envelope(p, 1.0, 0.01)
        v = curve.values + p.nu * curve.times
        dv = np.gradient(v, curve.times)
        bound = np.array([rhs(max(x, 0.0), p.nu, p.c + 1.0) for x in v])
        assert np.all(dv[1:-1] <= bound[1:-1] * (1.0 + 1e-6) + 1e-12)

    def test_rejects_bad_times(self):
        with pytest.raises(ValueError):
            integrate_envelope(OsgoodParams(c=1.0, nu=1e-3), t_end=0.0, dt=0.1)
        with pytest.raises(ValueError):
            integrate_envelope(OsgoodParams(c=1.0, nu=1e-3), t_end=1.0, dt=-0.1)


class TestCrossover:
    def test_defining_equation_residual(self):
        for nu in (1e-4, 1e-6, 1e-8):
            res = crossover_time(OsgoodParams(c=1.0, nu=nu))
            assert res.residual < 1e-12

    def test_asymptotic_agreement(self):
        # t1 * log(1/nu) -> 1 slowly; stay within a factor band for small nu
        for nu in (1e-6, 1e-8, 1e-10):
            res = crossover_time(OsgoodParams(c=1.0, nu=nu))
            ratio = res.t1 / (1.0 / math.log(1.0 / nu))
            assert 0.5 < ratio < 1.5

    def test_monotone_in_nu(self):
        nus = np.geomspace(1e-10, 1e-2, 9)
        t1s = [crossover_time(OsgoodParams(c=1.0, nu=float(n))).t1 for n in nus]
        assert all(b > a for a, b in zip(t1s, t1s[1:]))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            crossover_time(OsgoodParams(c=1.0, nu=0.0))


class TestTheoremRate:
    def test_short_time_formula(self):
        pred = theorem_rate(1e-4, nu=1e-6, c=1.0, regime=Regime.SHORT_TIME)
        assert pred.value == pytest.approx(math.sqrt(1e-10), rel=1e-14)
        assert pred.in_regime

    def test_short_time_out_of_regime_flagged(self):
        pred = theorem_rate(5.0, nu=1e-6, c=1.0, regime=Regime.SHORT_TIME)
        assert not pred.in_regime

    def test_fixed_time_identity(self):
        # the fixed-time value is rate(0)^exp(-C t) where rate(0)^2 = nu/|log nu|
        nu, c, t = 1e-5, 0.8, 1.7
        pred = theorem_rate(t, nu=nu, c=c, regime=Regime.FIXED_TIME)
        base = math.sqrt(nu / abs(math.log(nu)))
        assert pred.value == pytest.approx(base ** math.exp(-c * t), rel=1e-12)

    def test_fixed_time_weakens_with_t(self):
        nu, c = 1e-6, 1.0
        vals = [theorem_rate(t, nu=nu, c=c, regime=Regime.FIXED_TIME).value for t in (0.0, 1.0, 3.0)]
        assert vals[0] < vals[1] < vals[2] < 1.0

    def test_string_regime_accepted(self):
        pred = theorem_rate(0.1, nu=1e-4, c=1.0, regime="short_time")
        assert pred.regime is Regime.SHORT_TIME

    def test_rejects_bad_nu(self):
        with pytest.raises(ValueError):
            theorem_rate(0.1, nu=1.5, c=1.0, regime=Regime.SHORT_TIME)
