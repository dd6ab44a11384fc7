import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import vvlab
from vvlab.envelope import (
    crossover_time,
    fixed_time_rate,
    integrate_envelope,
    osgood_modulus,
    rhs,
    short_time_rate,
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
            integrate_envelope(c=0.0, nu=1e-3, t_end=1.0, dt=0.1)
        with pytest.raises(ValueError):
            integrate_envelope(c=1.0, nu=-1e-3, t_end=1.0, dt=0.1)
        with pytest.raises(ValueError):
            integrate_envelope(c=1.0, nu=1e-3, t_end=1.0, dt=0.1, q0=-1.0)


class TestIntegration:
    def test_linear_growth_before_log_kicks_in(self):
        # for tiny t the solution is ~ C nu t
        c, nu = 2.0, 1e-6
        curve = integrate_envelope(c, nu, t_end=1e-4, dt=1e-5)
        expected = c * nu * curve.times
        np.testing.assert_allclose(curve.values[1:], expected[1:], rtol=0.05)

    def test_comparison_in_q0(self):
        a = integrate_envelope(1.0, 1e-4, 1.0, 0.05, q0=0.0)
        b = integrate_envelope(1.0, 1e-4, 1.0, 0.05, q0=1e-3)
        assert np.all(b.values >= a.values - 1e-14)

    def test_comparison_in_nu_and_c(self):
        base = integrate_envelope(1.0, 1e-4, 1.0, 0.05)
        more_nu = integrate_envelope(1.0, 1e-3, 1.0, 0.05)
        more_c = integrate_envelope(2.0, 1e-4, 1.0, 0.05)
        assert np.all(more_nu.values[1:] > base.values[1:])
        assert np.all(more_c.values[1:] > base.values[1:])

    def test_monotone_in_time(self):
        curve = integrate_envelope(1.5, 1e-5, 2.0, 0.1)
        assert np.all(np.diff(curve.values) > 0)

    def test_substituted_variable_satisfies_inequality(self):
        # q + nu t obeys d/dt (q + nu t) <= C' [(q + nu t)(1 + log(1 + 1/(q + nu t))) + nu]
        # with C' = C + 1; checked numerically along the envelope
        c, nu = 1.0, 1e-4
        curve = integrate_envelope(c, nu, 1.0, 0.01)
        v = curve.values + nu * curve.times
        dv = np.gradient(v, curve.times)
        bound = np.array([rhs(max(x, 0.0), nu, c + 1.0) for x in v])
        assert np.all(dv[1:-1] <= bound[1:-1] * (1.0 + 1e-6) + 1e-12)

    def test_rejects_bad_times(self):
        with pytest.raises(ValueError):
            integrate_envelope(1.0, 1e-3, t_end=0.0, dt=0.1)
        with pytest.raises(ValueError):
            integrate_envelope(1.0, 1e-3, t_end=1.0, dt=-0.1)


class TestCrossover:
    def test_defining_equation_residual(self):
        for nu in (1e-4, 1e-6, 1e-8):
            res = crossover_time(nu)
            assert res.residual < 1e-12

    def test_asymptotic_agreement(self):
        # t1 * log(1/nu) -> 1 slowly; stay within a factor band for small nu
        for nu in (1e-6, 1e-8, 1e-10):
            res = crossover_time(nu)
            ratio = res.t1 / (1.0 / math.log(1.0 / nu))
            assert 0.5 < ratio < 1.5

    def test_monotone_in_nu(self):
        nus = np.geomspace(1e-10, 1e-2, 9)
        t1s = [crossover_time(float(n)).t1 for n in nus]
        assert all(b > a for a, b in zip(t1s, t1s[1:]))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            crossover_time(0.0)
        with pytest.raises(ValueError):
            crossover_time(1.0)


class TestTheoremRate:
    def test_short_time_formula(self):
        assert short_time_rate(1e-6, 1e-4) == pytest.approx(math.sqrt(1e-10), rel=1e-14)
        assert 1e-4 <= crossover_time(1e-6).t1  # the range in which it is trusted

    def test_fixed_time_identity(self):
        # the fixed-time value is rate(0)^exp(-C t) where rate(0)^2 = nu/|log nu|
        nu, c, t = 1e-5, 0.8, 1.7
        base = math.sqrt(nu / abs(math.log(nu)))
        assert fixed_time_rate(nu, t, c) == pytest.approx(base ** math.exp(-c * t), rel=1e-12)

    def test_fixed_time_weakens_with_t(self):
        nu, c = 1e-6, 1.0
        vals = [fixed_time_rate(nu, t, c) for t in (0.0, 1.0, 3.0)]
        assert vals[0] < vals[1] < vals[2] < 1.0

    def test_rejects_bad_nu(self):
        for nu in (1.5, 1.0, 0.0, -1e-3):
            with pytest.raises(ValueError):
                short_time_rate(nu, 0.1)
            with pytest.raises(ValueError):
                fixed_time_rate(nu, 0.1, 1.0)

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            short_time_rate(1e-3, -0.1)
        with pytest.raises(ValueError):
            fixed_time_rate(1e-3, -0.1, 1.0)

    def test_fixed_time_rate_loads_no_scipy(self):
        # the closed form solves no root, so a fresh interpreter evaluates it
        # without loading any SciPy module
        code = (
            "import sys\n"
            "from vvlab.envelope import fixed_time_rate\n"
            "print(repr(fixed_time_rate(1e-3, 1.0, 1.0)))\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        src = str(Path(vvlab.__file__).resolve().parent.parent)
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": path}, check=True)
        assert out.stdout.splitlines() == ["0.19669505214230512", "[]"]
