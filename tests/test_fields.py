import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vvlab.fields import (
    FieldError,
    Grid2D,
    NotMeanZeroError,
    ScalarField2D,
    biot_savart,
    hm1_norm,
    interpolate_velocity,
    norms,
    torus_distance,
)
from tests.conftest import random_mean_zero_field


class TestGrid:
    def test_spacing_times_n_is_length(self):
        g = Grid2D(32, 1.7)
        assert g.spacing * g.n == pytest.approx(1.7, rel=1e-15)

    @pytest.mark.parametrize("n", [4, 7, 12, 100])
    def test_rejects_non_power_of_two(self, n):
        with pytest.raises(ValueError):
            Grid2D(n, 1.0)


class TestTransforms:
    def test_constant_field_has_only_zero_mode(self, grid64):
        f = ScalarField2D(grid64, np.full((64, 64), 3.25))
        spec = f.spectral.copy()
        assert spec[0, 0] == pytest.approx(3.25 * 64 ** 2)
        spec[0, 0] = 0
        assert np.abs(spec).max() < 1e-9

    def test_single_sine_mode(self, grid64):
        x1, _ = grid64.coords()
        f = ScalarField2D(grid64, np.sin(x1))
        mags = np.abs(f.spectral)
        nonzero = np.argwhere(mags > 1e-8 * mags.max())
        assert {tuple(ij) for ij in nonzero} == {(1, 0), (63, 0)}

    @pytest.mark.parametrize("seed", range(5))
    def test_round_trip(self, grid64, seed):
        rng = np.random.default_rng(seed)
        f = ScalarField2D(grid64, rng.normal(size=(64, 64)))
        back = np.fft.ifft2(f.spectral).real
        assert np.abs(back - f.values).max() < 1e-12 * np.abs(f.values).max()

    def test_rejects_non_finite(self, grid64):
        v = np.zeros((64, 64))
        v[3, 3] = np.nan
        with pytest.raises(FieldError):
            ScalarField2D(grid64, v)


class TestBiotSavart:
    def test_zero_field(self, grid64):
        u = biot_savart(ScalarField2D(grid64, np.zeros((64, 64))))
        assert u.max_speed() == 0.0

    def test_single_mode_analytic(self, grid64):
        x1, _ = grid64.coords()
        u = biot_savart(ScalarField2D(grid64, np.sin(x1)))
        assert np.abs(u.u1).max() < 1e-13
        assert np.abs(u.u2 + np.cos(x1)).max() < 1e-13

    @pytest.mark.parametrize("seed", range(3))
    def test_curl_consistency(self, grid64, seed):
        w = random_mean_zero_field(grid64, seed)
        u = biot_savart(w)
        k1, k2, _, _ = grid64.wavenumbers()
        curl_hat = 1j * k1 * np.fft.fft2(u.u2) - 1j * k2 * np.fft.fft2(u.u1)
        err = np.abs(np.fft.ifft2(curl_hat).real - w.values).max()
        assert err < 1e-10 * np.abs(w.values).max()

    @pytest.mark.parametrize("seed", range(3))
    def test_divergence_free(self, grid64, seed):
        w = random_mean_zero_field(grid64, seed)
        u = biot_savart(w)
        k1, k2, _, _ = grid64.wavenumbers()
        div_hat = 1j * k1 * np.fft.fft2(u.u1) + 1j * k2 * np.fft.fft2(u.u2)
        assert np.abs(np.fft.ifft2(div_hat)).max() < 1e-10 * max(u.max_speed(), 1.0)

    def test_linearity(self, grid64):
        w1 = random_mean_zero_field(grid64, 0)
        w2 = random_mean_zero_field(grid64, 1)
        combo = ScalarField2D(grid64, 2.0 * w1.values - 0.5 * w2.values)
        u_combo = biot_savart(combo)
        ua, ub = biot_savart(w1), biot_savart(w2)
        scale = max(u_combo.max_speed(), 1.0)
        assert np.abs(u_combo.u1 - (2.0 * ua.u1 - 0.5 * ub.u1)).max() < 1e-12 * scale
        assert np.abs(u_combo.u2 - (2.0 * ua.u2 - 0.5 * ub.u2)).max() < 1e-12 * scale

    def test_rejects_non_mean_zero(self, grid64):
        with pytest.raises(NotMeanZeroError, match="mean-zero"):
            biot_savart(ScalarField2D(grid64, np.ones((64, 64))))


class TestNorms:
    def test_quarter_domain_patch(self):
        g = Grid2D(32, 2.0)
        v = np.zeros((32, 32))
        v[:16, :16] = 1.0
        rep = norms(ScalarField2D(g, v))
        assert rep.l1 == pytest.approx(2.0 ** 2 / 4)
        assert rep.linf == 1.0

    def test_sine_closed_form(self, grid64):
        x1, _ = grid64.coords()
        rep = norms(ScalarField2D(grid64, np.sin(x1)))
        assert rep.l2 == pytest.approx(math.sqrt(2 * math.pi ** 2), rel=1e-12)
        assert rep.hm1 == pytest.approx(math.sqrt(2 * math.pi ** 2), rel=1e-12)

    def test_direct_summation_oracle(self, grid64):
        # independent hm1: explicit double loop over the low modes
        w = random_mean_zero_field(grid64, 7, k_max=4)
        spec = w.spectral
        n = grid64.n
        acc = 0.0
        for i in range(n):
            for j in range(n):
                mi = i if i <= n // 2 else i - n
                mj = j if j <= n // 2 else j - n
                if mi == 0 and mj == 0:
                    continue
                acc += abs(spec[i, j]) ** 2 / (mi ** 2 + mj ** 2)
        expected = math.sqrt((grid64.spacing / n) ** 2 * acc)
        assert hm1_norm(w) == pytest.approx(expected, rel=1e-12)

    def test_translation_invariance(self, grid64):
        w = random_mean_zero_field(grid64, 3)
        shifted = ScalarField2D(grid64, np.roll(w.values, (5, 11), axis=(0, 1)))
        a, b = norms(w), norms(shifted)
        assert a.l1 == pytest.approx(b.l1, rel=1e-12)
        assert a.l2 == pytest.approx(b.l2, rel=1e-12)
        assert a.linf == b.linf
        assert a.hm1 == pytest.approx(b.hm1, rel=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_parseval(self, grid64, seed):
        rng = np.random.default_rng(seed)
        f = ScalarField2D(grid64, rng.normal(size=(64, 64)))
        scale = (grid64.spacing / grid64.n) ** 2
        l2_spectral = math.sqrt(scale * float(np.sum(np.abs(f.spectral) ** 2)))
        assert l2_spectral == pytest.approx(norms(f).l2, rel=1e-10)

    def test_hm1_requires_mean_zero(self, grid64):
        f = ScalarField2D(grid64, np.ones((64, 64)))
        with pytest.raises(NotMeanZeroError):
            hm1_norm(f)
        assert math.isnan(norms(f).hm1)


class TestInterpolation:
    def test_exact_on_grid_points(self, grid64):
        w = random_mean_zero_field(grid64, 2)
        u = biot_savart(w)
        pts = np.array([[0.0, 0.0], [5 * grid64.spacing, 9 * grid64.spacing]])
        vals = interpolate_velocity(u, pts)
        assert vals[0, 0] == pytest.approx(u.u1[0, 0], abs=1e-14)
        assert vals[1, 1] == pytest.approx(u.u2[5, 9], abs=1e-14)

    def test_periodic_wrap(self, grid64):
        w = random_mean_zero_field(grid64, 2)
        u = biot_savart(w)
        L = grid64.length
        pts = np.array([[0.1, 0.2]])
        a = interpolate_velocity(u, pts)
        b = interpolate_velocity(u, pts + L)
        np.testing.assert_allclose(a, b, atol=1e-13)


def reference_interpolate(u, points):
    """The bilinear interpolation as first written: np.mod always, 2D fancy indexing."""
    pts = np.asarray(points, dtype=float)
    n, h = u.grid.n, u.grid.spacing
    s = np.mod(pts / h, n)
    i0 = np.floor(s).astype(int) % n
    frac = s - np.floor(s)
    i1 = (i0 + 1) % n
    fx, fy = frac[:, 0], frac[:, 1]
    out = np.empty_like(pts)
    for c, comp in enumerate((u.u1, u.u2)):
        v00 = comp[i0[:, 0], i0[:, 1]]
        v10 = comp[i1[:, 0], i0[:, 1]]
        v01 = comp[i0[:, 0], i1[:, 1]]
        v11 = comp[i1[:, 0], i1[:, 1]]
        out[:, c] = (
            v00 * (1 - fx) * (1 - fy)
            + v10 * fx * (1 - fy)
            + v01 * (1 - fx) * fy
            + v11 * fx * fy
        )
    return out


class TestInterpolationMatchesReference:
    @pytest.fixture
    def u(self, grid32):
        return biot_savart(random_mean_zero_field(grid32, 4))

    @pytest.mark.parametrize("where", ["inside", "boundary", "negative", "beyond", "mixed"])
    def test_bitwise_equal(self, u, where):
        L, h = u.grid.length, u.grid.spacing
        rng = np.random.default_rng(7)
        inside = rng.uniform(0.0, L, size=(500, 2))
        pts = {
            "inside": inside,
            "boundary": np.array([[0.0, 0.0], [L - 1e-17, 0.5 * L], [np.nextafter(L, 0), h],
                                  [3 * h, 31 * h], [-0.0, L - h]]),
            # small negatives lose low bits when wrapped, so the wrap shows
            "negative": np.vstack([inside - L, -0.1 * inside]),
            "beyond": inside + np.array([L, 2 * L]),
            "mixed": np.vstack([inside[:10], [[L, 0.0], [-1e-18, 0.3]]]),
        }[where]
        assert np.array_equal(interpolate_velocity(u, pts), reference_interpolate(u, pts))

    def test_empty_input(self, u):
        out = interpolate_velocity(u, np.zeros((0, 2)))
        assert out.shape == (0, 2)
        assert np.array_equal(out, reference_interpolate(u, np.zeros((0, 2))))


class TestTorusDistance:
    @given(
        st.floats(0, 1, allow_nan=False),
        st.floats(0, 1, allow_nan=False),
    )
    @settings(max_examples=50, deadline=None)
    def test_wrap_symmetry(self, a, b):
        x = np.array([a, 0.0])
        y = np.array([b, 0.0])
        d = torus_distance(x, y, 1.0)
        assert d <= 0.5 + 1e-12
        assert d == pytest.approx(torus_distance(y, x, 1.0))
