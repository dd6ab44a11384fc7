import math
from dataclasses import replace

import numpy as np
import pytest

from vvlab import evolve
from vvlab.evolve import AprioriReport, SolverConfig, SolverError, check_apriori, run_split
from vvlab.fields import Grid2D, NotMeanZeroError, ScalarField2D, biot_savart, norms
from vvlab.initial_data import make_initial_data, taylor_green_decay_rate
from vvlab.transport import split_signed
from tests.conftest import random_mean_zero_field


@pytest.fixture
def tg64(grid64):
    return make_initial_data("taylor_green", grid64)


def split_run(omega, cfg):
    """The split run of ``omega``: its signed parts advected by their difference."""
    sp = split_signed(omega)
    return run_split(sp.plus, sp.minus, cfg)


def one_step(omega, cfg):
    """The full field after one solver step of ``cfg`` (a split run with t_end = dt)."""
    return split_run(omega, replace(cfg, t_end=cfg.dt)).full_at(cfg.dt)


def dealiased_id(value):
    """A test id marked ``True`` for the kernel's 2/3-rule dealiasing, so each
    case keeps the id that its earlier records carry."""
    return f"{value}-True"


def monitors(tr):
    """Norms of the full field at every snapshot of a split run."""
    return [norms(tr.full_at(t)) for t in tr.times]


class TestStep:
    def test_zero_field_stays_zero(self, grid64):
        z = ScalarField2D(grid64, np.zeros((64, 64)))
        out = one_step(z, SolverConfig(nu=0.05, dt=1e-2, t_end=1.0))
        assert np.abs(out.values).max() == 0.0

    @pytest.mark.parametrize("nu", [0.0, 1e-3, 0.05])
    def test_taylor_green_one_step_exact(self, grid64, tg64, nu):
        # advection vanishes identically for this datum, diffusion is exact
        dt = 1e-3
        out = one_step(tg64, SolverConfig(nu=nu, dt=dt, t_end=1.0))
        expected = tg64.values * math.exp(-taylor_green_decay_rate(grid64, nu) * dt)
        assert np.abs(out.values - expected).max() < 1e-10 * np.abs(expected).max()

    def test_euler_enstrophy_one_step(self, grid64):
        w = random_mean_zero_field(grid64, 3)
        cfg = SolverConfig(nu=0.0, dt=1e-3, t_end=1.0)
        out = one_step(w, cfg)
        assert norms(out).l2 == pytest.approx(norms(w).l2, abs=1e-8)

    def test_mean_zero_preserved_exactly(self, grid64):
        w = random_mean_zero_field(grid64, 9)
        out = one_step(w, SolverConfig(nu=1e-3, dt=1e-3, t_end=1.0))
        assert abs(out.values.mean()) < 1e-14

    def test_cfl_violation_reports_speed(self, grid64):
        w = random_mean_zero_field(grid64, 1)
        strong = ScalarField2D(grid64, 100.0 * w.values)
        with pytest.raises(SolverError, match=r"max\|u\|"):
            one_step(strong, SolverConfig(nu=0.0, dt=10.0, t_end=100.0))

    def test_fourth_order_accuracy(self, grid64):
        # halving dt must drop the step error by at least 2^4; a second order
        # scheme would only manage ~4x here
        w0 = random_mean_zero_field(grid64, 6)
        w = ScalarField2D(grid64, 20.0 * w0.values)

        def advance(dt, steps):
            cfg = SolverConfig(nu=0.0, dt=dt, t_end=steps * dt, record_every=steps)
            return split_run(w, cfg).full_at(cfg.t_end).values

        dt = 0.02
        ref = advance(dt / 8, 8)
        err_coarse = np.abs(advance(dt, 1) - ref).max()
        ref2 = advance(dt / 16, 8)
        err_fine = np.abs(advance(dt / 2, 1) - ref2).max()
        ratio = err_coarse / err_fine
        assert 12 < ratio < 50


class TestRun:
    def test_taylor_green_regression(self, grid64, tg64):
        cfg = SolverConfig(nu=0.01, dt=1e-3, t_end=1.0, record_every=250)
        tr = split_run(tg64, cfg)
        exact = tg64.values * math.exp(-taylor_green_decay_rate(grid64, 0.01) * 1.0)
        num = tr.full_at(1.0).values
        rel = np.sqrt(((num - exact) ** 2).sum() / (exact ** 2).sum())
        assert rel < 1e-6

    def test_times_strictly_increasing_and_mean_zero(self, grid64):
        w = random_mean_zero_field(grid64, 5)
        tr = split_run(w, SolverConfig(nu=1e-3, dt=2e-3, t_end=0.05, record_every=5))
        assert all(b > a for a, b in zip(tr.times, tr.times[1:]))
        assert all(tr.full_at(t).mean_zero for t in tr.times)

    def test_euler_patch_norms_conserved(self):
        g = Grid2D(128, 1.0)
        w0 = make_initial_data("patch_pair", g, radius=0.12, separation=0.45)
        tr = split_run(w0, SolverConfig(nu=0.0, dt=2e-3, t_end=0.2, record_every=25))
        rep0, *later = monitors(tr)
        for rep in later:
            assert rep.l1 == pytest.approx(rep0.l1, rel=1e-2)
            assert rep.linf == pytest.approx(rep0.linf, rel=1e-2)

    def test_viscous_linf_non_increasing(self, grid64):
        w = random_mean_zero_field(grid64, 8)
        tr = split_run(w, SolverConfig(nu=0.02, dt=2e-3, t_end=0.1, record_every=10))
        linfs = [m.linf for m in monitors(tr)]
        for a, b in zip(linfs, linfs[1:]):
            assert b <= a + 1e-6

    def test_grid_refinement_consistency(self):
        # doubling n changes a smooth run by less than the time-discretization error
        coarse = Grid2D(32, 2 * math.pi)
        fine = Grid2D(64, 2 * math.pi)
        w_coarse = random_mean_zero_field(coarse, 4, k_max=6)
        # same physical field on the fine grid: embed the coarse spectrum
        spec_c = np.fft.fft2(w_coarse.values)
        spec_f = np.zeros((64, 64), dtype=complex)
        for i in range(32):
            for j in range(32):
                mi = i if i <= 16 else i - 32
                mj = j if j <= 16 else j - 32
                spec_f[mi % 64, mj % 64] = spec_c[i, j] * 4.0
        w_fine = ScalarField2D(fine, np.fft.ifft2(spec_f).real)
        cfg = SolverConfig(nu=1e-3, dt=5e-3, t_end=0.1, record_every=20)
        out32 = split_run(w_coarse, cfg).full_at(0.1).values
        out64 = split_run(w_fine, cfg).full_at(0.1).values
        sub = out64[::2, ::2]
        rel = np.abs(out32 - sub).max() / np.abs(sub).max()
        assert rel < 1e-5


class TestSplitRun:
    def test_difference_matches_nonlinear_run(self):
        g = Grid2D(64, 1.0)
        w0 = make_initial_data("patch_pair", g, radius=0.12, separation=0.4)
        sp = split_signed(w0)
        cfg = SolverConfig(nu=1e-3, dt=2e-3, t_end=0.05, record_every=5)
        split_tr = run_split(sp.plus, sp.minus, cfg)
        (*_, full) = reference_integrate([w0], cfg, 25)
        diff = split_tr.full_at(0.05).values - full[0]
        assert np.abs(diff).max() < 1e-11

    def test_rejects_parts_whose_difference_has_a_mean(self, grid64):
        sp = split_signed(make_initial_data("patch_pair", grid64, radius=0.12, separation=0.4))
        zero = ScalarField2D(grid64, np.zeros((64, 64)))
        with pytest.raises(NotMeanZeroError, match="time stepping"):
            run_split(sp.plus, zero, SolverConfig(nu=1e-3, dt=2e-3, t_end=0.01))

    def test_split_masses_conserved(self):
        g = Grid2D(64, 1.0)
        w0 = make_initial_data("patch_pair", g, radius=0.12, separation=0.4)
        sp = split_signed(w0)
        cfg = SolverConfig(nu=1e-3, dt=2e-3, t_end=0.05, record_every=25)
        tr = run_split(sp.plus, sp.minus, cfg)
        m0 = norms(sp.plus).l1
        for p in tr.plus:
            # advection-diffusion of a nonnegative scalar conserves its integral
            assert p.grid.spacing ** 2 * p.values.sum() == pytest.approx(m0, rel=1e-10)

    @pytest.mark.parametrize("datum", ["patch_pair", "full_spectrum"], ids=dealiased_id)
    def test_snapshot_velocity_is_biot_savart(self, datum):
        g = Grid2D(64, 1.0)
        if datum == "patch_pair":
            w0 = make_initial_data("patch_pair", g, radius=0.12, separation=0.4)
        else:  # energy up to the Nyquist row and column
            w0 = random_mean_zero_field(g, 12, k_max=46)
        sp = split_signed(w0)
        cfg = SolverConfig(nu=1e-3, dt=2e-3, t_end=0.02, record_every=5)
        tr = run_split(sp.plus, sp.minus, cfg)
        assert tr.times == pytest.approx([0.0, 0.01, 0.02])
        assert len(tr.velocity) == len(tr.plus) == len(tr.minus) == 3
        assert tr.plus[0] is sp.plus and tr.minus[0] is sp.minus
        for t, u in zip(tr.times, tr.velocity):
            ref = biot_savart(tr.full_at(t))
            scale = max(np.abs(ref.u1).max(), np.abs(ref.u2).max())
            assert np.abs(u.u1 - ref.u1).max() <= 1e-13 * scale
            assert np.abs(u.u2 - ref.u2).max() <= 1e-13 * scale


class TestApriori:
    def test_taylor_green_decay_rate(self, grid64, tg64):
        cfg = SolverConfig(nu=0.01, dt=1e-3, t_end=0.5, record_every=100)
        tr = split_run(tg64, cfg)
        rate = taylor_green_decay_rate(grid64, 0.01)
        for t, m in zip(tr.times, monitors(tr)):
            assert m.linf == pytest.approx(2.0 * math.exp(-rate * t), rel=1e-6)
        assert check_apriori(tr).ok

    def test_euler_flat(self, grid64):
        w = random_mean_zero_field(grid64, 5)
        tr = split_run(w, SolverConfig(nu=0.0, dt=2e-3, t_end=0.05, record_every=5))
        rep = check_apriori(tr, tol=1e-2)
        assert rep.ok

    def test_injected_violation_located(self, grid64, tg64):
        cfg = SolverConfig(nu=0.01, dt=1e-3, t_end=0.01, record_every=5)
        tr = split_run(tg64, cfg)
        tr.plus.append(ScalarField2D(grid64, 3.0 * tr.plus[-1].values))
        tr.minus.append(ScalarField2D(grid64, 3.0 * tr.minus[-1].values))
        tr.times.append(tr.times[-1] + cfg.dt)
        rep = check_apriori(tr)
        assert not rep.ok
        assert rep.worst_index == len(tr.times) - 1

    def test_computes_no_hm1_norm(self, grid32, monkeypatch):
        # the margins are those of fields.norms, which computes no H^-1 norm
        from vvlab import fields

        tr = split_run(random_mean_zero_field(grid32, 3),
                       SolverConfig(nu=0.01, dt=2e-3, t_end=0.01, record_every=1))
        ref = monitors(tr)
        calls = []
        monkeypatch.setattr(fields, "hm1_norm", calls.append)
        rep = check_apriori(tr)
        assert calls == []
        assert rep.l1_margin == max(m.l1 / ref[0].l1 - 1.0 for m in ref)
        assert rep.linf_margin == max(m.linf / ref[0].linf - 1.0 for m in ref)

    def test_needs_two_snapshots(self, tg64):
        tr = split_run(tg64, SolverConfig(nu=0.0, dt=1e-3, t_end=0.0))
        assert tr.times == [0.0]
        with pytest.raises(ValueError):
            check_apriori(tr)


# Reference: the complex-FFT IFRK4 that the half-spectrum kernel replaced,
# with one full complex spectrum per field.
def _reference_mask(grid):
    cut = grid.n // 3
    m1d = np.abs(np.fft.fftfreq(grid.n, d=1.0 / grid.n)) <= cut
    return np.outer(m1d, m1d).astype(float)


def _reference_rhs(w_hats, grid, mask, vel_pair):
    k1, k2, _, inv_k_sq = grid.wavenumbers()
    i, j = vel_pair
    adv_hat = (w_hats[i] if i == j else w_hats[i] - w_hats[j]) * mask
    psi_hat = -adv_hat * inv_k_sq
    u1 = np.fft.ifft2(-1j * k2 * psi_hat).real
    u2 = np.fft.ifft2(1j * k1 * psi_hat).real
    out = np.empty_like(w_hats)
    for s in range(w_hats.shape[0]):
        wd = w_hats[s] * mask
        wx = np.fft.ifft2(1j * k1 * wd).real
        wy = np.fft.ifft2(1j * k2 * wd).real
        conv_hat = np.fft.fft2(u1 * wx + u2 * wy)
        conv_hat *= mask
        conv_hat[0, 0] = 0.0
        out[s] = -conv_hat
    return out


def reference_integrate(fields, cfg, n_steps, vel_pair=(0, 0)):
    """Values of every field after each step, by the complex-FFT IFRK4."""
    grid = fields[0].grid
    _, _, k_sq, _ = grid.wavenumbers()
    mask = _reference_mask(grid)
    dt = cfg.dt

    def rhs(w):
        return dt * _reference_rhs(w, grid, mask, vel_pair)

    w = np.stack([f.spectral for f in fields])
    history = []
    for _ in range(n_steps):
        e_half = np.exp(-cfg.nu * k_sq * dt / 2.0)
        e_full = e_half * e_half
        k1v = rhs(w)
        k2v = rhs(e_half * (w + 0.5 * k1v))
        k3v = rhs(e_half * w + 0.5 * k2v)
        k4v = rhs(e_full * w + e_half * k3v)
        w = e_full * w + (e_full * k1v + 2.0 * e_half * (k2v + k3v) + k4v) / 6.0
        history.append(np.fft.ifft2(w).real)
    return history


def _rel_err(new, ref):
    return float(np.abs(np.asarray(new) - ref).max() / np.abs(ref).max())


# ids marked True for the kernel's dealiasing, as dealiased_id marks them
KERNEL_CASES = [pytest.param(nu, id=f"dealias=True-nu={nu}") for nu in (0.0, 2e-3)]


class TestKernelMatchesComplexReference:
    """The half-spectrum kernel against the complex path, at 1e-12 relative."""

    @pytest.fixture
    def strong(self, grid32):
        # large enough that advection moves the field visibly in a few steps
        return ScalarField2D(grid32, 30.0 * random_mean_zero_field(grid32, 11, k_max=14).values)

    @pytest.mark.parametrize("nu", KERNEL_CASES)
    def test_step(self, strong, nu):
        cfg = SolverConfig(nu=nu, dt=2e-3, t_end=1.0)
        (ref,) = reference_integrate([strong], cfg, 1)
        ref = ref[0]
        assert _rel_err(ref, strong.values) > 1e-4
        assert _rel_err(one_step(strong, cfg).values, ref) <= 1e-12

    @pytest.mark.parametrize("nu", KERNEL_CASES)
    def test_run(self, strong, nu):
        cfg = SolverConfig(nu=nu, dt=2e-3, t_end=0.012, record_every=2)
        ref = reference_integrate([strong], cfg, 6)
        tr = split_run(strong, cfg)
        assert tr.times == pytest.approx([0.0, 0.004, 0.008, 0.012])
        for t, r in zip(tr.times[1:], ref[1::2]):
            assert _rel_err(tr.full_at(t).values, r[0]) <= 1e-12

    @pytest.mark.parametrize("nu", KERNEL_CASES)
    def test_run_split(self, grid32, nu):
        w0 = make_initial_data("patch_pair", grid32, radius=0.15, separation=0.4)
        sp = split_signed(w0)
        cfg = SolverConfig(nu=nu, dt=4e-3, t_end=0.02, record_every=5)
        (*_, ref) = reference_integrate([sp.plus, sp.minus], cfg, 5, vel_pair=(0, 1))
        plus, minus = run_split(sp.plus, sp.minus, cfg).state_at(0.02)
        assert _rel_err(plus.values, ref[0]) <= 1e-12
        assert _rel_err(minus.values, ref[1]) <= 1e-12


def scipy_step(kernel, w):
    """One IFRK4 step with the kernel's operators, its transforms written with
    ``scipy.fft.irfft2``/``rfft2`` instead of the kernel's own passes."""
    import scipy.fft as scipy_fft

    shape = (kernel.n, kernel.n)

    def rhs(w):
        adv = w[0] - w[1]
        phys = scipy_fft.irfft2(
            np.concatenate([kernel.ik1 * w, kernel.ik2 * w,
                            [kernel.bs1 * adv], [kernel.bs2 * adv]]),
            s=shape,
        )
        u1, u2 = phys[4], phys[5]
        return kernel.out * scipy_fft.rfft2(u1 * phys[:2] + u2 * phys[2:4])

    e_half, e_full = kernel.e_half, kernel.e_full
    k1 = rhs(w)
    k2 = rhs(e_half * (w + 0.5 * k1))
    k3 = rhs(e_half * w + 0.5 * k2)
    k4 = rhs(e_full * w + e_half * k3)
    return e_full * w + (e_full * k1 + 2.0 * e_half * (k2 + k3) + k4) / 6.0


def scipy_snapshot(kernel, w):
    import scipy.fft as scipy_fft

    adv = w[0] - w[1]
    spectra = np.concatenate([w, [kernel.vel1 * adv], [kernel.vel2 * adv]])
    return scipy_fft.irfft2(spectra, s=(kernel.n, kernel.n))


class TestKernelMatchesScipyFFT:
    """The kernel on numpy.fft, bit for bit against the same step on scipy.fft."""

    @pytest.mark.parametrize("n", [32, 128, 256])
    @pytest.mark.parametrize("nu", KERNEL_CASES)
    def test_step_and_snapshot(self, n, nu):
        import scipy.fft as scipy_fft

        grid = Grid2D(n, 1.0)
        sp = split_signed(make_initial_data("patch_pair", grid, radius=0.15, separation=0.4))
        cfg = SolverConfig(nu=nu, dt=2e-3, t_end=1.0)
        kernel = evolve._Kernel(grid, cfg)
        w_numpy = evolve.rfft2(np.stack([sp.plus.values, sp.minus.values]))
        w_scipy = scipy_fft.rfft2(np.stack([sp.plus.values, sp.minus.values]))
        for _ in range(20):
            w_numpy = kernel.step(w_numpy)
            w_scipy = scipy_step(kernel, w_scipy)
        snap_numpy = kernel.snapshot(w_numpy)
        assert _rel_err(snap_numpy[0], sp.plus.values) > 1e-4
        assert np.array_equal(w_numpy, w_scipy)
        assert np.array_equal(snap_numpy, scipy_snapshot(kernel, w_scipy))
        assert np.array_equal(kernel.snapshot(w_numpy, members=False), snap_numpy[2:])


@pytest.mark.parametrize("n", [32, 128, 256], ids=dealiased_id)
def test_kernel_multipliers_vanish_past_kept_columns(n):
    """The stepper transforms only the leading ``c`` half-spectrum columns; every
    multiplier must be zero past them, and column ``c - 1`` must be in use."""
    kernel = evolve._Kernel(Grid2D(n, 1.0), SolverConfig(nu=1e-3, dt=1e-3, t_end=1.0))
    c = kernel.c
    assert c == n // 3 + 1
    ops = {"ik1": kernel.ik1, "ik2": kernel.ik2, "bs1": kernel.bs1, "bs2": kernel.bs2,
           "out": kernel.out}
    for name, op in ops.items():
        assert not op[:, c:].any(), name
        assert op[:, c - 1].any(), name
        # the 2/3 rule also zeroes the Nyquist row, where an odd derivative has no real inverse
        assert not op[n // 2].any(), name
