import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from vvlab import evolve
from vvlab.evolve import AprioriMonitor, SolverConfig, SolverError, run_split
from vvlab.fields import Grid2D, NotMeanZeroError, ScalarField2D, biot_savart, norms
from vvlab.initial_data import make_initial_data, taylor_green_decay_rate
from vvlab.transport import split_signed
from tests.conftest import random_mean_zero_field, split_snapshots


@pytest.fixture
def tg64(grid64):
    return make_initial_data("taylor_green", grid64)


def split_run(omega, cfg):
    """Every snapshot of the split run of ``omega`` (its signed parts advected
    by their difference) as (t, values)."""
    sp = split_signed(omega)
    return split_snapshots(sp.plus, sp.minus, cfg)


def full(grid, values) -> ScalarField2D:
    """The full field plus - minus of one snapshot."""
    return ScalarField2D(grid, values[0] - values[1])


def final(omega, cfg):
    """The full field at the end of the split run of ``omega``."""
    (*_, (_, values)) = split_run(omega, cfg)
    return full(omega.grid, values)


def one_step(omega, cfg):
    """The full field after one solver step of ``cfg`` (a split run with t_end = dt)."""
    return final(omega, replace(cfg, t_end=cfg.dt))


def dealiased_id(value):
    """A test id marked ``True`` for the kernel's 2/3-rule dealiasing, so each
    case keeps the id that its earlier records carry."""
    return f"{value}-True"


def monitors(omega, cfg):
    """Norms of the full field at every snapshot of the split run of ``omega``."""
    return [norms(full(omega.grid, values)) for _, values in split_run(omega, cfg)]


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
            return final(w, cfg).values

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
        exact = tg64.values * math.exp(-taylor_green_decay_rate(grid64, 0.01) * 1.0)
        num = final(tg64, cfg).values
        rel = np.sqrt(((num - exact) ** 2).sum() / (exact ** 2).sum())
        assert rel < 1e-6

    def test_times_strictly_increasing_and_mean_zero(self, grid64):
        w = random_mean_zero_field(grid64, 5)
        tr = split_run(w, SolverConfig(nu=1e-3, dt=2e-3, t_end=0.05, record_every=5))
        assert all(b > a for (a, _), (b, _) in zip(tr, tr[1:]))
        assert all(full(grid64, values).mean_zero for _, values in tr)

    def test_euler_patch_norms_conserved(self):
        g = Grid2D(128, 1.0)
        w0 = make_initial_data("patch_pair", g, radius=0.12, separation=0.45)
        rep0, *later = monitors(w0, SolverConfig(nu=0.0, dt=2e-3, t_end=0.2, record_every=25))
        for rep in later:
            assert rep.l1 == pytest.approx(rep0.l1, rel=1e-2)
            assert rep.linf == pytest.approx(rep0.linf, rel=1e-2)

    def test_viscous_linf_non_increasing(self, grid64):
        w = random_mean_zero_field(grid64, 8)
        cfg = SolverConfig(nu=0.02, dt=2e-3, t_end=0.1, record_every=10)
        linfs = [m.linf for m in monitors(w, cfg)]
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
        out32 = final(w_coarse, cfg).values
        out64 = final(w_fine, cfg).values
        sub = out64[::2, ::2]
        rel = np.abs(out32 - sub).max() / np.abs(sub).max()
        assert rel < 1e-5


class TestSplitRun:
    def test_difference_matches_nonlinear_run(self):
        g = Grid2D(64, 1.0)
        w0 = make_initial_data("patch_pair", g, radius=0.12, separation=0.4)
        cfg = SolverConfig(nu=1e-3, dt=2e-3, t_end=0.05, record_every=5)
        (*_, ref) = reference_integrate([w0], cfg, 25)
        diff = final(w0, cfg).values - ref[0]
        assert np.abs(diff).max() < 1e-11

    def test_rejects_parts_whose_difference_has_a_mean(self, grid64):
        sp = split_signed(make_initial_data("patch_pair", grid64, radius=0.12, separation=0.4))
        zero = ScalarField2D(grid64, np.zeros((64, 64)))
        with pytest.raises(NotMeanZeroError, match="time stepping"):
            split_snapshots(sp.plus, zero, SolverConfig(nu=1e-3, dt=2e-3, t_end=0.01))

    def test_split_masses_conserved(self):
        g = Grid2D(64, 1.0)
        w0 = make_initial_data("patch_pair", g, radius=0.12, separation=0.4)
        sp = split_signed(w0)
        cfg = SolverConfig(nu=1e-3, dt=2e-3, t_end=0.05, record_every=25)
        m0 = norms(sp.plus).l1
        for _, values in split_snapshots(sp.plus, sp.minus, cfg):
            # advection-diffusion of a nonnegative scalar conserves its integral
            assert g.spacing ** 2 * values[0].sum() == pytest.approx(m0, rel=1e-10)

    def test_snapshots_yield_fresh_arrays_at_the_snapshot_steps(self, grid32):
        sp = split_signed(make_initial_data("patch_pair", grid32, radius=0.15, separation=0.4))
        cfg = SolverConfig(nu=1e-3, dt=2e-3, t_end=0.014, record_every=3)
        seen = list(evolve.snapshots(sp.plus, sp.minus, cfg))
        assert [s for s, _ in seen] == [0, 3, 6, 7]  # and after the last step
        assert all(v.shape == (4, 32, 32) for _, v in seen)
        assert not any(np.shares_memory(a, b) for (_, a), (_, b) in zip(seen, seen[1:]))
        assert np.array_equal(seen[0][1][:2], np.stack([sp.plus.values, sp.minus.values]))

    def test_run_split_keeps_the_asked_snapshots_and_averages_each_interval(self, grid32):
        sp = split_signed(make_initial_data("patch_pair", grid32, radius=0.15, separation=0.4))
        cfg = SolverConfig(nu=1e-3, dt=2e-3, t_end=0.014, record_every=3)
        seen = split_snapshots(sp.plus, sp.minus, cfg)  # steps 0, 3, 6 and 7
        lengths, mids, work = [], [], []

        def interval(h, mid):
            lengths.append(h)
            mids.append(mid.copy())
            work.append(mid)

        kept, violations = run_split(sp.plus, sp.minus, cfg, {3: 0.006, 7: 0.014}, interval)
        assert violations == []
        assert list(kept) == [0.006, 0.014]
        assert np.array_equal(kept[0.006], seen[1][1]) and np.array_equal(kept[0.014], seen[3][1])
        assert lengths == pytest.approx([0.006, 0.006, 0.002])
        for mid, (_, a), (_, b) in zip(mids, seen, seen[1:]):
            assert np.array_equal(mid, 0.5 * (a[2:] + b[2:]))
        assert all(w is work[0] for w in work)  # one work array, rewritten

    @pytest.mark.parametrize("datum", ["patch_pair", "full_spectrum"], ids=dealiased_id)
    def test_snapshot_velocity_is_biot_savart(self, datum):
        g = Grid2D(64, 1.0)
        if datum == "patch_pair":
            w0 = make_initial_data("patch_pair", g, radius=0.12, separation=0.4)
        else:  # energy up to the Nyquist row and column
            w0 = random_mean_zero_field(g, 12, k_max=46)
        cfg = SolverConfig(nu=1e-3, dt=2e-3, t_end=0.02, record_every=5)
        tr = split_run(w0, cfg)
        assert [t for t, _ in tr] == pytest.approx([0.0, 0.01, 0.02])
        for _, values in tr:
            ref = biot_savart(full(g, values))
            scale = max(np.abs(ref.u1).max(), np.abs(ref.u2).max())
            assert np.abs(values[2] - ref.u1).max() <= 1e-13 * scale
            assert np.abs(values[3] - ref.u2).max() <= 1e-13 * scale


def monitored(omega, cfg):
    """An AprioriMonitor fed every snapshot of the split run of ``omega``, and
    those snapshots as (t, values)."""
    monitor = AprioriMonitor(cfg.nu)
    fed = split_run(omega, cfg)
    for t, values in fed:
        monitor.feed(t, values)
    return monitor, fed


class TestApriori:
    def test_taylor_green_decay_rate(self, grid64, tg64):
        # L1 and Linf fall with viscosity, which is no drift
        cfg = SolverConfig(nu=0.01, dt=1e-3, t_end=0.5, record_every=100)
        monitor, fed = monitored(tg64, cfg)
        rate = taylor_green_decay_rate(grid64, 0.01)
        for t, values in fed:
            linf = np.abs(values[0] - values[1]).max()
            assert linf == pytest.approx(2.0 * math.exp(-rate * t), rel=1e-6)
        assert len(fed) == 6
        assert monitor.worst[0] <= AprioriMonitor.TOL

    def test_euler_flat(self, grid64):
        w = random_mean_zero_field(grid64, 5)
        monitor, _ = monitored(w, SolverConfig(nu=0.0, dt=2e-3, t_end=0.05, record_every=5))
        assert monitor.worst[0] <= AprioriMonitor.TOL

    def test_injected_violation_located(self, grid64, tg64):
        cfg = SolverConfig(nu=0.01, dt=1e-3, t_end=0.01, record_every=5)
        monitor, fed = monitored(tg64, cfg)
        t, values = fed[-1]
        monitor.feed(t + cfg.dt, 3.0 * values)
        drift, _, at = monitor.worst
        assert drift > AprioriMonitor.TOL
        assert at == t + cfg.dt

    @pytest.mark.parametrize("nu", [0.0, 0.01])
    def test_a_fall_counts_only_without_viscosity(self, grid32, nu):
        # both parts replaced by their mean keep their masses (the field has
        # mean zero) and zero the field: L1 and Linf fall by all of it
        monitor, fed = monitored(random_mean_zero_field(grid32, 3),
                                 SolverConfig(nu=nu, dt=2e-3, t_end=0.004, record_every=1))
        t, values = fed[-1]
        mean = 0.5 * (values[0] + values[1])
        monitor.feed(t + 2e-3, np.stack([mean, mean, values[2], values[3]]))
        drift, what, _ = monitor.worst
        if nu == 0:
            assert drift == pytest.approx(1.0) and what in ("L1", "Linf")
        else:
            assert drift <= AprioriMonitor.TOL

    def test_zero_field_has_no_drift(self, grid32):
        monitor = AprioriMonitor(0.0)
        for t in (0.0, 0.1):
            monitor.feed(t, np.zeros((4, grid32.n, grid32.n)))
        assert monitor.worst[0] == 0.0

    def test_computes_no_hm1_norm(self, grid32, monkeypatch):
        # the drifts are those of fields.norms and the parts' sums, and no H^-1
        # norm is computed for them
        from vvlab import fields

        calls = []
        monkeypatch.setattr(fields, "hm1_norm", calls.append)
        monitor, fed = monitored(random_mean_zero_field(grid32, 3),
                                 SolverConfig(nu=0.01, dt=2e-3, t_end=0.01, record_every=1))
        assert calls == []
        ref = [(norms(ScalarField2D(grid32, v[0] - v[1])), v[0].sum(), v[1].sum()) for _, v in fed]
        m0, p0, q0 = ref[0]
        expected = max(max(abs(p / p0 - 1.0), abs(q / q0 - 1.0), m.l1 / m0.l1 - 1.0,
                           m.linf / m0.linf - 1.0) for m, p, q in ref)
        assert monitor.worst[0] == pytest.approx(expected, rel=1e-9, abs=1e-15)


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
        assert [t for t, _ in tr] == pytest.approx([0.0, 0.004, 0.008, 0.012])
        for (_, values), r in zip(tr[1:], ref[1::2]):
            assert _rel_err(full(strong.grid, values).values, r[0]) <= 1e-12

    @pytest.mark.parametrize("nu", KERNEL_CASES)
    def test_run_split(self, grid32, nu):
        w0 = make_initial_data("patch_pair", grid32, radius=0.15, separation=0.4)
        sp = split_signed(w0)
        cfg = SolverConfig(nu=nu, dt=4e-3, t_end=0.02, record_every=5)
        (*_, ref) = reference_integrate([sp.plus, sp.minus], cfg, 5, vel_pair=(0, 1))
        (*_, (_, values)) = split_snapshots(sp.plus, sp.minus, cfg)
        assert _rel_err(values[0], ref[0]) <= 1e-12
        assert _rel_err(values[1], ref[1]) <= 1e-12


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


def plain_step(kernel, w):
    """One IFRK4 step with the kernel's operators, written as plain expressions:
    every product, sum and transform pass allocates its result. The kernel
    computes the same operations in the same order into its work arrays."""
    c, n = kernel.c, kernel.n

    def rhs(w):
        adv = w[0] - w[1]
        spectra = np.concatenate([kernel.ik1 * w, kernel.ik2 * w,
                                  [kernel.bs1 * adv], [kernel.bs2 * adv]])
        spectra[..., :c] = np.fft.ifft(spectra[..., :c], axis=-2)
        phys = np.fft.irfft(spectra, n, axis=-1)
        u1, u2 = phys[4], phys[5]
        spec = np.fft.rfft(u1 * phys[:2] + u2 * phys[2:4], axis=-1)
        spec[..., :c] = kernel.out[:, :c] * np.fft.fft(spec[..., :c], axis=-2)
        spec[..., c:] = 0.0
        return spec

    e_half, e_full = kernel.e_half, kernel.e_full
    k1 = rhs(w)
    k2 = rhs(e_half * (w + 0.5 * k1))
    k3 = rhs(e_half * w + 0.5 * k2)
    k4 = rhs(e_full * w + e_half * k3)
    return e_full * w + (e_full * k1 + 2.0 * e_half * (k2 + k3) + k4) / 6.0


def patch_kernel(n, nu):
    """A kernel on the n x n patch pair and its initial half spectra."""
    grid = Grid2D(n, 1.0)
    sp = split_signed(make_initial_data("patch_pair", grid, radius=0.15, separation=0.4))
    kernel = evolve._Kernel(grid, SolverConfig(nu=nu, dt=2e-3, t_end=1.0))
    return kernel, evolve.rfft2(np.stack([sp.plus.values, sp.minus.values]))


def traced_peak(fn):
    """(bytes ``fn()`` allocated at its peak beyond what was live before, its result)."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak - before, result


class TestAllocationFreeStep:
    @pytest.mark.parametrize("n", [32, 128])
    @pytest.mark.parametrize("nu", [0.0, 2e-3])
    def test_step_equals_plain_expressions(self, n, nu):
        kernel, w = patch_kernel(n, nu)
        w0, ref = w.copy(), w.copy()
        for _ in range(5):
            ref = plain_step(kernel, ref)
            assert kernel.step(w) is w  # advanced in place
        assert _rel_err(w, w0) > 1e-4
        assert w.tobytes() == ref.tobytes()

    # not n = 32: there numpy's ufunc iterator buffers operands as small as a
    # spectrum stack (about 18 kB a call), which no work array can avoid
    @pytest.mark.parametrize("n", [128, 256])
    def test_step_allocates_no_array(self, n):
        kernel, w = patch_kernel(n, 1e-3)
        kernel.step(w)  # warm-up: numpy and the FFT plans cache on first use
        peak, result = traced_peak(lambda: kernel.step(w))
        assert result is w
        # a few Python objects and numpy scalars, against 133 kB in one
        # spectrum at n = 128
        assert peak <= 4096, f"{peak} bytes"
