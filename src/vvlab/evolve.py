"""Pseudo-spectral time integration of the 2D vorticity equations.

Every trajectory is a split run: the positive and negative vorticity parts are
advected as passive scalars by the velocity of their difference, which is the
vorticity itself, so one run yields the signed parts and the full field.
One integrating-factor RK4 kernel (Kassam & Trefethen, SISC 2005) advances
the pair: advection by classical RK4, diffusion exactly by the factor
exp(-nu |k|^2 dt), so nu = 0 selects the Euler branch. It acts on the two
real-FFT half spectra, shape (2, n, n//2+1). The gradient and Biot-Savart
multipliers, with the 2/3-rule dealiasing mask folded in, and the integrating
factors are built once per trajectory. Each RK stage makes one batched inverse
transform (2 velocity and 4 gradient spectra) and one batched forward
transform (2 advection products), both ``numpy.fft``, the FFT
:mod:`vvlab.fields` uses too. Each is ``irfft2`` or ``rfft2`` split into its
two passes, which is bit for bit the same, and each complex column pass runs
only on the leading half-spectrum columns the dealiasing mask keeps (n//3 + 1
of n//2 + 1): every multiplier is zero past them. The inverse column pass is
done in place in the scratch spectra. The mask also zeroes the Nyquist row and
column, which the real part of a complex inverse transform discards.
A step allocates nothing: it advances the spectra in place, and every product,
sum and transform writes with ``out=`` into work arrays built with the kernel,
in the operations and order of the plain RK4 expressions, so the bits are
theirs. A snapshot inverts both parts and their undealiased velocity in one
transform.

:func:`snapshots` is the one driver: a generator that yields each snapshot as
it is reached, in a fresh array, so a caller keeps only what it needs.
:func:`run_split` reads every run once: it checks each snapshot against the
L1/Linf and mass bounds with :class:`AprioriMonitor`, keeps the snapshots the
caller asks for and hands it each interval's midpoint velocity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.fft import rfft2

from vvlab.fields import Grid2D, ScalarField2D, require_mean_zero

CFL_LIMIT = 0.5


class SolverError(RuntimeError):
    """Time stepping failed (CFL violation, NaN blow-up)."""


@dataclass(frozen=True)
class SolverConfig:
    nu: float
    dt: float
    t_end: float
    record_every: int = 1

    def __post_init__(self):
        if self.nu < 0:
            raise ValueError(f"viscosity must be >= 0, got {self.nu}")
        if self.dt <= 0:
            raise ValueError(f"time step must be > 0, got {self.dt}")
        if self.t_end < 0:
            raise ValueError(f"t_end must be >= 0, got {self.t_end}")
        if self.record_every < 1:
            raise ValueError("record_every must be >= 1")


def _check_cfl(max_speed: float, spacing: float, dt: float) -> None:
    cfl = dt * max_speed / spacing
    if cfl > CFL_LIMIT:
        raise SolverError(
            f"CFL violation: dt*max|u|/h = {cfl:.3f} > {CFL_LIMIT} (max|u| = {max_speed:.4g}); "
            "reduce dt"
        )


class _Kernel:
    """IFRK4 on the (plus, minus) pair of half spectra, with its operators built once."""

    def __init__(self, grid: Grid2D, cfg: SolverConfig):
        n, half = grid.n, grid.n // 2 + 1
        k1, k2, k_sq, inv_k_sq = (a[:, :half] for a in grid.wavenumbers())
        # the 2/3 rule; it also zeroes the Nyquist row and column
        keep = np.abs(np.fft.fftfreq(n, d=1.0 / n)) <= n // 3
        mask = np.outer(keep, keep[:half]).astype(float)
        self.ik1 = 1j * k1 * mask
        self.ik2 = 1j * k2 * mask
        # u = grad^perp psi with psi_hat = -omega_hat / |k|^2; the advecting
        # velocity is dealiased, the snapshot one is not, like fields.biot_savart
        self.vel1 = 1j * k2 * inv_k_sq
        self.vel2 = -1j * k1 * inv_k_sq
        self.vel1[:, n // 2] = 0.0
        self.vel2[n // 2, :] = 0.0
        self.bs1, self.bs2 = self.vel1 * mask, self.vel2 * mask
        self.out = -cfg.dt * mask
        self.out[0, 0] = 0.0  # exact mean-zero preservation
        # the leading columns the mask keeps; every multiplier is zero past them
        self.c = n // 3 + 1
        self.e_half = np.exp(-cfg.nu * k_sq * cfg.dt / 2.0)
        self.e_full = self.e_half * self.e_half
        self.e_twice = 2.0 * self.e_half
        # the real multipliers cast to complex once, as each product with a
        # spectrum would cast them (into a fresh array every time)
        self.out, self.e_half, self.e_full, self.e_twice = (
            a.astype(complex) for a in (self.out, self.e_half, self.e_full, self.e_twice)
        )
        # work arrays, written with ``out=`` by every step and reused until the
        # kernel goes: the gradient spectra of both parts and the two velocity
        # spectra, their physical values, the slope k1, the sum k2 + k3, and the
        # stage input, which also holds k3 and then k4
        self.buf = np.empty((6, n, half), dtype=complex)
        self.phys = np.empty((6, n, n))
        self.k1 = np.empty((2, n, half), dtype=complex)
        self.k23 = np.empty_like(self.k1)
        self.stage = np.empty_like(self.k1)
        self.finite = np.empty(self.k1.shape, dtype=bool)
        self.n = n
        self.spacing = grid.spacing
        self.dt = cfg.dt

    def rhs(self, w: np.ndarray, dest: np.ndarray, check_cfl: bool = False) -> np.ndarray:
        """dt times the advection term -F[u . grad w] of both parts, written to
        ``dest``, which may be ``w`` itself."""
        buf, phys, c = self.buf, self.phys, self.c
        np.multiply(self.ik1, w, out=buf[:2])
        np.multiply(self.ik2, w, out=buf[2:4])
        adv = np.subtract(w[0], w[1], out=buf[4])
        np.multiply(self.bs2, adv, out=buf[5])
        np.multiply(self.bs1, adv, out=buf[4])
        self._inverse(buf, phys, c)
        u1, u2 = phys[4], phys[5]
        # u . grad w of both parts, over their x1-derivatives
        np.multiply(u1, phys[:2], out=phys[:2])
        np.add(phys[:2], np.multiply(u2, phys[2:4], out=phys[2:4]), out=phys[:2])
        if check_cfl:
            # the speed, in the rows the x2-derivatives have left
            speed = np.multiply(u1, u1, out=phys[2])
            np.sqrt(np.add(speed, np.multiply(u2, u2, out=phys[3]), out=speed), out=speed)
            _check_cfl(float(speed.max()), self.spacing, self.dt)
        # rfft2's two passes, the column pass only where ``out`` is nonzero;
        # ``out`` multiplies the whole width, because numpy copies a strided
        # column slice that is both input and output, and the tail is zeroed
        np.fft.rfft(phys[:2], axis=-1, out=dest)
        np.fft.fft(dest[..., :c], axis=-2, out=dest[..., :c])
        np.multiply(self.out, dest, out=dest)
        dest[..., c:] = 0.0
        return dest

    def snapshot(self, w: np.ndarray) -> np.ndarray:
        """Physical values of both parts, then the velocity (u1, u2)."""
        buf = self.buf[:4]
        buf[:2] = w
        adv = np.subtract(w[0], w[1], out=buf[3])
        np.multiply(self.vel1, adv, out=buf[2])
        np.multiply(self.vel2, adv, out=buf[3])
        return self._inverse(buf)

    def _inverse(self, buf: np.ndarray, dest: np.ndarray | None = None,
                 cols: int | None = None) -> np.ndarray:
        """``irfft2`` of the scratch spectra ``buf`` (into ``dest`` if given), its
        column pass done in place on the leading ``cols`` columns (all by
        default); the rest must be zero."""
        np.fft.ifft(buf[..., :cols], axis=-2, out=buf[..., :cols])
        return np.fft.irfft(buf, self.n, axis=-1, out=dest)

    def step(self, w: np.ndarray) -> np.ndarray:
        """Advance the spectra ``w`` one step in place and return them. Each
        line computes what the comment above it says, in that order, into the
        work arrays."""
        e_half, e_full = self.e_half, self.e_full
        k1, k23, x, tmp = self.k1, self.k23, self.stage, self.buf[:2]
        self.rhs(w, k1, check_cfl=True)
        # k2 = rhs(e_half * (w + 0.5 * k1))
        np.multiply(e_half, np.add(w, np.multiply(0.5, k1, out=x), out=x), out=x)
        self.rhs(x, k23)
        # k3 = rhs(e_half * w + 0.5 * k2)
        np.add(np.multiply(e_half, w, out=x), np.multiply(0.5, k23, out=tmp), out=x)
        self.rhs(x, x)
        # k4 = rhs(e_full * w + e_half * k3), after k23 = k2 + k3
        np.add(k23, x, out=k23)
        np.multiply(e_half, x, out=tmp)
        np.add(np.multiply(e_full, w, out=x), tmp, out=x)
        self.rhs(x, x)
        # w = e_full * w + (e_full * k1 + 2.0 * e_half * (k2 + k3) + k4) / 6.0
        np.add(np.multiply(e_full, k1, out=k1), np.multiply(self.e_twice, k23, out=k23), out=k1)
        np.divide(np.add(k1, x, out=k1), 6.0, out=k1)
        np.add(np.multiply(e_full, w, out=w), k1, out=w)
        if not np.isfinite(w, out=self.finite).all():
            raise SolverError("non-finite spectral coefficients after step (blow-up?)")
        return w


def _steps_for(cfg: SolverConfig) -> int:
    n_steps = int(round(cfg.t_end / cfg.dt))
    if abs(n_steps * cfg.dt - cfg.t_end) > 1e-9 * max(cfg.t_end, cfg.dt):
        raise ValueError(f"t_end={cfg.t_end} is not an integer multiple of dt={cfg.dt}")
    return n_steps


def snapshots(omega0_plus: ScalarField2D, omega0_minus: ScalarField2D, cfg: SolverConfig):
    """Evolve the signed parts as passive scalars in their own induced flow.

    Yields (step, values) at step 0, every ``record_every`` steps and after the
    last one. ``values`` is a fresh (4, n, n) array: the plus and minus parts,
    then the velocity (u1, u2) of their difference. Step 0 holds the given parts.
    """
    grid = omega0_plus.grid
    full0 = ScalarField2D(grid, omega0_plus.values - omega0_minus.values)
    require_mean_zero(full0, "time stepping")
    n_steps = _steps_for(cfg)
    kernel = _Kernel(grid, cfg)
    w = rfft2(np.stack([omega0_plus.values, omega0_minus.values]))
    first = kernel.snapshot(w)
    # the given parts, not their round trip through the transforms
    first[0], first[1] = omega0_plus.values, omega0_minus.values
    yield 0, first
    del first  # the caller's to keep or drop: the run holds no snapshot
    for s in range(1, n_steps + 1):
        try:
            kernel.step(w)
        except SolverError as e:
            raise SolverError(f"step {s} (t={s * cfg.dt:.4g}): {e}") from e
        if s % cfg.record_every == 0 or s == n_steps:
            yield s, kernel.snapshot(w)


class AprioriMonitor:
    """The a-priori bounds of one split run (Chemin 1996), fed its snapshots in
    order: each part keeps its mass, and the L1 and Linf of plus - minus do not
    grow, nor fall at nu = 0, where they are conserved. ``worst`` is the largest
    relative drift from the first snapshot as (drift, what, t), 0 from a zero start."""

    TOL = 1e-2  # the largest drift a run may show

    def __init__(self, nu: float):
        self.nu, self.first, self.worst = nu, None, (0.0, None, 0.0)

    def feed(self, t: float, values: np.ndarray) -> None:
        """Take the snapshot ``values`` at time t, as :func:`snapshots` yields it."""
        full = np.subtract(values[0], values[1])
        np.abs(full, out=full)
        now = (values[0].sum(), values[1].sum(), full.sum(), full.max())
        if self.first is None:
            self.first = now
        for i, (a, b) in enumerate(zip(now, self.first)):
            drift = float(a / b - 1.0) if b else 0.0
            counted = drift if i > 1 and self.nu > 0 else abs(drift)
            if counted > self.worst[0]:
                self.worst = (counted, ("plus mass", "minus mass", "L1", "Linf")[i], t)


def run_split(omega0_plus: ScalarField2D, omega0_minus: ScalarField2D, cfg: SolverConfig,
              at_step: dict, interval=None) -> tuple:
    """Read one run of :func:`snapshots` once, checking the a-priori bounds on
    every snapshot. Given ``interval``, calls ``interval(h, mid)`` with each
    interval's length and the mean of its end velocities, in one (2, n, n) work
    array that the next interval rewrites. Returns the snapshots at the steps of
    ``at_step`` ({solver step: t}), by t, and the run's a-priori violations (at most one)."""
    monitor, kept, mid = AprioriMonitor(cfg.nu), {}, None
    for s, values in snapshots(omega0_plus, omega0_minus, cfg):
        t = s * cfg.dt
        monitor.feed(t, values)
        if s and interval is not None:
            mid = np.add(u_prev, values[2:], out=mid)  # the first interval makes the work array
            np.multiply(0.5, mid, out=mid)
            interval(t - t_prev, mid)
        if s in at_step:
            kept[at_step[s]] = values
        t_prev, u_prev = t, values[2:]
    drift, what, t = monitor.worst
    if drift <= monitor.TOL:
        return kept, []
    return kept, [f"nu={cfg.nu} t={t:.6g}: a-priori {what} drift {drift:.3e} exceeds {monitor.TOL}"]
