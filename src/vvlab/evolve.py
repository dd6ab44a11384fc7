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
A snapshot inverts both parts and their undealiased velocity in one transform.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.fft import rfft2

from vvlab.fields import Grid2D, ScalarField2D, VectorField2D, norms, require_mean_zero

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
        # gradient spectra of both parts, then the two velocity spectra
        self.buf = np.empty((6, n, half), dtype=complex)
        self.n = n
        self.spacing = grid.spacing
        self.dt = cfg.dt

    def rhs(self, w: np.ndarray, check_cfl: bool = False) -> np.ndarray:
        """dt times the advection term -F[u . grad w] of both parts."""
        buf = self.buf
        np.multiply(self.ik1, w, out=buf[:2])
        np.multiply(self.ik2, w, out=buf[2:4])
        adv = w[0] - w[1]
        np.multiply(self.bs1, adv, out=buf[4])
        np.multiply(self.bs2, adv, out=buf[5])
        c = self.c
        phys = self._inverse(buf, c)
        u1, u2 = phys[4], phys[5]
        if check_cfl:
            _check_cfl(float(np.sqrt(u1 * u1 + u2 * u2).max()), self.spacing, self.dt)
        # rfft2's two passes, the column pass only where ``out`` is nonzero
        spec = np.fft.rfft(u1 * phys[:2] + u2 * phys[2:4], axis=-1)
        np.fft.fft(spec[..., :c], axis=-2, out=spec[..., :c])
        spec[..., c:] = 0.0
        np.multiply(self.out[:, :c], spec[..., :c], out=spec[..., :c])
        return spec

    def snapshot(self, w: np.ndarray, members: bool = True) -> np.ndarray:
        """Physical values of both parts (if ``members``), then the velocity (u1, u2)."""
        s = 2 if members else 0
        buf = self.buf[:s + 2]
        buf[:s] = w[:s]
        adv = w[0] - w[1]
        np.multiply(self.vel1, adv, out=buf[s])
        np.multiply(self.vel2, adv, out=buf[s + 1])
        return self._inverse(buf)

    def _inverse(self, buf: np.ndarray, cols: int | None = None) -> np.ndarray:
        """``irfft2`` of the scratch spectra ``buf``, its column pass done in place
        on the leading ``cols`` columns (all by default); the rest must be zero."""
        np.fft.ifft(buf[..., :cols], axis=-2, out=buf[..., :cols])
        return np.fft.irfft(buf, self.n, axis=-1)

    def step(self, w: np.ndarray) -> np.ndarray:
        e_half, e_full = self.e_half, self.e_full
        k1 = self.rhs(w, check_cfl=True)
        k2 = self.rhs(e_half * (w + 0.5 * k1))
        k3 = self.rhs(e_half * w + 0.5 * k2)
        k4 = self.rhs(e_full * w + e_half * k3)
        out = e_full * w + (e_full * k1 + 2.0 * e_half * (k2 + k3) + k4) / 6.0
        if not np.all(np.isfinite(out)):
            raise SolverError("non-finite spectral coefficients after step (blow-up?)")
        return out


def _steps_for(cfg: SolverConfig) -> int:
    n_steps = int(round(cfg.t_end / cfg.dt))
    if abs(n_steps * cfg.dt - cfg.t_end) > 1e-9 * max(cfg.t_end, cfg.dt):
        raise ValueError(f"t_end={cfg.t_end} is not an integer multiple of dt={cfg.dt}")
    return n_steps


def _integrate(kernel: _Kernel, w: np.ndarray, cfg: SolverConfig):
    """Advance the spectra ``w`` to t_end; yields (t, spectra) every
    ``record_every`` steps and after the last one."""
    n_steps = _steps_for(cfg)
    for s in range(1, n_steps + 1):
        try:
            w = kernel.step(w)
        except SolverError as e:
            raise SolverError(f"step {s} (t={s * cfg.dt:.4g}): {e}") from e
        if s % cfg.record_every == 0 or s == n_steps:
            yield s * cfg.dt, w


@dataclass
class SplitTrajectory:
    """Positive/negative vorticity parts advected by the velocity of their difference.

    The difference plus[i] - minus[i] coincides with the nonlinear solution, so
    one split run yields both the signed parts and the full field.
    ``velocity[i]`` is the Biot-Savart velocity of that difference.
    """

    times: list[float]
    plus: list[ScalarField2D]
    minus: list[ScalarField2D]
    velocity: list[VectorField2D]
    config: SolverConfig

    def state_at(self, t: float):
        i = int(np.argmin(np.abs(np.asarray(self.times) - t)))
        return self.plus[i], self.minus[i]

    def full_at(self, t: float) -> ScalarField2D:
        p, m = self.state_at(t)
        return ScalarField2D(p.grid, p.values - m.values)


def run_split(
    omega0_plus: ScalarField2D, omega0_minus: ScalarField2D, cfg: SolverConfig
) -> SplitTrajectory:
    """Evolve the signed parts as passive scalars in their own induced flow."""
    grid = omega0_plus.grid
    full0 = ScalarField2D(grid, omega0_plus.values - omega0_minus.values)
    require_mean_zero(full0, "time stepping")
    kernel = _Kernel(grid, cfg)
    w = rfft2(np.stack([omega0_plus.values, omega0_minus.values]))
    tr = SplitTrajectory(
        times=[0.0],
        plus=[omega0_plus],
        minus=[omega0_minus],
        velocity=[VectorField2D(grid, *kernel.snapshot(w, members=False))],
        config=cfg,
    )
    for t, w in _integrate(kernel, w, cfg):
        values = kernel.snapshot(w)
        tr.times.append(t)
        tr.plus.append(ScalarField2D(grid, values[0]))
        tr.minus.append(ScalarField2D(grid, values[1]))
        tr.velocity.append(VectorField2D(grid, values[2], values[3]))
    return tr


@dataclass(frozen=True)
class AprioriReport:
    """Worst-case violation margins of the L1/Linf a-priori bounds."""

    l1_margin: float
    linf_margin: float
    worst_index: int
    ok: bool


def check_apriori(tr: SplitTrajectory, tol: float = 1e-2) -> AprioriReport:
    """Check that the full field's L1/Linf never exceed their initial values
    (equality for nu=0).

    Margins are relative overshoots max_t ||w(t)|| / ||w0|| - 1; for the Euler
    branch undershoot is also counted since both norms are conserved.
    """
    if len(tr.times) < 2:
        raise ValueError("trajectory needs at least 2 snapshots")
    mons = [norms(tr.full_at(t)) for t in tr.times]
    rel_l1 = np.array([m.l1 / mons[0].l1 - 1.0 for m in mons])
    rel_linf = np.array([m.linf / mons[0].linf - 1.0 for m in mons])
    if tr.config.nu == 0:
        viol = np.maximum(np.abs(rel_l1), np.abs(rel_linf))
    else:
        viol = np.maximum(rel_l1, rel_linf)
    return AprioriReport(
        l1_margin=float(np.max(rel_l1) if tr.config.nu > 0 else np.max(np.abs(rel_l1))),
        linf_margin=float(np.max(rel_linf) if tr.config.nu > 0 else np.max(np.abs(rel_linf))),
        worst_index=int(np.argmax(viol)),
        ok=bool(np.max(viol) <= tol),
    )
