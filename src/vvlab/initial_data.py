"""Initial vorticity library: Taylor-Green, mollified patch pairs, random L1/Linf data.

Every constructor returns a mean-zero field (zero total circulation on the
torus); ``make_initial_data`` checks that, and refuses a field that is zero.
"""

from __future__ import annotations

import math

import numpy as np

from vvlab.fields import FieldError, Grid2D, ScalarField2D, torus_delta


def taylor_green(grid: Grid2D, amplitude: float = 2.0) -> ScalarField2D:
    """omega = amplitude * cos(2 pi x1 / L) * cos(2 pi x2 / L).

    Stationary for the advection term; under diffusion it decays as
    exp(-2 nu (2 pi / L)^2 t), which makes it the exact-solution regression
    datum for the solver.
    """
    x1, x2 = grid.coords()
    k = 2.0 * math.pi / grid.length
    return ScalarField2D(grid, amplitude * np.cos(k * x1) * np.cos(k * x2))


def taylor_green_decay_rate(grid: Grid2D, nu: float) -> float:
    """Exponential decay rate of the Taylor-Green vorticity under viscosity nu."""
    return 2.0 * nu * (2.0 * math.pi / grid.length) ** 2


def _mollified_disc(grid: Grid2D, center, radius: float, edge_width: float) -> np.ndarray:
    """Indicator of a disc smoothed with a tanh profile over ``edge_width``."""
    x1, x2 = grid.coords()
    d1 = torus_delta(x1, center[0], grid.length)
    d2 = torus_delta(x2, center[1], grid.length)
    rho = np.sqrt(d1 * d1 + d2 * d2)
    return 0.5 * (1.0 - np.tanh((rho - radius) / edge_width))


def patch_pair(
    grid: Grid2D,
    radius: float = 0.1,
    separation: float = 0.5,
    strength: float = 1.0,
    edge_cells: float = 2.5,
) -> ScalarField2D:
    """Two opposite-signed mollified disc patches (a Yudovich-class datum).

    The discs sit on the horizontal midline at distance ``separation`` (torus
    metric); edges are smoothed over ``edge_cells`` grid cells so the field is
    spectrally representable. Opposite strengths make the total circulation
    vanish by symmetry.
    """
    L = grid.length
    if not (0 < radius < L / 4):
        raise FieldError(f"patch radius {radius} must lie in (0, L/4) for L={L}")
    if not (2 * radius < separation < L - 2 * radius):
        raise FieldError(f"patch separation {separation} leaves the discs overlapping")
    if not edge_cells > 0:  # a negative width would swap the patches' signs
        raise FieldError(f"patch edge_cells {edge_cells} must be > 0")
    edge_width = edge_cells * grid.spacing
    c_plus = (L / 2 - separation / 2, L / 2)
    c_minus = (L / 2 + separation / 2, L / 2)
    w = strength * (
        _mollified_disc(grid, c_plus, radius, edge_width)
        - _mollified_disc(grid, c_minus, radius, edge_width)
    )
    return ScalarField2D(grid, w - w.mean())


def random_yudovich(
    grid: Grid2D,
    k_max: int = 6,
    amplitude: float = 1.0,
    rng_seed: int = 0,
) -> ScalarField2D:
    """Band-limited random field clipped to [-amplitude, amplitude], mean-corrected."""
    if not (0 < amplitude <= 1.0):
        raise FieldError("amplitude must lie in (0, 1]")
    if k_max < 1 or rng_seed < 0:  # a negative k_max would act as |k_max|
        raise FieldError(f"k_max must be >= 1 and rng_seed >= 0, got {k_max} and {rng_seed}")
    rng = np.random.default_rng(rng_seed)
    n = grid.n
    coef = np.zeros((n, n), dtype=complex)
    modes = [m if m <= n // 2 else m - n for m in range(n)]
    for i, mi in enumerate(modes):
        for j, mj in enumerate(modes):
            if 0 < mi * mi + mj * mj <= k_max * k_max:
                coef[i, j] = rng.normal() + 1j * rng.normal()
    # Hermitian symmetrization keeps the samples real
    vals = np.fft.ifft2(coef).real
    peak = np.abs(vals).max()
    if peak == 0:
        raise FieldError("degenerate random draw, increase k_max")
    vals = np.clip(vals / peak * amplitude, -amplitude, amplitude)
    vals -= vals.mean()
    return ScalarField2D(grid, vals)


GENERATORS = {"taylor_green": taylor_green, "patch_pair": patch_pair,
              "random_yudovich": random_yudovich}
KINDS = tuple(GENERATORS)


def make_initial_data(kind: str, grid: Grid2D, **params) -> ScalarField2D:
    """Dispatch to the named constructor and check that its field is mean-zero and not zero."""
    if kind not in GENERATORS:
        raise FieldError(f"unknown initial data kind {kind!r}; choose from {KINDS}")
    f = GENERATORS[kind](grid, **params)
    if not f.mean_zero:
        raise FieldError(f"initial data {kind!r} with params {params} is not mean-zero")
    if not f.values.any():
        raise FieldError(f"initial data {kind!r} with params {params} has no vorticity mass")
    return f
