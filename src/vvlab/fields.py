"""Periodic grids, scalar/vector fields, Biot-Savart and norms.

Conventions fixed project-wide:

* the domain is the doubly periodic square [0, L)^2 sampled on an n x n grid
  (n a power of two), midpoint quadrature for all physical-space norms;
* forward FFT is unnormalized, the inverse carries the 1/n^2 factor
  (numpy's default), so a constant field c has a single spectral entry c*n^2;
* velocity is reconstructed from mean-zero vorticity as u = grad^perp psi with
  Lap psi = omega, solved spectrally.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

TWO_PI = 2.0 * math.pi

# relative tolerance used to decide whether a sampled field has zero mean
MEAN_ZERO_RTOL = 1e-12


class FieldError(ValueError):
    """Invalid field input (non-finite samples, wrong grid, ...)."""


class NotMeanZeroError(FieldError):
    """Operation requires a mean-zero field (torus Poisson solvability)."""


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class Grid2D:
    """Uniform n x n grid on the periodic square of side ``length``."""

    n: int
    length: float = TWO_PI

    def __post_init__(self):
        if self.n < 8 or not _is_power_of_two(self.n):
            raise ValueError(f"grid size must be a power of two >= 8, got n={self.n}")
        if not (self.length > 0 and math.isfinite(self.length)):
            raise ValueError(f"domain side must be positive and finite, got {self.length}")

    @property
    def spacing(self) -> float:
        return self.length / self.n

    def coords(self):
        """Cell sample coordinates (x1, x2) as two n x n arrays (ij indexing)."""
        x = np.arange(self.n) * self.spacing
        return np.meshgrid(x, x, indexing="ij")

    def wavenumbers(self):
        """(k1, k2, k_sq, inv_k_sq) with inv_k_sq[0,0] = 0."""
        return _wavenumbers(self.n, self.length)


@functools.lru_cache(maxsize=32)
def _wavenumbers(n: int, length: float):
    k1d = TWO_PI / length * np.fft.fftfreq(n, d=1.0 / n)
    k1, k2 = np.meshgrid(k1d, k1d, indexing="ij")
    k_sq = k1 * k1 + k2 * k2
    inv_k_sq = np.zeros_like(k_sq)
    nz = k_sq > 0
    inv_k_sq[nz] = 1.0 / k_sq[nz]
    for a in (k1, k2, k_sq, inv_k_sq):
        a.flags.writeable = False
    return k1, k2, k_sq, inv_k_sq


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=float)
    a.flags.writeable = False
    return a


@dataclass
class ScalarField2D:
    """Real scalar samples on a :class:`Grid2D`, with a lazily cached spectrum.

    Instances are treated as immutable: ``values`` is made read-only at
    construction and all operations return new fields.
    """

    grid: Grid2D
    values: np.ndarray
    _spectral: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.grid.n, self.grid.n):
            raise FieldError(f"values shape {v.shape} does not match grid n={self.grid.n}")
        if not np.all(np.isfinite(v)):
            raise FieldError("scalar field contains non-finite samples")
        self.values = _frozen(v)

    @property
    def mean_zero(self) -> bool:
        m = float(self.values.mean())
        scale = float(np.abs(self.values).max())
        return abs(m) <= MEAN_ZERO_RTOL * max(scale, 1.0)

    @property
    def spectral(self) -> np.ndarray:
        """Unnormalized forward FFT coefficients of the samples (cached)."""
        if self._spectral is None:
            self._spectral = np.fft.fft2(self.values)
            self._spectral.flags.writeable = False
        return self._spectral

@dataclass
class VectorField2D:
    """Two-component real field (u1, u2) on a :class:`Grid2D`."""

    grid: Grid2D
    u1: np.ndarray
    u2: np.ndarray

    def __post_init__(self):
        for name in ("u1", "u2"):
            v = np.asarray(getattr(self, name), dtype=float)
            if v.shape != (self.grid.n, self.grid.n):
                raise FieldError(f"{name} shape {v.shape} does not match grid n={self.grid.n}")
            if not np.all(np.isfinite(v)):
                raise FieldError(f"vector component {name} contains non-finite samples")
            setattr(self, name, _frozen(v))

    def max_speed(self) -> float:
        return float(np.sqrt(self.u1 ** 2 + self.u2 ** 2).max())


@dataclass(frozen=True)
class NormReport:
    """Grid-quadrature norms of a scalar field; its H^-1 norm is :func:`hm1_norm`."""

    l1: float
    l2: float
    linf: float


def require_mean_zero(f: ScalarField2D, what: str) -> None:
    if not f.mean_zero:
        raise NotMeanZeroError(
            f"{what} requires a mean-zero field on the torus "
            f"(mean = {float(f.values.mean()):.3e}); subtract the mean or fix the data"
        )


def biot_savart(omega: ScalarField2D) -> VectorField2D:
    """Divergence-free velocity u = grad^perp psi with Lap psi = omega.

    Spectrally: psi_hat = -omega_hat / |k|^2, u1 = -i k2 psi_hat,
    u2 = i k1 psi_hat, and u_hat(0) = 0.
    """
    require_mean_zero(omega, "biot_savart")
    k1, k2, _, inv_k_sq = omega.grid.wavenumbers()
    psi_hat = -omega.spectral * inv_k_sq
    u1 = np.fft.ifft2(-1j * k2 * psi_hat).real
    u2 = np.fft.ifft2(1j * k1 * psi_hat).real
    return VectorField2D(omega.grid, u1, u2)


def hm1_norm(f: ScalarField2D) -> float:
    """Homogeneous H^-1 norm; requires a mean-zero field.

    Normalized so that Parseval holds against the physical-space L2 norm:
    hm1^2 = (spacing/n)^2 * sum_{k != 0} |f_hat(k)|^2 / |k|^2.
    """
    require_mean_zero(f, "hm1 norm")
    _, _, _, inv_k_sq = f.grid.wavenumbers()
    scale = (f.grid.spacing / f.grid.n) ** 2
    return math.sqrt(scale * float(np.sum(np.abs(f.spectral) ** 2 * inv_k_sq)))


def norms(f: ScalarField2D) -> NormReport:
    """L1/L2/Linf by midpoint quadrature."""
    dA = f.grid.spacing ** 2
    l1 = dA * float(np.abs(f.values).sum())
    l2 = math.sqrt(dA * float((f.values ** 2).sum()))
    linf = float(np.abs(f.values).max())
    return NormReport(l1=l1, l2=l2, linf=linf)


def torus_delta(a: np.ndarray, b: np.ndarray, length: float) -> np.ndarray:
    """Signed minimal displacement a - b on the periodic interval."""
    d = a - b
    return d - length * np.round(d / length)


def torus_distance(x: np.ndarray, y: np.ndarray, length: float) -> np.ndarray:
    """Euclidean torus distance between points of shape (..., 2)."""
    d = torus_delta(np.asarray(x, float), np.asarray(y, float), length)
    d1, d2 = d[..., 0], d[..., 1]
    return np.sqrt(d1 * d1 + d2 * d2)


def torus_wrap(x: np.ndarray, period: float) -> np.ndarray:
    """``x`` folded into [0, period), skipped when every entry already lies there."""
    if x.size and x.min() >= 0 and x.max() < period:
        return x
    y = np.mod(x, period)
    y[y == period] = 0.0  # np.mod(-1e-18, 1.0) rounds up to 1.0
    return y


def interpolate_velocity(u: VectorField2D, points: np.ndarray) -> np.ndarray:
    """Bilinear periodic interpolation of ``u`` at points of shape (m, 2)."""
    pts = np.asarray(points, dtype=float)
    n, h = u.grid.n, u.grid.spacing
    s = torus_wrap(pts / h, n)
    i0 = s.astype(int)  # truncation is the floor: s is nonnegative
    frac = s - i0
    i1 = i0 + 1
    i1[i1 == n] = 0
    fx, fy = frac[:, 0], frac[:, 1]
    gx, gy = 1 - fx, 1 - fy
    # flat indices of the four corners into the row-major n x n samples
    r0, r1 = n * i0[:, 0], n * i1[:, 0]
    corners = (r0 + i0[:, 1], r1 + i0[:, 1], r0 + i1[:, 1], r1 + i1[:, 1])
    out = np.empty_like(pts)
    for c, comp in enumerate((u.u1, u.u2)):
        v00, v10, v01, v11 = (comp.take(k) for k in corners)
        out[:, c] = v00 * gx * gy + v10 * fx * gy + v01 * gx * fy + v11 * fx * fy
    return out
