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
from dataclasses import dataclass

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
    """Real scalar samples on a :class:`Grid2D`.

    Instances are treated as immutable: ``values`` is made read-only at
    construction and all operations return new fields.
    """

    grid: Grid2D
    values: np.ndarray

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
        """Unnormalized forward FFT coefficients of the samples."""
        return np.fft.fft2(self.values)


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


def torus_distance(x: np.ndarray, y: np.ndarray, length: float, work=None) -> np.ndarray:
    """Euclidean torus distance between points of shape (..., 2). Given a
    :class:`ParticleWork` (points of shape (m, 2)), it computes in the work
    arrays and returns a view of them."""
    x, y = (np.moveaxis(np.asarray(p, float), -1, 0) for p in (x, y))
    d, q = (np.empty(x.shape), np.empty(x.shape)) if work is None else (work.coords, work.weights)
    # torus_delta(x, y, length), then the norm
    np.subtract(x, y, out=d)
    np.subtract(d, np.multiply(length, np.round(np.divide(d, length, out=q), out=q), out=q), out=d)
    d1, d2, q1, q2 = d[0, ...], d[1, ...], q[0, ...], q[1, ...]
    return np.sqrt(np.add(np.multiply(d1, d1, out=q1), np.multiply(d2, d2, out=q2), out=q1), out=q1)


def torus_wrap(x: np.ndarray, period: float) -> np.ndarray:
    """``x`` folded in place into [0, period), skipped when every entry already
    lies there; returns ``x``."""
    if not x.size or (x.min() >= 0 and x.max() < period):
        return x
    np.mod(x, period, out=x)
    if x.max() == period:  # np.mod(-1e-18, 1.0) rounds up to 1.0; the mask is rarely built
        x[x == period] = 0.0
    return x


class ParticleWork:
    """Work arrays for m particles. :func:`interpolate_velocity` and
    :func:`torus_distance` given one write into it instead of allocating, and
    return views of it that stay valid until its next use."""

    def __init__(self, m: int):
        # interpolation: scaled coordinates, then fractions; torus_distance:
        # the displacement, left free once the distance is formed
        self.coords = np.empty((2, m))
        # interpolation: whole parts, then 1 - fractions; torus_distance: the
        # distance, in row 0
        self.weights = np.empty((2, m))
        self.lo = np.empty((2, m), dtype=np.intp)      # lower cell index per axis
        self.hi = np.empty((2, m), dtype=np.intp)      # upper cell index per axis
        self.corner = np.empty(m, dtype=np.intp)       # flat index of one corner
        self.value = np.empty(m)                       # one corner's weighted sample
        self.result = np.empty((2, m))                 # the interpolated components


def interpolate_velocity(u: VectorField2D, points: np.ndarray, work=None) -> np.ndarray:
    """Bilinear periodic interpolation of ``u`` at points of shape (m, 2), into
    the arrays of a :class:`ParticleWork` for m points if one is given."""
    pts = np.asarray(points, dtype=float)
    work = ParticleWork(len(pts)) if work is None else work
    n, h = u.grid.n, u.grid.spacing
    s, i0, i1 = work.coords, work.lo, work.hi
    torus_wrap(np.divide(pts.T, h, out=s), n)
    # s is nonnegative, so its whole part is the cell index; no mixed-type
    # subtraction, which would buffer its cast
    frac, whole = np.modf(s, out=(s, work.weights))
    np.copyto(i0, whole, casting="unsafe")
    np.bitwise_and(np.add(i0, 1, out=i1), n - 1, out=i1)  # i0 + 1 wrapped: n is a power of two
    fx, fy = frac
    gx, gy = np.subtract(1, frac, out=work.weights)
    # flat indices of the four corners into the row-major n x n samples
    r0, r1 = np.multiply(n, i0[0], out=i0[0]), np.multiply(n, i1[0], out=i1[0])
    corners = ((r0, i0[1], gx, gy), (r1, i0[1], fx, gy), (r0, i1[1], gx, fy), (r1, i1[1], fx, fy))
    # v00 * gx * gy + v10 * fx * gy + v01 * gx * fy + v11 * fx * fy, term by term
    out, value = work.result, work.value
    for i, (row, col, a, b) in enumerate(corners):
        k = np.add(row, col, out=work.corner)
        for comp, acc in zip((u.u1, u.u2), out):
            term = comp.take(k, out=value if i else acc, mode="clip")
            np.multiply(np.multiply(term, a, out=term), b, out=term)
            if i:
                np.add(acc, term, out=acc)
    return out.T
