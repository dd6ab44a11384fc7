"""Monte-Carlo coupling of inviscid and viscous trajectories.

An ensemble is one weighted particle set: X follows the inviscid velocity at
nu = 0, Y the viscous velocity plus Brownian forcing of intensity sqrt(2 nu)
from the same start. The weighted second moment of the separation of Y from X
is the coupling cost Q(t), an upper bound (up to MC and binning error) for the
squared 2-Wasserstein distance between the viscous and inviscid signed
vorticity parts.

An ensemble owns a copy of its positions and the work arrays of its particle
count; ``advance_coupling`` moves it in place, so a step allocates no array
of the particle count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import numpy.random  # noqa: F401  (numpy loads it lazily; load it here, not inside a run)

from vvlab.envelope import rhs as envelope_rhs
from vvlab.fields import (
    ParticleWork,
    ScalarField2D,
    VectorField2D,
    interpolate_velocity,
    norms,
    torus_distance,
    torus_wrap,
)
from vvlab.transport import split_signed


class CouplingError(RuntimeError):
    pass


@dataclass
class CouplingEnsemble:
    x: np.ndarray        # (n, 2) positions
    weights: np.ndarray  # (n,)
    signs: np.ndarray    # (n,) +1 / -1
    length: float
    rng_seed: int
    time: float = 0.0
    step_index: int = 0

    def __post_init__(self):
        # a copy: a step writes the positions in place, never into the caller's array
        self.x = torus_wrap(np.array(self.x, float).reshape(-1, 2), self.length)
        self.weights = np.array(self.weights, float).reshape(-1)
        self.signs = np.array(self.signs, int).reshape(-1)
        # the work arrays of the steps and estimates
        m = len(self.weights)
        self._particles = ParticleWork(m)
        self._delta = np.empty((m, 2))  # a step's drift, then its noise
        self._finite = np.empty((m, 2), dtype=bool)
        # per sign: the sign, its particles' indices and their total weight
        self._by_sign = [(sign, np.flatnonzero(self.signs == sign), self.mass(sign))
                         for sign in (1, -1)]

    def __len__(self):
        return len(self.weights)

    def mass(self, sign: int) -> float:
        return float(self.weights[self.signs == sign].sum())


@dataclass
class QEstimate:
    """One row of a ``q_nu_*.csv`` table: its fields are the file's columns, in order."""

    t: float
    q_plus: float
    q_minus: float
    q: float = field(init=False)
    stderr: float

    def __post_init__(self):
        self.q = self.q_plus + self.q_minus


@dataclass
class QSeries:
    entries: list[QEstimate]

    @property
    def times(self):
        return np.array([e.t for e in self.entries])

    @property
    def q(self):
        return np.array([e.q for e in self.entries])

    @property
    def stderr(self):
        return np.array([e.stderr for e in self.entries])


def _sample_part(part: ScalarField2D, n_particles: int, rng) -> tuple[np.ndarray, float]:
    """Stratified positions from a nonnegative field: particles allocated to
    cells proportionally to cell mass (floor + multinomial residual), uniform
    jitter within each cell. Returns (positions, total mass)."""
    h = part.grid.spacing
    w = (h * h) * part.values.ravel()
    total = float(w.sum())
    if total <= 0 or n_particles == 0:
        return np.zeros((0, 2)), total
    p = w / total
    base = np.floor(p * n_particles).astype(int)
    short = n_particles - int(base.sum())
    if short > 0:
        resid = p * n_particles - base
        resid_sum = resid.sum()
        base += rng.multinomial(short, resid / resid_sum if resid_sum > 0 else p)
    cells = np.repeat(np.arange(len(w)), base)
    n = part.grid.n
    ci = cells // n
    cj = cells % n
    jitter = rng.uniform(-0.5, 0.5, size=(len(cells), 2))
    pos = np.stack([(ci + jitter[:, 0]) * h, (cj + jitter[:, 1]) * h], axis=-1)
    return np.mod(pos, part.grid.length), total


def init_coupling(omega0: ScalarField2D, n_particles: int, rng_seed: int) -> CouplingEnsemble:
    """Particles sampled from the signed parts of omega0, the common start of
    X and of every Y, so Q(0) = 0 exactly.

    Particle counts per sign are proportional to the sign masses; the weights
    within a sign are equal and sum to that part's L1 mass.
    """
    if n_particles < 1:
        raise CouplingError("n_particles must be >= 1")
    split = split_signed(omega0)
    rng = np.random.default_rng([rng_seed, 0x1D])
    m_plus, m_minus = norms(split.plus).l1, norms(split.minus).l1
    total = m_plus + m_minus
    if total <= 0:
        raise CouplingError("initial vorticity has no mass")
    n_plus = int(round(n_particles * m_plus / total))
    n_minus = n_particles - n_plus
    xs, ws, ss = [], [], []
    for part, n_part, m_part, sign in (
        (split.plus, n_plus, m_plus, 1),
        (split.minus, n_minus, m_minus, -1),
    ):
        pos, mass = _sample_part(part, n_part, rng)
        if len(pos) == 0:
            continue
        xs.append(pos)
        ws.append(np.full(len(pos), mass / len(pos)))
        ss.append(np.full(len(pos), sign, dtype=int))
    return CouplingEnsemble(
        x=np.vstack(xs),
        weights=np.concatenate(ws),
        signs=np.concatenate(ss),
        length=omega0.grid.length,
        rng_seed=rng_seed,
    )


def advance_coupling(ens: CouplingEnsemble, u: VectorField2D, nu: float, dt: float) -> CouplingEnsemble:
    """One Euler-Maruyama step of ``ens`` in ``u``, in place: x += dt u(x) +
    sqrt(2 nu dt) noise, with no noise at nu = 0. Returns ``ens``.

    The Gaussian draw is keyed on (ensemble seed, step index), so a run is
    reproducible and independent of any internal parallelization order, and
    ensembles of one seed at different viscosities take the same normals. The
    step writes into the ensemble's own arrays and allocates none of the
    particle count. After a CouplingError the positions are the failed step's.
    """
    x, delta = ens.x, ens._delta
    # the interpolation is a transposed view, which numpy would scale through
    # a buffer of its own; copied first, it is scaled in place
    np.copyto(delta, interpolate_velocity(u, x, ens._particles))
    np.add(x, np.multiply(dt, delta, out=delta), out=x)
    if nu > 0:
        rng = np.random.Generator(np.random.Philox(key=[ens.rng_seed, ens.step_index + 1]))
        noise = rng.standard_normal(out=delta)
        np.add(x, np.multiply(math.sqrt(2.0 * nu * dt), noise, out=noise), out=x)
    if not np.isfinite(x, out=ens._finite).all():
        bad = int(np.argwhere(~ens._finite)[0][0])
        raise CouplingError(f"non-finite particle position at index {bad}")
    torus_wrap(x, ens.length)
    ens.time += dt
    ens.step_index += 1
    return ens


def estimate_q(ens: CouplingEnsemble, x: np.ndarray) -> QEstimate:
    """Weighted second moment of the separation of ``ens`` (Y) from the
    positions ``x`` (X) of the same particles, split by sign.

    The standard error is the jackknife estimate over particles (signs pooled
    in quadrature).
    """
    if len(ens) == 0:
        raise CouplingError("empty ensemble")
    if np.shape(x) != ens.x.shape:  # torus_distance would broadcast a single point
        raise CouplingError(f"positions of shape {np.shape(x)} for {len(ens)} particles")
    dist = torus_distance(x, ens.x, ens.length, ens._particles)
    d2 = np.square(dist, out=dist)
    # the per-sign values and their leave-one-out means, in the rows that
    # torus_distance leaves free
    vals_buf, loo_buf = ens._particles.coords
    out = {}
    var = 0.0
    for sign, idx, mass in ens._by_sign:
        n = len(idx)
        if n == 0:
            out[sign] = 0.0
            continue
        vals = np.take(d2, idx, out=vals_buf[:n], mode="clip")
        q_s = mass * float(vals.mean())
        out[sign] = q_s
        if n > 1:
            # jackknife of the mean, scaled by the (fixed) mass
            loo = np.divide(np.subtract(vals.sum(), vals, out=loo_buf[:n]), n - 1, out=loo_buf[:n])
            dev = np.square(np.subtract(loo, loo.mean(), out=loo), out=loo)
            var += mass * mass * (n - 1) / n * float(dev.sum())
    return QEstimate(t=ens.time, q_plus=out[1], q_minus=out[-1], stderr=math.sqrt(var))


def moving_average(y: np.ndarray, window: int) -> np.ndarray:
    """Centered moving average with edge shrinkage (window must be odd)."""
    if window % 2 == 0:
        raise ValueError("window must be odd")
    half = window // 2
    out = np.empty_like(y, dtype=float)
    for i in range(len(y)):
        lo, hi = max(0, i - half), min(len(y), i + half + 1)
        out[i] = y[lo:hi].mean()
    return out


@dataclass(frozen=True)
class Lemma1Report:
    c_fit: float
    conclusive: bool


def check_lemma1(series: QSeries, nu: float) -> Lemma1Report:
    """Fit the constant in dQ/dt <= C [Q (1 + log(1 + 1/Q)) + nu].

    Smooths Q with a 5-point centered moving average, takes centered finite
    differences, and reports the largest positive ratio of dQ/dt to the
    envelope value. A flat or decreasing series reports 0. Marked
    inconclusive when the smoothed series is still dominated by noise.
    """
    t = series.times
    q = series.q
    if len(t) < 10:
        raise ValueError("need at least 10 entries to fit the inequality constant")
    qs = moving_average(q, 5)
    dq = np.gradient(qs, t)
    denom = np.array([envelope_rhs(max(v, 0.0), nu, 1.0) for v in qs])
    c_fit = float(max(np.max(dq / denom), 0.0))
    resid = q - qs
    noise = float(np.std(resid))
    scale = float(np.max(qs) - np.min(qs))
    # a usable series rises above its own noise and grows most of the time
    inc = np.diff(qs)
    frac_up = float((inc > 0).mean()) if len(inc) else 0.0
    conclusive = scale > 0 and noise < 0.5 * scale and frac_up >= 0.7
    return Lemma1Report(c_fit=c_fit, conclusive=conclusive)


def lemma1_ladder_stable(c_fits) -> bool:
    """True when the fitted constants across a nu-ladder agree within a factor of 2."""
    c = np.asarray(list(c_fits), float)
    if np.any(c <= 0):
        return bool(np.all(c == 0))
    return bool(c.max() / c.min() < 2.0)
