"""Differential-inequality machinery for the coupling cost.

Integrates the upper envelope dQ/dt = C [Q (1 + log(1 + 1/Q)) + nu], locates
the crossover time at which the logarithmic term takes over from the
nu-dominated regime, and evaluates the two rate formulas (sqrt(nu t) for short
times, (nu/|log nu|)^(exp(-C t)/2) at fixed times).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class OsgoodParams:
    c: float
    nu: float
    q0: float = 0.0

    def __post_init__(self):
        if self.c <= 0:
            raise ValueError("constant C must be > 0")
        if self.nu < 0:
            raise ValueError("nu must be >= 0")
        if self.q0 < 0:
            raise ValueError("q0 must be >= 0")


class Regime(enum.Enum):
    SHORT_TIME = "short_time"
    FIXED_TIME = "fixed_time"


@dataclass(frozen=True)
class RatePrediction:
    regime: Regime
    value: float
    t1: float
    in_regime: bool


def osgood_modulus(q) -> np.ndarray | float:
    """s -> s (1 + log(1 + 1/s)), continuously extended by 0 at s = 0."""
    q = np.asarray(q, dtype=float)
    out = np.zeros_like(q)
    pos = q > 0
    out[pos] = q[pos] * (1.0 + np.log1p(1.0 / q[pos]))
    return out if out.ndim else float(out)


def rhs(q: float, nu: float, c: float) -> float:
    """Envelope right-hand side C [q (1 + log(1 + 1/q)) + nu]; q = 0 gives C nu."""
    if q < 0:
        raise ValueError(f"q must be >= 0, got {q}")
    return c * (float(osgood_modulus(q)) + nu)


@dataclass
class EnvelopeCurve:
    times: np.ndarray
    values: np.ndarray


def integrate_envelope(p: OsgoodParams, t_end: float, dt: float) -> EnvelopeCurve:
    """Integrate the envelope ODE with adaptive RK, sampled every ``dt``.

    By the comparison principle the result upper-bounds any series satisfying
    the differential inequality with constant <= C.
    """
    from scipy.integrate import solve_ivp

    if dt <= 0 or t_end <= 0:
        raise ValueError("dt and t_end must be > 0")
    times = np.arange(0.0, t_end + 0.5 * dt, dt)
    sol = solve_ivp(
        lambda t, y: [rhs(max(y[0], 0.0), p.nu, p.c)],
        (0.0, t_end),
        [p.q0],
        t_eval=times,
        rtol=1e-10,
        atol=1e-14,
        method="RK45",
    )
    if not sol.success:
        raise RuntimeError(f"envelope integration failed: {sol.message}")
    return EnvelopeCurve(times=sol.t, values=sol.y[0])


@dataclass(frozen=True)
class CrossoverResult:
    t1: float
    residual: float


def crossover_time(p: OsgoodParams) -> CrossoverResult:
    """Root of nu t (1 + log(1 + 1/(nu t))) = nu, i.e. the time at which the
    logarithmic term catches up with the diffusive forcing.

    Valid in the asymptotic regime nu << 1; the defining function is monotone
    in t, so bisection on [tiny, 1] is safe.
    """
    from scipy.optimize import brentq

    nu = p.nu
    if not (0 < nu < 1):
        raise ValueError("crossover time is defined for 0 < nu < 1")

    def g(t):
        s = nu * t
        return t * (1.0 + math.log1p(1.0 / s)) - 1.0

    lo, hi = 1e-12, 1.0
    if g(hi) < 0:
        raise ValueError(f"no crossover in (0, 1] for nu={nu}")
    t1 = brentq(g, lo, hi, xtol=1e-15, rtol=8.9e-16, maxiter=200)
    residual = abs(t1 * (1.0 + math.log1p(1.0 / (nu * t1))) - 1.0)
    return CrossoverResult(t1=float(t1), residual=residual)


def theorem_rate(t: float, nu: float, c: float, regime: Regime) -> RatePrediction:
    """Evaluate the convergence-rate formulas for the velocity error.

    short_time: sqrt(nu t), trusted for t below the crossover time; fixed_time:
    (nu / |log nu|)^(exp(-C t)/2). Out-of-regime requests are flagged but still
    evaluated.
    """
    if not (0 < nu < 1):
        raise ValueError("nu must lie in (0, 1)")
    if t < 0:
        raise ValueError("t must be >= 0")
    regime = Regime(regime)
    t1 = crossover_time(OsgoodParams(c=c, nu=nu)).t1
    if regime is Regime.SHORT_TIME:
        value = math.sqrt(nu * t)
        in_regime = t <= t1
    else:
        base = nu / abs(math.log(nu))
        value = base ** (0.5 * math.exp(-c * t))
        in_regime = True
    return RatePrediction(regime=regime, value=value, t1=t1, in_regime=in_regime)
