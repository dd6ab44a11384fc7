"""Differential-inequality machinery for the coupling cost.

Integrates the upper envelope dQ/dt = C [Q (1 + log(1 + 1/Q)) + nu], locates
the crossover time at which the logarithmic term takes over from the
nu-dominated regime, and evaluates the two rate formulas (sqrt(nu t) for short
times, (nu/|log nu|)^(exp(-C t)/2) at fixed times) as closed forms; only the
integration and the crossover load SciPy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


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


def integrate_envelope(c: float, nu: float, t_end: float, dt: float, q0: float = 0.0) -> EnvelopeCurve:
    """Integrate the envelope ODE from Q(0) = q0 with adaptive RK, sampled every ``dt``.

    By the comparison principle the result upper-bounds any series satisfying
    the differential inequality with constant <= c.
    """
    from scipy.integrate import solve_ivp

    if c <= 0:
        raise ValueError("constant C must be > 0")
    if nu < 0:
        raise ValueError("nu must be >= 0")
    if q0 < 0:
        raise ValueError("q0 must be >= 0")
    if dt <= 0 or t_end <= 0:
        raise ValueError("dt and t_end must be > 0")
    times = np.arange(0.0, t_end + 0.5 * dt, dt)
    sol = solve_ivp(
        lambda t, y: [rhs(max(y[0], 0.0), nu, c)],
        (0.0, t_end),
        [q0],
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


def crossover_time(nu: float) -> CrossoverResult:
    """Root of nu t (1 + log(1 + 1/(nu t))) = nu, i.e. the time at which the
    logarithmic term catches up with the diffusive forcing.

    Valid in the asymptotic regime nu << 1; the defining function is monotone
    in t, so bisection on [tiny, 1] is safe.
    """
    from scipy.optimize import brentq

    if not (0 < nu < 1):
        raise ValueError("crossover time is defined for 0 < nu < 1")

    def g(t):
        return t * (1.0 + math.log1p(1.0 / (nu * t))) - 1.0

    if g(1.0) < 0:
        raise ValueError(f"no crossover in (0, 1] for nu={nu}")
    t1 = brentq(g, 1e-12, 1.0, xtol=1e-15, rtol=8.9e-16, maxiter=200)
    return CrossoverResult(t1=float(t1), residual=abs(g(t1)))


def _check_rate_args(nu: float, t: float) -> None:
    if not (0 < nu < 1):
        raise ValueError("nu must lie in (0, 1)")
    if t < 0:
        raise ValueError("t must be >= 0")


def short_time_rate(nu: float, t: float) -> float:
    """sqrt(nu t), the velocity-error rate trusted while t <= crossover_time(nu).t1."""
    _check_rate_args(nu, t)
    return math.sqrt(nu * t)


def fixed_time_rate(nu: float, t: float, c: float) -> float:
    """(nu / |log nu|)^(exp(-C t)/2), the velocity-error rate at a fixed time t."""
    _check_rate_args(nu, t)
    return (nu / abs(math.log(nu))) ** (0.5 * math.exp(-c * t))
