"""Power-law exponent fitting in log-log coordinates with bootstrap intervals."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
import numpy.random  # noqa: F401  (numpy loads it lazily; load it here, not inside a run)


@dataclass(frozen=True)
class RateFit:
    exponent: float
    intercept: float
    ci_low: float
    ci_high: float
    r_squared: float
    n_points: int
    transformed: bool  # fitted against log(nu/|log nu|) instead of log(nu)


def _percentile(ordered: np.ndarray, q: float) -> float:
    """``np.percentile(ordered, q)`` of the sorted ``ordered``: numpy's linear rule
    written out, bit for bit, without the numpy.ma that np.percentile loads."""
    index = (len(ordered) - 1) * (q / 100)
    i = math.floor(index)
    t = index - i
    a, b = ordered[i], ordered[min(i + 1, len(ordered) - 1)]
    d = b - a
    return b - d * (1 - t) if t >= 0.5 else a + d * t


def _abscissa(nus: np.ndarray, transformed: bool) -> np.ndarray:
    if transformed:
        return np.log(nus / np.abs(np.log(nus)))
    return np.log(nus)


def fit_rate(
    nus,
    errors,
    transformed: bool = False,
    n_bootstrap: int = 2000,
    rng_seed: int = 0,
) -> RateFit:
    """OLS slope of log(err) against log(nu), or log(nu/|log nu|) when
    ``transformed``; 95% CI by pairwise bootstrap.

    Rows with zero error are dropped with a warning (log undefined). A negative
    or non-finite error, a viscosity outside (0, inf), or (0, 1) when
    ``transformed``, or fewer than 4 rows or 2 distinct viscosities left, is a
    ValueError.
    """
    nus = np.asarray(list(nus), float)
    errors = np.asarray(list(errors), float)
    if not np.isfinite(errors).all():
        raise ValueError(f"errors must be finite, got {errors[~np.isfinite(errors)].tolist()}")
    if np.any(errors < 0):
        raise ValueError(f"errors must be nonnegative, got {errors[errors < 0].tolist()}")
    top = 1.0 if transformed else np.inf
    outside = nus[~((nus > 0) & (nus < top))]
    if len(outside):
        raise ValueError(f"viscosities must lie in (0, {top:g}), got {outside.tolist()}")
    keep = errors > 0
    if not np.all(keep):
        warnings.warn(f"dropping {int((~keep).sum())} zero-error rows from rate fit")
        nus, errors = nus[keep], errors[keep]
    if len(nus) < 4:
        raise ValueError("need at least 4 positive-error rows to fit a rate")
    if np.ptp(nus) == 0:
        raise ValueError(f"need at least 2 distinct viscosities to fit a rate, got only {float(nus[0])!r}")
    span = nus.max() / nus.min()
    if span < 10.0:
        warnings.warn(f"nu ladder spans only {span:.2f}x (< 1 decade); fit is fragile")
    x = _abscissa(nus, transformed)
    y = np.log(errors)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 - float((resid ** 2).sum()) / ss_tot if ss_tot > 0 else 1.0

    # one draw of all resamples, row by row the same indices as one draw each
    m = len(x)
    idx = np.random.default_rng(rng_seed).integers(0, m, size=(n_bootstrap, m))
    xb, yb = x[idx], y[idx]
    dx = xb - xb.mean(axis=1, keepdims=True)
    dy = yb - yb.mean(axis=1, keepdims=True)
    # a resample with a single abscissa has no slope; it keeps the full fit's
    slopes = np.full(n_bootstrap, float(slope))
    np.divide((dx * dy).sum(axis=1), (dx * dx).sum(axis=1), out=slopes,
              where=np.ptp(xb, axis=1) != 0)
    slopes.sort()
    lo, hi = _percentile(slopes, 2.5), _percentile(slopes, 97.5)
    return RateFit(
        exponent=float(slope),
        intercept=float(intercept),
        ci_low=float(lo),
        ci_high=float(hi),
        r_squared=r2,
        n_points=m,
        transformed=transformed,
    )


def fit_by_time(rows, transformed: bool = False, rng_seed: int = 0) -> dict:
    """{t: RateFit} of (nu, t, value) ``rows``, in time order: :func:`fit_rate` of
    each time's rows in their given order, the one route from a report's rows to
    its fits. A time whose rows cannot be fitted is a ValueError that names it."""
    fits = {}
    for t in sorted({row[1] for row in rows}):
        nus, values = zip(*[(nu, value) for nu, s, value in rows if s == t])
        try:
            fits[t] = fit_rate(nus, values, transformed=transformed, rng_seed=rng_seed)
        except ValueError as e:
            raise ValueError(f"t={t:g}: {e}") from e
    return fits


def fit_entries(fits: dict) -> dict:
    """{t: RateFit} as summary.json's ``fits`` block and ``vvlab fit --json`` write it."""
    return {repr(float(t)): {
        "exponent": f.exponent, "intercept": f.intercept, "ci": [f.ci_low, f.ci_high],
        "r_squared": f.r_squared, "n_points": f.n_points, "transformed": f.transformed,
    } for t, f in fits.items()}


def fit_double_exponential_form(nus, values) -> RateFit:
    """Fit value = K (nu/|log nu|)^p, the fixed-time envelope form."""
    return fit_rate(nus, values, transformed=True, n_bootstrap=500)
