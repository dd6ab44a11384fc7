"""Seeded random-instance suites for the transport inequalities.

Shared by the CLI ``check`` verb and the acceptance tests: the W1 <= sqrt(m) W2
ordering, H^-1 domination through the discrete pipeline, and W1 weak duality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from vvlab.fields import Grid2D, ScalarField2D, torus_delta
from vvlab.transport import (
    DiscreteMeasure,
    check_hm1_domination,
    check_order_w1_w2,
    w1_dual,
    wasserstein_exact,
)


@dataclass
class SuiteReport:
    lines: list = field(default_factory=list)  # (name, passed, total)
    failures: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def random_measure_pair(rng, n_atoms: int, length: float = 1.0):
    """Equal-mass random measures with positive weights on the unit torus."""
    pts = rng.uniform(0, length, size=(2, n_atoms, 2))
    w = rng.uniform(0.2, 1.0, size=(2, n_atoms))
    mass = rng.uniform(0.5, 2.0)
    mu = DiscreteMeasure(pts[0], w[0] * (mass / w[0].sum()), length)
    nu = DiscreteMeasure(pts[1], w[1] * (mass / w[1].sum()), length)
    return mu, nu


def random_bump_pair(rng, n: int = 32, length: float = 1.0):
    """Two separated nonnegative Gaussian bumps of equal mass on a small grid."""
    grid = Grid2D(n, length)
    x1, x2 = grid.coords()

    def bump(center, width):
        d1 = torus_delta(x1, center[0], length)
        d2 = torus_delta(x2, center[1], length)
        return np.exp(-(d1 * d1 + d2 * d2) / (2 * width * width))

    c1 = rng.uniform(0.2, 0.8, size=2)
    c2 = c1 + rng.uniform(-0.25, 0.25, size=2)
    w1 = rng.uniform(0.05, 0.12)
    w2 = rng.uniform(0.05, 0.12)
    f = bump(c1, w1)
    g = bump(c2, w2)
    g *= f.sum() / g.sum()  # exact equal mass
    return ScalarField2D(grid, f), ScalarField2D(grid, g)


def run_inequality_suites(n_instances: int = 200, rng_seed: int = 0) -> SuiteReport:
    rng = np.random.default_rng(rng_seed)
    report = SuiteReport()

    passed = 0
    for i in range(n_instances):
        mu, nu = random_measure_pair(rng, int(rng.integers(4, 12)))
        rep = check_order_w1_w2(mu, nu)
        if rep.ok:
            passed += 1
        else:
            report.failures.append(f"ordering instance {i}: slack {rep.slack:.3e}")
    report.lines.append(("W1 <= sqrt(mass) W2 ordering", passed, n_instances))

    n_dom = max(1, n_instances // 10)  # full pipeline per instance is costly
    passed = 0
    for i in range(n_dom):
        f, g = random_bump_pair(rng)
        rep = check_hm1_domination(f, g, max_support=250)
        if rep.ok:
            passed += 1
        else:
            report.failures.append(f"domination instance {i}: slack {rep.slack:.3e}")
    report.lines.append(("H^-1 domination by W2", passed, n_dom))

    passed = 0
    for i in range(n_instances):
        mu, nu = random_measure_pair(rng, int(rng.integers(4, 10)))
        dual, _ = w1_dual(mu, nu)
        primal, _ = wasserstein_exact(mu, nu, p=1)
        if dual <= primal + 1e-8:
            passed += 1
        else:
            report.failures.append(
                f"duality instance {i}: dual {dual!r} > primal {primal!r} + 1e-8"
            )
    report.lines.append(("W1 weak duality", passed, n_instances))
    return report
