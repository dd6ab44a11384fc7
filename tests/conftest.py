import math

import numpy as np
import pytest

from vvlab import evolve
from vvlab.config import ExperimentConfig
from vvlab.fields import Grid2D, ScalarField2D


ACCEPTANCE_LINES: list[str] = []


def record_acceptance_line(line: str) -> None:
    """Append to every loaded instance of this module.

    pytest imports conftest.py under its own module name, so a plain
    ``from tests.conftest import ACCEPTANCE_LINES`` can land on a second copy;
    this helper reaches the one whose hook actually runs.
    """
    import sys

    seen = []
    for mod in list(sys.modules.values()):
        target = getattr(mod, "ACCEPTANCE_LINES", None)
        if isinstance(target, list) and id(target) not in seen:
            if getattr(mod, "__file__", "") == __file__:
                target.append(line)
                seen.append(id(target))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def small_config(**kw) -> ExperimentConfig:
    """A Taylor-Green config on a 32^2 grid, small enough for a test to run; ``kw`` replaces fields."""
    base = dict(
        name="tiny",
        initial_kind="taylor_green",
        initial_params={},
        n=32,
        length=2 * math.pi,
        nu_ladder=[3e-2, 1.7e-2, 9.5e-3, 5.3e-3],
        times=[0.05],
        dt=5e-3,
        record_every=2,
        n_particles=300,
        transport_method="exact",
        transport_epsilon=1e-3,
        max_support=120,
        seed=0,
        allow_unresolved=True,
    )
    base.update(kw)
    return ExperimentConfig(**base)


@pytest.fixture
def grid64():
    return Grid2D(64, 2 * math.pi)


@pytest.fixture
def grid32():
    return Grid2D(32, 1.0)


def random_mean_zero_field(grid: Grid2D, seed: int, k_max: int = 8) -> ScalarField2D:
    """Band-limited random mean-zero field, smooth enough for spectral tests."""
    rng = np.random.default_rng(seed)
    n = grid.n
    coef = np.zeros((n, n), dtype=complex)
    freqs = np.fft.fftfreq(n, d=1.0 / n).astype(int)
    for i, mi in enumerate(freqs):
        for j, mj in enumerate(freqs):
            if 0 < mi * mi + mj * mj <= k_max * k_max:
                coef[i, j] = rng.normal() + 1j * rng.normal()
    vals = np.fft.ifft2(coef).real
    vals -= vals.mean()
    return ScalarField2D(grid, vals)


def split_snapshots(plus: ScalarField2D, minus: ScalarField2D, cfg) -> list:
    """Every snapshot of the split run of the parts (plus, minus) under the
    SolverConfig ``cfg``, as (t, values) pairs: the whole trajectory, which no
    program code keeps."""
    return [(s * cfg.dt, values) for s, values in evolve.snapshots(plus, minus, cfg)]


@pytest.fixture
def stall_highs(monkeypatch):
    """``stall_highs(runs)`` substitutes the HiGHS model class so that the next
    ``runs`` solves stop at an iteration limit of 0, a non-optimal status. It
    returns a record of the stalls ``left`` and the ``presolve`` setting of
    every solve."""
    from types import SimpleNamespace

    from scipy.optimize._highspy import _core

    def stall(runs):
        record = SimpleNamespace(left=runs, presolve=[])

        class StallingHighs(_core._Highs):
            def run(self):
                record.presolve.append(self.getOptionValue("presolve")[1])
                if not record.left:
                    return super().run()
                record.left -= 1
                self.setOptionValue("simplex_iteration_limit", 0)
                status = super().run()
                self.setOptionValue("simplex_iteration_limit", _core.kHighsIInf)
                return status

        monkeypatch.setattr(_core, "_Highs", StallingHighs)
        return record

    return stall
