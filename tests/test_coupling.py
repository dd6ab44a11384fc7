import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import vvlab
from vvlab.coupling import (
    CouplingEnsemble,
    CouplingError,
    QEstimate,
    QSeries,
    advance_coupling,
    check_lemma1,
    estimate_q,
    init_coupling,
    lemma1_ladder_stable,
    moving_average,
)
from vvlab.envelope import rhs as envelope_rhs
from vvlab.fields import Grid2D, ScalarField2D, VectorField2D
from vvlab.initial_data import make_initial_data


def zero_velocity(grid):
    z = np.zeros((grid.n, grid.n))
    return VectorField2D(grid, z, z.copy())


def patch_data(n=64):
    g = Grid2D(n, 1.0)
    return make_initial_data("patch_pair", g, radius=0.12, separation=0.4)


class TestInit:
    def test_diagonal_start_has_zero_cost(self):
        w0 = patch_data()
        ens = init_coupling(w0, 500, rng_seed=3)
        est = estimate_q(ens, ens.x.copy())
        assert est.q == 0.0
        assert est.stderr == 0.0

    def test_weights_recover_sign_masses(self):
        w0 = patch_data()
        ens = init_coupling(w0, 1000, rng_seed=1)
        h2 = w0.grid.spacing ** 2
        m_plus = h2 * w0.values[w0.values > 0].sum()
        m_minus = -h2 * w0.values[w0.values < 0].sum()
        assert ens.mass(1) == pytest.approx(m_plus, rel=1e-12)
        assert ens.mass(-1) == pytest.approx(m_minus, rel=1e-12)

    def test_deterministic_given_seed(self):
        w0 = patch_data()
        a = init_coupling(w0, 300, rng_seed=7)
        b = init_coupling(w0, 300, rng_seed=7)
        np.testing.assert_array_equal(a.x, b.x)
        np.testing.assert_array_equal(a.weights, b.weights)

    def test_positions_marginal_matches_field(self):
        # chi^2 check: occupation counts of the positive patch quadrant vs cell masses
        g = Grid2D(32, 1.0)
        w0 = make_initial_data("patch_pair", g, radius=0.12, separation=0.4)
        ens = init_coupling(w0, 4000, rng_seed=5)
        pos = ens.x[ens.signs == 1]
        cells_i = np.floor(pos[:, 0] / g.spacing).astype(int) % g.n
        cells_j = np.floor(pos[:, 1] / g.spacing).astype(int) % g.n
        counts = np.zeros((g.n, g.n))
        np.add.at(counts, (cells_i, cells_j), 1)
        mass = np.maximum(w0.values, 0.0)
        expected = mass / mass.sum() * len(pos)
        sel = expected > 5
        chi2 = float(((counts[sel] - expected[sel]) ** 2 / expected[sel]).sum())
        dof = int(sel.sum())
        # stratification makes the counts tighter than multinomial; chi2 should
        # be at most of order dof
        assert chi2 < 2.0 * dof

    def test_positions_wrapped_onto_the_torus(self):
        pts = np.array([[0.0, 0.25], [0.999, 0.5], [-0.25, 0.5], [1.0, 1.75], [-1e-18, 0.5]])
        ens = CouplingEnsemble(x=pts, weights=np.ones(5), signs=np.ones(5), length=1.0,
                               rng_seed=0)
        assert np.array_equal(ens.x[:2], pts[:2])
        expected = np.mod(pts, 1.0)
        expected[4, 0] = 0.0  # np.mod rounds -1e-18 up to the period itself
        assert np.array_equal(ens.x, expected)
        assert ((0.0 <= ens.x) & (ens.x < 1.0)).all()

    def test_rejects_empty(self):
        g = Grid2D(32, 1.0)
        with pytest.raises(CouplingError, match="mass"):
            init_coupling(ScalarField2D(g, np.zeros((32, 32))), 100, rng_seed=0)
        with pytest.raises(CouplingError):
            init_coupling(patch_data(), 0, rng_seed=0)


def coupled_pair(w0, n_particles, rng_seed):
    """X and Y: two ensembles of the same particles, for nu = 0 and nu > 0."""
    return init_coupling(w0, n_particles, rng_seed), init_coupling(w0, n_particles, rng_seed)


class TestAdvance:
    def test_identical_velocities_zero_viscosity_stay_coupled(self):
        w0 = patch_data()
        x, y = coupled_pair(w0, 400, rng_seed=2)
        from vvlab.fields import biot_savart

        u = biot_savart(w0)
        for _ in range(20):
            x = advance_coupling(x, u, nu=0.0, dt=1e-2)
            y = advance_coupling(y, u, nu=0.0, dt=1e-2)
        assert estimate_q(y, x.x).q == 0.0

    def test_brownian_closed_form(self):
        # u = 0: Q(t) = 4 nu t * mass, exact in law
        w0 = patch_data()
        g = w0.grid
        nu, dt, steps = 5e-3, 1e-3, 60
        x, ens = coupled_pair(w0, 4000, rng_seed=11)
        u0 = zero_velocity(g)
        for _ in range(steps):
            x = advance_coupling(x, u0, nu=0.0, dt=dt)
            ens = advance_coupling(ens, u0, nu=nu, dt=dt)
        est = estimate_q(ens, x.x)
        mass = ens.mass(1) + ens.mass(-1)
        expected = 4.0 * nu * dt * steps * mass
        assert abs(est.q - expected) < 4.0 * est.stderr + 0.02 * expected

    def test_rigid_rotation_orbit(self):
        # linear-in-x velocity is interpolated exactly; a pure rotation of both
        # streams keeps the separation at zero
        g = Grid2D(64, 1.0)
        x1, x2 = g.coords()
        # solid-body-like periodic shear: u = (sin(2 pi x2), 0) applied to both
        u = VectorField2D(g, np.sin(2 * np.pi * x2), np.zeros((64, 64)))
        w0 = patch_data()
        x, y = coupled_pair(w0, 300, rng_seed=4)
        for _ in range(30):
            x = advance_coupling(x, u, nu=0.0, dt=5e-3)
            y = advance_coupling(y, u, nu=0.0, dt=5e-3)
        assert estimate_q(y, x.x).q == pytest.approx(0.0, abs=1e-28)

    def test_two_particle_hand_computation(self):
        ens = CouplingEnsemble(
            x=np.array([[0.1, 0.2], [0.6, 0.9]]),
            weights=np.array([2.0, 2.0]),
            signs=np.array([1, -1]),
            length=1.0,
            rng_seed=0,
        )
        est = estimate_q(ens, np.array([[0.1, 0.1], [0.6, 0.6]]))
        assert est.q_plus == pytest.approx(2.0 * 0.1 ** 2)
        assert est.q_minus == pytest.approx(2.0 * 0.3 ** 2)
        # q is a column of the Q table, set from its two parts bit for bit
        assert np.float64(est.q).tobytes() == np.float64(est.q_plus + est.q_minus).tobytes()

    def test_wraparound_separation(self):
        ens = CouplingEnsemble(
            x=np.array([[0.98, 0.5]]),
            weights=np.array([1.0]),
            signs=np.array([1]),
            length=1.0,
            rng_seed=0,
        )
        assert estimate_q(ens, np.array([[0.02, 0.5]])).q_plus == pytest.approx(0.04 ** 2)

    def test_step_reproducible_and_time_advances(self):
        w0 = patch_data()
        u0 = zero_velocity(w0.grid)
        a = advance_coupling(init_coupling(w0, 200, rng_seed=9), u0, nu=1e-3, dt=1e-2)
        b = advance_coupling(init_coupling(w0, 200, rng_seed=9), u0, nu=1e-3, dt=1e-2)
        np.testing.assert_array_equal(a.x, b.x)
        assert a.time == pytest.approx(1e-2)
        assert a.step_index == 1

    def test_step_moves_the_ensemble_not_the_callers_arrays(self):
        # the ensemble copies its positions, and a step moves that copy in place
        w0 = patch_data()
        start = init_coupling(w0, 200, rng_seed=9)
        x = start.x.copy()
        ens = CouplingEnsemble(x=x, weights=start.weights, signs=start.signs,
                               length=start.length, rng_seed=start.rng_seed)
        u = VectorField2D(w0.grid, np.ones((64, 64)), np.zeros((64, 64)))
        assert advance_coupling(ens, u, nu=1e-3, dt=1e-2) is ens
        np.testing.assert_array_equal(x, start.x)
        assert not np.array_equal(ens.x, x)
        assert (ens.time, ens.step_index) == (1e-2, 1)

    def test_stderr_shrinks_with_ensemble_size(self):
        w0 = patch_data()
        u0 = zero_velocity(w0.grid)
        errs = []
        for n in (1000, 4000):
            ens = init_coupling(w0, n, rng_seed=13)
            x = ens.x.copy()  # X at u = 0
            for _ in range(10):
                ens = advance_coupling(ens, u0, nu=1e-2, dt=1e-3)
            errs.append(estimate_q(ens, x).stderr)
        # quadrupling the ensemble should halve the error, within MC slop
        assert errs[1] < 0.75 * errs[0]

    def test_empty_estimate_rejected(self):
        ens = CouplingEnsemble(
            x=np.zeros((0, 2)),
            weights=np.zeros(0), signs=np.zeros(0, int),
            length=1.0, rng_seed=0,
        )
        with pytest.raises(CouplingError):
            estimate_q(ens, np.zeros((0, 2)))

    def test_estimate_against_other_positions_rejected(self):
        # X must hold one position per particle: a single point would broadcast
        ens = init_coupling(patch_data(), 100, rng_seed=0)
        for x in (ens.x[:1], ens.x[:-1], ens.x.ravel()):
            with pytest.raises(CouplingError, match="positions of shape"):
                estimate_q(ens, x)


class TestMovingAverage:
    def test_constant_series_unchanged(self):
        y = np.full(11, 2.5)
        np.testing.assert_array_equal(moving_average(y, 5), y)

    def test_window_must_be_odd(self):
        with pytest.raises(ValueError):
            moving_average(np.arange(5.0), 4)

    def test_linear_series_preserved_in_interior(self):
        y = np.arange(20.0)
        out = moving_average(y, 5)
        np.testing.assert_allclose(out[2:-2], y[2:-2])


class TestLemma1:
    def synthetic_series(self, c_true, nu, n=80, dt=5e-3):
        # integrate dQ/dt = c_true * rhs(Q, nu, 1) exactly enough with tiny steps
        q = 0.0
        ts, qs = [], []
        sub = 20
        for i in range(n):
            for _ in range(sub):
                q += (dt / sub) * c_true * envelope_rhs(q, nu, 1.0)
            ts.append((i + 1) * dt)
            qs.append(q)
        entries = [QEstimate(t=t, q_plus=v, q_minus=0.0, stderr=0.0) for t, v in zip(ts, qs)]
        return QSeries(entries=entries)

    def test_recovers_known_constant(self):
        series = self.synthetic_series(c_true=1.0, nu=1e-4)
        rep = check_lemma1(series, nu=1e-4)
        assert rep.conclusive
        assert rep.c_fit == pytest.approx(1.0, rel=0.05)

    def test_scales_with_constant(self):
        r1 = check_lemma1(self.synthetic_series(1.0, 1e-4), nu=1e-4)
        r2 = check_lemma1(self.synthetic_series(2.0, 1e-4), nu=1e-4)
        assert r2.c_fit == pytest.approx(2.0 * r1.c_fit, rel=0.1)

    def test_flat_series_reports_zero(self):
        entries = [QEstimate(t=0.01 * (i + 1), q_plus=0.5, q_minus=0.0, stderr=0.0) for i in range(20)]
        rep = check_lemma1(QSeries(entries=entries), nu=1e-3)
        assert rep.c_fit == pytest.approx(0.0, abs=1e-12)

    def test_too_short_series_rejected(self):
        entries = [QEstimate(t=0.01, q_plus=0.1, q_minus=0.0, stderr=0.0)] * 5
        with pytest.raises(ValueError):
            check_lemma1(QSeries(entries=entries), nu=1e-3)

    def test_noisy_series_flagged_inconclusive(self):
        rng = np.random.default_rng(0)
        entries = [
            QEstimate(t=0.01 * (i + 1), q_plus=abs(rng.normal(0.0, 1.0)), q_minus=0.0, stderr=0.0)
            for i in range(60)
        ]
        rep = check_lemma1(QSeries(entries=entries), nu=1e-3)
        assert not rep.conclusive

    def test_fit_does_not_import_the_ode_solver(self):
        # the envelope's ODE and root solvers load only when they are used
        code = (
            "import sys\n"
            "from vvlab.coupling import QEstimate, QSeries, check_lemma1\n"
            "entries = [QEstimate(0.01 * (i + 1), 1e-4 * (i + 1), 0.0, 0.0) for i in range(12)]\n"
            "check_lemma1(QSeries(entries), nu=1e-3)\n"
            "print('scipy.integrate' in sys.modules)\n"
        )
        src = str(Path(vvlab.__file__).resolve().parent.parent)
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": path}, check=True)
        assert out.stdout.strip() == "False"

    def test_ladder_stability(self):
        assert lemma1_ladder_stable([1.0, 1.3, 1.8])
        assert not lemma1_ladder_stable([1.0, 2.5])
        assert lemma1_ladder_stable([0.0, 0.0])
        assert not lemma1_ladder_stable([0.0, 1.0])


class TestAllocationFree:
    """After a warm-up, neither a step nor an estimate allocates an array of
    the particle count."""

    @staticmethod
    def traced_peak(fn):
        import tracemalloc

        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            result = fn()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak - before, result

    def test_step_and_estimate(self):
        from vvlab.fields import biot_savart

        w0 = patch_data()
        u = biot_savart(w0)
        ens = init_coupling(w0, 20000, rng_seed=2)
        x = ens.x.copy()
        ens = advance_coupling(ens, u, nu=1e-3, dt=1e-3)
        estimate_q(ens, x)
        peak, new = self.traced_peak(lambda: advance_coupling(ens, u, nu=1e-3, dt=1e-3))
        assert new is ens
        # a bound far below one array of the particle count (160,000 bytes)
        small = 8192
        assert peak <= small, f"{peak} bytes"
        peak, est = self.traced_peak(lambda: estimate_q(new, x))
        assert est.q > 0
        assert peak <= small, f"{peak} bytes"

    def test_step_across_the_torus_edge(self):
        # particles started in [0.99, 1)^2 cross the edge at every step, and
        # folding them back builds no mask of the particle count
        from vvlab.fields import biot_savart

        w0 = patch_data()
        u = biot_savart(w0)
        ens = init_coupling(w0, 20000, rng_seed=2)
        ens.x[:] = np.random.default_rng(5).uniform(0.99, 1.0, ens.x.shape)
        advance_coupling(ens, u, nu=1e-3, dt=1e-3)
        before = ens.x.copy()
        peak, _ = self.traced_peak(lambda: advance_coupling(ens, u, nu=1e-3, dt=1e-3))
        assert (np.abs(ens.x - before) > 0.5).any()  # some particle wrapped
        assert peak <= 8192, f"{peak} bytes"
