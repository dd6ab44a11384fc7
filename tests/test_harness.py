import json
import math

import numpy as np
import pytest

from vvlab.harness import (
    ConfigError,
    ExperimentConfig,
    apply_override,
    emit_report,
    run_experiment,
    hm1_sweep,
    summary_schema,
    _resolve_eval_times,
)


def small_config(**kw) -> ExperimentConfig:
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


def patch_config(**kw) -> ExperimentConfig:
    # compact support keeps the atom cap from quantizing the transport metrics
    base = dict(
        name="tiny-patch",
        initial_kind="patch_pair",
        initial_params={"radius": 0.12, "separation": 0.4},
        n=32,
        length=1.0,
        nu_ladder=[3e-2, 1.7e-2, 9.5e-3, 5.3e-3],
        times=[0.05],
        dt=5e-3,
        record_every=1,
        n_particles=500,
        transport_method="exact",
        max_support=260,
        seed=0,
        allow_unresolved=True,
    )
    base.update(kw)
    return ExperimentConfig(**base)


class TestConfig:
    def test_validate_accepts_default(self):
        ExperimentConfig().validate()

    def test_rejects_non_decreasing_ladder(self):
        with pytest.raises(ConfigError, match="decreasing"):
            small_config(nu_ladder=[1e-3, 2e-3]).validate()

    def test_rejects_nu_out_of_range(self):
        with pytest.raises(ConfigError, match="viscosities"):
            small_config(nu_ladder=[2.0, 1e-3]).validate()

    def test_rejects_bad_transport_method(self):
        with pytest.raises(ConfigError, match="transport"):
            small_config(transport_method="magic").validate()

    def test_unresolved_scale_rejected_without_override(self):
        with pytest.raises(ConfigError, match="resolved-scale"):
            small_config(allow_unresolved=False, nu_ladder=[1e-6, 1e-7]).validate()

    def test_nested_round_trip(self):
        cfg = small_config()
        again = ExperimentConfig.from_nested(cfg.to_nested())
        assert again == cfg

    def test_from_nested_rejects_missing_keys(self):
        with pytest.raises(ConfigError, match="malformed"):
            ExperimentConfig.from_nested({"name": "x"})

    def test_apply_override_types(self):
        tree = small_config().to_nested()
        apply_override(tree, "grid.n", "64")
        apply_override(tree, "transport.method", "exact")
        apply_override(tree, "allow_unresolved", "true")
        assert tree["grid"]["n"] == 64
        assert tree["transport"]["method"] == "exact"
        assert tree["allow_unresolved"] is True

    def test_eval_times_snap_to_snapshots(self):
        cfg = small_config(times=[0.05, 0.02])
        assert _resolve_eval_times(cfg) == pytest.approx([0.05, 0.02])
        with pytest.raises(ConfigError, match="snapshot"):
            _resolve_eval_times(small_config(times=[0.013]))


@pytest.fixture(scope="module")
def series():
    return run_experiment(small_config())


@pytest.fixture(scope="module")
def patch_series():
    return run_experiment(patch_config())


class TestRunExperiment:
    def test_no_leg_failures(self, series):
        assert series.errors == []

    def test_row_count_and_monotone_errors(self, series):
        assert len(series.rows) == 4
        # error shrinks with nu for the decaying closed-form datum
        errs = [r.err_l2_velocity for r in sorted(series.rows, key=lambda r: -r.nu)]
        assert all(b < a for a, b in zip(errs, errs[1:]))

    def test_closed_form_velocity_error(self, series):
        # steady inviscid flow vs exact viscous decay:
        # err(t) = ||u0|| (1 - exp(-2 nu t)) with ||u0|| = pi sqrt(2)
        for row in series.rows:
            expected = math.pi * math.sqrt(2.0) * (1.0 - math.exp(-2.0 * row.nu * row.t))
            assert row.err_l2_velocity == pytest.approx(expected, rel=1e-4)

    def test_fit_present_and_near_linear_in_nu(self, series):
        fit = series.fits[0.05]
        # 1 - exp(-2 nu t) ~ 2 nu t in this range: exponent close to 1
        assert fit.exponent == pytest.approx(1.0, abs=0.05)

    def test_q_estimates_positive_and_growing_in_nu(self, series):
        qs = [r.q_estimate for r in sorted(series.rows, key=lambda r: r.nu)]
        assert all(q > 0 for q in qs)
        assert qs[-1] > qs[0]

    def test_transport_metrics_nonnegative(self, series):
        for r in series.rows:
            assert r.w1_vorticity >= 0
            assert r.w2_split_sum >= 0

    def test_report_emission_and_schema(self, series, tmp_path):
        cfg = small_config()
        summary = emit_report(series, cfg, tmp_path)
        assert (tmp_path / "rate_series.csv").exists()
        assert (tmp_path / "loglog.csv").exists()
        assert (tmp_path / "summary.json").exists()
        on_disk = json.loads((tmp_path / "summary.json").read_text())
        assert on_disk["empty"] is False
        assert on_disk["fits"] == summary["fits"]
        header = (tmp_path / "rate_series.csv").read_text().splitlines()[0]
        assert header == "nu,t,err_l2_velocity,w1_vorticity,w2_split_sum,q_estimate"

    def test_report_byte_stable(self, series, tmp_path):
        cfg = small_config()
        emit_report(series, cfg, tmp_path / "a")
        emit_report(series, cfg, tmp_path / "b")
        for name in ("rate_series.csv", "loglog.csv", "summary.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_rerun_is_deterministic(self, series):
        again = run_experiment(small_config())
        assert [r.q_estimate for r in again.rows] == [r.q_estimate for r in series.rows]
        assert [r.w2_split_sum for r in again.rows] == [r.w2_split_sum for r in series.rows]

    def test_schema_rejects_tampered_summary(self, series, tmp_path):
        import jsonschema

        cfg = small_config()
        summary = emit_report(series, cfg, tmp_path)
        bad = dict(summary)
        del bad["fits"]
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(bad, summary_schema())

    def test_failed_leg_recorded_not_fatal(self, monkeypatch):
        # one leg blowing up must be reported without killing the sweep
        import vvlab.harness as harness_mod
        from vvlab.coupling import CouplingError, init_coupling as real_init

        cfg = small_config()
        doomed = cfg.nu_ladder[1]
        calls = {"leg": -1}

        def flaky_init(omega0, n_particles, rng_seed):
            calls["leg"] += 1
            if cfg.nu_ladder[calls["leg"]] == doomed:
                raise CouplingError("synthetic failure")
            return real_init(omega0, n_particles, rng_seed)

        monkeypatch.setattr(harness_mod, "init_coupling", flaky_init)
        series = run_experiment(cfg)
        assert [nu for nu, _ in series.errors] == [doomed]
        assert "synthetic failure" in series.errors[0][1]
        assert {r.nu for r in series.rows} == set(cfg.nu_ladder) - {doomed}

    def test_programming_error_in_leg_is_fatal(self, monkeypatch):
        # a bug is not a numerical failure: it must fail the run, not become a leg error
        import vvlab.harness as harness_mod
        from vvlab.coupling import init_coupling as real_init

        cfg = small_config()
        doomed = cfg.nu_ladder[1]
        calls = {"leg": -1}

        def buggy_init(omega0, n_particles, rng_seed):
            calls["leg"] += 1
            if cfg.nu_ladder[calls["leg"]] == doomed:
                raise TypeError("synthetic bug")
            return real_init(omega0, n_particles, rng_seed)

        monkeypatch.setattr(harness_mod, "init_coupling", buggy_init)
        with pytest.raises(TypeError, match="synthetic bug"):
            run_experiment(cfg)

    def test_mass_rescale_small_on_smoke_geometry(self, monkeypatch):
        # clipping undershoots makes the viscous and inviscid masses drift
        # apart; on the smoke patch pair the rescale that closes the gap is
        # about 1e-4 of the mass
        import vvlab.harness as harness_mod

        real_equalize = harness_mod._equalize_mass
        rescales = []

        def recording(mu, nu_m):
            rescales.append(abs(nu_m.total_mass / mu.total_mass - 1.0))
            return real_equalize(mu, nu_m)

        monkeypatch.setattr(harness_mod, "_equalize_mass", recording)
        run_experiment(patch_config())
        assert len(rescales) == 2 * len(patch_config().nu_ladder)
        assert max(rescales) < 2e-4

    def test_equalize_mass_returns_new_measure(self):
        import vvlab.harness as harness_mod
        from vvlab.transport import DiscreteMeasure

        mu = DiscreteMeasure([[0.1, 0.2], [0.3, 0.4]], [1.0, 3.0], 1.0)
        nu = DiscreteMeasure([[0.5, 0.5]], [2.0], 1.0)
        scaled = harness_mod._equalize_mass(mu, nu)
        assert scaled.total_mass == pytest.approx(2.0, rel=1e-15)
        assert mu.weights.tolist() == [1.0, 3.0]  # the memo on mu stays valid

    def test_sinkhorn_solves_per_run(self, monkeypatch):
        # 4 cross terms and 4 viscous self-terms per (nu, t), plus the 4 Euler
        # self-terms per t, each solved once and reused across the ladder
        import vvlab.transport as transport

        real = transport._sinkhorn_cost
        cross, selfs = [], []

        def counting(mu, nu, C, *args):
            (selfs if mu is nu else cross).append((mu, C.tobytes()))
            return real(mu, nu, C, *args)

        monkeypatch.setattr(transport, "_sinkhorn_cost", counting)
        cfg = patch_config(
            nu_ladder=[3e-2, 1.7e-2, 9.5e-3], times=[0.025, 0.05],
            transport_method="sinkhorn", transport_epsilon=1e-3, max_support=30,
        )
        series = run_experiment(cfg)
        legs, times = len(cfg.nu_ladder), len(cfg.times)
        assert series.errors == [] and len(series.rows) == legs * times
        assert len(cross) + len(selfs) == 8 * legs * times + 4 * times
        assert len(selfs) == 4 * legs * times + 4 * times
        # no self-term is solved twice for the same measure and order
        assert len({(id(m), c) for m, c in selfs}) == len(selfs)

    def test_resolution_check_flag(self):
        # the grid-doubling check on the coarse Euler run the sweep already holds
        series = run_experiment(patch_config(check_resolution=True))
        assert series.flags["resolution_check"] == "untrusted (disc_err=3.816e-03)"


class TestHm1Sweep:
    def test_matches_run_experiment_errors(self, patch_series):
        from vvlab.fields import Grid2D
        from vvlab.initial_data import make_initial_data

        cfg = patch_config()
        omega0 = make_initial_data(
            cfg.initial_kind, Grid2D(cfg.n, cfg.length), **cfg.initial_params
        )
        errs = hm1_sweep(omega0, cfg.nu_ladder, cfg.times, cfg.dt)
        assert errs == {0.05: [r.err_l2_velocity for r in patch_series.rows]}

    def test_snapshots_at_gcd_of_step_counts(self, monkeypatch):
        import vvlab.harness as harness_mod
        from vvlab.fields import Grid2D
        from vvlab.initial_data import make_initial_data

        real = harness_mod.run_split
        configs = []

        def recording(plus, minus, scfg):
            configs.append(scfg)
            return real(plus, minus, scfg)

        monkeypatch.setattr(harness_mod, "run_split", recording)
        omega0 = make_initial_data("taylor_green", Grid2D(16, 2 * math.pi))
        errs = hm1_sweep(omega0, [2e-2, 1e-2], [0.02, 0.03], 5e-3)
        assert [c.nu for c in configs] == [0.0, 2e-2, 1e-2]
        assert {c.record_every for c in configs} == {2}  # gcd(4, 6)
        assert all(len(e) == 2 and all(x > 0 for x in e) for e in errs.values())

    def test_time_off_the_step_grid_rejected(self):
        from vvlab.fields import Grid2D
        from vvlab.initial_data import make_initial_data

        omega0 = make_initial_data("taylor_green", Grid2D(16, 2 * math.pi))
        with pytest.raises(ConfigError, match="time step"):
            hm1_sweep(omega0, [1e-2], [0.013], 5e-3)


class TestChainInvariants:
    def test_clean_sweep(self, patch_series):
        assert patch_series.errors == []
        assert patch_series.invariant_violations == []

    def test_chain_orderings_hold(self, patch_series):
        import vvlab.initial_data as vid
        from vvlab.fields import Grid2D, norms

        g = Grid2D(32, 1.0)
        w0 = vid.make_initial_data("patch_pair", g, radius=0.12, separation=0.4)
        rep0 = norms(w0)
        for r in patch_series.rows:
            assert r.w1_vorticity <= math.sqrt(rep0.l1) * r.w2_split_sum * 1.05 + 1e-9
            assert r.err_l2_velocity <= math.sqrt(rep0.linf) * r.w2_split_sum * 1.05 + 1e-9

    def test_lemma1_fits_recorded(self, patch_series):
        assert len(patch_series.lemma1) == 4
        assert all(c >= 0 for c in patch_series.lemma1.values())


class TestRegressionPin:
    """The patch sweep's velocity errors and rate, as the complex-FFT stepper gave them.

    Tolerances are those of the benchmark's correctness gate: a stepper
    change may reorder floating-point sums, not move the reported rates.
    """

    # nu -> err_l2_velocity at t = 0.05
    ERR_L2_VELOCITY = {
        3e-2: 0.0034157230889200313,
        1.7e-2: 0.0020404888111514724,
        9.5e-3: 0.0011783214366317262,
        5.3e-3: 0.0006702176391638353,
    }
    EXPONENT = 0.9399574444597277

    def test_velocity_errors(self, patch_series):
        got = {r.nu: r.err_l2_velocity for r in patch_series.rows}
        assert got.keys() == self.ERR_L2_VELOCITY.keys()
        for nu, err in self.ERR_L2_VELOCITY.items():
            assert got[nu] == pytest.approx(err, rel=1e-10, abs=0)

    def test_fitted_exponent(self, patch_series):
        assert patch_series.fits[0.05].exponent == pytest.approx(self.EXPONENT, rel=1e-9, abs=0)
