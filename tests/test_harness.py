import collections
import dataclasses
import json
import math
import os
import re
from pathlib import Path

import numpy as np
import pytest
import yaml

from vvlab import evolve
from vvlab.config import ConfigError, ExperimentConfig, apply_override
from vvlab.harness import _map_legs, emit_report, run_experiment, hm1_sweep, summary_schema
from tests.conftest import small_config, usable_cpus

ROOT = Path(__file__).resolve().parent.parent


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
    def test_required_keys_have_no_default(self):
        required = [f.name for f in dataclasses.fields(ExperimentConfig)
                    if f.default is f.default_factory is dataclasses.MISSING]
        assert required == ["initial_kind", "n", "length", "nu_ladder", "times", "dt"]
        with pytest.raises(TypeError):
            ExperimentConfig()

    @pytest.mark.parametrize("section,key,named", [
        ("grid", "n", "grid.n"),
        (None, "solver", "solver.dt"),  # a missing section: the required key it holds
    ])
    def test_missing_required_key_is_named(self, section, key, named):
        tree = small_config().to_nested()
        del (tree[section] if section else tree)[key]
        with pytest.raises(ConfigError, match=rf"missing required key\(s\) \['{named}'\]"):
            ExperimentConfig.from_nested(tree)

    def test_off_grid_time_refused_by_validate(self):
        with pytest.raises(ConfigError, match="snapshot"):
            small_config(times=[0.013]).validate()

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

    @pytest.mark.parametrize("path,key", [
        ("partcles.count", "partcles"),  # an unknown section is named, not its contents
        ("grid.nn", "grid.nn"),
        ("transport.epsilom", "transport.epsilom"),
        ("sed", "sed"),
    ])
    def test_from_nested_rejects_unknown_keys(self, path, key):
        tree = small_config().to_nested()
        apply_override(tree, path, "1")
        with pytest.raises(ConfigError, match=rf"unknown config key\(s\) \['{key}'\]"):
            ExperimentConfig.from_nested(tree)

    @pytest.mark.parametrize("tree", [[1, 2], "smoke", 3])
    def test_from_nested_rejects_non_mapping(self, tree):
        with pytest.raises(ConfigError, match="must be a mapping"):
            ExperimentConfig.from_nested(tree)

    @pytest.mark.parametrize("path", sorted(
        str(p.relative_to(ROOT)) for pattern in ("configs/*.yaml", "bench/workloads/*.yaml")
        for p in ROOT.glob(pattern)
    ))
    def test_shipped_configs_load(self, path):
        tree = yaml.safe_load((ROOT / path).read_text())
        cfg = ExperimentConfig.from_nested(tree)
        assert cfg.name == tree["name"]
        assert ExperimentConfig.from_nested(cfg.to_nested()) == cfg

    def test_apply_override_types(self):
        tree = small_config().to_nested()
        apply_override(tree, "grid.n", "64")
        apply_override(tree, "transport.method", "exact")
        apply_override(tree, "allow_unresolved", "true")
        assert tree["grid"]["n"] == 64
        assert tree["transport"]["method"] == "exact"
        assert tree["allow_unresolved"] is True

    def test_eval_times_snap_to_snapshots(self):
        # {solver step: time}, in the config's order
        at_step = small_config(times=[0.05, 0.02]).schedule()
        assert list(at_step) == [10, 4]
        assert at_step == pytest.approx({10: 0.05, 4: 0.02})
        with pytest.raises(ConfigError, match="snapshot"):
            small_config(times=[0.013]).schedule()
        with pytest.raises(ConfigError, match="must not repeat"):
            small_config(times=[0.05, 0.0500000000001]).schedule()


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
        import jsonschema

        cfg = small_config()
        summary = emit_report(series, cfg, tmp_path)
        assert (tmp_path / "rate_series.csv").exists()
        assert (tmp_path / "loglog.csv").exists()
        on_disk = json.loads((tmp_path / "summary.json").read_text())
        jsonschema.validate(on_disk, summary_schema())
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

    def test_failed_leg_recorded_not_fatal(self, two_cpus, monkeypatch):
        # one leg blowing up must be reported without killing the sweep
        import vvlab.harness as harness_mod
        from vvlab.coupling import CouplingError, advance_coupling as real_advance

        cfg = small_config()
        doomed = cfg.nu_ladder[1]

        def flaky_advance(ens, u, nu, dt):
            if nu == doomed:
                raise CouplingError("synthetic failure")
            return real_advance(ens, u, nu, dt)

        monkeypatch.setattr(harness_mod, "advance_coupling", flaky_advance)
        series = run_experiment(cfg)
        assert [nu for nu, _ in series.errors] == [doomed]
        assert "synthetic failure" in series.errors[0][1]
        assert {r.nu for r in series.rows} == set(cfg.nu_ladder) - {doomed}

    def test_leg_failing_at_its_second_time_leaves_nothing(self, one_cpu, monkeypatch):
        # a transport failure after the leg's first evaluation time drops that
        # time's row, the Q series and the lemma 1 fit with it
        import vvlab.harness as harness_mod
        from vvlab.transport import TransportError

        cfg = patch_config(times=[0.025, 0.05])
        real, calls = harness_mod.distance, []
        # 2 distances per (nu, t): the second leg's second time starts at call 7
        doomed = cfg.nu_ladder[1]

        def flaky(*args):
            calls.append(args)
            if len(calls) == 7:
                raise TransportError("synthetic failure")
            return real(*args)

        monkeypatch.setattr(harness_mod, "distance", flaky)
        series = run_experiment(cfg)
        assert series.errors == [(doomed, "TransportError: synthetic failure")]
        assert {r.nu for r in series.rows} == set(cfg.nu_ladder) - {doomed}
        assert len(series.rows) == 2 * (len(cfg.nu_ladder) - 1)
        assert doomed not in series.q_series and doomed not in series.lemma1
        assert len(series.lemma1) == len(cfg.nu_ladder) - 1

    def test_one_distance_call_per_part_and_twin(self, one_cpu, monkeypatch):
        import vvlab.harness as harness_mod

        cfg = small_config(times=[0.02, 0.05])
        real, calls = harness_mod.distance, []

        def counting(mu, nu, method, epsilon):
            calls.append((mu, nu))  # held, so no id is reused
            return real(mu, nu, method, epsilon)

        monkeypatch.setattr(harness_mod, "distance", counting)
        series = run_experiment(cfg)
        assert series.errors == []
        # the plus and the minus part of each (nu, t) row, each against its twin
        assert len(calls) == 2 * len(series.rows) == 2 * 2 * len(cfg.nu_ladder)
        assert len({(id(mu), id(nu)) for mu, nu in calls}) == len(calls)
        # each Euler twin serves one call per leg
        twins = collections.Counter(id(nu) for _, nu in calls)
        assert sorted(twins.values()) == [len(cfg.nu_ladder)] * 4

    def test_programming_error_in_leg_is_fatal(self, two_cpus, monkeypatch):
        # a bug is not a numerical failure: it must fail the run, not become a leg error
        import vvlab.harness as harness_mod
        from vvlab.coupling import advance_coupling as real_advance

        cfg = small_config()
        doomed = cfg.nu_ladder[1]

        def buggy_advance(ens, u, nu, dt):
            if nu == doomed:
                raise TypeError("synthetic bug")
            return real_advance(ens, u, nu, dt)

        monkeypatch.setattr(harness_mod, "advance_coupling", buggy_advance)
        with pytest.raises(TypeError, match="synthetic bug") as raised:
            run_experiment(cfg)
        # raised in the child that ran ladder[1::2], with the child's traceback as its cause
        cause = raised.value.__cause__
        assert isinstance(cause, RuntimeError)
        assert str(cause).startswith(f"in the worker for nu = {cfg.nu_ladder[1::2]}:")
        assert "in buggy_advance" in str(cause)
        assert_no_child_left()

    def test_mass_rescale_small_on_smoke_geometry(self, one_cpu, monkeypatch):
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

    def test_sinkhorn_solves_per_run(self, one_cpu, monkeypatch):
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

    def test_run_makes_no_biot_savart_call(self, one_cpu, monkeypatch):
        # the velocities and the cross-check come from the stepper's snapshots,
        # and every trajectory, the Euler reference too, is streamed once
        import vvlab.harness as harness_mod
        from vvlab import fields

        calls, real_stream, runs = [], evolve.snapshots, []

        def counting_stream(plus, minus, scfg):
            runs.append(scfg.nu)
            return real_stream(plus, minus, scfg)

        monkeypatch.setattr(fields, "biot_savart", calls.append)
        monkeypatch.setattr(evolve, "snapshots", counting_stream)
        cfg = patch_config(times=[0.025, 0.05])
        series = run_experiment(cfg)
        assert series.errors == [] and len(series.rows) == len(cfg.nu_ladder) * len(cfg.times)
        assert calls == []
        assert not hasattr(harness_mod, "biot_savart")
        assert runs == [0.0, *cfg.nu_ladder]

    def test_every_run_is_read_by_evolve_run_split(self, one_cpu, monkeypatch):
        # the one reader of the stepper, which checks every run's a-priori
        # bounds: the Euler reference, each leg in ladder order, then the
        # resolution check's fine run; hm1_sweep reads the Euler run and the legs
        import vvlab.harness as harness_mod

        assert harness_mod.run_split is evolve.run_split
        runs = []

        def counting(plus, minus, scfg, *args):
            runs.append((plus.grid.n, scfg.nu))
            return evolve.run_split(plus, minus, scfg, *args)

        monkeypatch.setattr(harness_mod, "run_split", counting)
        cfg = patch_config(times=[0.025, 0.05], check_resolution=True)
        series = run_experiment(cfg)
        assert series.errors == [] and series.flags["resolution_check"] != "skipped"
        euler_and_legs = [(cfg.n, nu) for nu in [0.0, *cfg.nu_ladder]]
        assert runs == euler_and_legs + [(2 * cfg.n, 0.0)]
        runs.clear()
        hm1_sweep(cfg)
        assert runs == euler_and_legs

    def test_euler_reference_keeps_only_its_evaluation_snapshots(self, monkeypatch):
        # while a leg streams, of the arrays the Euler run yielded only the
        # snapshots at the evaluation times are alive; its velocities are copies
        import weakref

        real, euler, alive = evolve.snapshots, [], []

        def watching(plus, minus, scfg):
            for s, values in real(plus, minus, scfg):
                if scfg.nu == 0:
                    euler.append(weakref.ref(values))
                elif not alive:
                    alive.append(sum(ref() is not None for ref in euler))
                yield s, values

        monkeypatch.setattr(evolve, "snapshots", watching)
        cfg = patch_config(times=[0.025, 0.05])
        series = run_experiment(cfg)
        assert series.errors == []
        assert len(euler) == 11  # steps 0 to 10
        assert alive == [len(cfg.times)]

    @staticmethod
    def recorded_steps(monkeypatch, cfg, zero_velocity=False):
        """Run ``cfg`` and return, per coupling step in call order, its nu and
        the ensemble's positions before and after it; with ``zero_velocity``
        every step is taken in u = 0."""
        import vvlab.harness as harness_mod

        real, steps = harness_mod.advance_coupling, []

        def recording(ens, u, nu, dt):
            if zero_velocity:
                u = dataclasses.replace(u, u1=np.zeros_like(u.u1), u2=np.zeros_like(u.u2))
            before = ens.x.copy()
            real(ens, u, nu, dt)
            steps.append((nu, before, ens.x.copy()))
            return ens

        monkeypatch.setattr(harness_mod, "advance_coupling", recording)
        assert run_experiment(cfg).errors == []
        return steps

    def test_one_inviscid_pass_then_each_leg(self, one_cpu, monkeypatch):
        # X is stepped once, at nu = 0 on the Euler reference's S - 1 intervals of
        # S snapshots, then each leg steps its own Y on its intervals
        cfg = patch_config()
        steps = self.recorded_steps(monkeypatch, cfg)
        intervals = 10  # snapshots at steps 0 to 10
        assert len(steps) == intervals * (1 + len(cfg.nu_ladder))
        assert [nu for nu, _, _ in steps] == [
            nu for nu in [0.0, *cfg.nu_ladder] for _ in range(intervals)]

    def test_every_leg_starts_from_the_inviscid_start(self, one_cpu, monkeypatch):
        cfg = patch_config()
        steps = self.recorded_steps(monkeypatch, cfg)
        starts = steps[::10]  # the first step of the Euler pass and of each leg
        assert [nu for nu, _, _ in starts] == [0.0, *cfg.nu_ladder]
        for _, before, _ in starts[1:]:
            np.testing.assert_array_equal(before, starts[0][1])

    def test_legs_share_one_noise_stream(self, one_cpu, monkeypatch):
        # at u = 0 a step of leg nu moves each particle by sqrt(2 nu dt) times
        # the same normals, so two legs' displacements differ by sqrt(nu1 / nu2)
        from vvlab.fields import torus_delta

        cfg = patch_config()
        steps = self.recorded_steps(monkeypatch, cfg, zero_velocity=True)
        moves = {}
        for nu, before, after in steps:
            moves.setdefault(nu, []).append(torus_delta(after, before, cfg.length))
        assert not np.any(moves.pop(0.0))  # X does not move at u = 0
        nu1 = cfg.nu_ladder[0]
        for nu2 in cfg.nu_ladder[1:]:
            for d1, d2 in zip(moves[nu1], moves[nu2], strict=True):
                np.testing.assert_allclose(d1, d2 * math.sqrt(nu1 / nu2), rtol=1e-12, atol=1e-15)

    def test_velocity_cross_check_is_live(self, monkeypatch):
        # a perturbed snapshot velocity no longer matches the H^-1 error of the parts
        real = evolve.snapshots
        cfg = patch_config(times=[0.025, 0.05])
        perturbed = cfg.nu_ladder[2]

        def perturbing(plus, minus, scfg):
            for s, values in real(plus, minus, scfg):
                if scfg.nu == perturbed and s == 5:
                    values[2] += 1e-3
                yield s, values

        monkeypatch.setattr(evolve, "snapshots", perturbing)
        series = run_experiment(cfg)
        flagged = [v for v in series.invariant_violations if "u-velocity L2" in v]
        assert len(flagged) == 1
        assert flagged[0].startswith(f"nu={perturbed} t=0.025: |u-velocity L2 - vorticity H^-1|")

    @pytest.mark.parametrize("run", ["euler", "leg", "fine"])
    def test_apriori_check_is_live(self, monkeypatch, run):
        # one snapshot's plus part scaled by 1.02 drifts that run's mass by 2e-2,
        # an invariant violation of its run, not a leg error; "fine" is the
        # resolution check's Euler run on the doubled grid, read at steps 0 and 10
        real = evolve.snapshots
        cfg = patch_config(times=[0.025, 0.05], check_resolution=run == "fine")
        scaled = cfg.nu_ladder[2] if run == "leg" else 0.0
        n, step = (2 * cfg.n, 10) if run == "fine" else (cfg.n, 3)

        def scaling(plus, minus, scfg):
            for s, values in real(plus, minus, scfg):
                if scfg.nu == scaled and plus.grid.n == n and s == step:
                    values[0] *= 1.02
                yield s, values

        monkeypatch.setattr(evolve, "snapshots", scaling)
        series = run_experiment(cfg)
        assert series.errors == []
        flagged = [v for v in series.invariant_violations if "a-priori" in v]
        assert len(flagged) == 1
        assert flagged[0].startswith(f"nu={scaled} t={step * cfg.dt:.6g}: a-priori ")

    def test_q_agrees_with_biot_savart_velocities(self, monkeypatch, tmp_path):
        # the coupling driven by velocities re-solved from each snapshot, as
        # before the stepper handed out its own
        from vvlab.fields import ScalarField2D, biot_savart

        cfg = patch_config(times=[0.025, 0.05])
        stepper = run_experiment(cfg)
        emit_report(stepper, cfg, tmp_path / "stepper")
        real_stream = evolve.snapshots

        # the Euler reference and every leg
        def resolved_stream(plus, minus, scfg):
            for s, values in real_stream(plus, minus, scfg):
                u = biot_savart(ScalarField2D(plus.grid, values[0] - values[1]))
                values[2:] = u.u1, u.u2
                yield s, values

        monkeypatch.setattr(evolve, "snapshots", resolved_stream)
        resolved_series = run_experiment(cfg)
        emit_report(resolved_series, cfg, tmp_path / "resolved")
        assert resolved_series.invariant_violations == stepper.invariant_violations == []
        assert resolved_series.lemma1.keys() == stepper.lemma1.keys()
        for a, b in zip(stepper.rows, resolved_series.rows):
            assert (a.err_l2_velocity, a.w1_vorticity, a.w2_split_sum) == (
                b.err_l2_velocity, b.w1_vorticity, b.w2_split_sum)
            assert a.q_estimate == pytest.approx(b.q_estimate, rel=1e-12)
        for nu in cfg.nu_ladder:
            name = f"q_nu_{nu!r}.csv"
            a = np.loadtxt(tmp_path / "stepper" / name, delimiter=",", skiprows=1)
            b = np.loadtxt(tmp_path / "resolved" / name, delimiter=",", skiprows=1)
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=0)
            assert stepper.lemma1[nu] == pytest.approx(resolved_series.lemma1[nu], rel=1e-12)

    def test_resolution_check_flag(self):
        # the grid-doubling check on the coarse Euler run the sweep already holds
        series = run_experiment(patch_config(check_resolution=True))
        assert series.flags["resolution_check"] == "untrusted (disc_err=3.816e-03)"


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestLegShares:
    """The ladder runs in interleaved shares, one per usable CPU, share 0 in this
    process and each other share in a forked child (``harness._map_legs``)."""

    @pytest.mark.parametrize("cpus, shares", [({0}, 1), ({0, 1}, 2), ({0, 1, 2}, 3),
                                              (set(range(9)), 5)])
    def test_results_come_back_in_ladder_order(self, monkeypatch, cpus, shares):
        usable_cpus(monkeypatch, cpus)
        ladder = [3e-2, 1.7e-2, 9.5e-3, 5.3e-3, 2.9e-3]
        results = _map_legs(lambda nu: (nu, os.getpid()), ladder)
        assert [nu for nu, _ in results] == ladder
        # share k is ladder[k::shares], run by one process; share 0 by this one
        pids = [pid for _, pid in results]
        assert [set(pids[k::shares]) for k in range(shares)] == [{pid} for pid in pids[:shares]]
        assert len(set(pids)) == shares and pids[0] == os.getpid()
        assert_no_child_left()

    @pytest.mark.parametrize("cpus", [{0, 1}, {0, 1, 2}])
    def test_reports_are_byte_identical_on_any_cpu_count(self, monkeypatch, tmp_path, cpus):
        cfg = patch_config(times=[0.025, 0.05])
        for name, use in (("one", {0}), ("more", cpus)):
            usable_cpus(monkeypatch, use)
            emit_report(run_experiment(cfg), cfg, tmp_path / name)
        files = sorted(path.name for path in (tmp_path / "one").iterdir())
        assert files == sorted(path.name for path in (tmp_path / "more").iterdir())
        assert len(files) == 3 + len(cfg.nu_ladder)
        for name in files:
            assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "more" / name).read_bytes()

    def test_hm1_sweep_is_the_same_on_two_cpus(self, monkeypatch):
        cfg = patch_config(times=[0.025, 0.05])
        usable_cpus(monkeypatch, {0})
        one = hm1_sweep(cfg)
        usable_cpus(monkeypatch, {0, 1})
        assert hm1_sweep(cfg) == one

    @pytest.mark.parametrize("how", ["exit", "kill"])
    def test_child_ending_without_results_names_its_share(self, two_cpus, monkeypatch, how):
        # the child that runs ladder[1::2] ends in its doomed leg and sends nothing
        import signal

        import vvlab.harness as harness_mod
        from vvlab.coupling import advance_coupling as real_advance

        cfg = small_config()
        doomed, parent = cfg.nu_ladder[1], os.getpid()

        def dying_advance(ens, u, nu, dt):
            if nu == doomed and os.getpid() != parent:
                if how == "exit":
                    os._exit(1)
                os.kill(os.getpid(), signal.SIGKILL)
            return real_advance(ens, u, nu, dt)

        monkeypatch.setattr(harness_mod, "advance_coupling", dying_advance)
        code = 1 if how == "exit" else -signal.SIGKILL
        with pytest.raises(RuntimeError, match=re.escape(
                f"the worker for nu = {cfg.nu_ladder[1::2]} ended with exit code {code} "
                "before sending its results")):
            run_experiment(cfg)
        assert_no_child_left()

    def test_error_in_this_process_share_leaves_no_child(self, monkeypatch):
        # ladder[0] fails here while the three children still run their legs
        import vvlab.harness as harness_mod
        from vvlab.coupling import advance_coupling as real_advance

        usable_cpus(monkeypatch, {0, 1, 2, 3})
        cfg = small_config()
        doomed = cfg.nu_ladder[0]

        def buggy_advance(ens, u, nu, dt):
            if nu == doomed:
                raise KeyError("synthetic bug")
            return real_advance(ens, u, nu, dt)

        monkeypatch.setattr(harness_mod, "advance_coupling", buggy_advance)
        with pytest.raises(KeyError, match="synthetic bug") as raised:
            run_experiment(cfg)
        assert raised.value.__cause__ is None
        assert_no_child_left()


class TestHm1Sweep:
    def test_matches_run_experiment_errors(self, patch_series):
        errs, violations = hm1_sweep(patch_config())
        assert errs == {0.05: [r.err_l2_velocity for r in patch_series.rows]}
        assert violations == []

    @pytest.mark.parametrize("make", [
        lambda: ExperimentConfig.from_nested(yaml.safe_load((ROOT / "configs/smoke.yaml").read_text())),
        lambda: patch_config(times=[0.02, 0.05]),
    ], ids=["smoke", "patch-two-times"])
    def test_is_the_error_column_of_the_run(self, one_cpu, monkeypatch, make):
        # the same runs, each read on the same snapshot steps, give the run's
        # err_l2_velocity column bit for bit
        kernels = []

        class Recording(evolve._Kernel):
            def __init__(self, grid, cfg):
                super().__init__(grid, cfg)
                self.cfg, self.snapshots = cfg, 0
                kernels.append(self)

            def snapshot(self, w):
                self.snapshots += 1
                return super().snapshot(w)

        monkeypatch.setattr(evolve, "_Kernel", Recording)
        cfg = make()
        series = run_experiment(cfg)
        run_reads = [(k.cfg, k.snapshots) for k in kernels]
        kernels.clear()
        errs, violations = hm1_sweep(cfg)
        assert [(k.cfg, k.snapshots) for k in kernels] == run_reads
        assert [k.cfg.nu for k in kernels] == [0.0, *cfg.nu_ladder]
        assert {k.cfg.record_every for k in kernels} == {cfg.record_every}
        assert errs == {t: [r.err_l2_velocity for r in series.rows if r.t == t]
                        for t in sorted({r.t for r in series.rows})}
        assert len(errs) == len(cfg.times)
        assert violations == series.invariant_violations == []

    @pytest.mark.parametrize("run", ["euler", "leg"])
    def test_apriori_check_is_live(self, monkeypatch, run):
        # one snapshot's plus part scaled by 1.02, off the evaluation times, is
        # one violation naming its run; the errors are still those of a clean sweep
        cfg = patch_config(times=[0.02, 0.05])  # a snapshot every step
        clean, violations = hm1_sweep(cfg)
        assert violations == []
        real = evolve.snapshots
        scaled = 0.0 if run == "euler" else cfg.nu_ladder[2]

        def scaling(plus, minus, scfg):
            for s, values in real(plus, minus, scfg):
                if scfg.nu == scaled and s == 6:
                    values[0] *= 1.02
                yield s, values

        monkeypatch.setattr(evolve, "snapshots", scaling)
        errs, violations = hm1_sweep(cfg)
        assert errs == clean
        assert len(violations) == 1
        assert violations[0].startswith(f"nu={scaled} t=0.03: a-priori plus mass drift")

    def test_time_off_the_step_grid_rejected(self, monkeypatch):
        self.assert_refused_before_integration(monkeypatch, [0.013], "not a multiple of the snapshot")

    def test_repeated_time_rejected(self, monkeypatch):
        self.assert_refused_before_integration(monkeypatch, [0.05, 0.05], "must not repeat")

    @staticmethod
    def assert_refused_before_integration(monkeypatch, times, message):
        def no_integration(*args):
            raise AssertionError("integration started on an invalid config")

        monkeypatch.setattr(evolve, "snapshots", no_integration)
        with pytest.raises(ConfigError, match=message):
            hm1_sweep(small_config(times=times))


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


class TestExactRegressionPin:
    """The patch sweep's exact W1 and W2 columns, as separate cold LPs per order
    gave them.

    Both orders now share one LP model, W1 re-priced from W2's optimal basis;
    it may end on another optimal basis, whose cost sums in another order, so
    the columns must agree to 1e-12 relative.
    """

    # nu -> (w1_vorticity, w2_split_sum) at t = 0.05
    COLUMNS = {
        3e-2: (0.0016367289236037617, 0.0114684698979291),
        1.7e-2: (0.0009852641399372211, 0.008860033917890536),
        9.5e-3: (0.0005685162077053864, 0.006709010902270936),
        5.3e-3: (0.00032195734088264014, 0.005042882471038686),
    }

    def test_transport_columns(self, patch_series):
        assert patch_series.errors == []
        got = {r.nu: (r.w1_vorticity, r.w2_split_sum) for r in patch_series.rows}
        assert got.keys() == self.COLUMNS.keys()
        for nu, (w1, w2) in self.COLUMNS.items():
            assert got[nu][0] == pytest.approx(w1, rel=1e-12, abs=0)
            assert got[nu][1] == pytest.approx(w2, rel=1e-12, abs=0)


@pytest.fixture(scope="module")
def sinkhorn_patch_series():
    return run_experiment(patch_config(transport_method="sinkhorn"))


class TestSinkhornRegressionPin:
    """The patch sweep's Sinkhorn W1 and W2 columns, as the log-domain solver gave them.

    The scaling-domain solver makes the same iterations and stops at the same
    one; only the rounding of its kernel sums differs, so the columns must
    agree to 1e-12 relative.
    """

    # nu -> (w1_vorticity, w2_split_sum) at t = 0.05, epsilon = 1e-4
    COLUMNS = {
        3e-2: (0.0016362800678413674, 0.011460461602241763),
        1.7e-2: (0.000985089157608623, 0.008820730821124348),
        9.5e-3: (0.0005675888276701102, 0.006651366885099579),
        5.3e-3: (0.00032087978494294993, 0.004976190973008013),
    }

    def test_transport_columns(self, sinkhorn_patch_series):
        assert sinkhorn_patch_series.errors == []
        got = {r.nu: (r.w1_vorticity, r.w2_split_sum) for r in sinkhorn_patch_series.rows}
        assert got.keys() == self.COLUMNS.keys()
        for nu, (w1, w2) in self.COLUMNS.items():
            assert got[nu][0] == pytest.approx(w1, rel=1e-12, abs=0)
            assert got[nu][1] == pytest.approx(w2, rel=1e-12, abs=0)
