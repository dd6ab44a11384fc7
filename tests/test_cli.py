import json
import math
from pathlib import Path

import jsonschema
import numpy as np
import pytest
import yaml

from vvlab import evolve
from vvlab.cli import EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK, EXIT_VIOLATION, main
from vvlab.harness import summary_schema
from vvlab.io import write_csv

SMOKE = Path(__file__).resolve().parent.parent / "configs" / "smoke.yaml"
# three rows of one time at distinct viscosities; a fourth makes them fittable
FIT_ROWS = [(1e-2, 0.1, 0.5), (1e-3, 0.1, 0.2), (1e-4, 0.1, 0.1)]


@pytest.fixture
def tiny_config(tmp_path):
    tree = {
        "name": "cli-tiny",
        "initial_data": {"kind": "patch_pair", "params": {"radius": 0.12, "separation": 0.4}},
        "grid": {"n": 32, "length": 1.0},
        "nu_ladder": [3e-2, 1.7e-2, 9.5e-3, 5.3e-3],
        "times": [0.05],
        "solver": {"dt": 5e-3, "record_every": 2},
        "particles": {"count": 300},
        "transport": {"method": "exact", "max_support": 260},
        "seed": 0,
        "output_dir": str(tmp_path / "runs"),
        "allow_unresolved": True,
    }
    p = tmp_path / "cfg.yaml"
    p.write_text(yaml.safe_dump(tree))
    return p


class TestRunVerb:
    def test_run_writes_report(self, tiny_config, tmp_path, capsys):
        code = main(["run", "--config", str(tiny_config)])
        assert code == EXIT_OK
        outdir = tmp_path / "runs" / "cli-tiny-seed0"
        assert (outdir / "rate_series.csv").exists()
        # emit_report does not validate; the written summary must still match its schema
        jsonschema.validate(json.loads((outdir / "summary.json").read_text()), summary_schema())
        out = capsys.readouterr().out
        assert "exponent" in out

    def test_run_with_override(self, tiny_config, tmp_path, capsys):
        code = main([
            "run", "--config", str(tiny_config),
            "--output", str(tmp_path / "alt"),
            "--seed", "3",
        ])
        assert code == EXIT_OK
        summary = json.loads((tmp_path / "alt" / "cli-tiny-seed3" / "summary.json").read_text())
        assert summary["config"]["seed"] == 3

    def test_numeric_string_param_runs_as_its_number(self, tiny_config, tmp_path):
        # YAML 1.1 loads 12e-2, a float with no dot, as a string; the generator
        # gets 0.12 and the report keeps the value as given
        for value in ("0.12", "12e-2"):
            out = tmp_path / value
            code = main(["run", "--config", str(tiny_config), "--output", str(out),
                         "--initial_data.params.radius", value])
            assert code == EXIT_OK
        reports = [tmp_path / value / "cli-tiny-seed0" for value in ("0.12", "12e-2")]
        assert len({(r / "rate_series.csv").read_text() for r in reports}) == 1
        summary = json.loads((reports[1] / "summary.json").read_text())
        assert summary["config"]["initial_data"]["params"]["radius"] == "12e-2"

    def test_missing_config_is_config_error(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "nope.yaml")]) == EXIT_CONFIG

    def test_invalid_ladder_is_config_error(self, tiny_config, tmp_path):
        code = main([
            "run", "--config", str(tiny_config),
            "--nu_ladder", "[1e-3, 2e-3]",
        ])
        assert code == EXIT_CONFIG

    def test_bad_override_syntax(self, tiny_config):
        assert main(["run", "--config", str(tiny_config), "oops"]) == EXIT_CONFIG

    @pytest.mark.parametrize("override", [
        ["--transport.method", "sinkhorn", "--transport.epsilon", "-1"],
        ["--solver.dt", "0"],
        ["--solver.record_every", "0"],
        ["--grid.n", "0"],
        ["--grid.n", "48"],
        ["--transport.max_support", "0"],
        ["--particles.count", "0"],
        ["--nu_ladder", "[]"],
        ["--times", "[0.05, 0.05]"],
        ["--times", "[0.05, 0.0500000000001]"],  # one snapshot
        ["--times", "[.inf]"],
        ["--partcles.count", "0"],
        ["--grid.nn", "64"],
        ["--transport.epsilom", "1e-3"],
        ["--transport", "null"],  # as a YAML section left empty
        ["--particles", "null"],
        ["--grid.n", "32.9"],  # int() would truncate these
        ["--solver.record_every", "2.5"],
        ["--particles.count", "499.9"],
        ["--seed", "1.7"],
        ["--seed", "true"],
        ["--grid.length", "true"],  # float() would read this as 1.0
        ["--solver.dealias", "true"],  # the 2/3 rule is the stepper's only mask
        ["--allow_unresolved", '"no"'],  # bool() would read these strings as true
        ["--check_resolution", '"no"'],
        ["--name", "null"],  # the report would go to None-seed0
        ["--output_dir", "null"],
        ["--initial_data.params", "[[radius, 0.1]]"],  # dict() would read these pairs
        ["--grid", "null"],
        ["--seed", "-1"],  # the coupling's random generator takes no negative seed
        ["--grid.length", '"abc"'],  # float() would raise without naming the key
        ["--transport.method", "sinkhorn", "--transport.epsilon", ".inf"],  # NaN W columns
    ])
    def test_invalid_smoke_override_is_config_error(self, override, tmp_path, monkeypatch):
        def no_integration(*args):
            raise AssertionError("integration started on an invalid config")

        # the Euler reference and every leg
        monkeypatch.setattr(evolve, "snapshots", no_integration)
        code = main(["run", "--config", str(SMOKE), "--output", str(tmp_path), *override])
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("override,message", [
        (["--grid.length", '"abc"'], "grid.length must be a finite number, got 'abc'"),
        (["--transport.epsilon", ".inf"], "transport.epsilon must be a finite number"),
        (["--nu_ladder", "[.nan]"], "nu_ladder must be a finite number"),
        (["--solver.dealias", "true"], "unknown config key(s) ['solver.dealias']"),
    ])
    def test_config_error_names_its_key(self, override, message, tmp_path, capsys):
        code = main(["run", "--config", str(SMOKE), "--output", str(tmp_path), *override])
        assert code == EXIT_CONFIG
        assert message in capsys.readouterr().err

    def test_null_output_dir_without_output_flag_is_config_error(self, tmp_path, monkeypatch):
        # without --output the report path is built from output_dir, Path(None) raised
        monkeypatch.chdir(tmp_path)
        code = main(["run", "--config", str(SMOKE), "--output_dir", "null"])
        assert code == EXIT_CONFIG
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("override", [
        ["--initial_data.kind", "foo"],
        ["--initial_data.params.radius", "-1"],
        ["--initial_data.params.bogus", "3"],
        ["--initial_data.kind", "random_yudovich", "--initial_data.params", "{rng_seed: -1}"],
        ["--initial_data.kind", "random_yudovich", "--initial_data.params", "{k_max: -3}"],
        ["--initial_data.params.edge_cells", "-2.5"],
        ["--initial_data.params.edge_cells", "0"],
        # no vorticity mass for the coupling's particles to sample
        ["--initial_data.kind", "taylor_green", "--initial_data.params", "{amplitude: 0}"],
        ["--initial_data.params.strength", "0"],
    ])
    def test_bad_initial_data_is_config_error(self, override, tmp_path, monkeypatch, capsys):
        def no_integration(*args):
            raise AssertionError("integration started on invalid initial data")

        # the Euler reference and every leg
        monkeypatch.setattr(evolve, "snapshots", no_integration)
        code = main(["run", "--config", str(SMOKE), "--output", str(tmp_path), *override])
        assert code == EXIT_CONFIG
        assert "initial data" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())  # no empty report directory is left

    @pytest.mark.parametrize("kind,params,key", [
        ("patch_pair", "{radius: %s, separation: 0.4}", "initial_data.params.radius"),
        ("random_yudovich", "{k_max: %s}", "initial_data.params.k_max"),
    ], ids=["patch_pair.radius", "random_yudovich.k_max"])
    @pytest.mark.parametrize("value", ["null", '"abc"', "true"])
    def test_bad_initial_data_param_is_config_error(self, kind, params, key, value, tmp_path,
                                                     capsys):
        # refused before the run: the generator would take the value as given
        code = main(["run", "--config", str(SMOKE), "--output", str(tmp_path),
                     "--initial_data.kind", kind, "--initial_data.params", params % value])
        assert code == EXIT_CONFIG
        assert key in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("existed", [False, True])
    def test_config_error_in_the_run_leaves_no_report_directory(self, existed, tmp_path):
        # bad initial data is found inside the run, after the directory is made;
        # only a directory the run made is removed
        outdir = tmp_path / "smoke-seed0"
        if existed:
            outdir.mkdir()
        code = main(["run", "--config", str(SMOKE), "--output", str(tmp_path),
                     "--initial_data.params.radius", "-1"])
        assert code == EXIT_CONFIG
        assert outdir.is_dir() == existed

    def test_failed_reference_exits_3_and_leaves_no_report_directory(self, tmp_path, capsys):
        # a vortex pair this strong breaks the CFL bound in the first step of the
        # Euler reference, which runs outside any leg
        code = main(["run", "--config", str(SMOKE), "--output", str(tmp_path),
                     "--initial_data.params.strength", "200"])
        assert code == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: SolverError: step 1 (t=0.005): CFL violation")
        assert err.count("\n") == 1
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("override,exit_code", [
        (["--initial_data.params.strength", "200"], EXIT_NUMERICAL),  # a failed reference
        (["--initial_data.params.radius", "5"], EXIT_CONFIG),  # initial data refused in the run
    ], ids=["numerical", "config"])
    def test_failed_run_removes_every_output_level_it_made(self, override, exit_code, tmp_path):
        # --output is made with its parents: every level the command made goes,
        # and a level that existed stays
        (tmp_path / "kept").mkdir()
        (tmp_path / "kept" / "other").write_text("")
        for output in (tmp_path / "a" / "b", tmp_path / "kept" / "c" / "d"):
            code = main(["run", "--config", str(SMOKE), "--output", str(output), *override])
            assert code == exit_code
        assert sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*")) == [
            "kept", "kept/other"]

    @pytest.mark.parametrize("extra", [[], ["--seed", "1"]])
    def test_non_mapping_config_is_config_error(self, extra, tmp_path):
        p = tmp_path / "list.yaml"
        p.write_text("- 1\n- 2\n")
        assert main(["run", "--config", str(p), *extra]) == EXIT_CONFIG

    @pytest.mark.parametrize("text,override", [
        ("grid: [1, 2\n", []),  # the file is not YAML
        (None, ["--grid.n", "[64"]),  # an override is not YAML
    ])
    def test_unparsable_config_is_config_error(self, text, override, tiny_config, capsys):
        if text is not None:
            tiny_config.write_text(text)
        assert main(["run", "--config", str(tiny_config), *override]) == EXIT_CONFIG
        assert "configuration error" in capsys.readouterr().err

    def test_key_error_inside_a_run_is_raised(self, tiny_config, monkeypatch):
        import vvlab.cli as cli_mod

        def broken(cfg):
            raise KeyError("a programming error")

        monkeypatch.setattr(cli_mod, "run_experiment", broken)
        with pytest.raises(KeyError, match="a programming error"):
            main(["run", "--config", str(tiny_config)])

    def test_failing_exact_lp_is_a_leg_error(self, tiny_config, tmp_path, stall_highs):
        stall_highs(math.inf)
        code = main(["run", "--config", str(tiny_config), "--output", str(tmp_path / "out")])
        assert code == EXIT_NUMERICAL
        summary = json.loads((tmp_path / "out" / "cli-tiny-seed0" / "summary.json").read_text())
        assert [nu for nu, _ in summary["leg_errors"]] == [3e-2, 1.7e-2, 9.5e-3, 5.3e-3]
        for _, msg in summary["leg_errors"]:
            assert msg.startswith("TransportError: exact transport LP failed")

    def test_failed_leg_exits_3_and_leaves_the_other_legs(self, tiny_config, tmp_path,
                                                          monkeypatch, capsys):
        self.check_failed_leg(0, tiny_config, tmp_path, monkeypatch, capsys)

    def test_leg_failing_after_an_evaluation_time_leaves_nothing(self, tiny_config, tmp_path,
                                                                 monkeypatch, capsys):
        # the leg has passed its first evaluation step (4) when it fails at step 6
        self.check_failed_leg(6, tiny_config, tmp_path, monkeypatch, capsys)

    def check_failed_leg(self, fail_at, tiny_config, tmp_path, monkeypatch, capsys):
        """A run whose leg ``failing`` raises a SolverError in its stream just
        before the snapshot at step ``fail_at``, against a clean run."""
        # two evaluation times (steps 4 and 10) and a Q series long enough for lemma 1
        override = ["--times", "[0.02, 0.05]", "--solver.record_every", "1"]
        failing, real = 9.5e-3, evolve.snapshots

        def snapshots(plus, minus, scfg):
            for s, values in real(plus, minus, scfg):
                if scfg.nu == failing and s == fail_at:
                    raise evolve.SolverError("injected blow-up")
                yield s, values

        def run(name):
            return main(["run", "--config", str(tiny_config), "--output", str(tmp_path / name),
                         *override])

        def report(name):
            outdir = tmp_path / name / "cli-tiny-seed0"
            rows = (outdir / "rate_series.csv").read_text().splitlines()
            q_files = {p.name: p.read_bytes() for p in outdir.glob("q_nu_*.csv")}
            return rows, json.loads((outdir / "summary.json").read_text()), q_files

        assert run("a") == EXIT_OK
        monkeypatch.setattr(evolve, "snapshots", snapshots)
        assert run("b") == EXIT_NUMERICAL
        assert "injected blow-up" in capsys.readouterr().err

        (rows_a, summary_a, q_a), (rows_b, summary_b, q_b) = report("a"), report("b")
        # the failed leg leaves no row, Q file or lemma 1 fit; the others are unchanged
        assert rows_b == [r for r in rows_a if not r.startswith(f"{failing},")]
        assert len(rows_b) == len(rows_a) - 2
        assert summary_b["leg_errors"] == [[failing, "SolverError: injected blow-up"]]
        assert summary_a["leg_errors"] == []
        assert len(summary_a["lemma1"]) == 4
        assert summary_b["lemma1"] == {
            nu: c for nu, c in summary_a["lemma1"].items() if float(nu) != failing}
        assert q_b == {name: q for name, q in q_a.items() if name != f"q_nu_{failing!r}.csv"}
        assert len(q_b) == 3

    def test_close_viscosities_keep_their_own_q_files(self, tiny_config, tmp_path):
        # 9.5e-3 and 9.4999999e-3 print alike to 6 significant digits
        ladder = [3.0e-2, 1.7e-2, 9.5e-3, 9.4999999e-3]
        code = main(["run", "--config", str(tiny_config), "--output", str(tmp_path),
                     "--nu_ladder", str(ladder)])
        assert code == EXIT_OK
        q_files = sorted((tmp_path / "cli-tiny-seed0").glob("q_nu_*.csv"))
        assert sorted(p.name for p in q_files) == sorted(f"q_nu_{nu!r}.csv" for nu in ladder)
        assert len({p.read_bytes() for p in q_files}) == 4

    def test_unusable_output_dir_is_config_error_before_the_run(self, tiny_config, tmp_path,
                                                                monkeypatch, capsys):
        def no_integration(*args):
            raise AssertionError("integration started before the output directory was made")

        # the Euler reference and every leg
        monkeypatch.setattr(evolve, "snapshots", no_integration)
        blocker = tmp_path / "a-file"
        blocker.write_text("")
        code = main(["run", "--config", str(tiny_config), "--output", str(blocker / "out")])
        assert code == EXIT_CONFIG
        assert f"cannot create report directory {blocker / 'out'}" in capsys.readouterr().err

    @pytest.mark.parametrize("parts", [["x" * 300], ["a", "x" * 300]], ids=["name", "parent"])
    def test_overlong_output_name_is_config_error(self, parts, tiny_config, tmp_path, capsys):
        # the name cannot be made (ENAMETOOLONG) and no level made before it is left
        code = main(["run", "--config", str(tiny_config), "--output", str(tmp_path.joinpath(*parts))])
        assert code == EXIT_CONFIG
        assert "cannot create report directory" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.yaml"]


class TestFitVerb:
    @pytest.mark.parametrize("transformed", [False, True], ids=["plain", "transformed"])
    def test_fit_recovers_exponent(self, transformed, tmp_path, capsys):
        nus = np.geomspace(1e-5, 1e-2, 8)
        # 2 x^0.5 in the fitted variable x: nu, or nu/|log nu| when transformed
        xs = nus / np.abs(np.log(nus)) if transformed else nus
        rows = [(float(nu), 0.1, float(2.0 * x ** 0.5)) for nu, x in zip(nus, xs)]
        csv_path = tmp_path / "rates.csv"
        write_csv(csv_path, ["nu", "t", "err_l2_velocity"], rows)
        json_path = tmp_path / "fits.json"
        code = main(["fit", str(csv_path), "--json", str(json_path)]
                    + ["--transformed"] * transformed)
        assert code == EXIT_OK
        fits = json.loads(json_path.read_text())
        assert fits["0.1"]["exponent"] == pytest.approx(0.5, abs=1e-9)
        assert fits["0.1"]["transformed"] is transformed

    def test_unwritable_json_path_is_config_error(self, tmp_path, capsys):
        nus = np.geomspace(1e-5, 1e-2, 8)
        csv_path = tmp_path / "rates.csv"
        write_csv(csv_path, ["nu", "t", "err_l2_velocity"], [(nu, 0.1, nu ** 0.5) for nu in nus])
        json_path = tmp_path / "nodir" / "x.json"
        assert main(["fit", str(csv_path), "--json", str(json_path)]) == EXIT_CONFIG
        assert f"cannot write {json_path}" in capsys.readouterr().err

    def test_fit_bootstraps_with_the_reports_seed(self, tmp_path, capsys):
        # smoke at seed 3 on a 7-nu ladder: the CI of a refit is the summary's;
        # drawn with seed 0 it read [0.9221, 0.9564]
        ladder = "[3.0e-2, 2.2e-2, 1.7e-2, 1.3e-2, 9.5e-3, 7.1e-3, 5.3e-3]"
        assert main(["run", "--config", str(SMOKE), "--output", str(tmp_path), "--seed", "3",
                     "--nu_ladder", ladder]) == EXIT_OK
        report = tmp_path / "smoke-seed3"
        json_path = tmp_path / "fits.json"
        assert main(["fit", str(report / "rate_series.csv"), "--json", str(json_path)]) == EXIT_OK
        fit = json.loads(json_path.read_text())["0.05"]
        # the whole entry, as summary.json's fits block holds it
        assert fit == json.loads((report / "summary.json").read_text())["fits"]["0.05"]
        assert fit["ci"] == pytest.approx([0.9236, 0.9572], abs=5e-5)
        # without the summary the bootstrap draws with seed 0
        (report / "summary.json").unlink()
        assert main(["fit", str(report / "rate_series.csv"), "--json", str(json_path)]) == EXIT_OK
        assert json.loads(json_path.read_text())["0.05"]["ci"] == pytest.approx(
            [0.9221, 0.9564], abs=5e-5)

    @pytest.mark.parametrize("text", [
        "{", "[]", '{"config": []}', '{"config": {}}', '{"config": {"seed": -1}}',
        '{"config": {"seed": 1.5}}', '{"config": {"seed": true}}', '{"config": {"seed": "3"}}',
    ])
    def test_malformed_summary_beside_the_csv_is_config_error(self, text, tmp_path, capsys):
        nus = np.geomspace(1e-5, 1e-2, 8)
        csv_path = tmp_path / "rates.csv"
        write_csv(csv_path, ["nu", "t", "err_l2_velocity"], [(nu, 0.1, nu ** 0.5) for nu in nus])
        (tmp_path / "summary.json").write_text(text)
        assert main(["fit", str(csv_path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert str(tmp_path / "summary.json") in err

    def test_fit_unknown_time_rejected(self, tmp_path):
        rows = [(1e-3, 0.1, 0.5), (1e-4, 0.1, 0.2), (1e-5, 0.1, 0.1), (1e-6, 0.1, 0.03)]
        csv_path = tmp_path / "rates.csv"
        write_csv(csv_path, ["nu", "t", "err_l2_velocity"], rows)
        assert main(["fit", str(csv_path), "--time", "9.9"]) == EXIT_CONFIG

    def test_fit_unknown_column_names_the_columns(self, tmp_path, capsys):
        csv_path = tmp_path / "rates.csv"
        write_csv(csv_path, ["nu", "t", "err_l2_velocity"], [(1e-3, 0.1, 0.5)])
        assert main(["fit", str(csv_path), "--column", "w9"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "no column ['w9']" in err
        assert "['nu', 't', 'err_l2_velocity']" in err

    @pytest.mark.parametrize("text", [None, "nu,t,err_l2_velocity\n1e-3,0.1,abc\n",
                                      "nu,t,err_l2_velocity\n1e-4,0.1\n"])
    def test_unreadable_csv_is_config_error(self, text, tmp_path, capsys):
        csv_path = tmp_path / "rates.csv"
        if text is not None:
            csv_path.write_text(text)
        assert main(["fit", str(csv_path)]) == EXIT_CONFIG
        assert f"cannot read {csv_path}" in capsys.readouterr().err

    def test_fit_too_few_rows_is_config_error(self, tmp_path, capsys):
        rows = [(1e-3, 0.1, 0.5), (1e-4, 0.1, 0.2), (1e-5, 0.1, 0.1)]
        csv_path = tmp_path / "rates.csv"
        write_csv(csv_path, ["nu", "t", "err_l2_velocity"], rows)
        assert main(["fit", str(csv_path)]) == EXIT_CONFIG
        assert "t=0.1" in capsys.readouterr().err


    @pytest.mark.parametrize("rows,message", [
        (FIT_ROWS + [(1e-5, 0.1, math.inf)], "t=0.1: errors must be finite, got [inf]"),
        (FIT_ROWS + [(-1e-5, 0.1, 0.01)], "t=0.1: viscosities must lie in (0, inf), got [-1e-05]"),
        (FIT_ROWS + [(1e-5, 0.1, -0.01)], "t=0.1: errors must be nonnegative, got [-0.01]"),
        ([(1e-3, 0.1, e) for e in (0.5, 0.4, 0.3, 0.2)],
         "t=0.1: need at least 2 distinct viscosities to fit a rate, got only 0.001"),
        ([], "has no data rows"),
    ], ids=["inf_error", "negative_nu", "negative_error", "one_viscosity", "header_only"])
    def test_fit_bad_row_is_config_error(self, rows, message, tmp_path, capsys):
        csv_path = tmp_path / "rates.csv"
        write_csv(csv_path, ["nu", "t", "err_l2_velocity"], rows)
        assert main(["fit", str(csv_path)]) == EXIT_CONFIG
        assert message in capsys.readouterr().err


class TestCheckVerb:
    def test_small_suite_passes(self, capsys):
        assert main(["check", "--instances", "5", "--seed", "0"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "ordering" in out
        assert "duality" in out

    def test_zero_instances_rejected(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["check", "--instances", "0"])
        assert exit_info.value.code == EXIT_CONFIG
        assert "must be >= 1" in capsys.readouterr().err

    def test_negative_seed_rejected(self, capsys):
        # numpy's random generators take no negative seed
        with pytest.raises(SystemExit) as exit_info:
            main(["check", "--seed", "-1"])
        assert exit_info.value.code == EXIT_CONFIG
        assert "argument --seed: must be >= 0, got -1" in capsys.readouterr().err


class TestOracleVerb:
    def test_random_instance_agrees(self, capsys):
        assert main(["oracle", "--atoms", "5", "--seed", "1"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "brute force" in out

    def test_zero_atoms_rejected(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["oracle", "--atoms", "0"])
        assert exit_info.value.code == EXIT_CONFIG
        assert "must be >= 1" in capsys.readouterr().err

    def test_negative_seed_rejected(self, capsys):
        # numpy's random generators take no negative seed
        with pytest.raises(SystemExit) as exit_info:
            main(["oracle", "--seed", "-1"])
        assert exit_info.value.code == EXIT_CONFIG
        assert "argument --seed: must be >= 0, got -1" in capsys.readouterr().err

    def test_more_atoms_than_the_oracle_handles_rejected(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["oracle", "--atoms", "9"])
        assert exit_info.value.code == EXIT_CONFIG
        assert "invalid choice: 9" in capsys.readouterr().err

    def test_instance_file(self, tmp_path):
        spec = {
            "length": 1.0,
            "mu": {"points": [[0.1, 0.1], [0.4, 0.4]], "weights": [0.5, 0.5]},
            "nu": {"points": [[0.2, 0.1], [0.4, 0.5]], "weights": [0.5, 0.5]},
        }
        p = tmp_path / "inst.json"
        p.write_text(json.dumps(spec))
        assert main(["oracle", "--instance", str(p), "--p", "1"]) == EXIT_OK

    @pytest.mark.parametrize("mu,length,message", [
        ({"points": [[0.1, 0.1]], "weights": [1.0]}, 1.0, "equal sizes"),
        ({"points": [[0.1, 0.1], [0.4, 0.4]], "weights": [1.5, -0.5]}, 1.0, "nonnegative"),
        ({"points": [[0.1, 0.1], [0.4, 0.4]], "weights": [0.5, 0.5]}, "x",
         "length must be a positive finite number, got 'x'"),
    ], ids=["unequal_sizes", "negative_weight", "string_length"])
    def test_malformed_instance_is_config_error(self, mu, length, message, tmp_path, capsys):
        spec = {"length": length, "mu": mu,
                "nu": {"points": [[0.2, 0.1], [0.4, 0.5]], "weights": [0.5, 0.5]}}
        p = tmp_path / "inst.json"
        p.write_text(json.dumps(spec))
        assert main(["oracle", "--instance", str(p)]) == EXIT_CONFIG
        assert message in capsys.readouterr().err
