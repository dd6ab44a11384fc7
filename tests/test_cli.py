import json
import math
from pathlib import Path

import jsonschema
import numpy as np
import pytest
import yaml

from vvlab.cli import EXIT_CONFIG, EXIT_OK, EXIT_VIOLATION, main
from vvlab.harness import summary_schema
from vvlab.io import write_csv

SMOKE = Path(__file__).resolve().parent.parent / "configs" / "smoke.yaml"


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
        import vvlab.harness as harness_mod

        def no_integration(*args):
            raise AssertionError("integration started on an invalid config")

        monkeypatch.setattr(harness_mod, "run_split", no_integration)
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
    ])
    def test_bad_initial_data_is_config_error(self, override, tmp_path, monkeypatch, capsys):
        import vvlab.harness as harness_mod

        def no_integration(*args):
            raise AssertionError("integration started on invalid initial data")

        monkeypatch.setattr(harness_mod, "run_split", no_integration)
        code = main(["run", "--config", str(SMOKE), "--output", str(tmp_path), *override])
        assert code == EXIT_CONFIG
        assert "initial data" in capsys.readouterr().err

    @pytest.mark.parametrize("extra", [[], ["--seed", "1"]])
    def test_non_mapping_config_is_config_error(self, extra, tmp_path):
        p = tmp_path / "list.yaml"
        p.write_text("- 1\n- 2\n")
        assert main(["run", "--config", str(p), *extra]) == EXIT_CONFIG


class TestFitVerb:
    def test_fit_recovers_exponent(self, tmp_path, capsys):
        nus = np.geomspace(1e-5, 1e-2, 8)
        rows = [(float(nu), 0.1, float(2.0 * nu ** 0.5)) for nu in nus]
        csv_path = tmp_path / "rates.csv"
        write_csv(csv_path, ["nu", "t", "err_l2_velocity"], rows)
        json_path = tmp_path / "fits.json"
        code = main(["fit", str(csv_path), "--json", str(json_path)])
        assert code == EXIT_OK
        fits = json.loads(json_path.read_text())
        assert fits["0.1"]["exponent"] == pytest.approx(0.5, abs=1e-9)

    def test_fit_unknown_time_rejected(self, tmp_path):
        rows = [(1e-3, 0.1, 0.5), (1e-4, 0.1, 0.2), (1e-5, 0.1, 0.1), (1e-6, 0.1, 0.03)]
        csv_path = tmp_path / "rates.csv"
        write_csv(csv_path, ["nu", "t", "err_l2_velocity"], rows)
        assert main(["fit", str(csv_path), "--time", "9.9"]) == EXIT_CONFIG

    def test_fit_too_few_rows_is_config_error(self, tmp_path, capsys):
        rows = [(1e-3, 0.1, 0.5), (1e-4, 0.1, 0.2), (1e-5, 0.1, 0.1)]
        csv_path = tmp_path / "rates.csv"
        write_csv(csv_path, ["nu", "t", "err_l2_velocity"], rows)
        assert main(["fit", str(csv_path)]) == EXIT_CONFIG
        assert "t=0.1" in capsys.readouterr().err


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
