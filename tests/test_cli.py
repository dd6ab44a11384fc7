import json
import math
from pathlib import Path

import numpy as np
import pytest
import yaml

from vvlab.cli import EXIT_CONFIG, EXIT_OK, EXIT_VIOLATION, main
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
        assert (outdir / "summary.json").exists()
        assert (outdir / "rate_series.csv").exists()
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
    ])
    def test_invalid_smoke_override_is_config_error(self, override, tmp_path, monkeypatch):
        import vvlab.harness as harness_mod

        def no_integration(*args):
            raise AssertionError("integration started on an invalid config")

        monkeypatch.setattr(harness_mod, "run_split", no_integration)
        code = main(["run", "--config", str(SMOKE), "--output", str(tmp_path), *override])
        assert code == EXIT_CONFIG


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


class TestCheckVerb:
    def test_small_suite_passes(self, capsys):
        assert main(["check", "--instances", "5", "--seed", "0"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "ordering" in out
        assert "duality" in out


class TestOracleVerb:
    def test_random_instance_agrees(self, capsys):
        assert main(["oracle", "--atoms", "5", "--seed", "1"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "brute force" in out

    def test_instance_file(self, tmp_path):
        spec = {
            "length": 1.0,
            "mu": {"points": [[0.1, 0.1], [0.4, 0.4]], "weights": [0.5, 0.5]},
            "nu": {"points": [[0.2, 0.1], [0.4, 0.5]], "weights": [0.5, 0.5]},
        }
        p = tmp_path / "inst.json"
        p.write_text(json.dumps(spec))
        assert main(["oracle", "--instance", str(p), "--p", "1"]) == EXIT_OK
