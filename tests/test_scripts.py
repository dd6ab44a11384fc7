"""Smoke tests: the scripts under scripts/ run to completion on tiny inputs."""

import importlib.util
import json
import math
from pathlib import Path

import pytest

from vvlab import evolve
from vvlab.envelope import crossover_time

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"
SMOKE = ROOT / "configs" / "smoke.yaml"


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_rate_sweep(capsys):
    rate_sweep = load_script("rate_sweep")
    # four legs: the fewest fit_rate accepts
    assert rate_sweep.main(["--config", str(SMOKE)]) == 0
    out = capsys.readouterr().out
    assert "t=0.05: errors [" in out
    assert "exponent" in out


def test_rate_sweep_prints_the_fit_of_vvlab_run(tmp_path, capsys):
    # the same config and seed: the exponent and interval of the run's summary
    from vvlab.cli import main

    # seven legs, on which the bootstrap interval moves with its seed (default 0)
    override = ["--seed", "3", "--nu_ladder", "[3e-2, 2.2e-2, 1.7e-2, 1.3e-2, 9.5e-3, 7e-3, 5.3e-3]"]
    assert main(["run", "--config", str(SMOKE), "--output", str(tmp_path), *override]) == 0
    summary = json.loads((tmp_path / "smoke-seed3" / "summary.json").read_text())
    fit = summary["fits"]["0.05"]
    capsys.readouterr()
    assert load_script("rate_sweep").main(["--config", str(SMOKE), *override]) == 0
    low, high = fit["ci"]
    assert f"exponent {fit['exponent']:.4f} [{low:.4f}, {high:.4f}]" in capsys.readouterr().out


def test_rate_sweep_exits_1_on_a_violation(capsys, monkeypatch):
    # the Euler run's plus part scaled by 1.02 at a snapshot off the evaluation
    # times breaks its a-priori bounds: the errors are still printed, the
    # violation goes to stderr
    real = evolve.snapshots

    def scaling(plus, minus, scfg):
        for s, values in real(plus, minus, scfg):
            if scfg.nu == 0 and s == 2:
                values[0] *= 1.02
            yield s, values

    monkeypatch.setattr(evolve, "snapshots", scaling)
    rate_sweep = load_script("rate_sweep")
    # dt = 5e-3 and a snapshot every step
    assert rate_sweep.main(["--config", str(SMOKE), "--times", "[0.02, 0.05]"]) == 1
    captured = capsys.readouterr()
    assert "t=0.02: errors [" in captured.out and "t=0.05: errors [" in captured.out
    assert captured.err.startswith("invariant violation: nu=0.0 t=0.01: a-priori plus mass drift")


def test_rate_sweep_exits_3_on_a_failed_reference(capsys):
    # the CFL bound breaks in the first step of the Euler reference
    override = ["--initial_data.params.strength", "200"]
    assert load_script("rate_sweep").main(["--config", str(SMOKE), *override]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith("numerical failure: SolverError: step 1 (t=0.005): CFL violation")


def sweep_refused(monkeypatch, capsys, override) -> str:
    """What rate_sweep prints on stderr for a config it refuses with exit 2,
    which must come before any integration."""
    def no_integration(*args):
        raise AssertionError("integration started on an invalid config")

    monkeypatch.setattr(evolve, "snapshots", no_integration)
    assert load_script("rate_sweep").main(["--config", str(SMOKE), *override]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    return captured.err


@pytest.mark.parametrize("override,message", [
    (["--times", "[0.05, 0.05]"], "evaluation times must not repeat, got [0.05, 0.05]"),
    (["--times", "[0.013]"], "evaluation time 0.013 is not a multiple of the snapshot interval"),
    (["--grid.nn", "64"], "unknown config key(s) ['grid.nn']"),
])
def test_rate_sweep_config_error_exits_2(override, message, capsys, monkeypatch):
    assert sweep_refused(monkeypatch, capsys, override).startswith(f"configuration error: {message}")


def test_rate_sweep_rejects_short_ladder(capsys, monkeypatch):
    err = sweep_refused(monkeypatch, capsys, ["--nu_ladder", "[3e-2, 1.7e-2, 9.5e-3]"])
    assert err == "configuration error: a rate fit needs at least 4 viscosities, got 3\n"


def test_crossover_scan(capsys):
    crossover_scan = load_script("crossover_scan")
    assert crossover_scan.main(["--points", "3", "--c", "2.5", "--t-fixed", "0.3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 + 3
    for line, nu in zip(lines[1:], (1e-10, 1e-6, 1e-2)):
        cols = [float(x) for x in line.split()]
        t1 = crossover_time(nu).t1
        fixed = (nu / abs(math.log(nu))) ** (0.5 * math.exp(-2.5 * 0.3))
        assert cols[0] == pytest.approx(nu, rel=1e-12)
        assert cols[1] == pytest.approx(t1, abs=5e-7)
        assert cols[2] == pytest.approx(t1 * math.log(1 / nu), abs=5e-5)
        assert cols[3] < 1e-12  # the residual of the crossover root
        assert cols[4] == pytest.approx(math.sqrt(nu * t1), rel=5e-5)
        assert cols[5] == pytest.approx(fixed, rel=5e-5)


@pytest.mark.parametrize("flags,message", [
    (["--nu-max", "2"], "--nu-max must be < 1, got 2"),
    (["--nu-min", "0"], "--nu-min must be > 0, got 0"),
    (["--nu-min", "1e-2", "--nu-max", "1e-3"], "--nu-max must be >= --nu-min 0.01, got 0.001"),
    (["--points", "0"], "--points must be >= 1, got 0"),
    (["--c", "0"], "--c must be > 0, got 0"),
    (["--t-fixed", "-1"], "--t-fixed must be >= 0, got -1"),
], ids=["nu-max", "nu-min", "nu-order", "points", "c", "t-fixed"])
def test_crossover_scan_refuses_a_bad_flag(flags, message, capsys):
    # exit 2 is a configuration error; 1 would claim an invariant violation
    assert load_script("crossover_scan").main(flags) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"configuration error: {message}\n"
