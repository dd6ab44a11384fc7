"""Smoke tests: the scripts under scripts/ run to completion on tiny inputs."""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_rate_sweep(capsys):
    rate_sweep = load_script("rate_sweep")
    # four legs: the fewest fit_rate accepts
    assert rate_sweep.main(["--n", "32", "--ladder", "4", "--times", "0.02"]) == 0
    out = capsys.readouterr().out
    assert "t=0.02: errors [" in out
    assert "exponent" in out


def test_rate_sweep_exits_1_on_a_violation(capsys, monkeypatch):
    # the Euler run's plus part scaled by 1.02 at a snapshot off the evaluation
    # times breaks its a-priori bounds: the errors are still printed, the
    # violation goes to stderr
    import vvlab.harness as harness_mod

    real = harness_mod.snapshots

    def scaling(plus, minus, scfg):
        for s, values in real(plus, minus, scfg):
            if scfg.nu == 0 and s == 5:
                values[0] *= 1.02
            yield s, values

    monkeypatch.setattr(harness_mod, "snapshots", scaling)
    rate_sweep = load_script("rate_sweep")
    # dt = 2e-3: snapshots every 5 steps, the gcd of 10 and 25
    assert rate_sweep.main(["--n", "32", "--ladder", "4", "--times", "0.02", "0.05"]) == 1
    captured = capsys.readouterr()
    assert "t=0.02: errors [" in captured.out and "t=0.05: errors [" in captured.out
    assert captured.err.startswith("invariant violation: nu=0.0 t=0.01: a-priori plus mass drift")


def test_rate_sweep_rejects_short_ladder(capsys):
    rate_sweep = load_script("rate_sweep")
    with pytest.raises(SystemExit) as exit_info:
        rate_sweep.main(["--n", "32", "--ladder", "3", "--times", "0.02"])
    assert exit_info.value.code == 2
    assert "at least 4" in capsys.readouterr().err


def test_crossover_scan(capsys):
    crossover_scan = load_script("crossover_scan")
    assert crossover_scan.main(["--points", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 + 3
