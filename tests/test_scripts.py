"""Smoke tests: the scripts under scripts/ run to completion on tiny inputs."""

import importlib.util
from pathlib import Path

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


def test_crossover_scan(capsys):
    crossover_scan = load_script("crossover_scan")
    assert crossover_scan.main(["--points", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 + 3
