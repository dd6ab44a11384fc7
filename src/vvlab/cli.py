"""Command-line entry point.

Verbs:

* ``run``    -- execute an experiment from a YAML config, write reports
* ``fit``    -- fit a convergence exponent from a rate CSV
* ``check``  -- run the inequality/invariant suites
* ``oracle`` -- brute-force transport solver on small instances

Exit codes: 0 success, 1 invariant violation, 2 configuration error (a config,
override, CSV or instance file that cannot be opened, parsed or used, a report
directory that cannot be made, which ``run`` makes first, or a ``fit --json``
file that cannot be written), 3 ``run`` failed numerically (a SolverError or
CouplingError): either a viscosity leg, whose rows are missing from the report,
and 3 wins over 1, or the reference, and then no report is written. Any other
exception is a programming error and is raised, never reported as one of these.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from pathlib import Path

import numpy as np
import yaml

from vvlab.config import ConfigError, ExperimentConfig, apply_override, parse_overrides
from vvlab.coupling import CouplingError
from vvlab.evolve import SolverError
from vvlab.harness import FITTED_COLUMN, emit_report, run_experiment
from vvlab.ratefit import fit_by_time, fit_entries
from vvlab.transport import BRUTE_FORCE_MAX_ATOMS

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _at_least(low: int):
    """An argparse type: an integer no smaller than ``low``."""
    def integer(raw: str) -> int:
        n = int(raw)
        if n < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {n}")
        return n
    return integer


def _read(path: str, parse):
    """``parse`` applied to the text file at ``path``; a file that cannot be
    opened or parsed is a configuration error."""
    try:
        with open(path, encoding="utf-8") as fh:
            return parse(fh)
    except ConfigError:
        raise
    except (OSError, ValueError, yaml.YAMLError, csv.Error) as e:
        raise ConfigError(f"cannot read {path}: {e}") from e


def load_config(path: str, extra: list[str]) -> ExperimentConfig:
    """The experiment config in the YAML file at ``path``, with the
    ``--path.to.key value`` overrides in ``extra``; a file, an override or a
    config that cannot be read or used is a configuration error."""
    tree = _read(path, yaml.safe_load) or {}
    for key, raw in parse_overrides(extra):
        apply_override(tree, key, raw)
    return ExperimentConfig.from_nested(tree)


def _remove_empty(levels) -> None:
    """Remove the directories ``levels`` that exist, deepest first, up to the first
    that is not empty, so a failed run leaves no empty directory it made."""
    for d in levels:
        if not os.path.isdir(d):  # os.path, unlike Path, takes an overlong name as missing
            continue
        if any(d.iterdir()):
            return
        d.rmdir()


def cmd_run(args, extra) -> int:
    cfg = load_config(args.config, extra)
    outdir = Path(args.output or cfg.output_dir) / f"{cfg.name}-seed{cfg.seed}"
    made = [d for d in (outdir, *outdir.parents) if not os.path.isdir(d)]  # deepest first
    # before the run, so an unusable output path costs no integration
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        _remove_empty(made)
        raise ConfigError(f"cannot create report directory {outdir}: {e}") from e
    try:
        series = run_experiment(cfg)
    except (ConfigError, SolverError, CouplingError) as e:
        # found in the run, such as bad initial data or a failed reference; a
        # leg's failure is caught in the run
        _remove_empty(made)
        if isinstance(e, ConfigError):
            raise
        print(f"numerical failure: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_NUMERICAL
    summary = emit_report(series, cfg, outdir)
    print(f"report written to {outdir}")
    for t, fit in sorted(series.fits.items()):
        print(f"  t={t:g}: exponent {fit.exponent:.3f} "
              f"[{fit.ci_low:.3f}, {fit.ci_high:.3f}] (R^2={fit.r_squared:.4f})")
    for msg in summary["invariant_violations"]:
        print(f"invariant violation: {msg}", file=sys.stderr)
    for nu, msg in summary["leg_errors"]:
        print(f"leg error: nu={nu}: {msg}", file=sys.stderr)
    if summary["leg_errors"]:
        return EXIT_NUMERICAL
    return EXIT_VIOLATION if summary["invariant_violations"] else EXIT_OK


def _report_seed(csv_path: str) -> int:
    """The bootstrap seed for a rate CSV: the ``config.seed`` of the
    ``summary.json`` beside it, so that a refit draws what the report drew, or 0
    when there is none; a summary without a usable seed is a configuration error."""
    path = Path(csv_path).with_name("summary.json")
    if not path.exists():
        return 0
    try:
        seed = _read(str(path), json.load)["config"]["seed"]
    except (KeyError, TypeError):
        seed = None
    if type(seed) is not int or seed < 0:
        raise ConfigError(f"{path} has no nonnegative integer config.seed")
    return seed


def cmd_fit(args, extra) -> int:
    def parse(fh):
        reader = csv.DictReader(fh, restval="")  # a short row's missing cells read as empty
        columns = reader.fieldnames or []
        missing = [c for c in ("nu", "t", args.column) if c not in columns]
        if missing:
            raise ConfigError(f"{args.csv} has no column {missing}; its columns are {columns}")
        return [(float(rec["nu"]), float(rec["t"]), float(rec[args.column])) for rec in reader]

    rows = _read(args.csv, parse)
    if not rows:
        raise ConfigError(f"{args.csv} has no data rows")
    seed = _report_seed(args.csv)
    if args.time is not None:
        rows = [row for row in rows if abs(row[1] - args.time) < 1e-12]
        if not rows:
            raise ConfigError(f"no rows at t={args.time}")
    try:
        fits = fit_by_time(rows, transformed=args.transformed, rng_seed=seed)
    except ValueError as e:
        raise ConfigError(str(e)) from e
    for t, fit in fits.items():
        print(f"t={t:g}: exponent {fit.exponent:.4f} [{fit.ci_low:.4f}, {fit.ci_high:.4f}]")
    if args.json:
        text = json.dumps(fit_entries(fits), indent=2, sort_keys=True) + "\n"
        try:
            Path(args.json).write_text(text)
        except OSError as e:
            raise ConfigError(f"cannot write {args.json}: {e}") from e
    return EXIT_OK


def cmd_check(args, extra) -> int:
    """Seeded random-instance inequality suites (ordering, domination, duality)."""
    from vvlab.checks import run_inequality_suites

    report = run_inequality_suites(n_instances=args.instances, rng_seed=args.seed)
    for name, passed, total in report.lines:
        print(f"{name}: {passed}/{total} passed")
    if not report.ok:
        for msg in report.failures[:20]:
            print(f"FAIL: {msg}", file=sys.stderr)
        return EXIT_VIOLATION
    return EXIT_OK


def cmd_oracle(args, extra) -> int:
    from vvlab.transport import DiscreteMeasure, wasserstein_brute_force, wasserstein_exact

    if args.instance:
        spec = _read(args.instance, json.load)
        try:
            length = spec["length"]
            parts = [(spec[m]["points"], spec[m]["weights"]) for m in ("mu", "nu")]
        except (KeyError, TypeError) as e:
            raise ConfigError(f"instance {args.instance} has no mu/nu points, weights "
                              f"and length: {e!r}") from e
    else:
        rng = np.random.default_rng(args.seed)
        pts = rng.uniform(0, 1, size=(2, args.atoms, 2))
        w = np.full(args.atoms, 1.0 / args.atoms)
        parts, length = [(pts[0], w), (pts[1], w)], 1.0
    # a malformed instance fails here; a failure of the exact LP below is raised as it is
    try:
        mu, nu = (DiscreteMeasure(p, w, length) for p, w in parts)
        brute = wasserstein_brute_force(mu, nu, p=args.p)
    except ValueError as e:  # TransportError is one
        raise ConfigError(f"instance {args.instance}: {e}") from e
    exact, _ = wasserstein_exact(mu, nu, p=args.p)
    print(f"brute force W{args.p} = {brute!r}")
    print(f"exact LP    W{args.p} = {exact!r}")
    if abs(brute - exact) > 1e-10 * max(brute, 1.0):
        print("MISMATCH between oracle and solver", file=sys.stderr)
        return EXIT_VIOLATION
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="vvlab", description=__doc__)
    sub = parser.add_subparsers(dest="verb", required=True)

    p_run = sub.add_parser("run", help="run an experiment from a YAML config")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--output", help="override the config output directory")

    p_fit = sub.add_parser("fit", help="fit exponents from a rate CSV")
    p_fit.add_argument("csv", help="a rate CSV; the bootstrap seed is the config.seed of "
                       "the summary.json beside it, or 0 without one")
    p_fit.add_argument("--column", default=FITTED_COLUMN)
    p_fit.add_argument("--time", type=float)
    p_fit.add_argument("--transformed", action="store_true",
                       help="fit against log(nu/|log nu|)")
    p_fit.add_argument("--json", help="also write the fits to this JSON file")

    p_check = sub.add_parser("check", help="run the invariant suites")
    p_check.add_argument("--instances", type=_at_least(1), default=200)
    p_check.add_argument("--seed", type=_at_least(0), default=0)

    p_oracle = sub.add_parser("oracle", help="brute-force transport on small instances")
    p_oracle.add_argument("--instance", help="JSON instance file")
    atoms = range(1, BRUTE_FORCE_MAX_ATOMS + 1)  # what the brute-force oracle handles
    p_oracle.add_argument("--atoms", type=_at_least(1), default=6, choices=atoms,
                          metavar=f"1..{atoms[-1]}")
    p_oracle.add_argument("--seed", type=_at_least(0), default=0)
    p_oracle.add_argument("--p", type=int, default=2, choices=(1, 2))

    args, extra = parser.parse_known_args(argv)
    handlers = {"run": cmd_run, "fit": cmd_fit, "check": cmd_check, "oracle": cmd_oracle}
    try:
        return handlers[args.verb](args, extra)
    except ConfigError as e:
        print(f"configuration error: {e}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
