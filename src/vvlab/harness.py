"""Experiment orchestration: nu-sweeps, error metrics, rate fits, reports.

One experiment runs the inviscid reference once, then for every viscosity in
the ladder runs the viscous twin, the particle coupling, and at each
evaluation time computes the velocity L2 error (as the H^-1 norm of the
vorticity difference), the split-route W1 and W2 distances, and the coupling
cost. Everything is seeded from the config; reports are byte-stable across
reruns, and on any number of CPUs: the legs run in interleaved shares of the
ladder, one per usable CPU, and their results are merged in ladder order.
"""

from __future__ import annotations

import json
import math
import os
import pickle
from collections import Counter
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from vvlab import io as vvio
from vvlab.config import ConfigError, ExperimentConfig
from vvlab.config import apply_override  # noqa: F401  (bench/child.py calls harness.apply_override)
from vvlab.coupling import (
    CouplingError,
    QEstimate,
    QSeries,
    advance_coupling,
    check_lemma1,
    estimate_q,
    init_coupling,
    lemma1_ladder_stable,
)
from vvlab.evolve import SolverConfig, SolverError, run_split
from vvlab.fields import FieldError, Grid2D, ScalarField2D, VectorField2D, hm1_norm, norms
from vvlab.initial_data import make_initial_data
from vvlab.ratefit import fit_by_time, fit_entries
from vvlab.transport import TransportError, distance, field_to_measure, split_signed


@dataclass
class RateRow:
    """One row of ``rate_series.csv``: its fields are the file's columns, in order."""

    nu: float
    t: float
    err_l2_velocity: float
    w1_vorticity: float
    w2_split_sum: float
    q_estimate: float


FITTED_COLUMN = "err_l2_velocity"  # the RateRow column fitted at each time


@dataclass
class RateSeries:
    rows: list
    fits: dict  # t -> RateFit on FITTED_COLUMN
    q_series: dict  # nu -> QSeries
    lemma1: dict  # nu -> c_fit
    lemma1_stable: bool
    invariant_violations: list
    flags: dict
    errors: list  # per-leg failures (nu, message)


def _start(cfg: ExperimentConfig) -> tuple:
    """What every sweep of ``cfg`` starts from, once it is validated: the initial
    vorticity, its signed parts (plus, minus), the inviscid run's SolverConfig
    and the schedule {solver step: evaluation time} of its snapshots."""
    cfg.validate()
    try:
        omega0 = make_initial_data(cfg.initial_kind, Grid2D(cfg.n, cfg.length),
                                   **cfg.generator_params())
    except FieldError as e:
        raise ConfigError(f"initial data: {e}") from e
    at_step = cfg.schedule()
    scfg = SolverConfig(nu=0.0, dt=cfg.dt, t_end=max(at_step.values()),
                        record_every=cfg.record_every)
    split = split_signed(omega0)
    return omega0, (split.plus, split.minus), scfg, at_step


def _hm1_error(grid: Grid2D, a, b) -> float:
    """The H^-1 norm of the difference of the full fields a[0] - a[1] and
    b[0] - b[1] of two snapshots (the velocity L2 error)."""
    return hm1_norm(ScalarField2D(grid, (a[0] - a[1]) - (b[0] - b[1])))


def hm1_sweep(cfg: ExperimentConfig) -> tuple:
    """The velocity L2 errors of ``cfg``'s ladder against Euler, {t: [error per nu]},
    the ``err_l2_velocity`` column of :func:`run_experiment`, and its runs' a-priori
    violations; H^-1 only, no transport or coupling. The inviscid run and each
    viscous run are read by :func:`vvlab.evolve.run_split`, on the snapshots a run reads.
    """
    omega0, parts0, scfg, at_step = _start(cfg)
    euler, violations = run_split(*parts0, scfg, at_step)

    def leg(nu):
        """One viscous leg's errors, in time order, and its a-priori violations."""
        kept, leg_violations = run_split(*parts0, replace(scfg, nu=nu), at_step)
        return [_hm1_error(omega0.grid, kept[t], euler[t]) for t in at_step.values()], leg_violations

    errs = {t: [] for t in at_step.values()}
    for leg_errs, leg_violations in _map_legs(leg, cfg.nu_ladder):
        violations += leg_violations
        for col, err in zip(errs.values(), leg_errs):
            col.append(err)
    return errs, violations


def _map_legs(leg, ladder) -> list:
    """``[leg(nu) for nu in ladder]``, computed in w = min(usable CPUs, legs)
    interleaved shares ``ladder[k::w]``. Share 0 runs in this process, after a
    child is forked for each other share; a child sends its share's results back
    pickled through a pipe. With one CPU nothing is forked.

    An exception in a child re-raises here as its own type, from a RuntimeError
    that carries the child's traceback; a child that ends without sending its
    results is a RuntimeError naming its share's viscosities. No child outlives
    the call: on a failure the remaining ones are killed and reaped.
    """
    w = min(len(os.sched_getaffinity(0)), len(ladder))
    shares = [ladder[k::w] for k in range(w)]
    reads, running = [], {}  # the pipes' read ends; pid -> share index of each unreaped child
    try:
        for k in range(1, w):
            read, write = os.pipe()
            reads.append(read)
            try:
                pid = os.fork()
            except OSError:
                os.close(write)
                raise
            if pid == 0:  # the child sends its results or its exception, and never returns
                status = 1
                try:
                    try:
                        data = pickle.dumps((True, [leg(nu) for nu in shares[k]]))
                    except BaseException as e:  # re-raised in the parent
                        import traceback

                        data = pickle.dumps((False, e, traceback.format_exc()))
                    with os.fdopen(write, "wb") as fh:
                        fh.write(data)
                    status = 0
                finally:
                    os._exit(status)
            os.close(write)
            running[pid] = k
        results = [None] * len(ladder)
        results[0::w] = [leg(nu) for nu in shares[0]]
        for read, pid in zip(reads, list(running)):
            with open(read, "rb", closefd=False) as fh:
                data = fh.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            k = running.pop(pid)
            if code != 0:
                raise RuntimeError(f"the worker for nu = {shares[k]} ended with exit code "
                                   f"{code} before sending its results")
            ok, *payload = pickle.loads(data)
            if not ok:
                e, tb = payload
                raise e from RuntimeError(f"in the worker for nu = {shares[k]}:\n{tb}")
            results[k::w] = payload[0]
        return results
    finally:
        for read in reads:
            os.close(read)
        if running:
            import signal

            for pid in running:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def run_experiment(cfg: ExperimentConfig) -> RateSeries:
    """The rows, fits, Q series, lemma 1 constants, violations and failed legs of
    ``cfg``: its inviscid reference once, then each viscosity of its ladder against
    it, coupled through one particle set, X at nu = 0 and Y in each leg."""
    omega0, parts0, scfg_euler, at_step = _start(cfg)
    grid, norms0 = omega0.grid, norms(omega0)

    # the inviscid reference, read once: the whole snapshot at each evaluation
    # time's step, by time, its a-priori violation, which opens the run's list,
    # and X at the start and at each interval's end, stepped on its midpoint
    ens = init_coupling(omega0, cfg.n_particles, rng_seed=cfg.seed)
    x_at = [ens.x.copy()]

    def step_inviscid(h, mid):
        x_at.append(advance_coupling(ens, VectorField2D(grid, *mid), 0.0, h).x.copy())

    euler_at, invariant_violations = run_split(*parts0, scfg_euler, at_step, step_inviscid)
    # their parts' measures, shared by the ladder
    euler_measures = {t: _part_measures(grid, v, cfg.max_support) for t, v in euler_at.items()}
    method, eps = cfg.transport_method, cfg.transport_epsilon

    def evaluate_leg(nu: float):
        """Read one viscous leg once, then its rows, invariant violations,
        Q series and lemma 1 fit (None for a series too short to fit). Its
        snapshots go with its frame, before the next leg is read. The particles
        restart from X's start as Y and step on each interval's viscous
        midpoint velocity, the work array of ``run_split``."""
        np.copyto(ens.x, x_at[0])
        ens.time, ens.step_index = 0.0, 0  # the noise is keyed on (run seed, step)
        entries = [estimate_q(ens, x_at[0])]

        def advance(h, mid):
            advance_coupling(ens, VectorField2D(grid, *mid), nu, h)
            entries.append(estimate_q(ens, x_at[ens.step_index]))

        kept, violations = run_split(*parts0, replace(scfg_euler, nu=nu), at_step, advance)
        series = QSeries(entries=entries)
        c_fit = check_lemma1(series, nu).c_fit if len(series.entries) >= 10 else None
        leg_rows = []
        for t in at_step.values():
            values, ref = kept[t], euler_at[t]
            err_hm1 = _hm1_error(grid, values, ref)
            # cross-check: the same error as the L2 norm of the difference of
            # the two snapshot velocities
            du = values[2:] - ref[2:]
            err_l2_vel = math.sqrt(grid.spacing ** 2 * float((du * du).sum()))
            if abs(err_l2_vel - err_hm1) > 1e-8 * max(err_hm1, 1.0):
                violations.append(
                    f"nu={nu} t={t}: |u-velocity L2 - vorticity H^-1| = "
                    f"{abs(err_l2_vel - err_hm1):.3e}"
                )

            # split route: each signed part against its inviscid twin
            w1_sum = w2_sum = 0.0
            for part, twin in zip(_part_measures(grid, values, cfg.max_support),
                                  euler_measures[t]):
                w1, w2 = distance(_equalize_mass(part, twin), twin, method, eps)
                w2_sum += w2
                w1_sum += w1
            q_at_t = float(np.interp(t, series.times, series.q))
            leg_rows.append(RateRow(
                nu=nu, t=t, err_l2_velocity=err_hm1, w1_vorticity=w1_sum,
                w2_split_sum=w2_sum, q_estimate=q_at_t,
            ))
            _check_chain(leg_rows[-1], norms0, violations, series)
        return leg_rows, violations, series, c_fit

    def leg_or_error(nu: float):
        """The results of leg ``nu``, or its numerical failure as a message; a
        programming error fails the run."""
        try:
            return evaluate_leg(nu)
        except (SolverError, TransportError, CouplingError, FieldError) as e:
            return f"{type(e).__name__}: {e}"

    rows: list[RateRow] = []
    q_series: dict[float, QSeries] = {}
    lemma1_fits: dict[float, float] = {}
    leg_errors: list = []
    for nu, result in zip(cfg.nu_ladder, _map_legs(leg_or_error, cfg.nu_ladder)):
        # a failed leg contributes nothing: its results are kept only once it ends
        if isinstance(result, str):
            leg_errors.append((nu, result))
            continue
        leg_rows, violations, series, c_fit = result
        rows += leg_rows
        invariant_violations += violations
        q_series[nu] = series
        if c_fit is not None:
            lemma1_fits[nu] = c_fit

    count = Counter(r.t for r in rows)  # a time that failed legs left under 4 rows gets no fit
    fits = fit_by_time([(r.nu, r.t, getattr(r, FITTED_COLUMN)) for r in rows
                        if count[r.t] >= 4], rng_seed=cfg.seed)

    flags = {
        "resolved_scale_ok": cfg.resolved_scale_ok(),
        "resolution_check": "skipped",
    }
    if cfg.check_resolution:
        end, t_end = max(at_step.items())
        flags["resolution_check"], fine = _resolution_check(cfg, end, euler_at[t_end], rows)
        invariant_violations += fine

    stable = lemma1_ladder_stable(lemma1_fits.values()) if len(lemma1_fits) >= 2 else False
    return RateSeries(
        rows=rows,
        fits=fits,
        q_series=q_series,
        lemma1=lemma1_fits,
        lemma1_stable=stable,
        invariant_violations=invariant_violations,
        flags=flags,
        errors=leg_errors,
    )


def _part_measures(grid: Grid2D, values, max_support: int) -> list:
    """Measures of the positive and negative parts values[0], values[1] of a snapshot.

    Split parts stay nonnegative up to dispersion-error undershoots, which are clipped.
    """
    return [field_to_measure(ScalarField2D(grid, np.maximum(v, 0.0)), max_support=max_support)
            for v in values[:2]]


def _equalize_mass(mu, nu_m):
    """mu rescaled onto nu's total mass (a new measure; mu is left as it is).

    The masses drift apart because ``_part_measures`` clips different
    undershoots from the viscous and inviscid parts. The largest relative
    rescale is 1.0e-4 on configs/smoke.yaml (n=32), 4.4e-6 on the short_time
    patch pair at n=128, and 2.2e-6 on that geometry sampled every step.
    """
    if len(mu) and len(nu_m) and nu_m.total_mass > 0:
        return mu.scaled(nu_m.total_mass / mu.total_mass)
    return mu


def _check_chain(row: RateRow, norms0, violations, series) -> None:
    """The W1 <= sqrt(L1) W2, H^-1 <= sqrt(Linf) W2 and W2^2 <= Q chain of one row;
    ``norms0`` holds the initial vorticity's norms."""
    tol, t = 0.05, row.t
    if row.w1_vorticity > math.sqrt(norms0.l1) * row.w2_split_sum * (1 + tol) + 1e-9:
        violations.append(
            f"nu={row.nu} t={t}: W1 {row.w1_vorticity:.3e} exceeds "
            f"sqrt(L1) * W2-sum {math.sqrt(norms0.l1) * row.w2_split_sum:.3e}"
        )
    if row.err_l2_velocity > math.sqrt(norms0.linf) * row.w2_split_sum * (1 + tol) + 1e-9:
        violations.append(
            f"nu={row.nu} t={t}: H^-1 error {row.err_l2_velocity:.3e} exceeds "
            f"sqrt(Linf) * W2-sum {math.sqrt(norms0.linf) * row.w2_split_sum:.3e}"
        )
    q_tol = 3.0 * float(np.interp(t, series.times, series.stderr)) + 0.25 * row.q_estimate + 1e-6
    if row.w2_split_sum ** 2 > row.q_estimate + q_tol:
        violations.append(
            f"nu={row.nu} t={t}: (W2 sum)^2 = {row.w2_split_sum ** 2:.3e} exceeds "
            f"Q + tolerance = {row.q_estimate + q_tol:.3e}"
        )


def _resolution_check(cfg: ExperimentConfig, end: int, euler_end, rows) -> tuple:
    """Grid-doubling estimate of the discretization error of the inviscid
    reference run of ``cfg``, whose snapshot at its last step ``end`` is
    ``euler_end``: its flag, and the fine run's a-priori violations from ``run_split``."""
    # one snapshot interval of ``end`` steps: only the end state is transformed
    fine_cfg = replace(cfg, n=2 * cfg.n, times=[end * cfg.dt], record_every=end)
    _, parts, scfg, at_step = _start(fine_cfg)
    kept, violations = run_split(*parts, scfg, at_step)
    (fine_end,) = kept.values()
    # restrict the fine solution to the coarse grid
    diff = (euler_end[0] - euler_end[1]) - (fine_end[0] - fine_end[1])[::2, ::2]
    disc_err = hm1_norm(ScalarField2D(Grid2D(cfg.n, cfg.length), diff - diff.mean()))
    smallest = min((r.err_l2_velocity for r in rows), default=math.inf)
    flag = "ok" if disc_err <= 0.1 * smallest else f"untrusted (disc_err={disc_err:.3e})"
    return flag, violations


# -- reporting ----------------------------------------------------------------


def emit_report(series: RateSeries, cfg: ExperimentConfig, outdir: str | Path) -> dict:
    """Write CSV tables and a JSON summary whose shape ``summary_schema()``
    describes (the tests validate against it; a run does not).

    Returns the summary dict. Output is byte-identical across reruns with the
    same config and seed (no timestamps, sorted keys, repr floats).
    """
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    tables = [("rate_series.csv", RateRow, series.rows)] + [
        (f"q_nu_{float(nu)!r}.csv", QEstimate, qs.entries) for nu, qs in series.q_series.items()]
    for name, cls, records in tables:
        columns = [f.name for f in fields(cls)]
        vvio.write_csv(out / name, columns, [[getattr(r, c) for c in columns] for r in records])

    summary = {
        "config": cfg.to_nested(),
        "fits": fit_entries(series.fits),
        "lemma1": {repr(float(nu)): c for nu, c in series.lemma1.items()},
        "lemma1_stable": series.lemma1_stable,
        "flags": series.flags,
        "invariant_violations": list(series.invariant_violations),
        "leg_errors": [[nu, msg] for nu, msg in series.errors],
        "empty": len(series.rows) == 0,
        "version": 1,
    }
    with open(out / "summary.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return summary


def summary_schema() -> dict:
    import importlib.resources as res

    with res.files("vvlab").joinpath("schemas/summary.schema.json").open() as fh:
        return json.load(fh)
