"""Experiment orchestration: nu-sweeps, error metrics, rate fits, reports.

One experiment runs the inviscid reference once, then for every viscosity in
the ladder runs the viscous twin, the particle coupling, and at each
evaluation time computes the velocity L2 error (as the H^-1 norm of the
vorticity difference), the split-route W1 and W2 distances, and the coupling
cost. Everything is seeded from the config; reports are byte-stable across
reruns.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field as dc_field, replace
from pathlib import Path

import numpy as np

from vvlab import io as vvio
from vvlab.coupling import (
    CouplingError,
    QSeries,
    advance_coupling,
    check_lemma1,
    estimate_q,
    init_coupling,
    lemma1_ladder_stable,
)
from vvlab.evolve import SolverConfig, SolverError, SplitTrajectory, run_split
from vvlab.fields import (
    FieldError, Grid2D, ScalarField2D, VectorField2D, biot_savart, hm1_norm, norms,
)
from vvlab.initial_data import make_initial_data
from vvlab.ratefit import fit_rate
from vvlab.transport import TransportError, distance, field_to_measure, split_signed


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    name: str = "experiment"
    initial_kind: str = "patch_pair"
    initial_params: dict = dc_field(default_factory=dict)
    n: int = 128
    length: float = 1.0
    nu_ladder: list = dc_field(default_factory=lambda: [3e-3, 1.7e-3, 9.5e-4, 5.3e-4, 3e-4])
    times: list = dc_field(default_factory=lambda: [0.1, 0.25, 0.5, 1.0])
    dt: float = 2e-3
    dealias: bool = True
    record_every: int = 10
    n_particles: int = 2000
    transport_method: str = "sinkhorn"
    transport_epsilon: float = 1e-4
    max_support: int = 600
    seed: int = 0
    output_dir: str = "runs"
    allow_unresolved: bool = False
    check_resolution: bool = False

    def validate(self) -> None:
        nus = list(self.nu_ladder)
        if any(not (0 < nu < 1) for nu in nus):
            raise ConfigError("all viscosities must lie in (0, 1)")
        if any(b >= a for a, b in zip(nus, nus[1:])):
            raise ConfigError("nu_ladder must be strictly decreasing")
        if not self.times or any(t <= 0 for t in self.times):
            raise ConfigError("evaluation times must be positive")
        if self.transport_method not in ("exact", "sinkhorn"):
            raise ConfigError(f"unknown transport method {self.transport_method!r}")
        if not self.transport_epsilon > 0:
            raise ConfigError(f"transport epsilon must be > 0, got {self.transport_epsilon}")
        if self.max_support < 1:
            raise ConfigError(f"transport max_support must be >= 1, got {self.max_support}")
        if not self.dt > 0:
            raise ConfigError(f"solver dt must be > 0, got {self.dt}")
        if self.record_every < 1:
            raise ConfigError(f"solver record_every must be >= 1, got {self.record_every}")
        try:
            grid = Grid2D(self.n, self.length)
        except ValueError as e:
            raise ConfigError(str(e)) from e
        if nus and not self.resolved_scale_ok() and not self.allow_unresolved:
            raise ConfigError(
                f"resolved-scale condition sqrt(min nu * max t) >= spacing fails "
                f"({math.sqrt(min(nus) * max(self.times)):.3e} < {grid.spacing:.3e}); "
                "set allow_unresolved to override (the report will be flagged)"
            )

    def resolved_scale_ok(self) -> bool:
        grid = Grid2D(self.n, self.length)
        return math.sqrt(min(self.nu_ladder) * max(self.times)) >= grid.spacing

    # -- nested (file) representation ------------------------------------

    @classmethod
    def from_nested(cls, tree: dict) -> "ExperimentConfig":
        try:
            kwargs = dict(
                name=tree.get("name", "experiment"),
                initial_kind=tree["initial_data"]["kind"],
                initial_params=dict(tree["initial_data"].get("params", {})),
                n=int(tree["grid"]["n"]),
                length=float(tree["grid"]["length"]),
                nu_ladder=[float(v) for v in tree["nu_ladder"]],
                times=[float(v) for v in tree["times"]],
                dt=float(tree["solver"]["dt"]),
                dealias=bool(tree["solver"].get("dealias", True)),
                record_every=int(tree["solver"].get("record_every", 10)),
                n_particles=int(tree.get("particles", {}).get("count", 2000)),
                transport_method=tree.get("transport", {}).get("method", "sinkhorn"),
                transport_epsilon=float(tree.get("transport", {}).get("epsilon", 1e-4)),
                max_support=int(tree.get("transport", {}).get("max_support", 600)),
                seed=int(tree.get("seed", 0)),
                output_dir=tree.get("output_dir", "runs"),
                allow_unresolved=bool(tree.get("allow_unresolved", False)),
                check_resolution=bool(tree.get("check_resolution", False)),
            )
        except (KeyError, TypeError, ValueError) as e:
            raise ConfigError(f"malformed experiment config: {e}") from e
        cfg = cls(**kwargs)
        cfg.validate()
        return cfg

    def to_nested(self) -> dict:
        return {
            "name": self.name,
            "initial_data": {"kind": self.initial_kind, "params": dict(self.initial_params)},
            "grid": {"n": self.n, "length": self.length},
            "nu_ladder": list(self.nu_ladder),
            "times": list(self.times),
            "solver": {"dt": self.dt, "dealias": self.dealias, "record_every": self.record_every},
            "particles": {"count": self.n_particles},
            "transport": {
                "method": self.transport_method,
                "epsilon": self.transport_epsilon,
                "max_support": self.max_support,
            },
            "seed": self.seed,
            "output_dir": self.output_dir,
            "allow_unresolved": self.allow_unresolved,
            "check_resolution": self.check_resolution,
        }


def apply_override(tree: dict, path: str, raw: str) -> None:
    """Set a nested config key from a dotted path with a YAML-parsed value."""
    import yaml

    keys = path.split(".")
    node = tree
    for k in keys[:-1]:
        node = node.setdefault(k, {})
        if not isinstance(node, dict):
            raise ConfigError(f"config path {path!r} crosses a non-mapping node")
    node[keys[-1]] = yaml.safe_load(raw)


@dataclass
class RateRow:
    nu: float
    t: float
    err_l2_velocity: float
    w1_vorticity: float
    w2_split_sum: float
    q_estimate: float


@dataclass
class RateSeries:
    rows: list
    fits: dict  # t -> RateFit on err_l2_velocity
    q_series: dict  # nu -> QSeries
    lemma1: dict  # nu -> c_fit
    lemma1_stable: bool
    invariant_violations: list
    flags: dict
    errors: list  # per-leg failures (nu, message)


def _steps(t: float, unit: float, what: str) -> int:
    """The whole number k >= 1 of ``unit`` intervals in time t, else ConfigError."""
    k = round(t / unit)
    if k < 1 or abs(k * unit - t) > 1e-9 * max(t, unit):
        raise ConfigError(f"evaluation time {t} is not a multiple of the {what}")
    return k


def _resolve_eval_times(cfg: ExperimentConfig):
    """Snap evaluation times onto the snapshot grid (record_every * dt)."""
    snap_dt = cfg.record_every * cfg.dt
    what = f"snapshot interval {snap_dt} (record_every * dt)"
    return [_steps(t, snap_dt, what) * snap_dt for t in cfg.times]


def _velocity_cache(tr: SplitTrajectory):
    cache: dict[int, VectorField2D] = {}

    def vel(i: int) -> VectorField2D:
        if i not in cache:
            cache[i] = biot_savart(tr.full_at(tr.times[i]))
        return cache[i]

    return vel


def _hm1_error(tr: SplitTrajectory, ref: SplitTrajectory, t: float):
    """Vorticity difference of two runs at time t and its H^-1 norm (the velocity L2 error)."""
    a, b = tr.full_at(t), ref.full_at(t)
    diff = ScalarField2D(a.grid, a.values - b.values)
    return diff, hm1_norm(diff)


def hm1_sweep(omega0: ScalarField2D, nus, times, dt: float) -> dict:
    """Velocity L2 errors of a viscosity ladder against Euler: {t: [error per nu]}.

    H^-1 only, no transport or coupling: one inviscid run and one run per
    viscosity, with a snapshot every gcd of the times' step counts.
    """
    every = math.gcd(*(_steps(t, dt, f"time step {dt}") for t in times))
    split0 = split_signed(omega0)

    def trajectory(nu: float) -> SplitTrajectory:
        scfg = SolverConfig(nu=nu, dt=dt, t_end=max(times), record_every=every)
        return run_split(split0.plus, split0.minus, scfg)

    euler = trajectory(0.0)
    errs = {t: [] for t in times}
    for nu in nus:
        tr = trajectory(float(nu))
        for t in times:
            errs[t].append(_hm1_error(tr, euler, t)[1])
    return errs


def run_experiment(cfg: ExperimentConfig) -> RateSeries:
    cfg.validate()
    grid = Grid2D(cfg.n, cfg.length)
    omega0 = make_initial_data(cfg.initial_kind, grid, **cfg.initial_params)
    split0 = split_signed(omega0)
    eval_times = _resolve_eval_times(cfg)
    t_end = max(eval_times)
    scfg_euler = SolverConfig(
        nu=0.0, dt=cfg.dt, t_end=t_end, dealias=cfg.dealias, record_every=cfg.record_every
    )
    euler_tr = run_split(split0.plus, split0.minus, scfg_euler)
    euler_vel = _velocity_cache(euler_tr)

    linf0 = norms(omega0).linf
    l1_0 = norms(omega0).l1
    rows: list[RateRow] = []
    q_series: dict[float, QSeries] = {}
    lemma1_fits: dict[float, float] = {}
    invariant_violations: list[str] = []
    leg_errors: list = []

    # measures of the inviscid parts at eval times, shared across the ladder
    euler_measures = {t: _part_measures(euler_tr, t, cfg.max_support) for t in eval_times}
    method, eps = cfg.transport_method, cfg.transport_epsilon

    for leg, nu in enumerate(cfg.nu_ladder):
        try:
            ns_tr = run_split(split0.plus, split0.minus, replace(scfg_euler, nu=nu))
            ns_vel = _velocity_cache(ns_tr)

            # particle coupling along the snapshot grid
            ens = init_coupling(omega0, cfg.n_particles, rng_seed=cfg.seed * 1000 + leg)
            entries = [estimate_q(ens)]
            for i in range(len(ns_tr.times) - 1):
                dtc = ns_tr.times[i + 1] - ns_tr.times[i]
                u_mid = _average_velocity(euler_vel(i), euler_vel(i + 1))
                unu_mid = _average_velocity(ns_vel(i), ns_vel(i + 1))
                ens = advance_coupling(ens, u_mid, unu_mid, nu, dtc)
                entries.append(estimate_q(ens))
            series = QSeries(entries=entries)
            q_series[nu] = series
            if len(entries) >= 10:
                lemma1_fits[nu] = check_lemma1(series, nu).c_fit

            for t in eval_times:
                diff, err_hm1 = _hm1_error(ns_tr, euler_tr, t)
                # cross-check: the same error through Biot-Savart quadrature
                du = biot_savart(diff)
                err_l2_vel = math.sqrt(
                    grid.spacing ** 2 * float((du.u1 ** 2 + du.u2 ** 2).sum())
                )
                if abs(err_l2_vel - err_hm1) > 1e-8 * max(err_hm1, 1.0):
                    invariant_violations.append(
                        f"nu={nu} t={t}: |u-velocity L2 - vorticity H^-1| = "
                        f"{abs(err_l2_vel - err_hm1):.3e}"
                    )

                # split route: each signed part against its inviscid twin
                w1_sum = w2_sum = 0.0
                parts = _part_measures(ns_tr, t, cfg.max_support)
                for part, twin in zip(parts, euler_measures[t]):
                    part = _equalize_mass(part, twin)
                    w2_sum += distance(part, twin, 2, method, eps)
                    w1_sum += distance(part, twin, 1, method, eps)
                q_at_t = float(np.interp(t, series.times, series.q))
                rows.append(RateRow(
                    nu=nu, t=t, err_l2_velocity=err_hm1, w1_vorticity=w1_sum,
                    w2_split_sum=w2_sum, q_estimate=q_at_t,
                ))
                _check_chain(rows[-1], l1_0, linf0, err_hm1, invariant_violations, series, t)
        # a numerical failure stays in its leg; a programming error fails the run
        except (SolverError, TransportError, CouplingError, FieldError) as e:
            leg_errors.append((nu, f"{type(e).__name__}: {e}"))

    fits = {}
    for t in eval_times:
        sub = [(r.nu, r.err_l2_velocity) for r in rows if r.t == t]
        if len(sub) >= 4:
            fits[t] = fit_rate([s[0] for s in sub], [s[1] for s in sub], rng_seed=cfg.seed)

    flags = {
        "resolved_scale_ok": cfg.resolved_scale_ok(),
        "resolution_check": "skipped",
    }
    if cfg.check_resolution:
        flags["resolution_check"] = _resolution_check(cfg, euler_tr, rows)

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


def _part_measures(tr: SplitTrajectory, t: float, max_support: int) -> list:
    """Measures of the (clipped) positive and negative parts of a split run at time t."""
    return [field_to_measure(_clip_nonneg(f), max_support=max_support) for f in tr.state_at(t)]


def _clip_nonneg(f: ScalarField2D) -> ScalarField2D:
    """Split parts stay nonnegative up to dispersion-error undershoots; clip them."""
    if np.all(f.values >= 0):
        return f
    return ScalarField2D(f.grid, np.maximum(f.values, 0.0))


def _equalize_mass(mu, nu_m):
    """mu rescaled onto nu's total mass (a new measure; mu is left as it is).

    The masses drift apart because ``_clip_nonneg`` removes different
    undershoots from the viscous and inviscid parts. The largest relative
    rescale is 1.0e-4 on configs/smoke.yaml (n=32), 4.4e-6 on the short_time
    patch pair at n=128, and 2.2e-6 on that geometry sampled every step.
    """
    if len(mu) and len(nu_m) and nu_m.total_mass > 0:
        return mu.scaled(nu_m.total_mass / mu.total_mass)
    return mu


def _average_velocity(a: VectorField2D, b: VectorField2D) -> VectorField2D:
    return VectorField2D(a.grid, 0.5 * (a.u1 + b.u1), 0.5 * (a.u2 + b.u2))


def _check_chain(row: RateRow, l1_0, linf0, err_hm1, violations, series, t) -> None:
    tol = 0.05
    if row.w1_vorticity > math.sqrt(l1_0) * row.w2_split_sum * (1 + tol) + 1e-9:
        violations.append(
            f"nu={row.nu} t={t}: W1 {row.w1_vorticity:.3e} exceeds "
            f"sqrt(L1) * W2-sum {math.sqrt(l1_0) * row.w2_split_sum:.3e}"
        )
    if err_hm1 > math.sqrt(linf0) * row.w2_split_sum * (1 + tol) + 1e-9:
        violations.append(
            f"nu={row.nu} t={t}: H^-1 error {err_hm1:.3e} exceeds "
            f"sqrt(Linf) * W2-sum {math.sqrt(linf0) * row.w2_split_sum:.3e}"
        )
    q_tol = 3.0 * float(np.interp(t, series.times, series.stderr)) + 0.25 * row.q_estimate + 1e-6
    if row.w2_split_sum ** 2 > row.q_estimate + q_tol:
        violations.append(
            f"nu={row.nu} t={t}: (W2 sum)^2 = {row.w2_split_sum ** 2:.3e} exceeds "
            f"Q + tolerance = {row.q_estimate + q_tol:.3e}"
        )


def _resolution_check(cfg: ExperimentConfig, euler_tr: SplitTrajectory, rows) -> str:
    """Grid-doubling estimate of the discretization error of the reference ``euler_tr``."""
    fine = Grid2D(cfg.n * 2, cfg.length)
    split_f = split_signed(make_initial_data(cfg.initial_kind, fine, **cfg.initial_params))
    fine_tr = run_split(split_f.plus, split_f.minus, euler_tr.config)
    wc = euler_tr.full_at(euler_tr.config.t_end)
    # restrict the fine solution to the coarse grid
    diff = wc.values - fine_tr.full_at(euler_tr.config.t_end).values[::2, ::2]
    disc_err = hm1_norm(ScalarField2D(wc.grid, diff - diff.mean()))
    smallest = min((r.err_l2_velocity for r in rows), default=math.inf)
    return "ok" if disc_err <= 0.1 * smallest else f"untrusted (disc_err={disc_err:.3e})"


# -- reporting ----------------------------------------------------------------


def emit_report(series: RateSeries, cfg: ExperimentConfig, outdir: str | Path) -> dict:
    """Write CSV tables, plot-ready log-log data and a schema-valid JSON summary.

    Returns the summary dict. Output is byte-identical across reruns with the
    same config and seed (no timestamps, sorted keys, repr floats).
    """
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    vvio.write_csv(
        out / "rate_series.csv",
        ["nu", "t", "err_l2_velocity", "w1_vorticity", "w2_split_sum", "q_estimate"],
        [
            (r.nu, r.t, r.err_l2_velocity, r.w1_vorticity, r.w2_split_sum, r.q_estimate)
            for r in series.rows
        ],
    )
    loglog_rows = [
        (math.log(r.nu), math.log(r.err_l2_velocity) if r.err_l2_velocity > 0 else math.nan, r.t)
        for r in series.rows
    ]
    vvio.write_csv(out / "loglog.csv", ["log_nu", "log_err_l2_velocity", "t"], loglog_rows)
    for nu, qs in series.q_series.items():
        vvio.write_q_csv(out / f"q_nu_{nu:.6g}.csv", qs)

    summary = {
        "config": cfg.to_nested(),
        "fits": {
            repr(float(t)): {
                "exponent": f.exponent,
                "intercept": f.intercept,
                "ci": [f.ci_low, f.ci_high],
                "r_squared": f.r_squared,
                "n_points": f.n_points,
                "transformed": f.transformed,
            }
            for t, f in series.fits.items()
        },
        "lemma1": {repr(float(nu)): c for nu, c in series.lemma1.items()},
        "lemma1_stable": series.lemma1_stable,
        "flags": series.flags,
        "invariant_violations": list(series.invariant_violations),
        "leg_errors": [[nu, msg] for nu, msg in series.errors],
        "empty": len(series.rows) == 0,
        "version": 1,
    }
    _validate_summary(summary)
    with open(out / "summary.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return summary


def summary_schema() -> dict:
    import importlib.resources as res

    with res.files("vvlab").joinpath("schemas/summary.schema.json").open() as fh:
        return json.load(fh)


def _validate_summary(summary: dict) -> None:
    import jsonschema

    jsonschema.validate(summary, summary_schema())
