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
from dataclasses import dataclass, field as dc_field
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
    FieldError,
    Grid2D,
    ScalarField2D,
    VectorField2D,
    biot_savart,
    hm1_norm,
    norms,
)
from vvlab.initial_data import make_initial_data
from vvlab.ratefit import RateFit, fit_rate
from vvlab.transport import (
    DiscreteMeasure,
    TransportError,
    field_to_measure,
    split_signed,
    wasserstein_exact,
    wasserstein_sinkhorn,
)


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
        grid = Grid2D(self.n, self.length)
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


def _resolve_eval_times(cfg: ExperimentConfig):
    """Snap evaluation times onto the snapshot grid (record_every * dt)."""
    snap_dt = cfg.record_every * cfg.dt
    out = []
    for t in cfg.times:
        k = round(t / snap_dt)
        if k < 1 or abs(k * snap_dt - t) > 1e-9 * max(t, snap_dt):
            raise ConfigError(
                f"evaluation time {t} is not a multiple of the snapshot interval "
                f"{snap_dt} (record_every * dt)"
            )
        out.append(k * snap_dt)
    return out


def _velocity_cache(tr: SplitTrajectory):
    cache: dict[int, VectorField2D] = {}

    def vel(i: int) -> VectorField2D:
        if i not in cache:
            cache[i] = biot_savart(tr.full_at(tr.times[i]))
        return cache[i]

    return vel


def _distance(cfg, mu, nu_m, p, self_cache, key_mu, key_nu):
    """Transport distance with cached Sinkhorn self-terms for debiasing."""
    if len(mu) == 0 and len(nu_m) == 0:
        return 0.0
    if cfg.transport_method == "exact":
        d, _ = wasserstein_exact(mu, nu_m, p=p)
        return d
    from vvlab.transport import _sinkhorn_cost, cost_matrix

    def self_cost(meas: DiscreteMeasure, key):
        k = (key, p)
        if k not in self_cache:
            self_cache[k] = _sinkhorn_cost(
                meas, meas, cost_matrix(meas, meas, p), cfg.transport_epsilon, 20000, 1e-3
            )
        return self_cache[k]

    cost_ab = _sinkhorn_cost(
        mu, nu_m, cost_matrix(mu, nu_m, p), cfg.transport_epsilon, 20000, 1e-3
    )
    div = max(cost_ab - 0.5 * (self_cost(mu, key_mu) + self_cost(nu_m, key_nu)), 0.0)
    return div ** (1.0 / p)


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
    self_cache: dict = {}

    # measures of the inviscid parts at eval times, shared across the ladder
    euler_measures: dict = {}

    def euler_measure(t, sign_name, part_field):
        key = (t, sign_name)
        if key not in euler_measures:
            euler_measures[key] = field_to_measure(
                _clip_nonneg(part_field), max_support=cfg.max_support
            )
        return euler_measures[key]

    for leg, nu in enumerate(cfg.nu_ladder):
        try:
            scfg = SolverConfig(
                nu=nu, dt=cfg.dt, t_end=t_end, dealias=cfg.dealias, record_every=cfg.record_every
            )
            ns_tr = run_split(split0.plus, split0.minus, scfg)
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
                w_nu = ns_tr.full_at(t)
                w_eu = euler_tr.full_at(t)
                diff = ScalarField2D(grid, w_nu.values - w_eu.values)
                err_hm1 = hm1_norm(diff)
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

                ns_p, ns_m = ns_tr.state_at(t)
                eu_p, eu_m = euler_tr.state_at(t)
                mu_p = field_to_measure(_clip_nonneg(ns_p), max_support=cfg.max_support)
                mu_m = field_to_measure(_clip_nonneg(ns_m), max_support=cfg.max_support)
                nu_p = euler_measure(t, "plus", eu_p)
                nu_m = euler_measure(t, "minus", eu_m)
                _equalize_mass(mu_p, nu_p)
                _equalize_mass(mu_m, nu_m)
                w2_sum = _distance(
                    cfg, mu_p, nu_p, 2, self_cache, ("ns", nu, t, "+"), ("eu", t, "+")
                ) + _distance(
                    cfg, mu_m, nu_m, 2, self_cache, ("ns", nu, t, "-"), ("eu", t, "-")
                )
                w1_sum = _distance(
                    cfg, mu_p, nu_p, 1, self_cache, ("ns", nu, t, "+"), ("eu", t, "+")
                ) + _distance(
                    cfg, mu_m, nu_m, 1, self_cache, ("ns", nu, t, "-"), ("eu", t, "-")
                )
                q_at_t = float(
                    np.interp(t, series.times, series.q)
                )
                rows.append(
                    RateRow(
                        nu=nu,
                        t=t,
                        err_l2_velocity=err_hm1,
                        w1_vorticity=w1_sum,
                        w2_split_sum=w2_sum,
                        q_estimate=q_at_t,
                    )
                )
                _check_chain(
                    rows[-1], l1_0, linf0, err_hm1, invariant_violations, series, t
                )
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
        flags["resolution_check"] = _resolution_check(cfg, split0, t_end, rows)

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


def _clip_nonneg(f: ScalarField2D) -> ScalarField2D:
    """Split parts stay nonnegative up to dispersion-error undershoots; clip them."""
    if np.all(f.values >= 0):
        return f
    return ScalarField2D(f.grid, np.maximum(f.values, 0.0))


def _equalize_mass(mu, nu_m) -> None:
    """Rescale mu onto nu's total mass.

    The masses drift apart because ``_clip_nonneg`` removes different
    undershoots from the viscous and inviscid parts. The largest relative
    rescale is 1.0e-4 on configs/smoke.yaml (n=32), 4.4e-6 on the short_time
    patch pair at n=128, and 2.2e-6 on that geometry sampled every step.
    """
    if len(mu) and len(nu_m) and nu_m.total_mass > 0:
        mu.weights = mu.weights * (nu_m.total_mass / mu.total_mass)


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


def _resolution_check(cfg: ExperimentConfig, split0, t_end, rows) -> str:
    """Grid-doubling estimate of the inviscid reference discretization error."""
    fine = Grid2D(cfg.n * 2, cfg.length)
    omega0f = make_initial_data(cfg.initial_kind, fine, **cfg.initial_params)
    split_f = split_signed(omega0f)
    scfg = SolverConfig(
        nu=0.0, dt=cfg.dt, t_end=t_end, dealias=cfg.dealias,
        record_every=max(1, cfg.record_every),
    )
    coarse_tr = run_split(split0.plus, split0.minus, scfg)
    fine_tr = run_split(split_f.plus, split_f.minus, scfg)
    wc = coarse_tr.full_at(t_end)
    wf = fine_tr.full_at(t_end)
    # restrict the fine solution to the coarse grid
    wf_c = ScalarField2D(wc.grid, wf.values[::2, ::2])
    diff = ScalarField2D(wc.grid, wc.values - wf_c.values)
    diff = ScalarField2D(wc.grid, diff.values - diff.values.mean())
    disc_err = hm1_norm(diff)
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
