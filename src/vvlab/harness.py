"""Experiment orchestration: nu-sweeps, error metrics, rate fits, reports.

One experiment runs the inviscid reference once, then for every viscosity in
the ladder runs the viscous twin, the particle coupling, and at each
evaluation time computes the velocity L2 error (as the H^-1 norm of the
vorticity difference), the split-route W1 and W2 distances, and the coupling
cost. Everything is seeded from the config; reports are byte-stable across
reruns.
"""

from __future__ import annotations

import inspect
import json
import math
from copy import copy
from dataclasses import MISSING, dataclass, field as dc_field, fields, replace
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
from vvlab.initial_data import GENERATORS, KINDS, make_initial_data
from vvlab.ratefit import fit_rate
from vvlab.transport import TransportError, distance, field_to_measure, split_signed


class ConfigError(ValueError):
    pass


def _key(path: str, read, default=MISSING, **kw):
    """A config field: its dotted file key, its reader, and its default if the key is optional."""
    return dc_field(default=default, metadata={"path": path, "read": read}, **kw)


def _whole(value, key: str) -> int:
    """An integer config value; a fraction or a boolean is refused, not truncated."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError(f"{key} must be a whole number, got {value!r}")
    return value


def _number(value, key: str) -> float:
    """A finite float config value. Strings are read: YAML loads ``1e-4`` as one."""
    if not isinstance(value, bool):
        try:
            number = float(value)
        except (TypeError, ValueError):
            pass
        else:
            if math.isfinite(number):
                return number
    raise ConfigError(f"{key} must be a finite number, got {value!r}")


def _numbers(value, key: str) -> list:
    """A list of float config values; a string or a mapping is refused, not iterated."""
    if not isinstance(value, list):
        raise ConfigError(f"{key} must be a list of numbers, got {value!r}")
    return [_number(v, key) for v in value]


def _flag(value, key: str) -> bool:
    """A boolean config value; ``bool()`` would read the string "no" as true."""
    if not isinstance(value, bool):
        raise ConfigError(f"{key} must be true or false, got {value!r}")
    return value


def _text(value, key: str) -> str:
    """A string config value; YAML reads ``null`` as None, which ``Path`` refuses."""
    if not isinstance(value, str):
        raise ConfigError(f"{key} must be a string, got {value!r}")
    return value


def _mapping(value, key: str) -> dict:
    """A section or free-form mapping; null (``--transport null``, an empty block) is refused."""
    if not isinstance(value, dict):
        raise ConfigError(f"{key} must be a mapping, got {value!r}")
    return dict(value)


@dataclass
class ExperimentConfig:
    initial_kind: str = _key("initial_data.kind", _text)
    n: int = _key("grid.n", _whole)
    length: float = _key("grid.length", _number)
    nu_ladder: list = _key("nu_ladder", _numbers)
    times: list = _key("times", _numbers)
    dt: float = _key("solver.dt", _number)
    name: str = _key("name", _text, "experiment")
    initial_params: dict = _key("initial_data.params", _mapping, default_factory=dict)
    record_every: int = _key("solver.record_every", _whole, 10)
    n_particles: int = _key("particles.count", _whole, 2000)
    transport_method: str = _key("transport.method", _text, "sinkhorn")
    transport_epsilon: float = _key("transport.epsilon", _number, 1e-4)
    max_support: int = _key("transport.max_support", _whole, 600)
    seed: int = _key("seed", _whole, 0)
    output_dir: str = _key("output_dir", _text, "runs")
    allow_unresolved: bool = _key("allow_unresolved", _flag, False)
    check_resolution: bool = _key("check_resolution", _flag, False)

    def validate(self) -> None:
        nus = list(self.nu_ladder)
        if not nus:
            raise ConfigError("nu_ladder must hold at least one viscosity")
        if any(not (0 < nu < 1) for nu in nus):
            raise ConfigError("all viscosities must lie in (0, 1)")
        if any(b >= a for a, b in zip(nus, nus[1:])):
            raise ConfigError("nu_ladder must be strictly decreasing")
        if not self.times or any(not 0 < t < math.inf for t in self.times):
            raise ConfigError("evaluation times must be positive and finite")
        if self.initial_kind not in KINDS:
            raise ConfigError(f"unknown initial data kind {self.initial_kind!r}; choose from {KINDS}")
        accepted = list(inspect.signature(GENERATORS[self.initial_kind]).parameters)[1:]
        unknown = sorted(set(self.initial_params) - set(accepted))
        if unknown:
            raise ConfigError(
                f"initial data {self.initial_kind!r} takes no parameter {unknown}; accepted: {accepted}"
            )
        if self.transport_method not in ("exact", "sinkhorn"):
            raise ConfigError(f"unknown transport method {self.transport_method!r}")
        if self.transport_method == "exact":
            import scipy.optimize  # noqa: F401  (HiGHS loads with the config, not inside the run)
        if not self.transport_epsilon > 0:
            raise ConfigError(f"transport epsilon must be > 0, got {self.transport_epsilon}")
        if self.max_support < 1:
            raise ConfigError(f"transport max_support must be >= 1, got {self.max_support}")
        if not self.dt > 0:
            raise ConfigError(f"solver dt must be > 0, got {self.dt}")
        if self.record_every < 1:
            raise ConfigError(f"solver record_every must be >= 1, got {self.record_every}")
        _resolve_eval_times(self)
        if self.n_particles < 1:
            raise ConfigError(f"particles count must be >= 1, got {self.n_particles}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        try:
            grid = Grid2D(self.n, self.length)
        except ValueError as e:
            raise ConfigError(str(e)) from e
        if not self.resolved_scale_ok() and not self.allow_unresolved:
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
        if not isinstance(tree, dict):
            raise ConfigError(f"experiment config must be a mapping, got {type(tree).__name__}")
        keys = {f.metadata["path"]: f for f in fields(cls)}
        flat = dict(_flatten(tree, _nest(dict.fromkeys(keys).items())))
        unknown = [path for path in flat if path not in keys]
        if unknown:
            raise ConfigError(f"unknown config key(s) {unknown}")
        missing = [path for path, f in keys.items()
                   if path not in flat and f.default is f.default_factory is MISSING]
        if missing:
            raise ConfigError(f"malformed experiment config: missing required key(s) {missing}")
        try:
            kwargs = {f.name: f.metadata["read"](flat[path], path)
                      for path, f in keys.items() if path in flat}
        except (TypeError, ValueError) as e:
            raise ConfigError(f"malformed experiment config: {e}") from e
        cfg = cls(**kwargs)
        cfg.validate()
        return cfg

    def to_nested(self) -> dict:
        return _nest((f.metadata["path"], copy(getattr(self, f.name))) for f in fields(self))


def _nest(items) -> dict:
    """A tree from (dotted path, value) pairs."""
    tree = {}
    for path, value in items:
        *sections, key = path.split(".")
        node = tree
        for s in sections:
            node = node.setdefault(s, {})
        node[key] = value
    return tree


def _flatten(tree: dict, layout: dict, prefix: str = ""):
    """(dotted path, value) pairs of a config tree. A section of ``layout`` is
    walked and must be a mapping. Any other key is a leaf, so an unknown section
    is named on its own and ``initial_data.params`` stays whole."""
    for key, value in tree.items():
        path = f"{prefix}{key}"
        if isinstance(layout.get(key), dict):
            yield from _flatten(_mapping(value, path), layout[key], path + ".")
        else:
            yield path, value


def apply_override(tree: dict, path: str, raw: str) -> None:
    """Set a nested config key from a dotted path with a YAML-parsed value."""
    import yaml

    keys = path.split(".")
    node = tree
    for k in keys[:-1]:
        if not isinstance(node, dict):
            break
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
    """Snap evaluation times onto the snapshot grid (record_every * dt). Two times
    on one snapshot would give the fit the same rows twice, so they are refused."""
    snap_dt = cfg.record_every * cfg.dt
    what = f"snapshot interval {snap_dt} (record_every * dt)"
    times = [_steps(t, snap_dt, what) * snap_dt for t in cfg.times]
    if len(set(times)) < len(times):
        raise ConfigError(f"evaluation times must not repeat, got {list(cfg.times)}")
    return times


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
    try:
        omega0 = make_initial_data(cfg.initial_kind, grid, **cfg.initial_params)
    except FieldError as e:
        raise ConfigError(f"initial data: {e}") from e
    norms0 = norms(omega0)
    split0 = split_signed(omega0)
    eval_times = _resolve_eval_times(cfg)
    t_end = max(eval_times)
    scfg_euler = SolverConfig(nu=0.0, dt=cfg.dt, t_end=t_end, record_every=cfg.record_every)
    euler_tr = run_split(split0.plus, split0.minus, scfg_euler)

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

            # particle coupling along the snapshot grid
            ens = init_coupling(omega0, cfg.n_particles, rng_seed=cfg.seed * 1000 + leg)
            entries = [estimate_q(ens)]
            for i in range(len(ns_tr.times) - 1):
                dtc = ns_tr.times[i + 1] - ns_tr.times[i]
                u_mid = _average_velocity(*euler_tr.velocity[i:i + 2])
                unu_mid = _average_velocity(*ns_tr.velocity[i:i + 2])
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
                _check_chain(rows[-1], norms0, invariant_violations, series)
            # drop this leg's snapshots and velocities before the next leg integrates
            del ns_tr
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


def _resolution_check(cfg: ExperimentConfig, euler_tr: SplitTrajectory, rows) -> str:
    """Grid-doubling estimate of the discretization error of the reference ``euler_tr``."""
    fine = Grid2D(cfg.n * 2, cfg.length)
    split_f = split_signed(make_initial_data(cfg.initial_kind, fine, **cfg.initial_params))
    scfg = euler_tr.config
    # only the last snapshot is read, and each one is 4x the coarse size
    last_only = replace(scfg, record_every=round(scfg.t_end / scfg.dt))
    fine_tr = run_split(split_f.plus, split_f.minus, last_only)
    wc = euler_tr.full_at(scfg.t_end)
    # restrict the fine solution to the coarse grid
    diff = wc.values - fine_tr.full_at(scfg.t_end).values[::2, ::2]
    disc_err = hm1_norm(ScalarField2D(wc.grid, diff - diff.mean()))
    smallest = min((r.err_l2_velocity for r in rows), default=math.inf)
    return "ok" if disc_err <= 0.1 * smallest else f"untrusted (disc_err={disc_err:.3e})"


# -- reporting ----------------------------------------------------------------


def emit_report(series: RateSeries, cfg: ExperimentConfig, outdir: str | Path) -> dict:
    """Write CSV tables, plot-ready log-log data and a JSON summary whose shape
    ``summary_schema()`` describes (the tests validate against it; a run does not).

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
    with open(out / "summary.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return summary


def summary_schema() -> dict:
    import importlib.resources as res

    with res.files("vvlab").joinpath("schemas/summary.schema.json").open() as fh:
        return json.load(fh)
