"""End-to-end acceptance suite.

Each test prints one ``ACCEPTANCE <n>: PASS|FAIL`` line with the measured
numbers before asserting, so a failing criterion still reports what it saw.
The rate-sweep fixture (criteria 2 and 3) is the expensive part: an n=256
inviscid reference plus a five-point viscosity ladder integrated to t=1.
"""

import itertools
import math
import time

import numpy as np
import pytest

from vvlab.coupling import advance_coupling, estimate_q, init_coupling
from vvlab.envelope import OsgoodParams, Regime, crossover_time, integrate_envelope
from vvlab.evolve import SolverConfig, run
from vvlab.fields import Grid2D, ScalarField2D, VectorField2D, norms
from vvlab.harness import ExperimentConfig, emit_report, hm1_sweep, run_experiment
from vvlab.initial_data import make_initial_data, taylor_green_decay_rate
from vvlab.ratefit import fit_double_exponential_form, fit_rate
from vvlab.transport import (
    DiscreteMeasure,
    field_to_measure,
    wasserstein_brute_force,
    wasserstein_exact,
    wasserstein_sinkhorn,
)


def _report(num: int, ok: bool, detail: str) -> None:
    from tests.conftest import record_acceptance_line

    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(f"\n{line}")
    # collected for the end-of-run summary so the line shows even under capture
    record_acceptance_line(line)


# -- shared expensive sweep (criteria 2 and 3) --------------------------------

SWEEP_N = 256
SWEEP_LENGTH = 0.4
SWEEP_DT = 2e-3
SWEEP_NUS = np.geomspace(3e-3, 3e-4, 5)


@pytest.fixture(scope="module")
def rate_sweep():
    """Velocity L2 errors of the viscous runs against the inviscid reference
    at the short and the fixed evaluation time, for the full ladder."""
    grid = Grid2D(SWEEP_N, SWEEP_LENGTH)
    omega0 = make_initial_data("patch_pair", grid, radius=0.08, separation=0.2)
    linf0 = norms(omega0).linf
    # evaluation times are defined relative to the vorticity amplitude
    assert abs(linf0 - 1.0) < 0.02, "patch amplitude drifted; times below assume 1"
    t_short, t_fixed = 0.1, 1.0
    t0 = time.time()
    errs = hm1_sweep(omega0, SWEEP_NUS, [t_short, t_fixed], SWEEP_DT)
    elapsed = time.time() - t0
    return {
        "errs": errs,
        "elapsed": elapsed,
        "t_short": t_short,
        "t_fixed": t_fixed,
        "resolved_ok": math.sqrt(float(SWEEP_NUS.min()) * t_short) >= grid.spacing,
    }


def test_criterion_1_exact_solution_regression(grid64):
    tg = make_initial_data("taylor_green", grid64)
    t0 = time.time()
    tr = run(tg, SolverConfig(nu=0.01, dt=1e-3, t_end=1.0, record_every=1000))
    elapsed = time.time() - t0
    exact = tg.values * math.exp(-taylor_green_decay_rate(grid64, 0.01) * 1.0)
    rel = math.sqrt(float(((tr.states[-1].values - exact) ** 2).sum() / (exact ** 2).sum()))
    ok = rel < 1e-6 and elapsed < 10.0
    _report(1, ok, f"rel L2 error {rel:.3e} (< 1e-6), runtime {elapsed:.1f}s (< 10s)")
    assert ok


def test_criterion_2_short_time_rate(rate_sweep):
    fit = fit_rate(SWEEP_NUS, rate_sweep["errs"][rate_sweep["t_short"]])
    ok = 0.40 <= fit.exponent <= 0.60 and rate_sweep["elapsed"] < 1800
    _report(
        2,
        ok,
        f"fitted exponent {fit.exponent:.3f} [{fit.ci_low:.3f}, {fit.ci_high:.3f}] "
        f"vs window [0.40, 0.60]; sweep {rate_sweep['elapsed']:.0f}s; "
        f"resolved-scale {'ok' if rate_sweep['resolved_ok'] else 'VIOLATED'}",
    )
    assert ok


def test_criterion_3_fixed_time_degradation(rate_sweep):
    fit_short = fit_rate(SWEEP_NUS, rate_sweep["errs"][rate_sweep["t_short"]])
    fit_fixed = fit_rate(SWEEP_NUS, rate_sweep["errs"][rate_sweep["t_fixed"]])
    ok = 0.0 < fit_fixed.exponent < fit_short.exponent
    _report(
        3,
        ok,
        f"exponent {fit_fixed.exponent:.3f} at t=1.0 vs {fit_short.exponent:.3f} at t=0.1",
    )
    assert ok


def test_criterion_4_inequality_suites():
    from vvlab.checks import run_inequality_suites

    report = run_inequality_suites(n_instances=200, rng_seed=0)
    detail = "; ".join(f"{name} {passed}/{total}" for name, passed, total in report.lines)
    _report(4, report.ok, detail)
    assert report.ok


def test_criterion_5_transport_oracle_equivalence():
    rng = np.random.default_rng(0)
    worst_lp = 0.0
    for m, rep, p in itertools.product(range(2, 9), range(3), (1, 2)):
        pts = rng.uniform(0, 1, size=(2, m, 2))
        w = np.full(m, 1.0 / m)
        mu = DiscreteMeasure(pts[0], w, 1.0)
        nu = DiscreteMeasure(pts[1], w, 1.0)
        brute = wasserstein_brute_force(mu, nu, p=p)
        exact = wasserstein_exact(mu, nu, p=p)[0]
        worst_lp = max(worst_lp, abs(exact - brute) / max(brute, 1e-12))
    worst_sk = 0.0
    g8 = Grid2D(8, 1.0)
    for seed in range(4):
        r = np.random.default_rng(seed)
        a = r.uniform(0.1, 1.0, size=(8, 8))
        b = r.uniform(0.1, 1.0, size=(8, 8))
        b *= a.sum() / b.sum()
        mu = field_to_measure(ScalarField2D(g8, a))
        nu = field_to_measure(ScalarField2D(g8, b))
        exact = wasserstein_exact(mu, nu)[0]
        approx = wasserstein_sinkhorn(mu, nu)
        worst_sk = max(worst_sk, abs(approx - exact) / exact)
    ok = worst_lp < 1e-10 and worst_sk < 0.02
    _report(
        5, ok,
        f"LP vs enumeration worst rel diff {worst_lp:.2e} (< 1e-10); "
        f"Sinkhorn worst rel error {worst_sk:.4f} (< 0.02)",
    )
    assert ok


@pytest.fixture(scope="module")
def coupled_experiment():
    cfg = ExperimentConfig(
        name="acceptance-coupled",
        initial_kind="patch_pair",
        initial_params={"radius": 0.12, "separation": 0.4},
        n=64,
        length=1.0,
        nu_ladder=[3e-2, 1.2e-2, 5e-3],
        times=[0.1],
        dt=5e-3,
        record_every=1,
        n_particles=4000,
        transport_method="exact",
        max_support=500,
        seed=0,
        allow_unresolved=True,
    )
    return run_experiment(cfg)


def test_criterion_6_coupling_sanity(coupled_experiment):
    # zero-velocity closed form at 1e4 particles
    g = Grid2D(64, 1.0)
    w0 = make_initial_data("patch_pair", g, radius=0.12, separation=0.4)
    z = np.zeros((64, 64))
    u0 = VectorField2D(g, z, z.copy())
    nu, dt, steps = 5e-3, 1e-3, 50
    ens = init_coupling(w0, 10_000, rng_seed=21)
    for _ in range(steps):
        ens = advance_coupling(ens, u0, u0, nu=nu, dt=dt)
    est = estimate_q(ens)
    mass = ens.mass(1) + ens.mass(-1)
    expected = 4.0 * nu * dt * steps * mass
    dev_se = abs(est.q - expected) / est.stderr

    q_violations = [
        m for m in coupled_experiment.invariant_violations if "(W2 sum)^2" in m
    ]
    ok = dev_se <= 3.0 and not q_violations and not coupled_experiment.errors
    _report(
        6, ok,
        f"zero-velocity Q off by {dev_se:.2f} MC standard errors (<= 3); "
        f"{len(q_violations)} W2^2<=Q violations on the coupled run",
    )
    assert ok


def test_criterion_7_lemma1_constant_stability(coupled_experiment):
    fits = coupled_experiment.lemma1
    vals = list(fits.values())
    finite = all(np.isfinite(v) for v in vals)
    spread = max(vals) / min(vals) if finite and min(vals) > 0 else math.inf
    ok = len(vals) == 3 and finite and spread < 2.0
    _report(7, ok, f"C_fit across ladder {[f'{v:.3f}' for v in vals]}, spread x{spread:.2f} (< x2)")
    assert ok


def test_criterion_8_osgood_module():
    # nu-dominated regime: envelope tracks C nu t within 2%
    p = OsgoodParams(c=2.0, nu=1e-6)
    t_end = 3e-4
    curve = integrate_envelope(p, t_end=t_end, dt=t_end / 10)
    lin = p.c * p.nu * curve.times[1:]
    dev_lin = float(np.max(np.abs(curve.values[1:] - lin) / lin))

    # crossover: defining relation to 1e-10 and the log(1/nu) scaling band
    worst_resid = 0.0
    ratios = []
    for nu in (1e-8, 1e-6, 1e-4):
        res = crossover_time(OsgoodParams(c=1.0, nu=nu))
        worst_resid = max(worst_resid, res.residual)
        ratios.append(res.t1 * math.log(1.0 / nu))
    band_ok = all(0.5 <= r <= 2.0 for r in ratios)

    # fixed-time envelope against the transformed power-law form
    nus = np.geomspace(1e-6, 1e-3, 8)
    vals = []
    for nu in nus:
        c = integrate_envelope(OsgoodParams(c=1.0, nu=float(nu)), t_end=1.0, dt=0.05)
        vals.append(math.sqrt(c.values[-1]))
    fit = fit_double_exponential_form(nus, vals)

    ok = dev_lin < 0.02 and worst_resid < 1e-10 and band_ok and fit.r_squared > 0.99
    _report(
        8, ok,
        f"linear-regime deviation {dev_lin:.3%} (< 2%); crossover residual "
        f"{worst_resid:.1e} (< 1e-10); t1*log(1/nu) in "
        f"[{min(ratios):.2f}, {max(ratios):.2f}] (within [0.5, 2]); "
        f"fixed-time fit R^2 {fit.r_squared:.5f} (> 0.99)",
    )
    assert ok


def test_criterion_9_determinism(tmp_path):
    cfg = ExperimentConfig(
        name="acceptance-determinism",
        initial_kind="patch_pair",
        initial_params={"radius": 0.12, "separation": 0.4},
        n=32,
        length=1.0,
        nu_ladder=[3e-2, 1.7e-2, 9.5e-3, 5.3e-3],
        times=[0.05],
        dt=5e-3,
        record_every=1,
        n_particles=300,
        transport_method="exact",
        max_support=260,
        seed=7,
        allow_unresolved=True,
    )
    names = ["rate_series.csv", "loglog.csv", "summary.json"]
    digests = []
    for sub in ("a", "b"):
        series = run_experiment(cfg)
        emit_report(series, cfg, tmp_path / sub)
        digests.append([(tmp_path / sub / n).read_bytes() for n in names])
    ok = digests[0] == digests[1]
    _report(9, ok, f"{len(names)} report files byte-identical across reruns: {ok}")
    assert ok
