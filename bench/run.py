"""vvlab benchmark: one workload, measured in fresh child processes run one at a time.

    python3 bench/run.py --workload smoke|short_time|dense_ladder \
        --seed N --seconds S --trace 0|1

Each sample is a child process (``child.py``) that makes the harness calls
``vvlab run`` makes on the workload's frozen config in ``workloads/``, with the
config ``seed`` set to ``--seed``. Children run one after another for about
``--seconds`` seconds, after one discarded warm-up start that fills the file
cache (and the bytecode cache, unless PYTHONDONTWRITEBYTECODE is set).

``--trace 0`` reports the end-to-end metrics (medians over untraced samples);
``--trace 1`` alternates untraced and traced samples and reports the per-layer
metrics from the traced ones (``spans.py``). Every experiment sample must pass
the correctness gate: exit 0, schema-valid ``summary.json``, no ``leg_errors``,
reports byte-identical to the run's first sample, and the ``err_l2_velocity``
column and fitted exponents equal to ``reference.json`` within its stated
relative tolerances.

Human-readable lines go to stdout first; the last line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. Scratch output goes to
``.bench_out/`` at the repository root.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import LAYERS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("smoke", "short_time", "dense_ladder")
CHILD_TIMEOUT_S = 150
MIN_SETUP_SAMPLES = 5
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# per-layer metrics reported by --trace 1, in print order, with units
LAYER_METRICS = {
    "evolve.run_split.calls": "count",
    "evolve.run_split.self_s": "s",
    "evolve.step_ms": "ms",
    "fields.biot_savart.calls": "count",
    "fields.biot_savart.self_s": "s",
    "fields.hm1_norm.self_s": "s",
    "initial_data.make_initial_data.self_s": "s",
    "transport.field_to_measure.calls": "count",
    "transport.field_to_measure.self_s": "s",
    "transport.atoms_mean": "count",
    "transport.distance.calls": "count",
    "transport.distance.self_s": "s",
    "transport.distance.ms_per_call": "ms",
    "transport.wasserstein_exact.self_s": "s",
    "coupling.init_coupling.self_s": "s",
    "coupling.advance_coupling.calls": "count",
    "coupling.advance_coupling.self_s": "s",
    "coupling.step_ms_per_1e4": "ms",
    "coupling.estimate_q.self_s": "s",
    "coupling.check_lemma1.calls": "count",
    "coupling.check_lemma1.self_s": "s",
    "ratefit.fit_rate.self_s": "s",
    "harness.emit_report.self_s": "s",
    "harness.glue_s": "s",
    "harness.invariant_violations": "count",
    "io.report_bytes": "bytes",
    "cli.import_s": "s",
    "harness.config_s": "s",
    "trace.overhead_frac": "fraction",
    "trace.missing_spans": "count",
}


class GateError(Exception):
    """An experiment sample failed the correctness gate."""


def child_env() -> dict:
    """Child environment: the checkout's sources first, threads capped at nproc."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    nproc = os.cpu_count() or 1
    for var in THREAD_VARS:
        try:
            env[var] = str(min(int(env[var]), nproc))
        except (KeyError, ValueError):
            env[var] = str(nproc)
    return env


def describe_environment(env: dict, seed: int) -> dict:
    versions = subprocess.run(
        [sys.executable, "-c",
         "import json, numpy, scipy; print(json.dumps([numpy.__version__, scipy.__version__]))"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    numpy_v, scipy_v = json.loads(versions.stdout) if versions.returncode == 0 else [None, None]
    cpu = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        commit = git.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy_v,
        "scipy": scipy_v,
        "threads": {var: env[var] for var in THREAD_VARS},
        "commit": commit,
        "seed": seed,
    }


def spawn(config: Path, seed: int, out: Path, env: dict, trace: int = 0,
          setup_only: bool = False) -> dict:
    """Run one child to completion; return its result or raise GateError."""
    out.mkdir(parents=True)
    cmd = [sys.executable, str(BENCH / "child.py"), "--root", str(ROOT),
           "--config", str(config), "--seed", str(seed), "--out", str(out),
           "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    with open(out / "child.log", "w", encoding="utf-8") as log:
        try:
            proc = subprocess.run(cmd + ["--spawned", repr(time.monotonic())], env=env,
                                  stdout=log, stderr=subprocess.STDOUT,
                                  timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise GateError(f"timed out after {CHILD_TIMEOUT_S} s") from None
    if proc.returncode != 0 or not (out / "result.json").exists():
        tail = (out / "child.log").read_text(errors="replace").strip().splitlines()[-5:]
        raise GateError(f"exit code {proc.returncode}: " + " | ".join(tail))
    return json.loads((out / "result.json").read_text())


def report_files(report_dir: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(report_dir.iterdir()) if p.is_file()}


def reference_values(report_dir: Path) -> dict:
    """The gated numbers of one report: the err_l2_velocity column and the exponents."""
    with open(report_dir / "rate_series.csv", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    summary = json.loads((report_dir / "summary.json").read_text())
    return {
        "nu": [float(r["nu"]) for r in rows],
        "t": [float(r["t"]) for r in rows],
        "err_l2_velocity": [float(r["err_l2_velocity"]) for r in rows],
        "exponent": {t: fit["exponent"] for t, fit in sorted(summary["fits"].items())},
    }


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * abs(b)


def check_reference(got: dict, ref: dict, rtol_err: float, rtol_exponent: float) -> None:
    if got["nu"] != ref["nu"] or got["t"] != ref["t"]:
        raise GateError("rate_series rows (nu, t) differ from the reference")
    for nu, a, b in zip(got["nu"], got["err_l2_velocity"], ref["err_l2_velocity"]):
        if not _close(a, b, rtol_err):
            raise GateError(f"err_l2_velocity at nu={nu}: {a!r} != reference {b!r} "
                            f"(rtol {rtol_err})")
    if sorted(got["exponent"]) != sorted(ref["exponent"]):
        raise GateError("fitted times differ from the reference")
    for t, b in ref["exponent"].items():
        if not _close(got["exponent"][t], b, rtol_exponent):
            raise GateError(f"exponent at t={t}: {got['exponent'][t]!r} != reference {b!r} "
                            f"(rtol {rtol_exponent})")


class Gate:
    """Correctness checks every experiment sample of one run must pass."""

    def __init__(self, reference: dict | None, rtol_err: float, rtol_exponent: float):
        self.reference = reference
        self.rtol_err = rtol_err
        self.rtol_exponent = rtol_exponent
        self.first_reports: dict | None = None
        self.summary: dict | None = None

    def check(self, result: dict) -> None:
        if result.get("schema_error"):
            raise GateError(f"summary.json is schema-invalid: {result['schema_error']}")
        report_dir = Path(result["report_dir"])
        summary = json.loads((report_dir / "summary.json").read_text())
        if summary["leg_errors"]:
            raise GateError(f"leg errors: {summary['leg_errors']}")
        files = report_files(report_dir)
        if self.first_reports is None:
            self.first_reports, self.summary = files, summary
        elif files != self.first_reports:
            differ = sorted(k for k in files.keys() | self.first_reports.keys()
                            if files.get(k) != self.first_reports.get(k))
            raise GateError(f"reports differ from the first sample: {differ}")
        if self.reference is not None:
            check_reference(reference_values(report_dir), self.reference,
                            self.rtol_err, self.rtol_exponent)
        trace = result.get("trace")
        if trace is not None and not trace["accounting_ok"]:
            raise GateError("trace accounting failed: self times plus glue != traced wall")


def run_samples(config: Path, seed: int, seconds: float, trace: int, gate: Gate,
                work: Path, env: dict) -> dict:
    """Warm up, then run experiment samples until the time is spent, then set-up samples.

    A new sample starts only if the longest one so far would still end before the
    deadline, after the minimum of two experiment samples (one of them traced
    under ``trace``) and MIN_SETUP_SAMPLES set-up samples.
    """
    deadline = time.monotonic() + seconds
    spawn(config, seed, work / "warmup", env, setup_only=True)
    samples, setups, failures = [], [], []
    longest = 0.0
    i = 0
    while True:
        traced = trace == 1 and i % 2 == 1
        started = time.monotonic()
        try:
            result = spawn(config, seed, work / f"sample{i:03d}", env, trace=int(traced))
            gate.check(result)
            samples.append({**result, "traced": traced})
            setups.append(result)
        except GateError as e:
            failures.append(f"sample {i}: {e}")
            print(f"FAILED sample {i}: {e}", file=sys.stderr)
        longest = max(longest, time.monotonic() - started)
        i += 1
        enough = i >= 2 and (trace == 0 or any(s["traced"] for s in samples) or failures)
        if enough and time.monotonic() + longest > deadline:
            break
    longest = 0.0
    j = 0
    while len(setups) < MIN_SETUP_SAMPLES or time.monotonic() + longest < deadline:
        started = time.monotonic()
        try:
            setups.append(spawn(config, seed, work / f"setup{j:03d}", env, setup_only=True))
        except GateError as e:
            failures.append(f"setup sample {j}: {e}")
            print(f"FAILED setup sample {j}: {e}", file=sys.stderr)
            i += 1  # a failed set-up sample counts as an attempt, so failed <= attempted
            break
        longest = max(longest, time.monotonic() - started)
        j += 1
    return {"samples": samples, "setups": setups, "failures": failures, "attempted": i}


def _median(values):
    return statistics.median(values) if values else 0.0


def describe_timing(values) -> str:
    """Median and the highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n == 0:
        return "no samples"
    text = f"median {statistics.median(values):.4f}"
    if n >= 11:
        q = (n - 10) / n
        k = min(n - 1, max(0, int(q * n) - 1))
        text += f", p{100 * q:.0f} {sorted(values)[k]:.4f}"
    else:
        text += f", max {max(values):.4f} (fewer than 11 samples: no tail percentile)"
    return text + f", n={n}"


def end_to_end_metrics(runs: dict) -> tuple[dict, list]:
    walls = [s["wall_s"] for s in runs["samples"]]
    setups = [s["setup_s"] for s in runs["setups"]]
    rss = [s["peak_rss_mb"] for s in runs["samples"]]
    metrics = {
        "wall_s": {"value": _median(walls), "unit": "s"},
        "setup_s": {"value": _median(setups), "unit": "s"},
        "peak_rss_mb": {"value": _median(rss), "unit": "MB"},
    }
    wall_line = f"wall_s       [s]  {describe_timing(walls)}"
    if walls:
        wall_line += "; samples " + " ".join(f"{w:.3f}" for w in walls)
    lines = [wall_line,
             f"setup_s      [s]  {describe_timing(setups)}",
             f"peak_rss_mb  [MB] {describe_timing(rss)}"]
    return metrics, lines


def per_layer_metrics(runs: dict, gate: Gate) -> dict:
    traced = [s for s in runs["samples"] if s["traced"]]
    plain = [s for s in runs["samples"] if not s["traced"]]
    values: dict = {}
    if traced:
        def self_s(sample, span):
            return sample["trace"]["layers"].get(span, {}).get("self_s", 0.0)

        def calls(span):
            return traced[0]["trace"]["layers"].get(span, {}).get("calls", 0)

        def counter(name):
            c = traced[0]["trace"]["counters"].get(name, {"total": 0, "samples": 0})
            return c["total"], c["samples"]

        def per(num_s, denom, scale=1000.0):
            return num_s * scale / denom if denom else 0.0

        for span in [layer.span for layer in LAYERS] + ["harness.emit_report"]:
            values[f"{span}.calls"] = calls(span)
            values[f"{span}.self_s"] = _median([self_s(s, span) for s in traced])
        steps, _ = counter("evolve.steps")
        atoms, measures = counter("transport.atoms")
        particle_steps, _ = counter("coupling.particle_steps")
        values["evolve.step_ms"] = per(values["evolve.run_split.self_s"], steps)
        values["transport.atoms_mean"] = atoms / measures if measures else 0.0
        values["transport.distance.ms_per_call"] = per(
            values["transport.distance.self_s"], values["transport.distance.calls"])
        values["coupling.step_ms_per_1e4"] = per(
            values["coupling.advance_coupling.self_s"], particle_steps / 1e4)
        values["harness.glue_s"] = _median([s["trace"]["glue_s"] for s in traced])
        values["trace.missing_spans"] = max(len(s["trace"]["missing"]) for s in traced)
        if plain:
            values["trace.overhead_frac"] = (
                _median([s["wall_s"] for s in traced]) / _median([s["wall_s"] for s in plain])
                - 1.0)
    if gate.summary is not None:
        values["harness.invariant_violations"] = len(gate.summary["invariant_violations"])
        values["io.report_bytes"] = sum(len(b) for b in gate.first_reports.values())
    values["cli.import_s"] = _median([s["import_s"] for s in runs["setups"]])
    values["harness.config_s"] = _median([s["config_s"] for s in runs["setups"]])
    return {name: {"value": values.get(name, 0.0), "unit": unit}
            for name, unit in LAYER_METRICS.items()}


def run_benchmark(config: Path, seed: int, seconds: float, trace: int, work: Path,
                  reference: dict | None, rtol_err: float, rtol_exponent: float) -> dict:
    """Measure one workload config; returns the result object and prints the table."""
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    env = child_env()
    environment = describe_environment(env, seed)
    print("environment " + json.dumps(environment, sort_keys=True))
    (work / "environment.json").write_text(json.dumps(environment, indent=2, sort_keys=True))
    gate = Gate(reference, rtol_err, rtol_exponent)
    try:
        runs = run_samples(config, seed, seconds, trace, gate, work, env)
    except GateError as e:  # the discarded warm-up start failed: nothing can run
        print(f"FAILED warm-up: {e}", file=sys.stderr)
        runs = {"samples": [], "setups": [], "failures": [str(e)], "attempted": 1}
    attempted = runs["attempted"]
    failed = len(runs["failures"])
    if trace:
        metrics = per_layer_metrics(runs, gate)
        for name, m in metrics.items():
            print(f"{name:40s} {m['value']:.6g} {m['unit']}")
        missing = sorted({m for s in runs["samples"] if s["traced"] for m in s["trace"]["missing"]})
        if missing:
            print("spans with no call target left: " + ", ".join(missing))
    else:
        metrics, lines = end_to_end_metrics(runs)
        for line in lines:
            print(line)
        violations = len(gate.summary["invariant_violations"]) if gate.summary else None
        print(f"invariant_violations [count] {violations}")
        print(f"fail_frac    [fraction] {failed / attempted:.4f} ({failed} of {attempted})")
    with open(work / "spans.json", "w", encoding="utf-8") as fh:
        json.dump([{"sample": i, "spans": s["spans"]} for i, s in enumerate(runs["samples"])
                   if s.get("spans")], fh)
    return {
        "correct": failed == 0 and bool(runs["samples"]),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "vvlab" / "harness.py").is_file():
        print(f"no vvlab sources under {ROOT / 'src'}: run from a full checkout",
              file=sys.stderr)
        return 2
    ref = json.loads((BENCH / "reference.json").read_text())
    result = run_benchmark(
        BENCH / "workloads" / f"{args.workload}.yaml", args.seed, args.seconds, args.trace,
        ROOT / ".bench_out" / f"{args.workload}-trace{args.trace}",
        ref["workloads"][args.workload], ref["rtol_err_l2_velocity"], ref["rtol_exponent"],
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
