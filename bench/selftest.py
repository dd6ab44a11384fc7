"""Fast self-test of the benchmark runner (run.py) on a tiny config, about half a minute.

    python3 bench/selftest.py

Checks that both modes print exactly the metrics BENCHMARK.json names, that the
correctness gate passes a good run and refuses a wrong reference and a changed
report, and that the tracer's accounting holds and a vanished call target is
counted instead of raised. Exits 0 when every check passes.
"""

import json
import shutil
import sys
import time
from pathlib import Path

import yaml

from run import (
    BENCH,
    ROOT,
    Gate,
    GateError,
    child_env,
    reference_values,
    run_benchmark,
    spawn,
)
from spans import Layer, Tracer

TINY = {
    "name": "tiny",
    "initial_data": {"kind": "patch_pair", "params": {"radius": 0.12, "separation": 0.4}},
    "grid": {"n": 32, "length": 1.0},
    "nu_ladder": [3.0e-2, 1.7e-2, 9.5e-3, 5.3e-3],
    "times": [0.01],
    "solver": {"dt": 5.0e-3, "record_every": 1},
    "particles": {"count": 100},
    "transport": {"method": "exact", "max_support": 30},
    "seed": 0,
    "output_dir": "runs",
    "allow_unresolved": True,
}


def check(condition: bool, what: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {what}")
    print(f"ok: {what}")


def check_tracer() -> None:
    tracer = Tracer()

    def leaf():
        time.sleep(0.01)

    def outer():
        leaf_traced()
        time.sleep(0.002)
        leaf_traced()

    leaf_traced = tracer.wrap("leaf", leaf)
    start = time.perf_counter()
    tracer.wrap("outer", outer)()
    end = time.perf_counter()
    s = tracer.summary(start, end)
    check(s["accounting_ok"], "tracer accounting: self times plus glue equal the wall time")
    check(s["layers"]["leaf"]["calls"] == 2 and s["layers"]["outer"]["calls"] == 1,
          "tracer counts calls per span")
    check(s["layers"]["outer"]["self_s"] < 0.5 * s["layers"]["leaf"]["self_s"],
          "tracer subtracts child spans from self time")

    sys.path.insert(0, str(ROOT / "src"))
    gone = Tracer()
    gone.install((Layer("fields.no_such_function", ("no_such_function",)),))
    check(gone.missing == ["fields.no_such_function"], "a vanished call target is counted, not raised")


def main() -> int:
    check_tracer()
    bench_json = json.loads((ROOT / "BENCHMARK.json").read_text())
    work = ROOT / ".bench_out" / "selftest"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    config = work / "tiny.yaml"
    config.write_text(yaml.safe_dump(TINY))

    first = spawn(config, 0, work / "capture", child_env())
    reference = reference_values(Path(first["report_dir"]))

    plain = run_benchmark(config, 5, 1, 0, work / "plain", reference, 1e-10, 1e-9)
    check(plain["correct"] and plain["failed"] == 0 and plain["attempted"] >= 2,
          "untraced run passes the gate on a second seed")
    check(sorted(plain["metrics"]) == sorted(m["name"] for m in bench_json["end_to_end"]),
          "--trace 0 reports exactly the end_to_end metrics")
    check(all(m["value"] > 0 for m in plain["metrics"].values()), "end-to-end metrics are > 0")

    traced = run_benchmark(config, 5, 1, 1, work / "traced", reference, 1e-10, 1e-9)
    check(traced["correct"], "traced run passes the gate")
    check(sorted(traced["metrics"]) == sorted(m["name"] for m in bench_json["per_layer"]),
          "--trace 1 reports exactly the per_layer metrics")
    check(traced["metrics"]["trace.missing_spans"]["value"] == 0, "no span is missing")
    check(traced["metrics"]["transport.wasserstein_exact.self_s"]["value"] > 0,
          "the exact transport span is timed")

    wrong = dict(reference, err_l2_velocity=[e * (1 + 1e-8) for e in reference["err_l2_velocity"]])
    refused = run_benchmark(config, 5, 1, 0, work / "wrong", wrong, 1e-10, 1e-9)
    check(not refused["correct"] and refused["failed"] == refused["attempted"],
          "the gate refuses err_l2_velocity off the reference by 1e-8")

    gate = Gate(None, 1e-10, 1e-9)
    gate.check(first)
    changed = spawn(config, 0, work / "changed", child_env())
    rate_csv = Path(changed["report_dir"]) / "rate_series.csv"
    rate_csv.write_text(rate_csv.read_text() + "\n")
    try:
        gate.check(changed)
        check(False, "the gate refuses a report that is not byte-identical")
    except GateError:
        check(True, "the gate refuses a report that is not byte-identical")
    shutil.rmtree(work)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
