"""One benchmark sample in a fresh interpreter: set up, run one experiment, report.

Makes the same public harness calls ``vvlab run`` makes
(``ExperimentConfig.from_nested`` -> ``run_experiment`` -> ``emit_report``) on a
frozen workload config whose ``seed`` is overridden, and writes what it measured
to ``<out>/result.json``. Started by ``run.py``; not meant to be run by hand.

    python3 bench/child.py --root ROOT --config CFG --seed N --out DIR \
        --spawned T --trace 0|1 [--setup-only]

``--spawned`` is the parent's ``time.monotonic()`` just before it started this
process, so set-up time counts interpreter start-up and imports.
"""

import argparse
import json
import sys
import time
from pathlib import Path

parser = argparse.ArgumentParser()
parser.add_argument("--root", required=True)
parser.add_argument("--config", required=True)
parser.add_argument("--seed", type=int, required=True)
parser.add_argument("--out", required=True)
parser.add_argument("--spawned", type=float, required=True)
parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
parser.add_argument("--setup-only", action="store_true")
args = parser.parse_args()

src = Path(args.root, "src").resolve()
sys.path.insert(0, str(src))

import vvlab.cli  # noqa: E402  (what `vvlab run` imports: numpy, yaml, the harness)
import yaml  # noqa: E402
from vvlab import harness  # noqa: E402

t_imported = time.monotonic()
if src not in Path(harness.__file__).resolve().parents:
    sys.exit(f"vvlab was imported from {harness.__file__}, not from {src}")

with open(args.config, encoding="utf-8") as fh:
    tree = yaml.safe_load(fh)
harness.apply_override(tree, "seed", str(args.seed))
cfg = harness.ExperimentConfig.from_nested(tree)
t_config = time.monotonic()

result = {
    "import_s": t_imported - args.spawned,
    "config_s": t_config - t_imported,
    "setup_s": t_config - args.spawned,
}
out = Path(args.out)
if not args.setup_only:
    report_dir = out / f"{cfg.name}-seed{cfg.seed}"
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
        emit = tracer.wrap("harness.emit_report", harness.emit_report)
    else:
        emit = harness.emit_report
    t0 = time.perf_counter()
    series = harness.run_experiment(cfg)
    emit(series, cfg, report_dir)
    t1 = time.perf_counter()
    if tracer is not None:
        tracer.uninstall()
        result["trace"] = tracer.summary(t0, t1)
        result["spans"] = tracer.spans

    import resource

    import jsonschema

    # re-read the written summary and validate it independently of emit_report
    summary = json.loads((report_dir / "summary.json").read_text())
    try:
        jsonschema.validate(summary, harness.summary_schema())
        schema_error = None
    except jsonschema.ValidationError as e:
        schema_error = e.message
    result.update(
        wall_s=t1 - t0,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        report_dir=str(report_dir),
        schema_error=schema_error,
    )

(out / "result.json").write_text(json.dumps(result))
