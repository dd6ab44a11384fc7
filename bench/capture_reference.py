"""Capture the gated reference values of every workload into reference.json.

    python3 bench/capture_reference.py

Runs each workload once (seed 0) and stores its ``err_l2_velocity`` column and
fitted exponents. The gated values do not depend on the seed: the patch-pair
data and the least-squares exponent are deterministic, and the seed only moves
the coupling noise and the bootstrap interval. Re-capture only when a change is
meant to move these numbers, and say so where the change is described.
"""

import json
import shutil
import sys
from pathlib import Path

from run import BENCH, ROOT, WORKLOADS, child_env, reference_values, spawn

RTOL_ERR = 1e-10       # relative tolerance on each err_l2_velocity entry
RTOL_EXPONENT = 1e-9   # relative tolerance on each fitted exponent


def main() -> int:
    env = child_env()
    workloads = {}
    for name in WORKLOADS:
        out = ROOT / ".bench_out" / f"reference-{name}"
        if out.exists():
            shutil.rmtree(out)
        result = spawn(BENCH / "workloads" / f"{name}.yaml", 0, out, env)
        workloads[name] = reference_values(Path(result["report_dir"]))
        print(name, workloads[name])
    doc = {
        "rtol_err_l2_velocity": RTOL_ERR,
        "rtol_exponent": RTOL_EXPONENT,
        "workloads": workloads,
    }
    (BENCH / "reference.json").write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
