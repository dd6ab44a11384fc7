#!/usr/bin/env python3
"""Direct viscosity sweep without the transport/coupling overhead.

Runs ``vvlab.harness.hm1_sweep`` on the experiment config that ``vvlab run``
takes, with the same ``--path.to.key value`` overrides: the inviscid reference
and the viscosity ladder, then prints the velocity L2 error at each evaluation
time and the exponent fitted with the config's seed, as ``vvlab run`` fits it.
Useful for quick rate exploration before committing to a full experiment. A
configuration error, or a ladder of fewer than 4 viscosities, exits 2 before
any run. A run that breaks its a-priori bounds is printed on stderr as an
invariant violation, and the script exits 1, as ``vvlab run`` does. A run that
fails numerically (a SolverError in the reference or a leg) is printed on
stderr as a numerical failure, and the script exits 3.

    python3 scripts/rate_sweep.py --config configs/short_time.yaml --grid.n 128 --times "[0.1, 0.5]"
"""

import argparse
import sys
import time

from vvlab.cli import EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK, EXIT_VIOLATION, load_config
from vvlab.config import ConfigError
from vvlab.evolve import SolverError
from vvlab.harness import hm1_sweep
from vvlab.ratefit import fit_rate


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--config", required=True)
    args, extra = ap.parse_known_args(argv)
    try:
        cfg = load_config(args.config, extra)
        if len(cfg.nu_ladder) < 4:
            raise ConfigError(f"a rate fit needs at least 4 viscosities, got {len(cfg.nu_ladder)}")
        t0 = time.time()
        errs, violations = hm1_sweep(cfg)
    except ConfigError as e:
        print(f"configuration error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except SolverError as e:
        print(f"numerical failure: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_NUMERICAL
    for t, col in errs.items():
        fit = fit_rate(cfg.nu_ladder, col, rng_seed=cfg.seed)
        pretty = ", ".join(f"{e:.3e}" for e in col)
        print(f"t={t:g}: errors [{pretty}]")
        print(
            f"        exponent {fit.exponent:.4f} "
            f"[{fit.ci_low:.4f}, {fit.ci_high:.4f}]  R^2={fit.r_squared:.5f}"
        )
    print(f"elapsed {time.time() - t0:.1f}s")
    for msg in violations:
        print(f"invariant violation: {msg}", file=sys.stderr)
    return EXIT_VIOLATION if violations else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
