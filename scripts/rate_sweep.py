#!/usr/bin/env python3
"""Direct viscosity sweep without the transport/coupling overhead.

Runs ``vvlab.harness.hm1_sweep`` on a patch pair: the inviscid reference and a
viscosity ladder, then prints the velocity L2 error at each requested time and
the fitted exponent. Useful for quick rate exploration before committing to a
full experiment. A run that breaks its a-priori bounds is printed on stderr as
an invariant violation, and the script exits 1, as ``vvlab run`` does.

    python3 scripts/rate_sweep.py --n 128 --times 0.1 0.5 --nu-max 3e-3
"""

import argparse
import sys
import time

import numpy as np

from vvlab.fields import Grid2D
from vvlab.harness import hm1_sweep
from vvlab.initial_data import make_initial_data
from vvlab.ratefit import fit_rate


def ladder_size(raw: str) -> int:
    n = int(raw)
    if n < 4:
        raise argparse.ArgumentTypeError(f"a rate fit needs at least 4 viscosities, got {n}")
    return n


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=128)
    ap.add_argument("--length", type=float, default=0.4)
    ap.add_argument("--radius", type=float, default=0.08)
    ap.add_argument("--separation", type=float, default=0.2)
    ap.add_argument("--dt", type=float, default=2e-3)
    ap.add_argument("--nu-max", type=float, default=3e-3)
    ap.add_argument("--nu-min", type=float, default=3e-4)
    ap.add_argument("--ladder", type=ladder_size, default=5)
    ap.add_argument("--times", type=float, nargs="+", default=[0.1])
    args = ap.parse_args(argv)

    grid = Grid2D(args.n, args.length)
    omega0 = make_initial_data(
        "patch_pair", grid, radius=args.radius, separation=args.separation
    )
    nus = np.geomspace(args.nu_max, args.nu_min, args.ladder)

    t0 = time.time()
    errs, violations = hm1_sweep(omega0, nus, args.times, args.dt)
    for t in args.times:
        fit = fit_rate(nus, errs[t])
        pretty = ", ".join(f"{e:.3e}" for e in errs[t])
        print(f"t={t:g}: errors [{pretty}]")
        print(
            f"        exponent {fit.exponent:.4f} "
            f"[{fit.ci_low:.4f}, {fit.ci_high:.4f}]  R^2={fit.r_squared:.5f}"
        )
    print(f"elapsed {time.time() - t0:.1f}s")
    for msg in violations:
        print(f"invariant violation: {msg}", file=sys.stderr)
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main())
