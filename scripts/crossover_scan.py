#!/usr/bin/env python3
"""Scan the crossover time t1 and the envelope rates over a viscosity range.

Needs 0 < --nu-min <= --nu-max < 1, --points >= 1, --c > 0 and --t-fixed >= 0;
any other value exits 2 with a message naming its flag, before the scan.

    python3 scripts/crossover_scan.py --nu-min 1e-10 --nu-max 1e-2
"""

import argparse
import sys

import numpy as np

from vvlab.cli import EXIT_CONFIG, EXIT_OK
from vvlab.envelope import crossover_time, fixed_time_rate, short_time_rate


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--nu-min", type=float, default=1e-10)
    ap.add_argument("--nu-max", type=float, default=1e-2)
    ap.add_argument("--points", type=int, default=9)
    ap.add_argument("--c", type=float, default=1.0)
    ap.add_argument("--t-fixed", type=float, default=1.0)
    args = ap.parse_args(argv)
    for ok, message in [
        (args.nu_min > 0, f"--nu-min must be > 0, got {args.nu_min:g}"),
        (args.nu_max >= args.nu_min, f"--nu-max must be >= --nu-min {args.nu_min:g}, got {args.nu_max:g}"),
        (args.nu_max < 1, f"--nu-max must be < 1, got {args.nu_max:g}"),
        (args.points >= 1, f"--points must be >= 1, got {args.points}"),
        (args.c > 0, f"--c must be > 0, got {args.c:g}"),
        (args.t_fixed >= 0, f"--t-fixed must be >= 0, got {args.t_fixed:g}"),
    ]:
        if not ok:
            print(f"configuration error: {message}", file=sys.stderr)
            return EXIT_CONFIG

    print(f"{'nu':>10} {'t1':>12} {'t1*log(1/nu)':>14} {'residual':>10} "
          f"{'sqrt(nu t1)':>12} {'fixed-t rate':>12}")
    for nu in np.geomspace(args.nu_min, args.nu_max, args.points):
        res = crossover_time(float(nu))
        short = short_time_rate(float(nu), res.t1)
        fixed = fixed_time_rate(float(nu), args.t_fixed, args.c)
        print(
            f"{nu:>10.1e} {res.t1:>12.6f} {res.t1 * np.log(1 / nu):>14.4f} "
            f"{res.residual:>10.1e} {short:>12.4e} {fixed:>12.4e}"
        )
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
