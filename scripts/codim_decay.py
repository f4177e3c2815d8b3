#!/usr/bin/env python3
"""Track |A^-|^2 / f along the shrinking S^7(1) x S^1(4) product.

The ratio collapses as the pinching quantity f blows up: the flow becomes
codimension one near the singularity in a quantifiable way.  Writes the full
time series next to this script when --out is given.

    python scripts/codim_decay.py [--dt 1e-5] [--out series.csv]
"""

import argparse

import numpy as np

from pinchflow.constants import PinchingConstants
from pinchflow.flow import ProductSpheresFlow, simulate, write_csv
from pinchflow.forms import Dims


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--dt", type=float, default=1e-5)
    ap.add_argument("--out", default=None)
    args = ap.parse_args()

    family = ProductSpheresFlow(7, 1, 2, 1.0, 4.0)
    constants = PinchingConstants(Dims(family.n, family.m), 1 / 6)
    series = simulate(
        family, constants, dt=args.dt, t_end=0.9995 * family.blowup_time()
    )
    f0 = series.f[0]
    rc0 = series.ratio_codim[0]

    print(f"f(0) = {f0:.6f}, ratio_codim(0) = {rc0:.6f}, "
          f"ratio_pinch(0) = {series.ratio_pinch[0]:.6f}")
    print(f"{'f/f(0)':>10} {'t':>12} {'a':>10} {'ratio_codim':>13} {'decay':>9}")
    for target in (1, 3, 10, 30, 100, 300, 1000):
        hit = np.flatnonzero(series.f >= target * f0)
        if not hit.size:
            break
        i = hit[0]
        print(f"{target:>10} {series.t[i]:>12.7f} {series.param1[i]:>10.5f} "
              f"{series.ratio_codim[i]:>13.3e} {rc0 / series.ratio_codim[i]:>9.1f}x")
    if args.out:
        write_csv(series, args.out)
        print(f"wrote {len(series)} records to {args.out}")


if __name__ == "__main__":
    main()
