#!/usr/bin/env python3
"""Identity residual ladders across contact angles.

Sweeps theta over a grid for both containers and both surface dimensions,
prints a rate table and optionally writes the raw (theta, identity,
resolution, residual) rows as CSV.
"""

import argparse
import csv
import math

import numpy as np

from hklab import check_identity, make_cap, mesh_surface
from hklab.identities import applicable_identities


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--ladder", default="16,32,64")
    parser.add_argument("--thetas", default="0.5,0.7853981634,1.0471975512,1.5707963268")
    parser.add_argument("--dims", default="1,2")
    parser.add_argument("--out", default=None, help="CSV output path")
    args = parser.parse_args()

    ladder = [int(r) for r in args.ladder.split(",")]
    thetas = [float(t) for t in args.thetas.split(",")]
    dims = [int(d) for d in args.dims.split(",")]

    rows = []
    print(f"{'container':>10s} {'n':>2s} {'theta':>7s} {'identity':>24s} "
          f"{'residual@' + str(ladder[-1]):>14s} {'order':>6s}")
    for container, radius in (("half-space", 1.0), ("half-ball", 0.5)):
        for n in dims:
            for theta in thetas:
                cap = make_cap(container, theta, radius, n)
                for ident in applicable_identities(cap.container):
                    rel = []
                    for res in ladder:
                        r = check_identity(ident, mesh_surface(cap, res))
                        rel.append(r.relative)
                        rows.append([container, n, theta, ident.value, res, r.relative])
                    if rel[-1] > 1e-13:
                        orders = [math.log2(a / b) for a, b in zip(rel, rel[1:])]
                        order = f"{np.mean(orders):6.2f}"
                    else:
                        order = " exact"
                    print(f"{container:>10s} {n:>2d} {theta:7.4f} {ident.value:>24s} "
                          f"{rel[-1]:14.3e} {order}")

    if args.out:
        with open(args.out, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["container", "n", "theta", "identity", "resolution", "relative"])
            writer.writerows(rows)
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
