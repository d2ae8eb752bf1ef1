#!/usr/bin/env python3
"""Corner-exponent fits across the contact angle.

For each theta the wedge-model field (exact power law at both corners) and
the FEM solution of the capillary problem are fitted on a graded planar cap
domain; prints lambda estimates against the leading wedge exponent
pi/(2 theta).  A theta whose corner window is too small for a fit at this
resolution prints a row that says so.
"""

import argparse
import math

from hklab import (
    capillary_problem,
    corner_exponent,
    make_cap,
    mesh_domain,
    mesh_surface,
    solution_from_field,
    solve_mixed_bvp,
    wedge_model_values,
)
from hklab.errors import WindowError


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--resolution", type=int, default=128)
    parser.add_argument("--grading", type=float, default=0.5)
    parser.add_argument("--thetas", default="0.6,0.7853981634,1.0471975512,1.3,1.5707963268")
    args = parser.parse_args()

    print(f"{'theta':>7s} {'pi/2theta':>9s} {'model lam':>9s} {'model R2':>8s} "
          f"{'fem beta':>8s} {'fem lam':>8s}")
    for theta in (float(t) for t in args.thetas.split(",")):
        cap = make_cap("half-space", theta, 1.0, 1)
        surf = mesh_surface(cap, args.resolution)
        dom = mesh_domain(surf, None, args.resolution, grading=args.grading)
        problem = capillary_problem(dom, theta)

        model = solution_from_field(problem, wedge_model_values(dom, theta))
        try:
            fit_m = corner_exponent(model, theta)
            fit_f = corner_exponent(solve_mixed_bvp(problem), theta)
        except WindowError as exc:
            print(f"{theta:7.4f} {math.pi / (2 * theta):9.4f}  corner window too small ({exc})")
            continue
        print(f"{theta:7.4f} {math.pi / (2 * theta):9.4f} {fit_m.lambda_hat:9.4f} "
              f"{fit_m.r2_growth:8.3f} {fit_f.beta_hat:+8.3f} {fit_f.lambda_hat:8.4f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
