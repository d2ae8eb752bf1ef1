#!/usr/bin/env python3
"""Strictness of the main inequality under growing perturbation.

Perturbs the unit cap profile by a normal bump of increasing amplitude and
tracks the inequality gap, the CMC defect, and the Cauchy-Schwarz margin of
the proof chain.  Amplitude 0 is the equality case.
"""

import argparse

from hklab import (
    alexandrov_certify,
    capillary_problem,
    hk_pipeline,
    hk_report,
    make_axisymmetric,
    make_cap,
    mesh_domain,
    mesh_surface,
    perturb_profile,
    profile_from_cap,
    reilly_sides,
    solve_mixed_bvp,
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--theta", type=float, default=1.0471975512)
    parser.add_argument("--resolution", type=int, default=96)
    parser.add_argument("--amplitudes", default="0.0,0.01,0.02,0.05,0.1")
    args = parser.parse_args()

    cap = make_cap("half-space", args.theta, 1.0, 1)
    print(f"{'eps':>6s} {'hk gap':>12s} {'cmc defect':>11s} {'cs margin':>12s} {'verdict':>8s}")
    for eps in (float(e) for e in args.amplitudes.split(",")):
        if eps == 0.0:
            source = cap
        else:
            prof = perturb_profile(profile_from_cap(cap, 1025), eps)
            source = make_axisymmetric(prof, args.theta, "half-space",
                                       require_mean_convex=True)
        surf = mesh_surface(source, args.resolution)
        dom = mesh_domain(surf, None, args.resolution, grading=0.0)
        report = hk_report(surf, dom)
        sol = solve_mixed_bvp(capillary_problem(dom))
        cs = hk_pipeline(surf, sol, reilly_sides(sol)).step("cauchy_schwarz")
        cert = alexandrov_certify(surf, dom)
        print(f"{eps:6.3f} {report.gap:12.4e} {cert.cmc_defect:11.4e} {cs.margin:12.4e} "
              f"{cert.verdict:>8s}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
