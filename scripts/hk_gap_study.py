#!/usr/bin/env python3
"""Strictness of the main inequality under growing perturbation.

Perturbs the unit cap profile by a normal bump of increasing amplitude and
tracks the inequality gap and the CMC defect.  Amplitude 0 is the equality
case.  Both read the surface and the domain's boundary only, so no cell is
built and the resolution can go high; the Cauchy-Schwarz margin of the proof
chain needs a solve, and `hk run --checks reilly` reports it per rung.
"""

import argparse

from hklab import (
    alexandrov_certify,
    domain_boundary,
    hk_report,
    make_axisymmetric,
    make_cap,
    mesh_surface,
    perturb_profile,
    profile_from_cap,
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--theta", type=float, default=1.0471975512)
    parser.add_argument("--resolution", type=int, default=96)
    parser.add_argument("--amplitudes", default="0.0,0.01,0.02,0.05,0.1")
    args = parser.parse_args()

    cap = make_cap("half-space", args.theta, 1.0, 1)
    print(f"{'eps':>6s} {'hk gap':>12s} {'cmc defect':>11s} {'verdict':>8s}")
    for eps in (float(e) for e in args.amplitudes.split(",")):
        if eps == 0.0:
            source = cap
        else:
            prof = perturb_profile(profile_from_cap(cap, 1025), eps)
            source = make_axisymmetric(prof, args.theta, "half-space")
        surf = mesh_surface(source, args.resolution)
        boundary = domain_boundary(surf, None, args.resolution, grading=0.0)
        report = hk_report(surf, boundary)
        cert = alexandrov_certify(surf, boundary)
        print(f"{eps:6.3f} {report.gap:12.4e} {cert.cmc_defect:11.4e} {cert.verdict:>8s}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
