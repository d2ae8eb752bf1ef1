"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are pinned here and nowhere else.
"""

import json
import math
import time

import numpy as np
import pytest

from hklab import (
    alexandrov_certify,
    capillary_problem,
    check_identity,
    corner_exponent,
    exact_cap_solution,
    hk_pipeline,
    hk_report,
    make_axisymmetric,
    make_cap,
    mesh_domain,
    mesh_surface,
    perturb_profile,
    profile_from_cap,
    reilly_sides,
    solution_from_field,
    solve_mixed_bvp,
    wedge_model_values,
)
from hklab.identities import applicable_identities
from hklab.report import Scenario, run_scenario

THETA = math.pi / 3.0
RATE_FLOOR = 1e-12


def _announce(criterion: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def test_criterion_1_cap_equality():
    cap = make_cap("half-space", THETA, 1.0, 2)
    t0 = time.perf_counter()
    surf = mesh_surface(cap, 64)
    dom = mesh_domain(surf, None, 32, grading=0.0)
    rep = hk_report(surf, dom)
    elapsed = time.perf_counter() - t0
    # refinement trend relative to the half-resolution configuration
    coarse = hk_report(
        mesh_surface(cap, 32),
        mesh_domain(mesh_surface(cap, 32), None, 16, grading=0.0),
    )
    closed = math.pi * (1.0 - math.cos(THETA))
    ok = (
        abs(closed - math.pi / 2) < 1e-15
        and rep.relative_gap <= 5e-3
        and coarse.equality_flag
        and abs(rep.gap) < abs(coarse.gap)
        and elapsed <= 10.0
    )
    _announce(
        "criterion 1 (cap equality)",
        ok,
        f"lhs={rep.lhs:.6f} vs pi/2, rel gap={rep.relative_gap:.2e}, "
        f"|gap| {abs(rep.gap):.2e} < coarse {abs(coarse.gap):.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_identity_suite():
    configs = [
        ("half-space", 1.0, 1),
        ("half-space", 1.0, 2),
        ("half-ball", 0.5, 1),
        ("half-ball", 0.5, 2),
    ]
    worst_rel = 0.0
    worst_order = math.inf
    for container, radius, n in configs:
        cap = make_cap(container, THETA, radius, n)
        for ident in applicable_identities(cap.container):
            rel = []
            for res in (16, 32, 64):
                rel.append(check_identity(ident, mesh_surface(cap, res)).relative)
            worst_rel = max(worst_rel, rel[-1])
            if rel[-1] >= RATE_FLOOR:
                orders = [math.log2(a / b) for a, b in zip(rel, rel[1:])]
                worst_order = min(worst_order, float(np.mean(orders)))
    ok = worst_rel <= 1e-2 and worst_order >= 1.5
    _announce(
        "criterion 2 (identity suite)",
        ok,
        f"max relative residual {worst_rel:.2e} <= 1e-2, min order {worst_order:.2f} >= 1.5",
    )


def test_criterion_3_bvp_exactness():
    cap = make_cap("half-space", THETA, 1.0, 1)
    exact = exact_cap_solution(cap)
    errs, nvs = [], []
    c_used = None
    for res in (40, 80, 160):
        surf = mesh_surface(cap, res)
        dom = mesh_domain(surf, None, res, grading=0.0)
        problem = capillary_problem(dom)
        c_used = problem.flux_constant
        sol = solve_mixed_bvp(problem)
        e = sol.f - exact(dom.vertices)
        ref = exact(dom.vertices)
        num = np.sum(dom.cell_volumes * (e[dom.cells] ** 2).mean(axis=1))
        den = np.sum(dom.cell_volumes * (ref[dom.cells] ** 2).mean(axis=1))
        errs.append(math.sqrt(num / den))
        nvs.append(dom.num_vertices)
    orders = [math.log2(a / b) for a, b in zip(errs, errs[1:])]
    ok = (
        abs(c_used + 0.25) < 1e-10
        and nvs[-1] > 4000
        and errs[-1] <= 1e-2
        and all(1.7 <= o <= 2.3 for o in orders)
    )
    _announce(
        "criterion 3 (bvp exactness)",
        ok,
        f"c={c_used:.3f}, L2 rel={errs[-1]:.2e} at {nvs[-1]} vertices, "
        f"orders={[f'{o:.2f}' for o in orders]}",
    )


def test_criterion_4_reilly_formula():
    area = math.pi / 3 - math.sqrt(3) / 4
    cap = make_cap("half-space", THETA, 1.0, 1)
    surf = mesh_surface(cap, 64)
    dom = mesh_domain(surf, None, 64, grading=0.0)
    problem = capillary_problem(dom)
    fem = solve_mixed_bvp(problem)
    sides_fem = reilly_sides(fem)
    exact = solution_from_field(problem, exact_cap_solution(cap))
    sides_ex = reilly_sides(exact)

    ball = make_cap("half-ball", THETA, 0.5, 1)
    domb = mesh_domain(mesh_surface(ball, 96), None, 96, grading=0.0)
    problem_b = capillary_problem(domb)
    weighted = reilly_sides(solve_mixed_bvp(problem_b), weighted=True)

    ok = (
        sides_fem.relative_defect <= 3e-2
        and abs(sides_ex.volume_side - area / 2) / (area / 2) <= 3e-2
        and sides_ex.relative_defect <= 3e-2
        and weighted.relative_defect <= 5e-2
    )
    _announce(
        "criterion 4 (Reilly formula)",
        ok,
        f"defect fem={sides_fem.relative_defect:.2e}, exact vol-side err="
        f"{abs(sides_ex.volume_side - area / 2) / (area / 2):.2e}, "
        f"weighted ball defect={weighted.relative_defect:.2e}",
    )


def test_criterion_5_proof_chain():
    cap = make_cap("half-space", THETA, 1.0, 1)
    surf = mesh_surface(cap, 64)
    dom = mesh_domain(surf, None, 64, grading=0.0)
    problem = capillary_problem(dom)
    cap_solution = solve_mixed_bvp(problem)
    cap_trace = hk_pipeline(surf, cap_solution, reilly_sides(cap_solution))
    cap_ok = cap_trace.all_passed and cap_trace.equality_case
    eq_ok = all(
        abs(s.margin) <= 2e-2 * max(abs(s.lhs), abs(s.rhs))
        for s in cap_trace.steps
    )

    prof = make_axisymmetric(
        perturb_profile(profile_from_cap(cap, 513), 0.05), THETA, "half-space"
    )
    margins = []
    pert_ok = True
    for res in (128, 192):
        surf_p = mesh_surface(prof, res)
        dom_p = mesh_domain(surf_p, None, res, grading=0.0)
        sol_p = solve_mixed_bvp(capillary_problem(dom_p))
        trace = hk_pipeline(surf_p, sol_p, reilly_sides(sol_p))
        pert_ok = pert_ok and trace.all_passed and not trace.equality_case
        margins.append(trace.step("cauchy_schwarz").margin)
    strict_ok = all(m > 0 for m in margins) and margins[1] >= 0.5 * margins[0]

    ok = cap_ok and eq_ok and pert_ok and strict_ok
    _announce(
        "criterion 5 (proof chain replay)",
        ok,
        f"cap equality case={cap_ok}, all steps within 2%={eq_ok}, "
        f"perturbed CS margins={[f'{m:.2e}' for m in margins]} strict and stable",
    )


def test_criterion_6_corner_regularity():
    fits = {}
    for theta in (math.pi / 4, math.pi / 3):
        cap = make_cap("half-space", theta, 1.0, 1)
        surf = mesh_surface(cap, 128)
        dom = mesh_domain(surf, None, 128, grading=0.5)
        problem = capillary_problem(dom)
        sol = solution_from_field(problem, wedge_model_values(dom))
        fit = corner_exponent(sol)
        fits[theta] = fit.lambda_hat
    wedge_ok = all(
        abs(fits[t] - math.pi / (2 * t)) <= 0.1 for t in fits
    )

    cap = make_cap("half-space", math.pi / 2, 1.0, 1)
    surf = mesh_surface(cap, 96)
    dom = mesh_domain(surf, None, 96, grading=0.5)
    smooth = corner_exponent(solve_mixed_bvp(capillary_problem(dom)))
    smooth_ok = abs(smooth.beta_hat) <= 0.1

    ok = wedge_ok and smooth_ok
    _announce(
        "criterion 6 (corner regularity)",
        ok,
        f"lambda_hat={{pi/4: {fits[math.pi / 4]:.3f}, pi/3: {fits[math.pi / 3]:.3f}}}, "
        f"smooth beta_hat={smooth.beta_hat:+.3f}",
    )


def test_criterion_7_alexandrov_certification():
    results = []
    for container, radius, n in (("half-space", 1.0, 2), ("half-ball", 0.5, 2)):
        cap = make_cap(container, THETA, radius, n)
        surf = mesh_surface(cap, 48)
        dom = mesh_domain(surf, None, 24, grading=0.0)
        v = alexandrov_certify(surf, dom)
        results.append(
            v.verdict == "cap" and v.fit_rms <= 1e-2 * v.fit_radius
            and abs(v.fit_radius - radius) <= 1e-3 * radius
        )
    cap1 = make_cap("half-space", THETA, 1.0, 1)
    prof = make_axisymmetric(
        perturb_profile(profile_from_cap(cap1, 513), 0.05), THETA, "half-space"
    )
    surf_p = mesh_surface(prof, 64)
    dom_p = mesh_domain(surf_p, None, 64, grading=0.0)
    vp = alexandrov_certify(surf_p, dom_p)
    perturbed_ok = vp.verdict == "not cap" and vp.weighted_minkowski_gap > 0

    ok = all(results) and perturbed_ok
    _announce(
        "criterion 7 (Alexandrov certification)",
        ok,
        f"caps certified={results}, perturbed verdict={vp.verdict} "
        f"with weighted gap {vp.weighted_minkowski_gap:+.3e}",
    )


def test_criterion_8_determinism(tmp_path):
    scenario = dict(
        name="determinism",
        container="half-space",
        theta=THETA,
        dim=1,
        surface={"kind": "cap", "radius": 1.0},
        ladder=[16, 32],
        checks=["identities", "hk", "bvp", "reilly", "corner"],
    )
    blobs = []
    for run in range(2):
        report = run_scenario(Scenario(**scenario))
        from hklab.meshio import dumps_json

        blobs.append(dumps_json(report).encode())
    ok = blobs[0] == blobs[1]
    _announce(
        "criterion 8 (determinism)",
        ok,
        f"two full runs produced byte-identical reports ({len(blobs[0])} bytes)",
    )
