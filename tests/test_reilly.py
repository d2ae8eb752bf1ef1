"""Reilly sides, the weighted formula, and the inequality chain replay."""

import math

import numpy as np
import pytest

from conftest import THETA3, l2_relative_error
from hklab import (
    capillary_problem,
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
)
from hklab.bvp import MixedBvpProblem
from hklab.reilly import ReillySides
from hklab.errors import ConstantMismatchError, HkLabError

AREA_N1 = math.pi / 3 - math.sqrt(3) / 4


def test_volume_side_closed_form_exact_path(hs_exact_solution1, hs_domain1):
    sides = reilly_sides(hs_exact_solution1)
    assert abs(sides.volume_side - AREA_N1 / 2) / (AREA_N1 / 2) <= 3e-2
    assert sides.relative_defect <= 3e-2


def test_volume_side_fem_path(hs_domain1, hs_solution1):
    sides = reilly_sides(hs_solution1)
    assert abs(sides.volume_side - AREA_N1 / 2) / (AREA_N1 / 2) <= 3e-2
    assert sides.relative_defect <= 3e-2


def test_volume_side_n2(hs_cap2):
    surf = mesh_surface(hs_cap2, 16)
    dom = mesh_domain(surf, None, 16, grading=0.0)
    problem = capillary_problem(dom)
    sol = solution_from_field(problem, exact_cap_solution(hs_cap2))
    sides = reilly_sides(sol)
    target = (2.0 / 3.0) * 5 * math.pi / 24
    assert abs(sides.volume_side - target) / target <= 3e-2
    assert sides.relative_defect <= 3e-2


def test_defect_refinement_order(hs_cap1):
    defects = []
    for res in (32, 64, 128):
        surf = mesh_surface(hs_cap1, res)
        dom = mesh_domain(surf, None, res, grading=0.0)
        sol = solve_mixed_bvp(capillary_problem(dom))
        defects.append(abs(reilly_sides(sol).defect))
    orders = [math.log2(a / b) for a, b in zip(defects, defects[1:])]
    assert min(orders) >= 0.9  # recovery near Gamma limits the rate to ~1


def test_zero_field_gives_zero_sides(hs_domain1):
    problem = MixedBvpProblem(hs_domain1, np.zeros(hs_domain1.num_vertices), 0.0)
    sol = solution_from_field(problem, np.zeros(hs_domain1.num_vertices))
    sides = reilly_sides(sol)
    assert sides.volume_side == 0.0
    assert sides.boundary_side == 0.0


def test_weighted_ball_defect(hb_cap1):
    surf = mesh_surface(hb_cap1, 96)
    dom = mesh_domain(surf, None, 96, grading=0.0)
    problem = capillary_problem(dom)
    exact = solution_from_field(problem, exact_cap_solution(hb_cap1))
    sw = reilly_sides(exact, weighted=True)
    assert sw.relative_defect <= 5e-2
    target = 0.5 * hb_cap1.quantities["int_volume_height"]
    assert abs(sw.volume_side - target) / target <= 5e-2
    fem = solve_mixed_bvp(problem)
    swf = reilly_sides(fem, weighted=True)
    assert swf.relative_defect <= 5e-2


def test_weighted_preconditions(hs_domain1, hs_solution1):
    with pytest.raises(HkLabError):
        reilly_sides(hs_solution1, weighted=True)


def test_weighted_needs_nonnegative_height():
    cap = make_cap("closed", None, 1.0, 1)  # disk centered at the origin: z < 0 below
    dom = mesh_domain(mesh_surface(cap, 48), None, 48)
    problem = MixedBvpProblem(dom, np.ones(dom.num_vertices), 0.0)
    sol = solve_mixed_bvp(problem)
    with pytest.raises(HkLabError):
        reilly_sides(sol, weighted=True)


def test_translated_weighted_consistency():
    # far above the support x_d is nearly constant: weighted ~ height x unweighted
    defects = []
    for height in (10.0, 50.0):
        cap = make_cap("closed", None, 1.0, 1, center=np.array([0.0, height]))
        dom = mesh_domain(mesh_surface(cap, 64), None, 64)
        problem = MixedBvpProblem(dom, np.ones(dom.num_vertices), 0.0)
        sol = solve_mixed_bvp(problem)
        uw = reilly_sides(sol, weighted=False)
        w = reilly_sides(sol, weighted=True)
        defects.append(abs(w.volume_side / (height * uw.volume_side) - 1.0))
    assert defects[1] <= 1e-2
    assert defects[1] < defects[0]


def test_pipeline_cap_equality_case(hs_domain1, hs_exact_solution1, hs_surface1):
    trace = hk_pipeline(hs_surface1, hs_exact_solution1, reilly_sides(hs_exact_solution1))
    assert trace.all_passed
    assert trace.equality_case
    for step in trace.steps:
        scale = max(abs(step.lhs), abs(step.rhs))
        assert abs(step.margin) <= 2e-2 * scale, step.name
    assert trace.rigidity is not None
    assert trace.rigidity["max_hessian_deviation"] <= 1e-2
    assert trace.rigidity["max_sigma_shape_deviation"] <= 1e-2


def test_pipeline_fem_cap(hs_domain1, hs_solution1, hs_surface1):
    trace = hk_pipeline(hs_surface1, hs_solution1, reilly_sides(hs_solution1))
    assert trace.all_passed


def test_pipeline_exact_chain_values(hs_cap2):
    # closed-form chain of the n = 2 cap: int f_nu = pi/3 and the Hoelder equality
    surf = mesh_surface(hs_cap2, 20)
    dom = mesh_domain(surf, None, 16, grading=0.0)
    problem = capillary_problem(dom)
    sol = solution_from_field(problem, exact_cap_solution(hs_cap2))
    trace = hk_pipeline(surf, sol, reilly_sides(sol))
    div = trace.step("divergence")
    assert abs(div.lhs - 5 * math.pi / 24) / (5 * math.pi / 24) < 1e-2
    bal = trace.step("capillary_balance")
    assert abs(bal.lhs - math.pi / 3) / (math.pi / 3) < 1e-2
    hold = trace.step("hoelder")
    ref = (2 * math.pi / 9) * (math.pi / 2)
    assert abs(hold.lhs - ref) / ref < 2e-2
    final = trace.step("heintze_karcher")
    assert abs(final.lhs - math.pi / 2) / (math.pi / 2) < 1e-2


def test_pipeline_ball_equality(hb_cap1):
    surf = mesh_surface(hb_cap1, 96)
    dom = mesh_domain(surf, None, 96, grading=0.0)
    sol = solve_mixed_bvp(capillary_problem(dom))
    trace = hk_pipeline(surf, sol, reilly_sides(sol, weighted=True))
    assert trace.all_passed
    assert trace.equality_case


def test_pipeline_perturbed_strict(hs_cap1):
    # the perturbed solution is only C^{1, 1/2} at the corners, so the
    # pointwise corner flux converges at half order: 128 is where 2% closes
    prof = make_axisymmetric(
        perturb_profile(profile_from_cap(hs_cap1, 513), 0.05), THETA3, "half-space"
    )
    margins = []
    for res in (128, 192):
        surf = mesh_surface(prof, res)
        dom = mesh_domain(surf, None, res, grading=0.0)
        sol = solve_mixed_bvp(capillary_problem(dom))
        trace = hk_pipeline(surf, sol, reilly_sides(sol))
        assert trace.all_passed
        cs = trace.step("cauchy_schwarz")
        margins.append(cs.margin)
        assert not trace.equality_case
    assert all(m > 0 for m in margins)
    assert margins[1] >= 0.5 * margins[0]


def test_pipeline_refuses_wrong_constant(hs_domain1, hs_surface1):
    wrong = MixedBvpProblem(hs_domain1, np.ones(hs_domain1.num_vertices), -0.3)
    sol = solve_mixed_bvp(wrong)
    with pytest.raises(ConstantMismatchError):
        hk_pipeline(hs_surface1, sol, reilly_sides(sol))


def test_pipeline_refuses_sides_of_the_other_weighting(hs_surface1, hs_solution1):
    sides = reilly_sides(hs_solution1)
    weighted = ReillySides(sides.volume_side, sides.boundary_side, weighted=True)
    with pytest.raises(HkLabError, match="unweighted"):
        hk_pipeline(hs_surface1, hs_solution1, weighted)


def test_pipeline_agrees_with_hk_report(hs_surface1, hs_domain1, hs_solution1):
    trace = hk_pipeline(hs_surface1, hs_solution1, reilly_sides(hs_solution1))
    report = hk_report(hs_surface1, hs_domain1)
    # same gap up to twice the dominant single-integral quadrature error
    scale = max(abs(report.lhs), abs(report.rhs_form2))
    assert abs(trace.final_gap - report.gap) <= 2e-2 * scale


@pytest.fixture(scope="module")
def hb_solution1(hb_cap1):
    dom = mesh_domain(mesh_surface(hb_cap1, 32), None, 32, grading=0.0)
    return solve_mixed_bvp(capillary_problem(dom))


def _count_calls(monkeypatch, name):
    import hklab.reilly

    calls = []
    original = getattr(hklab.reilly, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(hklab.reilly, name, counting)
    return calls


@pytest.mark.parametrize("container", ["half-space", "half-ball"])
def test_pipeline_reads_the_gamma_flux_of_its_sides(container, hs_solution1, hs_surface1,
                                                    hb_cap1, hb_solution1, monkeypatch):
    ball = container == "half-ball"
    solution = hb_solution1 if ball else hs_solution1
    surface = mesh_surface(hb_cap1, 32) if ball else hs_surface1
    sides = reilly_sides(solution, weighted=ball)
    calls = _count_calls(monkeypatch, "gamma_t_flux")
    trace = hk_pipeline(surface, solution, sides)
    assert calls == []
    flux = sides.parts["gamma_flux_weighted" if ball else "gamma_flux"]
    assert trace.step("corner_flux").lhs == flux


@pytest.mark.parametrize("container, robin, weighted, calls", [
    ("half-space", 0, False, 0),
    ("half-ball", 1, False, 1),
    ("half-ball", 1, True, 0),
])
def test_t_trace_gradients_only_where_read(container, robin, weighted, calls, hs_solution1,
                                           hb_solution1, monkeypatch):
    solution = hb_solution1 if container == "half-ball" else hs_solution1
    assert solution.problem.robin_gamma == robin
    counted = _count_calls(monkeypatch, "_t_trace_gradients")
    reilly_sides(solution, weighted=weighted)
    assert len(counted) == calls
