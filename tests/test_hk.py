"""Heintze-Karcher reports: equality cases, form equivalence, invariances."""

import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import THETA3, rotate_z
from hklab import (
    alexandrov_certify,
    hk_report,
    make_axisymmetric,
    make_cap,
    mesh_domain,
    mesh_surface,
    perturb_profile,
    profile_from_cap,
)
from hklab.errors import ContainerMismatchError, MeanConvexityError


def test_symbolic_equality_both_forms():
    # both right-hand sides equal pi (1 - cos theta) for the unit cap, symbolically
    import sympy as sp

    theta = sp.symbols("theta", positive=True)
    area_T = sp.pi * sp.sin(theta) ** 2
    gamma = 2 * sp.pi * sp.sin(theta)
    vol = sp.pi * (1 - sp.cos(theta)) ** 2 * (2 + sp.cos(theta)) / 3
    lhs = sp.pi * (1 - sp.cos(theta))  # area / H with H = 2
    rhs2 = sp.Rational(3, 2) * vol + sp.cos(theta) / sp.sin(theta) * area_T**2 / gamma
    int_nu = area_T
    int_h_nu = 2 * area_T
    rhs1 = sp.Rational(3, 2) * vol + sp.cos(theta) * int_nu**2 / int_h_nu
    assert sp.simplify(lhs - rhs2) == 0
    assert sp.simplify(lhs - rhs1) == 0
    assert sp.simplify(lhs.subs(theta, sp.pi / 3) - sp.pi / 2) == 0


def test_cap_equality_n2(hs_cap2):
    fine_pair = (
        mesh_surface(hs_cap2, 64),
        mesh_domain(mesh_surface(hs_cap2, 64), None, 32, grading=0.0),
    )
    surf = mesh_surface(hs_cap2, 32)
    dom = mesh_domain(surf, "half-space", 16, grading=0.0)
    rep = hk_report(surf, dom, refined=fine_pair)
    assert abs(rep.lhs - math.pi / 2) / (math.pi / 2) < 2e-3
    assert rep.relative_gap <= 5e-3
    assert rep.equality_flag
    assert abs(rep.refined_gap) <= abs(rep.gap)


def test_forms_agree(hs_cap2):
    surf = mesh_surface(hs_cap2, 64)
    dom = mesh_domain(surf, None, 32, grading=0.0)
    rep = hk_report(surf, dom)
    scale = max(abs(rep.rhs_form1), abs(rep.rhs_form2))
    assert abs(rep.rhs_form1 - rep.rhs_form2) / scale < 1e-2


def test_ball_cap_equality(hb_cap2):
    surf = mesh_surface(hb_cap2, 48)
    dom = mesh_domain(surf, None, 32, grading=0.0)
    rep = hk_report(surf, dom)
    assert rep.relative_gap <= 5e-3
    scale = max(abs(rep.rhs_form1), abs(rep.rhs_form2))
    assert abs(rep.rhs_form1 - rep.rhs_form2) / scale < 1e-2


def test_classical_sphere():
    cap = make_cap("closed", None, 1.0, 2)
    surf = mesh_surface(cap, 64)
    dom = mesh_domain(surf, None, 32)
    rep = hk_report(surf, dom)
    assert abs(rep.lhs - 2 * math.pi) / (2 * math.pi) < 2e-3
    assert rep.relative_gap <= 5e-3


def test_perturbed_gap_positive_and_stable(hs_cap1):
    gaps = []
    for res in (64, 128):
        prof = make_axisymmetric(
            perturb_profile(profile_from_cap(hs_cap1, 513), 0.05), THETA3, "half-space"
        )
        surf = mesh_surface(prof, res)
        dom = mesh_domain(surf, None, res, grading=0.0)
        gaps.append(hk_report(surf, dom).gap)
    assert all(g > 0 for g in gaps)
    assert abs(gaps[1] / gaps[0] - 1.0) < 0.2


def test_gap_scales_with_power_n_plus_one():
    reports = []
    for radius in (1.0, 2.0):
        cap = make_cap("half-space", THETA3, radius, 2)
        surf = mesh_surface(cap, 24)
        dom = mesh_domain(surf, None, 16, grading=0.0)
        reports.append(hk_report(surf, dom))
    scale = 2.0 ** 3
    assert abs(reports[1].gap - scale * reports[0].gap) <= 1e-10 * max(
        1.0, abs(scale * reports[0].gap)
    )
    assert abs(reports[1].lhs - scale * reports[0].lhs) <= 1e-10 * reports[1].lhs


def test_rotation_invariance_halfball(hb_cap2):
    surf = mesh_surface(hb_cap2, 24)
    dom = mesh_domain(surf, None, 16, grading=0.0)
    base = hk_report(surf, dom)
    ang = 1.234
    surf_r = replace(
        surf,
        vertices=rotate_z(surf.vertices, ang),
        normals=rotate_z(surf.normals, ang),
        boundary_mu=rotate_z(surf.boundary_mu, ang),
        boundary_conormal_support=rotate_z(surf.boundary_conormal_support, ang),
        boundary_support_normal=rotate_z(surf.boundary_support_normal, ang),
    )
    dom_r = replace(dom, vertices=rotate_z(dom.vertices, ang))
    rot = hk_report(surf_r, dom_r)
    for key in base.components:
        a, b = base.components[key], rot.components[key]
        assert abs(a - b) <= 1e-12 * max(1.0, abs(a)), key
    assert abs(base.gap - rot.gap) <= 1e-12


def test_mean_convexity_rejection(hs_cap2):
    surf = mesh_surface(hs_cap2, 16)
    dom = mesh_domain(surf, None, 12, grading=0.0)
    bad = replace(surf, mean_curvature=surf.mean_curvature - 2.5)
    with pytest.raises(MeanConvexityError):
        hk_report(bad, dom)


def test_surface_and_domain_share_one_container(hs_cap2, hb_cap2):
    # container and angle come from the meshes; the pair must agree on the container
    surf = mesh_surface(hs_cap2, 8)
    dom = mesh_domain(mesh_surface(hb_cap2, 8), None, 8, grading=0.0)
    with pytest.raises(ContainerMismatchError):
        hk_report(surf, dom)


def test_alexandrov_cap_verdicts(hs_cap2):
    surf = mesh_surface(hs_cap2, 48)
    dom = mesh_domain(surf, None, 32, grading=0.0)
    v = alexandrov_certify(surf, dom)
    assert v.verdict == "cap"
    assert abs(v.fit_radius - 1.0) < 1e-3
    assert v.fit_rms <= 1e-2 * v.fit_radius
    scale = (surf.dim + 1.0) * dom.volume
    assert abs(v.weighted_minkowski_gap) <= 5e-3 * scale


def test_alexandrov_hemisphere():
    cap = make_cap("half-space", math.pi / 2, 1.0, 2)
    surf = mesh_surface(cap, 32)
    dom = mesh_domain(surf, None, 20, grading=0.0)
    assert alexandrov_certify(surf, dom).verdict == "cap"


def test_alexandrov_perturbed_not_cap(hs_cap1):
    prof = make_axisymmetric(
        perturb_profile(profile_from_cap(hs_cap1, 513), 0.05), THETA3, "half-space"
    )
    surf = mesh_surface(prof, 64)
    dom = mesh_domain(surf, None, 64, grading=0.0)
    v = alexandrov_certify(surf, dom)
    assert v.verdict == "not cap"
    assert v.cmc_defect > 1e-2
    assert v.weighted_minkowski_gap > 0
