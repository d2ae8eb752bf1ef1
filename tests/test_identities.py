"""Integral identities: quadrature examples, residual convergence, errors."""

import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import THETA3
from hklab import (
    alexandrov_certify,
    check_identity,
    integrate_boundary,
    integrate_surface,
    make_axisymmetric,
    make_cap,
    mesh_domain,
    mesh_surface,
    perturb_profile,
    profile_from_cap,
)
from hklab.containers import Container
from hklab.errors import ContainerMismatchError, MeanConvexityError
from hklab.identities import IdentityId, Residual, applicable_identities
from hklab.surface import build_surface_mesh, discrete_geometry


def test_symbolic_cap_quantities():
    # pre-derivation of the closed-form table with an independent symbolic tool
    import sympy as sp

    theta, R, phi = sp.symbols("theta R phi", positive=True)
    area = sp.integrate(2 * sp.pi * R**2 * sp.sin(phi), (phi, 0, theta))
    assert sp.simplify(area - 2 * sp.pi * R**2 * (1 - sp.cos(theta))) == 0
    # solid of revolution below the spherical cap, above the plane
    z = sp.symbols("z")
    vol = sp.integrate(sp.pi * (R**2 - z**2), (z, R * sp.cos(theta), R))
    vol = sp.simplify(vol.subs(z, z))  # cap of height R - R cos(theta), shifted center
    target = sp.pi * R**3 * (1 - sp.cos(theta)) ** 2 * (2 + sp.cos(theta)) / 3
    assert sp.simplify(vol - target) == 0


def test_integrate_surface_examples(hs_surface2):
    ones = np.ones(hs_surface2.num_vertices)
    nu_z = hs_surface2.normals[:, -1]
    assert abs(integrate_surface(hs_surface2, ones) - math.pi) / math.pi < 2e-3
    t_ref = 3 * math.pi / 4
    assert abs(integrate_surface(hs_surface2, nu_z) - t_ref) / t_ref < 5e-3
    h_ref = 3 * math.pi / 2
    h_nu_z = hs_surface2.mean_curvature * nu_z
    assert abs(integrate_surface(hs_surface2, h_nu_z) - h_ref) / h_ref < 5e-3


def test_boundary_integrals(hs_surface2):
    ref = math.pi * math.sqrt(3.0)
    ones = np.ones(len(hs_surface2.boundary_vertices))
    assert abs(integrate_boundary(hs_surface2, ones) - ref) / ref < 2e-3


def _lookup_boundary_integral(mesh, vals) -> float:
    """The trapezoid loop sum with values found through a vertex -> slot dict."""
    index_of = {int(v): k for k, v in enumerate(mesh.boundary_vertices)}
    total = 0.0
    for loop in mesh.boundary_loops:
        pts = mesh.vertices[loop]
        seg = np.linalg.norm(np.roll(pts, -1, axis=0) - pts, axis=1)
        v = np.array([vals[index_of[int(i)]] for i in loop])
        total += float(np.sum(0.5 * seg * (v + np.roll(v, -1))))
    return total


def test_two_loop_boundary_integral_matches_lookup(hs_cap2):
    # the cap without its pole is an annulus; shuffled ids interleave the loops
    cap = mesh_surface(hs_cap2, 16)
    keep = ~np.any(cap.cells == 0, axis=1)
    perm = np.random.default_rng(5).permutation(cap.num_vertices - 1)
    vertices = np.empty_like(cap.vertices[1:])
    vertices[perm] = cap.vertices[1:]
    mesh = discrete_geometry(build_surface_mesh(
        2, Container.HALF_SPACE, hs_cap2.theta, vertices, perm[cap.cells[keep] - 1]))
    assert len(mesh.boundary_loops) == 2
    pts, mu = mesh.vertices[mesh.boundary_vertices], mesh.boundary_mu
    values = np.random.default_rng(6).normal(size=len(pts))
    for vals in (np.ones(len(pts)), mu[:, -1], np.einsum("ij,ij->i", pts, mu), values):
        assert integrate_boundary(mesh, vals) == _lookup_boundary_integral(mesh, vals)


def test_halfspace_identities_at_resolution(hs_surface2):
    for ident in applicable_identities(hs_surface2.container):
        res = check_identity(ident, hs_surface2)
        assert res.relative <= 1e-2, ident


def test_ball_identities(hb_cap2):
    surf = mesh_surface(hb_cap2, 48)
    for ident in applicable_identities(surf.container):
        res = check_identity(ident, surf)
        assert res.relative <= 1e-2, ident


def test_conservation_ball_form(hb_cap2):
    # residual of int_Sigma nu_z + int_T V, with the T integral reduced to Gamma
    surf = mesh_surface(hb_cap2, 64)
    res = check_identity(IdentityId.CONSERVATION_BALL, surf)
    assert res.relative <= 1e-2


def test_identity_convergence_order(hs_cap1, hb_cap1):
    for cap in (hs_cap1, hb_cap1):
        for ident in applicable_identities(cap.container):
            rel = []
            for res in (16, 32, 64):
                surf = mesh_surface(cap, res)
                rel.append(check_identity(ident, surf).relative)
            if rel[-1] < 1e-13:  # identically satisfied; no measurable rate
                continue
            orders = [math.log2(a / b) for a, b in zip(rel, rel[1:])]
            assert np.mean(orders) >= 1.5, (cap.container, ident, rel)


def test_structural_lemma_closed_sphere():
    surf = mesh_surface(make_cap("closed", None, 1.0, 2), 32)
    res = check_identity(IdentityId.STRUCTURAL_LEMMA, surf)
    # boundary side is empty; the surface side cancels by symmetry
    assert res.raw <= 1e-10


def test_minkowski_perturbed_decreases(hs_cap1):
    rel = []
    for res in (32, 64, 128):
        prof = perturb_profile(profile_from_cap(hs_cap1, 8 * res + 1), 0.05)
        prof = make_axisymmetric(prof, THETA3, "half-space")
        surf = mesh_surface(prof, res)
        rel.append(check_identity(IdentityId.MINKOWSKI_HALF_SPACE, surf).relative)
    assert rel[-1] <= 2e-2
    assert rel[0] > rel[-1]


def test_container_mismatch(hs_surface2):
    with pytest.raises(ContainerMismatchError):
        check_identity(IdentityId.CONSERVATION_BALL, hs_surface2)


def test_mean_convexity_abort(hs_cap2):
    surf = mesh_surface(hs_cap2, 16)
    dom = mesh_domain(surf, None, 8, grading=0.0)
    flipped = replace(surf, mean_curvature=-surf.mean_curvature)
    with pytest.raises(MeanConvexityError):
        alexandrov_certify(flipped, dom)


def test_residual_floor():
    r = Residual("x", raw=0.0, scale=0.0)
    assert r.relative == 0.0
