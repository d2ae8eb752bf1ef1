"""Profile curves: capillary correction, perturbation, convexity flags."""

import math

import numpy as np
import pytest

from conftest import THETA3
from hklab import make_cap, make_axisymmetric, mesh_surface, perturb_profile, profile_from_cap
from hklab.errors import HkLabError, MeanConvexityError
from hklab.profiles import (
    ProfileCurve,
    measured_profile_angle,
    profile_mean_curvature,
)


def test_cap_profile_is_fixed_point(hs_cap1):
    prof = profile_from_cap(hs_cap1, 257)
    out = make_axisymmetric(prof, THETA3, "half-space")
    assert np.array_equal(out.samples, prof.samples)
    assert out.mean_convex is True


def test_cap_profile_mean_curvature(hs_cap2):
    prof = profile_from_cap(hs_cap2, 513)
    h = profile_mean_curvature(prof)
    assert np.max(np.abs(h[1:] - 2.0)) < 1e-3


def test_offset_tangent_is_corrected():
    # a profile meeting the support at 10 degrees off the requested angle
    wrong = profile_from_cap(make_cap("half-space", THETA3 + math.radians(10), 1.0, 1), 257)
    fixed = make_axisymmetric(wrong, THETA3, "half-space")
    assert abs(measured_profile_angle(fixed) - THETA3) < 1e-10
    assert abs(fixed.samples[-1, 1]) < 1e-12  # endpoint exactly on the support


def test_perturbation_preserves_capillarity(hs_cap1):
    prof = perturb_profile(profile_from_cap(hs_cap1, 513), 0.05)
    out = make_axisymmetric(prof, THETA3, "half-space", require_mean_convex=True)
    assert out.mean_convex is True
    h = profile_mean_curvature(out)
    assert h.max() - h.min() > 0.05  # genuinely non-CMC
    assert abs(measured_profile_angle(out) - THETA3) < 1e-12


def test_large_perturbation_fails_convexity(hs_cap1):
    prof = perturb_profile(profile_from_cap(hs_cap1, 513), 0.6)
    with pytest.raises(MeanConvexityError):
        make_axisymmetric(prof, THETA3, "half-space", require_mean_convex=True)


def test_halfball_profile_roundtrip(hb_cap1):
    prof = profile_from_cap(hb_cap1, 257)
    out = make_axisymmetric(prof, THETA3, "half-ball")
    assert np.array_equal(out.samples, prof.samples)
    pert = perturb_profile(prof, 0.02)
    fixed = make_axisymmetric(pert, THETA3, "half-ball", require_mean_convex=True)
    assert abs(np.linalg.norm(fixed.samples[-1]) - 1.0) < 1e-12


def test_self_intersection_rejected():
    samples = np.array([[0.0, 1.0], [0.5, 0.0], [0.0, 0.5], [0.6, 0.6]])
    prof = ProfileCurve(samples, __import__("hklab").Container.HALF_SPACE, None, dim=1)
    with pytest.raises(HkLabError):
        make_axisymmetric(prof, THETA3, "half-space")


def test_perturbed_surface_mesh_fields(hs_cap1):
    prof = make_axisymmetric(
        perturb_profile(profile_from_cap(hs_cap1, 513), 0.05), THETA3, "half-space"
    )
    mesh = mesh_surface(prof, 64)
    assert np.all(mesh.mean_curvature > 0)
    from hklab.surface import enclosed_volume_flux, frame_residual

    assert enclosed_volume_flux(mesh) > 0
    assert frame_residual(mesh) < 1e-12  # frames built from the exact end tangent


@pytest.mark.parametrize("container, radius", [("half-space", 1.0), ("half-ball", 0.5)])
def test_orthogonal_cap_profiles_pass_through_unchanged(container, radius):
    # pi/2 to ten decimals, the CLI spelling: the profile ends on the support at
    # the effective angle, so no tail is blended in
    theta = 1.5707963268
    exact = profile_from_cap(make_cap(container, theta, radius, 1))
    for prof in (exact, perturb_profile(exact, 0.02)):
        out = make_axisymmetric(prof, theta, container)
        assert np.array_equal(out.samples, prof.samples)
        assert np.array_equal(out.end_tangent, prof.end_tangent)
