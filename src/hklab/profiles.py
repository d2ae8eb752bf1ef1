"""Axisymmetric generator curves for non-spherical capillary test surfaces.

A profile is an ordered polyline of (rho, z) samples running from the
rotation axis (rho = 0) to the support, or to the axis again when closed.
surface.mesh_surface revolves it about the x_d-axis for surface dimension 2
and mirrors it across the axis into one chain for dimension 1.  Profiles
carry their own discrete field estimators (tangent, outward normal, profile
curvature); geometric fields of meshes generated from a profile come from
these estimators rather than from mesh-based ones.  profile_from_cap samples
the cap's own parametrisation (AnalyticCap.generator over polar_span).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from hklab.containers import (
    Container,
    ContactAngle,
    as_angle,
    contact_angle,
    gamma_frame,
    support_deviation,
    support_normal,
)
from hklab.errors import HkLabError
from hklab.meshutil import circumcircle_curvature

# orientation of the outward normal relative to the pole-to-support tangent:
# +1 rotates the tangent by +90 degrees, -1 by -90 degrees
_NORMAL_SIGN = {Container.HALF_SPACE: 1.0, Container.CLOSED: 1.0, Container.HALF_BALL: -1.0}


@dataclass(frozen=True)
class ProfileCurve:
    samples: np.ndarray  # (m, 2) of (rho, z), pole first, support endpoint last
    container: Container
    theta: ContactAngle | None
    dim: int = 2
    end_tangent: np.ndarray | None = None  # unit tangent at the support endpoint

    def __post_init__(self) -> None:
        s = np.asarray(self.samples, dtype=float)
        if s.ndim != 2 or s.shape[1] != 2 or s.shape[0] < 4:
            raise HkLabError("profile needs at least 4 (rho, z) samples")
        if np.any(s[:, 0] < -1e-12):
            raise HkLabError("profile rho coordinates must be nonnegative")
        object.__setattr__(self, "samples", s)

    @property
    def arclengths(self) -> np.ndarray:
        seg = np.linalg.norm(np.diff(self.samples, axis=0), axis=1)
        return np.concatenate([[0.0], np.cumsum(seg)])

    @property
    def length(self) -> float:
        return float(self.arclengths[-1])


def _rot(vec: np.ndarray, sign: float) -> np.ndarray:
    """Rotate 2-vectors by +-90 degrees."""
    out = np.empty_like(vec)
    out[..., 0] = -sign * vec[..., 1]
    out[..., 1] = sign * vec[..., 0]
    return out


def profile_tangents(profile: ProfileCurve) -> np.ndarray:
    s = profile.samples
    t = np.empty_like(s)
    t[1:-1] = s[2:] - s[:-2]
    t[0] = s[1] - s[0]
    t[-1] = s[-1] - s[-2]
    t /= np.linalg.norm(t, axis=1, keepdims=True)
    if profile.end_tangent is not None:
        t[-1] = profile.end_tangent
    return t


def profile_normals(profile: ProfileCurve) -> np.ndarray:
    return _rot(profile_tangents(profile), _NORMAL_SIGN[profile.container])


def profile_curvature(profile: ProfileCurve) -> np.ndarray:
    """Signed generator curvature w.r.t. the outward normal (circumcircle rule)."""
    return -_NORMAL_SIGN[profile.container] * circumcircle_curvature(profile.samples, False)


def profile_mean_curvature(profile: ProfileCurve) -> np.ndarray:
    """H = trace of the shape operator of the generated surface at each sample."""
    kappa = profile_curvature(profile)
    if profile.dim == 1:
        return kappa
    normals = profile_normals(profile)
    rho = profile.samples[:, 0]
    azim = np.where(rho > 1e-12, normals[:, 0] / np.where(rho > 0, rho, 1.0), kappa)
    return kappa + (profile.dim - 1) * azim


def measured_profile_angle(profile: ProfileCurve) -> float:
    """Contact angle implied by the stored endpoint tangent."""
    nu = _rot(profile_tangents(profile)[-1], _NORMAL_SIGN[profile.container])
    return contact_angle(nu, support_normal(profile.container, profile.samples[-1:])[0])


def _is_simple(samples: np.ndarray) -> bool:
    """Segment-pair intersection test, adjacency excluded."""
    a = samples[:-1]
    b = samples[1:]
    m = len(a)
    if m < 3:
        return True
    ii, jj = np.triu_indices(m, k=2)
    p, r = a[ii], b[ii] - a[ii]
    q, s = a[jj], b[jj] - a[jj]
    rxs = r[:, 0] * s[:, 1] - r[:, 1] * s[:, 0]
    qp = q - p
    t_num = qp[:, 0] * s[:, 1] - qp[:, 1] * s[:, 0]
    u_num = qp[:, 0] * r[:, 1] - qp[:, 1] * r[:, 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        t = t_num / rxs
        u = u_num / rxs
    hit = (np.abs(rxs) > 1e-14) & (t > 1e-12) & (t < 1 - 1e-12) & (u > 1e-12) & (u < 1 - 1e-12)
    return not bool(np.any(hit))


def profile_from_cap(cap, samples: int = 257) -> ProfileCurve:
    """Generator polyline of an analytic cap, pole first, at uniform polar steps."""
    pts = cap.generator(np.linspace(0.0, cap.polar_span, samples))
    t_end = (gamma_frame(cap.container, cap.theta, pts[-1])[0][0]
             if cap.container.has_support else None)
    return ProfileCurve(pts, cap.container, cap.theta, cap.dim, t_end)


def perturb_profile(profile: ProfileCurve, amplitude: float) -> ProfileCurve:
    """Normal perturbation by a bump vanishing to second order at the support.

    The bump cos^2(pi s / 2) of the arclength fraction s peaks at the pole.
    Contact angle and endpoint are preserved exactly.
    """
    s = profile.arclengths / profile.length
    bump = np.cos(0.5 * math.pi * s) ** 2
    normals = profile_normals(profile)
    pts = profile.samples + amplitude * bump[:, None] * normals
    pts[0, 0] = 0.0  # pole stays on the axis
    pts[-1] = profile.samples[-1]
    return replace(profile, samples=pts)


def resample_profile(profile: ProfileCurve, count: int) -> ProfileCurve:
    """Arclength-uniform resampling to count + 1 samples."""
    s = profile.arclengths
    target = np.linspace(0.0, s[-1], count + 1)
    pts = np.column_stack(
        [np.interp(target, s, profile.samples[:, 0]), np.interp(target, s, profile.samples[:, 1])]
    )
    pts[0] = profile.samples[0]
    pts[-1] = profile.samples[-1]
    return replace(profile, samples=pts)


def make_axisymmetric(
    profile: ProfileCurve,
    theta: float | ContactAngle,
    container: Container | str,
) -> ProfileCurve:
    """Correct a profile into an exactly capillary one.

    The endpoint is projected onto the support, the endpoint tangent is set to
    the direction realizing contact angle theta, and the last quarter of the
    curve (by arclength) is replaced by a cubic Hermite blend.  Profiles
    already capillary within 1e-12 are returned unchanged.
    """
    from hklab.containers import parse_container

    container = parse_container(container)
    angle = as_angle(theta)
    if not _is_simple(profile.samples):
        raise HkLabError("profile polyline is self-intersecting")
    prof = replace(profile, container=container, theta=angle)

    deviation = abs(float(support_deviation(container, prof.samples[-1:])[0]))
    endpoint = prof.samples[-1]
    if container is Container.HALF_SPACE:
        target = np.array([endpoint[0], 0.0])
    else:
        target = endpoint / np.linalg.norm(endpoint)
    t_cap = gamma_frame(container, angle, target)[0][0]
    if deviation <= 1e-12 and prof.end_tangent is not None:
        if abs(measured_profile_angle(prof) - angle.effective) <= 1e-12:
            return prof

    # Hermite blend over the tail of the curve
    s = prof.arclengths
    anchor = int(np.searchsorted(s, 0.75 * s[-1]))
    anchor = min(max(anchor, 1), len(s) - 3)
    p0 = prof.samples[anchor]
    t0 = profile_tangents(prof)[anchor]
    span = float(np.linalg.norm(target - p0))
    if span < 1e-14:
        raise HkLabError("endpoint correction failed: blend anchor coincides with endpoint")
    u = np.linspace(0.0, 1.0, len(s) - anchor)[:, None]
    h00 = 2 * u**3 - 3 * u**2 + 1
    h10 = u**3 - 2 * u**2 + u
    h01 = -2 * u**3 + 3 * u**2
    h11 = u**3 - u**2
    blended = h00 * p0 + h10 * span * t0 + h01 * target + h11 * span * t_cap
    pts = np.vstack([prof.samples[:anchor], blended])
    out = ProfileCurve(pts, container, angle, prof.dim, end_tangent=t_cap)

    residual = abs(float(support_deviation(container, out.samples[-1:])[0]))
    angle_err = abs(measured_profile_angle(out) - angle.effective)
    if residual > 1e-12 or angle_err > 1e-10:
        raise HkLabError(
            f"endpoint correction did not converge (support defect {residual:.2e}, "
            f"angle defect {angle_err:.2e})"
        )
    if not _is_simple(out.samples):
        raise HkLabError("corrected profile is self-intersecting")
    return out
