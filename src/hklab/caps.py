"""Exact theta-capillary spherical caps.

These are the equality cases of every inequality verified by this package and
the source of all closed-form oracle values.  A half-space cap of radius R is
centered at (0, ..., 0, -R cos(theta)); a half-ball cap is centered on the
x_d-axis at height h with the contact condition <p, c> = 1 + R cos(theta) on
the intersection circle, which pins h = sqrt(1 + R^2 + 2 R cos(theta)).  The
half-ball center takes that closed form and is then validated by an
independent measurement of the contact angle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from hklab.containers import Container, ContactAngle, as_angle, support_conormal, support_normal
from hklab.errors import InfeasibleCapError

_SUPPORTED_DIMS = (1, 2)


@dataclass(frozen=True)
class AnalyticCap:
    """Spherical cap meeting the support at constant contact angle."""

    container: Container
    theta: ContactAngle | None
    radius: float
    center: np.ndarray
    dim: int
    quantities: dict = field(default_factory=dict)

    @property
    def ambient_dim(self) -> int:
        return self.dim + 1

    @property
    def mean_curvature(self) -> float:
        return self.dim / self.radius

    def normal(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return (pts - self.center) / self.radius

    def contains_enclosed(self, points: np.ndarray, tol: float = 1e-9) -> np.ndarray:
        """Membership test for the enclosed region (used by Monte-Carlo oracles)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        inside_sphere = np.linalg.norm(pts - self.center, axis=1) <= self.radius + tol
        if self.container is Container.HALF_SPACE:
            return inside_sphere & (pts[:, -1] >= -tol)
        if self.container is Container.HALF_BALL:
            return inside_sphere & (np.linalg.norm(pts, axis=1) <= 1.0 + tol)
        return inside_sphere


def _halfspace_quantities(theta: ContactAngle, radius: float, n: int) -> dict:
    t, r = theta.effective, radius
    sin_t, cos_t = theta.sin, theta.cos
    q = {
        "gamma_radius": r * sin_t,
        "gamma_height": 0.0,
        "apex_height": r * (1.0 - cos_t),
    }
    if n == 2:
        q["area_sigma"] = 2.0 * math.pi * r * r * (1.0 - cos_t)
        q["area_T"] = math.pi * (r * sin_t) ** 2
        q["measure_gamma"] = 2.0 * math.pi * r * sin_t
        q["volume"] = math.pi * r**3 * (1.0 - cos_t) ** 2 * (2.0 + cos_t) / 3.0
    else:
        q["area_sigma"] = 2.0 * r * t
        q["area_T"] = 2.0 * r * sin_t
        q["measure_gamma"] = 2.0  # counting measure for n = 1
        q["volume"] = r * r * (t - sin_t * cos_t)
    q["int_T_height"] = 0.0
    return q


def _unit_ball_cap_volume(h: float) -> float:
    # solid cap of the unit ball with height h
    return math.pi * h * h * (3.0 - h) / 3.0


def _ball_cap_volume(R: float, h: float) -> float:
    return math.pi * h * h * (3.0 * R - h) / 3.0


def _ball_cap_z_moment_3d(R: float, zc: float, w_lo: float, w_hi: float) -> float:
    """integral of z over {|x - zc e_z| <= R, w_lo <= z - zc <= w_hi} in R^3."""

    def anti(w: float) -> float:
        return zc * (R * R * w - w**3 / 3.0) + (R * R * w * w / 2.0 - w**4 / 4.0)

    return math.pi * (anti(w_hi) - anti(w_lo))


def _disk_cap_z_moment_2d(R: float, zc: float, w_lo: float, w_hi: float) -> float:
    """integral of z over {|x - zc e_z| <= R, w_lo <= z - zc <= w_hi} in R^2."""

    def anti(w: float) -> float:
        root = math.sqrt(max(R * R - w * w, 0.0))
        chord = 2.0 * ((w * root + R * R * math.asin(min(max(w / R, -1.0), 1.0))) / 2.0)
        return -2.0 * (R * R - w * w) ** 1.5 / 3.0 + zc * chord

    return anti(w_hi) - anti(w_lo)


def _halfball_quantities(theta: ContactAngle, radius: float, h: float, n: int) -> dict:
    r = radius
    z_g = (1.0 + r * theta.cos) / h
    rho_g = math.sqrt(max(1.0 - z_g * z_g, 0.0))
    cos_a = (r + theta.cos) / h  # polar half-angle of Sigma seen from its center
    alpha = math.acos(min(max(cos_a, -1.0), 1.0))
    t_g = math.acos(min(max(z_g, -1.0), 1.0))
    q = {
        "gamma_radius": rho_g,
        "gamma_height": z_g,
        "apex_height": h - r,
        "sigma_half_angle": alpha,
        "support_half_angle": t_g,
    }
    if n == 2:
        q["area_sigma"] = 2.0 * math.pi * r * r * (1.0 - cos_a)
        q["area_T"] = 2.0 * math.pi * (1.0 - z_g)
        q["measure_gamma"] = 2.0 * math.pi * rho_g
        q["volume"] = _unit_ball_cap_volume(1.0 - z_g) + _ball_cap_volume(r, z_g - (h - r))
        q["int_T_height"] = math.pi * rho_g * rho_g
        q["int_volume_height"] = (math.pi / 4.0) * rho_g**4 + _ball_cap_z_moment_3d(
            r, h, -r, z_g - h
        )
    else:
        q["area_sigma"] = 2.0 * r * alpha
        q["area_T"] = 2.0 * t_g
        q["measure_gamma"] = 2.0
        q["volume"] = t_g + r * r * alpha - rho_g * h
        q["int_T_height"] = 2.0 * rho_g
        q["int_volume_height"] = (2.0 / 3.0) * rho_g**3 + _disk_cap_z_moment_2d(
            r, h, -r, z_g - h
        )
    return q


def _closed_quantities(radius: float, center: np.ndarray, n: int) -> dict:
    r = radius
    q = {"measure_gamma": 0.0, "area_T": 0.0, "int_T_height": 0.0}
    if n == 2:
        q["area_sigma"] = 4.0 * math.pi * r * r
        q["volume"] = 4.0 * math.pi * r**3 / 3.0
        q["int_volume_height"] = q["volume"] * center[-1]
    else:
        q["area_sigma"] = 2.0 * math.pi * r
        q["volume"] = math.pi * r * r
        q["int_volume_height"] = q["volume"] * center[-1]
    return q


def make_cap(
    container: Container | str,
    theta: float | ContactAngle | None,
    size: float,
    n: int,
    center: np.ndarray | None = None,
) -> AnalyticCap:
    """Construct the theta-capillary spherical cap of the given family size.

    size is the cap radius R for every container.  For the half-ball the
    center height is the closed form h = sqrt(1 + R^2 + 2 R cos(theta)),
    rejected when the sphere misses the unit sphere in floating point.  For
    the closed container theta is ignored and center may be supplied.
    """
    from hklab.containers import parse_container

    container = parse_container(container)
    if n not in _SUPPORTED_DIMS:
        raise InfeasibleCapError(f"cap construction supports n in {_SUPPORTED_DIMS}, got {n}")
    if size <= 0:
        raise InfeasibleCapError(f"cap size must be positive, got {size}")
    d = n + 1

    if container is Container.CLOSED:
        ctr = np.zeros(d) if center is None else np.asarray(center, dtype=float)
        return AnalyticCap(container, None, float(size), ctr, n, _closed_quantities(size, ctr, n))

    angle = as_angle(theta)
    if angle is None:
        raise InfeasibleCapError("capillary caps require a contact angle")
    if center is not None:
        raise InfeasibleCapError("center is derived from (theta, size) for capillary caps")

    if container is Container.HALF_SPACE:
        ctr = np.zeros(d)
        ctr[-1] = -size * angle.cos
        cap = AnalyticCap(container, angle, float(size), ctr, n,
                          _halfspace_quantities(angle, size, n))
        measured = measured_contact_angle(cap)
        if abs(measured - angle.effective) > 1e-12:
            raise InfeasibleCapError("half-space cap failed its contact-angle validation")
        return cap

    # half-ball: the contact condition <p, c> = 1 + R cos(theta) pins the center height
    r = float(size)
    h = math.sqrt(1.0 + r * r + 2.0 * r * angle.cos)
    z_g = (1.0 + h * h - r * r) / (2.0 * h)  # height of the intersection circle
    if not -1.0 < z_g < 1.0:
        raise InfeasibleCapError(
            f"sphere of radius {r} centered at height {h} misses the unit sphere"
        )
    ctr = np.zeros(d)
    ctr[-1] = h
    cap = AnalyticCap(container, angle, r, ctr, n, _halfball_quantities(angle, r, h, n))
    measured = measured_contact_angle(cap)
    if abs(measured - angle.effective) > 1e-9:
        raise InfeasibleCapError("half-ball cap failed its contact-angle validation")
    return cap


def measured_contact_angle(cap: AnalyticCap) -> float:
    """Independent angle measurement at a point of the intersection circle."""
    p = gamma_point(cap, 0.0)
    nu = cap.normal(p)[0]
    nbar = support_normal(cap.container, p)[0]
    return math.acos(min(max(-float(np.dot(nu, nbar)), -1.0), 1.0))


def gamma_point(cap: AnalyticCap, azimuth: float) -> np.ndarray:
    """A point of Gamma; azimuth selects the direction in the support plane."""
    if cap.container is Container.CLOSED:
        raise ValueError("closed caps have empty boundary")
    rho = cap.quantities["gamma_radius"]
    z = cap.quantities["gamma_height"]
    if cap.dim == 1:
        sgn = 1.0 if math.cos(azimuth) >= 0 else -1.0
        return np.array([sgn * rho, z])
    return np.array([rho * math.cos(azimuth), rho * math.sin(azimuth), z])


def gamma_frame(cap: AnalyticCap, points: np.ndarray):
    """Exact (mu, nu_bar, N_bar) at points of Gamma.

    mu is the outward conormal of Gamma within Sigma, nu_bar the outward
    conormal within T, and N_bar the outward support normal; they satisfy
    mu = sin(theta) N_bar + cos(theta) nu_bar exactly.
    """
    nbar = support_normal(cap.container, points)
    nu_bar = support_conormal(cap.container, points)
    mu = cap.theta.sin * nbar + cap.theta.cos * nu_bar
    return mu, nu_bar, nbar
