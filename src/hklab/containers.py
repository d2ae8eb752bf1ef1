"""Ambient containers and contact angles.

A capillary configuration lives in a container B whose boundary supports the
wetted patch T: the upper half-space (support = hyperplane x_d = 0, outward
support normal -E_d), the unit half-ball (support = unit sphere, outward
support normal x), or no container at all for closed hypersurfaces.  The
support conormal nu_bar completes N_bar to the frame of Gamma in T.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from hklab.errors import ContainerMismatchError

THETA_MIN = 0.05
HALF_PI = math.pi / 2.0


class Container(Enum):
    HALF_SPACE = "half-space"
    HALF_BALL = "half-ball"
    CLOSED = "closed"

    @property
    def has_support(self) -> bool:
        return self is not Container.CLOSED


def parse_container(name: str | Container) -> Container:
    """The container of one of the spellings half-space, half-ball and closed."""
    try:
        return Container(name)
    except ValueError:
        raise ValueError(f"unknown container {name!r}; expected one of "
                         f"{[kind.value for kind in Container]}") from None


@dataclass(frozen=True)
class ContactAngle:
    """Contact angle in radians, restricted to [THETA_MIN, pi/2]."""

    radians: float

    def __post_init__(self) -> None:
        # slack admits pi/2 given to ten decimals, the common CLI spelling
        if not (THETA_MIN - 1e-15 <= self.radians <= HALF_PI + 1e-9):
            raise ValueError(f"contact angle {self.radians} outside [{THETA_MIN}, pi/2]")

    @property
    def effective(self) -> float:
        """The angle actually realized; near-orthogonal inputs collapse to pi/2."""
        return HALF_PI if self.is_orthogonal else self.radians

    @property
    def cos(self) -> float:
        return 0.0 if self.is_orthogonal else math.cos(self.radians)

    @property
    def sin(self) -> float:
        return 1.0 if self.is_orthogonal else math.sin(self.radians)

    @property
    def cot(self) -> float:
        return self.cos / self.sin

    @property
    def is_orthogonal(self) -> bool:
        # exact free-boundary degeneration: cos(pi/2) collapses to 0
        return abs(self.radians - HALF_PI) <= 1e-9


def as_angle(theta: float | ContactAngle | None) -> ContactAngle | None:
    if theta is None or isinstance(theta, ContactAngle):
        return theta
    return ContactAngle(float(theta))


def support_normal(container: Container, points: np.ndarray) -> np.ndarray:
    """Outward unit normal of the support at points assumed to lie on it."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if container is Container.HALF_SPACE:
        nbar = np.zeros_like(pts)
        nbar[:, -1] = -1.0
        return nbar
    if container is Container.HALF_BALL:
        norms = np.linalg.norm(pts, axis=1, keepdims=True)
        if np.any(norms > 1.0 + 1e-6) or np.any(norms < 1e-12):
            raise ContainerMismatchError("half-ball support normal requested off the unit sphere")
        return pts / norms
    raise ValueError("closed container has no support")


def support_conormal(container: Container, points: np.ndarray) -> np.ndarray:
    """Outward unit conormal nu_bar of Gamma within T at points of the support.

    For the axisymmetric configurations of this package T is the part of the
    support around the axis, so with omega the horizontal unit vector away
    from the axis, nu_bar = omega on the half-space and, with (rho, z) the
    components of N_bar, nu_bar = z omega - rho E_d on the half-ball.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if container is Container.HALF_BALL:
        pts = support_normal(container, pts)
    elif container is not Container.HALF_SPACE:
        raise ValueError("closed container has no support")
    horiz = pts.copy()
    horiz[:, -1] = 0.0
    rho = np.linalg.norm(horiz, axis=1)
    omega = horiz / rho[:, None]
    if container is Container.HALF_SPACE:
        return omega
    nubar = pts[:, -1:] * omega
    nubar[:, -1] = -rho
    return nubar


def support_deviation(container: Container, points: np.ndarray) -> np.ndarray:
    """Signed distance-like defect of points from the support hypersurface."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if container is Container.HALF_SPACE:
        return pts[:, -1].copy()
    if container is Container.HALF_BALL:
        return np.linalg.norm(pts, axis=1) - 1.0
    raise ValueError("closed container has no support")
