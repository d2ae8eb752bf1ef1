"""Surface/boundary integrals, integral identities and the main inequalities.

Quadrature is the barycentric midpoint rule per cell (exact for affine
integrands of the P1 fields); boundary integrals over Gamma use the trapezoid
rule on the loop for n = 2 and the counting measure for n = 1.  Identity
checks return scaled residuals; the two equivalent right-hand sides of the
main inequality are evaluated independently so their agreement is itself a
check of the balancing identities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from hklab.bvp import t_facet_integrals
from hklab.containers import Container, ContactAngle, as_angle
from hklab.domain import DomainMesh
from hklab.errors import ContainerMismatchError, MeanConvexityError
from hklab.surface import SurfaceMesh

MACHINE_FLOOR = 1e-300
EQUALITY_RTOL = 5e-3


class IdentityId(Enum):
    STRUCTURAL_LEMMA = "StructuralLemma"
    CONSERVATION_HALF_SPACE = "ConservationHalfSpace"
    BALANCING_HALF_SPACE = "BalancingHalfSpace"
    MINKOWSKI_HALF_SPACE = "MinkowskiHalfSpace"
    CONSERVATION_BALL = "ConservationBall"
    BALANCING_BALL = "BalancingBall"
    MINKOWSKI_BALL = "MinkowskiBall"


_HALF_SPACE_IDS = {
    IdentityId.CONSERVATION_HALF_SPACE,
    IdentityId.BALANCING_HALF_SPACE,
    IdentityId.MINKOWSKI_HALF_SPACE,
}
_BALL_IDS = {
    IdentityId.CONSERVATION_BALL,
    IdentityId.BALANCING_BALL,
    IdentityId.MINKOWSKI_BALL,
}


@dataclass(frozen=True)
class Residual:
    identity: str
    raw: float
    scale: float

    @property
    def relative(self) -> float:
        if self.scale < MACHINE_FLOOR:
            return 0.0
        return abs(self.raw) / self.scale

    def to_dict(self) -> dict:
        return {
            "identity": self.identity,
            "raw": self.raw,
            "scale": self.scale,
            "relative": self.relative,
        }


# ---------------------------------------------------------------------------
# field evaluation and quadrature
# ---------------------------------------------------------------------------


def conformal_field(points: np.ndarray) -> np.ndarray:
    """x_d * x - (|x|^2 + 1)/2 * E_d, the conformal Killing field of the ball."""
    pts = np.atleast_2d(points)
    out = pts * pts[:, -1:].copy()
    out[:, -1] -= 0.5 * (np.einsum("ij,ij->i", pts, pts) + 1.0)
    return out


def _require_mean_convex(mesh: SurfaceMesh) -> None:
    hmin = float(np.min(mesh.mean_curvature))
    if hmin <= 0.0:
        raise MeanConvexityError(f"surface is not mean convex (min H = {hmin:.3e})")


def vertex_values(mesh: SurfaceMesh, integrand: str | np.ndarray) -> np.ndarray:
    """Per-vertex values of a named field expression."""
    if isinstance(integrand, np.ndarray):
        if integrand.shape[0] != mesh.num_vertices:
            raise ValueError("integrand array length does not match vertex count")
        return integrand.astype(float)
    x = mesh.vertices
    nu = mesh.normals
    h = mesh.mean_curvature
    name = integrand.strip()
    if name == "1":
        return np.ones(mesh.num_vertices)
    if name == "z":
        return x[:, -1].copy()
    if name == "H":
        return h.copy()
    if name == "nu_z":
        return nu[:, -1].copy()
    if name == "H*nu_z":
        return h * nu[:, -1]
    if name == "x.nu":
        return np.einsum("ij,ij->i", x, nu)
    if name == "X.nu":
        return np.einsum("ij,ij->i", conformal_field(x), nu)
    if name == "H*X.nu":
        return h * np.einsum("ij,ij->i", conformal_field(x), nu)
    if name == "1/H":
        _require_mean_convex(mesh)
        return 1.0 / h
    if name == "z/H":
        _require_mean_convex(mesh)
        return x[:, -1] / h
    raise KeyError(f"unknown surface integrand {integrand!r}")


def integrate_surface(mesh: SurfaceMesh, integrand: str | np.ndarray) -> float:
    """Midpoint-rule integral of the named field over the surface cells."""
    vals = vertex_values(mesh, integrand)
    cell_mean = vals[mesh.cells].mean(axis=1)
    return float(np.sum(mesh.cell_areas * cell_mean))


def boundary_values(mesh: SurfaceMesh, integrand: str | np.ndarray) -> np.ndarray:
    """Values per boundary vertex (aligned with mesh.boundary_vertices)."""
    if isinstance(integrand, np.ndarray):
        if integrand.shape[0] != len(mesh.boundary_vertices):
            raise ValueError("boundary integrand length mismatch")
        return integrand.astype(float)
    pts = mesh.vertices[mesh.boundary_vertices]
    mu = mesh.boundary_mu
    nubar = mesh.boundary_conormal_support
    name = integrand.strip()
    if name == "1":
        return np.ones(len(pts))
    if name == "mu_z":
        return mu[:, -1].copy()
    if name == "x.mu":
        return np.einsum("ij,ij->i", pts, mu)
    if name == "X.mu":
        return np.einsum("ij,ij->i", conformal_field(pts), mu)
    if name == "(X+E).mu":
        xe = conformal_field(pts)
        xe[:, -1] += 1.0
        return np.einsum("ij,ij->i", xe, mu)
    if name == "(E-z*x).nu_bar":
        f = -pts * pts[:, -1:].copy()
        f[:, -1] += 1.0
        return np.einsum("ij,ij->i", f, nubar)
    raise KeyError(f"unknown boundary integrand {integrand!r}")


def integrate_boundary(mesh: SurfaceMesh, integrand: str | np.ndarray) -> float:
    """Trapezoid integral over Gamma (n = 2) or counting sum (n = 1)."""
    vals = boundary_values(mesh, integrand)
    if len(vals) == 0:
        return 0.0
    if mesh.dim == 1:
        return float(np.sum(vals))
    total = 0.0
    index_of = mesh.boundary_index_of()
    for loop in mesh.boundary_loops:
        pts = mesh.vertices[loop]
        seg = np.linalg.norm(np.roll(pts, -1, axis=0) - pts, axis=1)
        v = np.array([vals[index_of[int(i)]] for i in loop])
        total += float(np.sum(0.5 * seg * (v + np.roll(v, -1))))
    return total


def _integrate_boundary_vector(mesh: SurfaceMesh, values: np.ndarray) -> np.ndarray:
    comps = [
        integrate_boundary(mesh, values[:, k]) for k in range(values.shape[1])
    ]
    return np.asarray(comps)


def gamma_measure(mesh: SurfaceMesh) -> float:
    """|Gamma|: loop length for n = 2, number of boundary points for n = 1."""
    if mesh.dim == 1:
        return float(len(mesh.boundary_vertices))
    return integrate_boundary(mesh, "1")


def wetted_area_from_loop(mesh: SurfaceMesh) -> float:
    """|T| from the boundary loop alone (half-space only: planar shoelace)."""
    if mesh.container is not Container.HALF_SPACE:
        raise ContainerMismatchError("loop-based |T| is only defined on the half-space")
    if mesh.dim == 1:
        pts = mesh.vertices[mesh.boundary_vertices]
        return float(np.linalg.norm(pts[1] - pts[0]))
    total = 0.0
    for loop in mesh.boundary_loops:
        pts = mesh.vertices[loop]
        x, y = pts[:, 0], pts[:, 1]
        total += 0.5 * np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)
    return abs(float(total))


def wetted_height_integral_from_loop(mesh: SurfaceMesh) -> float:
    """integral of x_d over T from the loop (half-ball: spherical divergence trick).

    On the unit sphere div of -grad(z)/n is z, so the patch integral reduces to
    -1/n times the flux of E - z x through Gamma in the support conormal.
    """
    if mesh.container is not Container.HALF_BALL:
        raise ContainerMismatchError("loop-based T-height integral needs the half-ball")
    n = mesh.dim
    return -integrate_boundary(mesh, "(E-z*x).nu_bar") / n


# ---------------------------------------------------------------------------
# identity checks
# ---------------------------------------------------------------------------


def check_identity(
    ident: IdentityId | str, mesh: SurfaceMesh, theta: float | ContactAngle | None = None
) -> Residual:
    """Scaled residual of one integral identity on the given surface."""
    ident = IdentityId(ident) if not isinstance(ident, IdentityId) else ident
    angle = as_angle(theta) if theta is not None else mesh.theta
    if ident in _HALF_SPACE_IDS and mesh.container is not Container.HALF_SPACE:
        raise ContainerMismatchError(f"{ident.value} requires a half-space surface")
    if ident in _BALL_IDS and mesh.container is not Container.HALF_BALL:
        raise ContainerMismatchError(f"{ident.value} requires a half-ball surface")
    if ident is not IdentityId.STRUCTURAL_LEMMA and angle is None:
        raise ValueError("identity requires a contact angle")
    n = mesh.dim

    if ident is IdentityId.STRUCTURAL_LEMMA:
        surf = np.asarray(
            [integrate_surface(mesh, mesh.normals[:, k]) for k in range(mesh.ambient_dim)]
        )
        if len(mesh.boundary_vertices):
            pts = mesh.vertices[mesh.boundary_vertices]
            x_mu = np.einsum("ij,ij->i", pts, mesh.boundary_mu)
            x_nu = np.einsum("ij,ij->i", pts, mesh.normals[mesh.boundary_vertices])
            integrand = x_mu[:, None] * mesh.normals[mesh.boundary_vertices] - x_nu[:, None] * mesh.boundary_mu
            bnd = _integrate_boundary_vector(mesh, integrand)
            bnd_scale = integrate_boundary(mesh, np.abs(x_mu)) + integrate_boundary(
                mesh, np.abs(x_nu)
            )
        else:
            bnd = np.zeros(mesh.ambient_dim)
            bnd_scale = 0.0
        raw = float(np.linalg.norm(n * surf - bnd))
        scale = n * integrate_surface(mesh, "1") + bnd_scale
        return Residual(ident.value, raw, scale)

    if ident is IdentityId.CONSERVATION_HALF_SPACE:
        lhs = integrate_surface(mesh, "nu_z")
        rhs = wetted_area_from_loop(mesh)
        return Residual(ident.value, lhs - rhs, abs(lhs) + abs(rhs))

    if ident is IdentityId.BALANCING_HALF_SPACE:
        lhs = integrate_surface(mesh, "H*nu_z")
        rhs = angle.sin * gamma_measure(mesh)
        return Residual(ident.value, lhs - rhs, abs(lhs) + abs(rhs))

    if ident is IdentityId.MINKOWSKI_HALF_SPACE:
        nu_z = vertex_values(mesh, "nu_z")
        x_nu = vertex_values(mesh, "x.nu")
        h = mesh.mean_curvature
        raw = integrate_surface(mesh, n * (1.0 - angle.cos * nu_z) - h * x_nu)
        scale = integrate_surface(mesh, n * (1.0 + abs(angle.cos) * np.abs(nu_z)) + np.abs(h * x_nu))
        return Residual(ident.value, raw, scale)

    if ident is IdentityId.CONSERVATION_BALL:
        lhs = integrate_surface(mesh, "nu_z")
        rhs = -wetted_height_integral_from_loop(mesh)
        return Residual(ident.value, lhs - rhs, abs(lhs) + abs(rhs))

    if ident is IdentityId.BALANCING_BALL:
        lhs = integrate_surface(mesh, "H*nu_z")
        rhs = -integrate_boundary(mesh, "mu_z")
        return Residual(ident.value, lhs - rhs, abs(lhs) + abs(rhs))

    if ident is IdentityId.MINKOWSKI_BALL:
        nu_z = vertex_values(mesh, "nu_z")
        x_nu = vertex_values(mesh, "X.nu")
        z = vertex_values(mesh, "z")
        h = mesh.mean_curvature
        raw = integrate_surface(mesh, n * (z + angle.cos * nu_z) - h * x_nu)
        scale = integrate_surface(
            mesh, n * (np.abs(z) + abs(angle.cos) * np.abs(nu_z)) + np.abs(h * x_nu)
        )
        return Residual(ident.value, raw, scale)

    raise KeyError(ident)


def applicable_identities(container: Container) -> list[IdentityId]:
    if container is Container.HALF_SPACE:
        return [IdentityId.STRUCTURAL_LEMMA, *sorted(_HALF_SPACE_IDS, key=lambda i: i.value)]
    if container is Container.HALF_BALL:
        return [IdentityId.STRUCTURAL_LEMMA, *sorted(_BALL_IDS, key=lambda i: i.value)]
    return [IdentityId.STRUCTURAL_LEMMA]


# ---------------------------------------------------------------------------
# Heintze-Karcher report
# ---------------------------------------------------------------------------


@dataclass
class HkReport:
    container: str
    dim: int
    theta: float | None
    lhs: float
    rhs_form1: float
    rhs_form2: float
    gap: float
    relative_gap: float
    equality_flag: bool
    refined_gap: float | None
    components: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "container": self.container,
            "dim": self.dim,
            "theta": self.theta,
            "lhs": self.lhs,
            "rhs_form1": self.rhs_form1,
            "rhs_form2": self.rhs_form2,
            "gap": self.gap,
            "relative_gap": self.relative_gap,
            "equality_flag": self.equality_flag,
            "refined_gap": self.refined_gap,
            "components": dict(self.components),
        }


def domain_volume_integrals(domain: DomainMesh) -> tuple[float, float]:
    """(|Omega|, integral of x_d over Omega) by midpoint quadrature."""
    z = domain.vertices[domain.cells][:, :, -1].mean(axis=1)
    return float(np.sum(domain.cell_volumes)), float(np.sum(domain.cell_volumes * z))


def hk_report(
    surface: SurfaceMesh,
    domain: DomainMesh,
    container: Container | str | None = None,
    theta: float | ContactAngle | None = None,
    refined: tuple[SurfaceMesh, DomainMesh] | None = None,
) -> HkReport:
    """Evaluate both sides of the Heintze-Karcher inequality.

    The gap is lhs - rhs_form2.  equality_flag follows the two-sided rule:
    relative gap below 5e-3 and, when a refined (surface, domain) pair is
    supplied, a gap that does not grow under refinement.
    """
    from hklab.containers import parse_container

    container = surface.container if container is None else parse_container(container)
    if container is not surface.container or container is not domain.container:
        raise ContainerMismatchError("surface/domain/report containers disagree")
    angle = as_angle(theta) if theta is not None else surface.theta
    _require_mean_convex(surface)
    n = surface.dim

    volume, volume_z = domain_volume_integrals(domain)
    area_t, int_t_z = t_facet_integrals(domain)
    int_nu_z = integrate_surface(surface, "nu_z")
    int_h_nu_z = integrate_surface(surface, "H*nu_z")
    components = {
        "volume": volume,
        "int_volume_z": volume_z,
        "area_T": area_t,
        "int_T_z": int_t_z,
        "measure_gamma": gamma_measure(surface) if container.has_support else 0.0,
        "int_nu_z": int_nu_z,
        "int_H_nu_z": int_h_nu_z,
        "int_gamma_mu_z": (
            integrate_boundary(surface, "mu_z") if container.has_support else 0.0
        ),
    }

    ratio = (n + 1.0) / n
    if container is Container.CLOSED:
        lhs = integrate_surface(surface, "1/H")
        rhs1 = rhs2 = ratio * volume
    elif container is Container.HALF_SPACE:
        lhs = integrate_surface(surface, "1/H")
        rhs1 = ratio * volume + angle.cos * int_nu_z**2 / int_h_nu_z
        rhs2 = ratio * volume + angle.cot * components["area_T"] ** 2 / components["measure_gamma"]
    else:
        lhs = integrate_surface(surface, "z/H")
        rhs1 = ratio * volume_z - angle.cos * int_nu_z**2 / int_h_nu_z
        rhs2 = ratio * volume_z + angle.cos * int_t_z**2 / components["int_gamma_mu_z"]

    gap = lhs - rhs2
    scale = max(abs(lhs), abs(rhs2), MACHINE_FLOOR)
    rel = abs(gap) / scale

    refined_gap = None
    flag = rel <= EQUALITY_RTOL
    if refined is not None:
        fine = hk_report(refined[0], refined[1], container, angle)
        refined_gap = fine.gap
        flag = flag and abs(fine.gap) <= abs(gap) + MACHINE_FLOOR
    return HkReport(
        container=container.value,
        dim=n,
        theta=None if angle is None else angle.radians,
        lhs=lhs,
        rhs_form1=rhs1,
        rhs_form2=rhs2,
        gap=gap,
        relative_gap=rel,
        equality_flag=flag,
        refined_gap=refined_gap,
        components=components,
    )


# ---------------------------------------------------------------------------
# Alexandrov certification
# ---------------------------------------------------------------------------


@dataclass
class CapVerdict:
    verdict: str
    cmc_defect: float
    weighted_minkowski_gap: float
    fit_center: np.ndarray
    fit_radius: float
    fit_rms: float

    @property
    def is_cap(self) -> bool:
        return self.verdict == "cap"

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "cmc_defect": self.cmc_defect,
            "weighted_minkowski_gap": self.weighted_minkowski_gap,
            "fit_center": [float(c) for c in self.fit_center],
            "fit_radius": self.fit_radius,
            "fit_rms": self.fit_rms,
        }


def fit_sphere(points: np.ndarray) -> tuple[np.ndarray, float, float]:
    """Algebraic least-squares sphere fit; returns (center, radius, rms distance)."""
    pts = np.asarray(points, dtype=float)
    a = np.column_stack([2.0 * pts, np.ones(len(pts))])
    b = np.einsum("ij,ij->i", pts, pts)
    sol, *_ = np.linalg.lstsq(a, b, rcond=None)
    center = sol[:-1]
    radius = math.sqrt(max(sol[-1] + float(center @ center), 0.0))
    dist = np.linalg.norm(pts - center, axis=1) - radius
    return center, radius, float(np.sqrt(np.mean(dist**2)))


def alexandrov_certify(
    surface: SurfaceMesh,
    domain: DomainMesh,
    theta: float | ContactAngle | None = None,
    cmc_tol: float = 1e-2,
    fit_tol: float = 1e-2,
) -> CapVerdict:
    """CMC defect, weighted Minkowski gap and sphere-fit certificate."""
    _require_mean_convex(surface)
    angle = as_angle(theta) if theta is not None else surface.theta
    n = surface.dim

    trusted = ~surface.low_trust
    h = surface.mean_curvature[trusted] if np.any(trusted) else surface.mean_curvature
    cmc_defect = float((h.max() - h.min()) / h.mean())

    volume, volume_z = domain_volume_integrals(domain)
    if surface.container is Container.HALF_SPACE:
        nu_z = vertex_values(surface, "nu_z")
        weighted = integrate_surface(
            surface, n * (1.0 - angle.cos * nu_z) / surface.mean_curvature
        ) - (n + 1.0) * volume
    elif surface.container is Container.HALF_BALL:
        nu_z = vertex_values(surface, "nu_z")
        z = vertex_values(surface, "z")
        weighted = integrate_surface(
            surface, n * (z + angle.cos * nu_z) / surface.mean_curvature
        ) - (n + 1.0) * volume_z
    else:
        weighted = integrate_surface(surface, np.full(surface.num_vertices, float(n)) / surface.mean_curvature) - (n + 1.0) * volume

    center, radius, rms = fit_sphere(surface.vertices)
    verdict = "cap" if (cmc_defect <= cmc_tol and rms <= fit_tol * radius) else "not cap"
    return CapVerdict(
        verdict=verdict,
        cmc_defect=cmc_defect,
        weighted_minkowski_gap=weighted,
        fit_center=center,
        fit_radius=radius,
        fit_rms=rms,
    )
