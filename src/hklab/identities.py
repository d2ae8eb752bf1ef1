"""Surface/boundary integrals, integral identities and the main inequalities.

Quadrature is the barycentric midpoint rule per cell (exact for affine
integrands of the P1 fields) on an array of per-vertex values; boundary
integrals over Gamma take one value per boundary vertex and use the trapezoid
rule on the loop for n = 2 and the counting measure for n = 1.  Every check
reads the container and the contact angle from the meshes it is given.
Identity checks return scaled residuals; the two equivalent right-hand sides
of the main inequality are evaluated independently so their agreement is
itself a check of the balancing identities.  The domain enters the main
inequality through |Omega|, int_Omega x_d, |T| and int_T x_d only, and all
four are sums over its boundary facets (the first two by the divergence
theorem, with rules exact for affine and quadratic integrands), so hk_report
and alexandrov_certify take a DomainBoundary and never read cells.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from enum import Enum

import numpy as np

from hklab.bvp import t_facet_integrals
from hklab.containers import Container
from hklab.domain import DomainBoundary
from hklab.errors import ContainerMismatchError, MeanConvexityError
from hklab.meshutil import area_rows, centroids, coordinate_rows, row_dot, vertex_means
from hklab.surface import SurfaceMesh

MACHINE_FLOOR = 1e-300
EQUALITY_RTOL = 5e-3
# alexandrov_certify calls a surface a cap when its CMC defect and its sphere
# fit rms (relative to the fitted radius) are both within these
CMC_TOL = 1e-2
FIT_TOL = 1e-2


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
        return {**asdict(self), "relative": self.relative}


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


def integrate_surface(mesh: SurfaceMesh, values: np.ndarray) -> float:
    """Midpoint-rule integral of per-vertex values over the surface cells."""
    if len(values) != mesh.num_vertices:
        raise ValueError("integrand array length does not match vertex count")
    return float(np.sum(mesh.cell_areas * centroids(values, mesh.cells)))


def integrate_boundary(mesh: SurfaceMesh, values: np.ndarray) -> float:
    """Trapezoid integral over Gamma (n = 2) or counting sum (n = 1).

    values holds one entry per boundary vertex, aligned with
    mesh.boundary_vertices.
    """
    if len(values) != len(mesh.boundary_vertices):
        raise ValueError("boundary integrand length mismatch")
    if len(values) == 0:
        return 0.0
    if mesh.dim == 1:
        return float(np.sum(values))
    total = 0.0
    start = 0
    # boundary_vertices, and so values, is the concatenation of the loops
    for loop in mesh.boundary_loops:
        pts = mesh.vertices[loop]
        seg = np.linalg.norm(np.roll(pts, -1, axis=0) - pts, axis=1)
        v = values[start:start + len(loop)]
        start += len(loop)
        total += float(np.sum(0.5 * seg * (v + np.roll(v, -1))))
    return total


def gamma_measure(mesh: SurfaceMesh) -> float:
    """|Gamma|: loop length for n = 2, number of boundary points for n = 1."""
    if mesh.dim == 1:
        return float(len(mesh.boundary_vertices))
    return integrate_boundary(mesh, np.ones(len(mesh.boundary_vertices)))


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
    pts = mesh.vertices[mesh.boundary_vertices]
    flux = -pts * pts[:, -1:].copy()
    flux[:, -1] += 1.0
    nubar = mesh.boundary_conormal_support
    return -integrate_boundary(mesh, np.einsum("ij,ij->i", flux, nubar)) / mesh.dim


# ---------------------------------------------------------------------------
# identity checks
# ---------------------------------------------------------------------------


def check_identity(ident: IdentityId | str, mesh: SurfaceMesh) -> Residual:
    """Scaled residual of one integral identity on the given surface."""
    ident = IdentityId(ident) if not isinstance(ident, IdentityId) else ident
    angle = mesh.theta
    if ident in _HALF_SPACE_IDS and mesh.container is not Container.HALF_SPACE:
        raise ContainerMismatchError(f"{ident.value} requires a half-space surface")
    if ident in _BALL_IDS and mesh.container is not Container.HALF_BALL:
        raise ContainerMismatchError(f"{ident.value} requires a half-ball surface")
    if ident is not IdentityId.STRUCTURAL_LEMMA and angle is None:
        raise ValueError("identity requires a contact angle")
    n = mesh.dim
    x, h = mesh.vertices, mesh.mean_curvature
    nu_z = mesh.normals[:, -1]

    if ident is IdentityId.STRUCTURAL_LEMMA:
        surf = np.asarray(
            [integrate_surface(mesh, mesh.normals[:, k]) for k in range(mesh.ambient_dim)]
        )
        if len(mesh.boundary_vertices):
            pts = x[mesh.boundary_vertices]
            x_mu = np.einsum("ij,ij->i", pts, mesh.boundary_mu)
            x_nu = np.einsum("ij,ij->i", pts, mesh.normals[mesh.boundary_vertices])
            integrand = x_mu[:, None] * mesh.normals[mesh.boundary_vertices] - x_nu[:, None] * mesh.boundary_mu
            bnd = np.asarray(
                [integrate_boundary(mesh, integrand[:, k]) for k in range(mesh.ambient_dim)]
            )
            bnd_scale = integrate_boundary(mesh, np.abs(x_mu)) + integrate_boundary(
                mesh, np.abs(x_nu)
            )
        else:
            bnd = np.zeros(mesh.ambient_dim)
            bnd_scale = 0.0
        raw = float(np.linalg.norm(n * surf - bnd))
        scale = n * integrate_surface(mesh, np.ones(mesh.num_vertices)) + bnd_scale
        return Residual(ident.value, raw, scale)

    if ident in (IdentityId.CONSERVATION_HALF_SPACE, IdentityId.CONSERVATION_BALL):
        lhs = integrate_surface(mesh, nu_z)
        if ident is IdentityId.CONSERVATION_HALF_SPACE:
            rhs = wetted_area_from_loop(mesh)
        else:
            rhs = -wetted_height_integral_from_loop(mesh)
        return Residual(ident.value, lhs - rhs, abs(lhs) + abs(rhs))

    if ident in (IdentityId.BALANCING_HALF_SPACE, IdentityId.BALANCING_BALL):
        lhs = integrate_surface(mesh, h * nu_z)
        if ident is IdentityId.BALANCING_HALF_SPACE:
            rhs = angle.sin * gamma_measure(mesh)
        else:
            rhs = -integrate_boundary(mesh, mesh.boundary_mu[:, -1])
        return Residual(ident.value, lhs - rhs, abs(lhs) + abs(rhs))

    if ident is IdentityId.MINKOWSKI_HALF_SPACE:
        h_x_nu = h * np.einsum("ij,ij->i", x, mesh.normals)
        raw = integrate_surface(mesh, n * (1.0 - angle.cos * nu_z) - h_x_nu)
        scale = integrate_surface(mesh, n * (1.0 + abs(angle.cos) * np.abs(nu_z)) + np.abs(h_x_nu))
        return Residual(ident.value, raw, scale)

    if ident is IdentityId.MINKOWSKI_BALL:
        h_x_nu = h * np.einsum("ij,ij->i", conformal_field(x), mesh.normals)
        z = x[:, -1]
        raw = integrate_surface(mesh, n * (z + angle.cos * nu_z) - h_x_nu)
        scale = integrate_surface(
            mesh, n * (np.abs(z) + abs(angle.cos) * np.abs(nu_z)) + np.abs(h_x_nu)
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
    components: dict = field(default_factory=dict)


def domain_volume_integrals(boundary: DomainBoundary) -> tuple[float, float]:
    """(|Omega|, integral of x_d over Omega) as sums over the boundary facets.

    By the divergence theorem |Omega| = (1/d) int_dOmega x . nu and
    int_Omega x_d = int_dOmega (x_d^2 / 2) nu_d.  On a facet F with outward
    area vector A_F the first integrand is affine, so the centroid c_F gives
    c_F . A_F exactly, and the second is quadratic, for which
    int_F x_d^2 = |F| (sum z_i^2 + (sum z_i)^2) / ((k + 1)(k + 2)) on a
    k-simplex with vertex heights z_i is exact.  So both sums equal the
    cell sums of the mesh that the boundary encloses, without its cells.
    Each facet's coordinates are gathered once, for all three.
    """
    p = coordinate_rows(boundary.vertices, np.vstack([boundary.sigma_facets, boundary.t_facets]))
    area = np.column_stack(area_rows(p))
    d = boundary.dim
    z = p[-1]
    z2 = (z * z).sum(axis=0) + z.sum(axis=0) ** 2
    volume = row_dot(vertex_means(p), area).sum() / d
    volume_z = 0.5 * (area[:, -1] * z2).sum() / (d * (d + 1))
    return float(volume), float(volume_z)


def hk_report(surface: SurfaceMesh, domain: DomainBoundary) -> HkReport:
    """Evaluate both sides of the Heintze-Karcher inequality.

    The container and the contact angle are the surface's.  The gap is
    lhs - rhs_form2, and equality_flag marks a relative gap below
    EQUALITY_RTOL.
    """
    container, angle = surface.container, surface.theta
    if domain.container is not container:
        raise ContainerMismatchError("surface and domain containers disagree")
    _require_mean_convex(surface)
    n = surface.dim
    h, z = surface.mean_curvature, surface.vertices[:, -1]
    nu_z = surface.normals[:, -1]

    volume, volume_z = domain_volume_integrals(domain)
    area_t, int_t_z = t_facet_integrals(domain)
    int_nu_z = integrate_surface(surface, nu_z)
    int_h_nu_z = integrate_surface(surface, h * nu_z)
    components = {
        "volume": volume,
        "int_volume_z": volume_z,
        "area_T": area_t,
        "int_T_z": int_t_z,
        "measure_gamma": gamma_measure(surface) if container.has_support else 0.0,
        "int_nu_z": int_nu_z,
        "int_H_nu_z": int_h_nu_z,
        "int_gamma_mu_z": (
            integrate_boundary(surface, surface.boundary_mu[:, -1])
            if container.has_support else 0.0
        ),
    }

    ratio = (n + 1.0) / n
    if container is Container.CLOSED:
        lhs = integrate_surface(surface, 1.0 / h)
        rhs1 = rhs2 = ratio * volume
    elif container is Container.HALF_SPACE:
        lhs = integrate_surface(surface, 1.0 / h)
        rhs1 = ratio * volume + angle.cos * int_nu_z**2 / int_h_nu_z
        rhs2 = ratio * volume + angle.cot * components["area_T"] ** 2 / components["measure_gamma"]
    else:
        lhs = integrate_surface(surface, z / h)
        rhs1 = ratio * volume_z - angle.cos * int_nu_z**2 / int_h_nu_z
        rhs2 = ratio * volume_z + angle.cos * int_t_z**2 / components["int_gamma_mu_z"]

    gap = lhs - rhs2
    scale = max(abs(lhs), abs(rhs2), MACHINE_FLOOR)
    rel = abs(gap) / scale

    return HkReport(
        container=container.value,
        dim=n,
        theta=None if angle is None else angle.radians,
        lhs=lhs,
        rhs_form1=rhs1,
        rhs_form2=rhs2,
        gap=gap,
        relative_gap=rel,
        equality_flag=rel <= EQUALITY_RTOL,
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


def alexandrov_certify(surface: SurfaceMesh, domain: DomainBoundary) -> CapVerdict:
    """CMC defect, weighted Minkowski gap and sphere-fit certificate."""
    _require_mean_convex(surface)
    angle = surface.theta
    n = surface.dim
    h, z = surface.mean_curvature, surface.vertices[:, -1]
    nu_z = surface.normals[:, -1]

    trusted = ~surface.low_trust
    h_trusted = h[trusted] if np.any(trusted) else h
    cmc_defect = float((h_trusted.max() - h_trusted.min()) / h_trusted.mean())

    volume, volume_z = domain_volume_integrals(domain)
    if surface.container is Container.HALF_SPACE:
        weighted = integrate_surface(surface, n * (1.0 - angle.cos * nu_z) / h) - (n + 1.0) * volume
    elif surface.container is Container.HALF_BALL:
        weighted = integrate_surface(surface, n * (z + angle.cos * nu_z) / h) - (n + 1.0) * volume_z
    else:
        weighted = integrate_surface(surface, np.full(surface.num_vertices, float(n)) / h) - (n + 1.0) * volume

    center, radius, rms = fit_sphere(surface.vertices)
    verdict = "cap" if (cmc_defect <= CMC_TOL and rms <= FIT_TOL * radius) else "not cap"
    return CapVerdict(
        verdict=verdict,
        cmc_defect=cmc_defect,
        weighted_minkowski_gap=weighted,
        fit_center=center,
        fit_radius=radius,
        fit_rms=rms,
    )
