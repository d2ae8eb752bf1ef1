"""Reilly-formula evaluation and the step-by-step inequality chain replay.

The volume side integrates the recovered Hessian; its trace is used as the
discrete Laplacian so that the Cauchy-Schwarz comparison acts on one
consistent object.  Boundary terms on T use the boundary-condition data (the
tangential gradient of the flux is then known analytically) and the exact
second fundamental form of the support (zero on the hyperplane, the metric on
the unit sphere); the patch Laplacian of f is reduced to a flux through Gamma
by the divergence theorem, which avoids second tangential derivatives.

Both functions take the container, the contact angle and the domain from the
solution's domain mesh.  The chain replay takes the Reilly sides its caller
has already evaluated in the weighting of that container, so each weighting
is evaluated once per solution, and reads its Gamma flux from their parts.
The height weight x_d of the weighted formula and the bounds that judge the
Reilly defect are defined here only.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from hklab.bvp import (
    BvpSolution,
    capillary_constant,
    gamma_edges,
    measure_gamma,
    t_facet_integrals,
)
from hklab.containers import Container
from hklab.domain import DomainMesh
from hklab.errors import ConstantMismatchError, HkLabError, MeanConvexityError
from hklab.identities import (
    MACHINE_FLOOR,
    conformal_field,
    integrate_boundary,
)
from hklab.meshutil import ordered_sum, row_dot
from hklab.surface import SurfaceMesh

ALGEBRAIC_RTOL = 1e-9
IDENTITY_RTOL = 2e-2
# verdict bounds on the relative defect of the unweighted and the weighted
# Reilly sides, for the reilly check of `hk run` and for `hk reilly`
REILLY_DEFECT_TOL = 3e-2
WEIGHTED_REILLY_DEFECT_TOL = 5e-2


@dataclass
class ReillySides:
    volume_side: float
    boundary_side: float
    weighted: bool
    parts: dict = field(default_factory=dict)

    @property
    def defect(self) -> float:
        return self.volume_side - self.boundary_side

    @property
    def relative_defect(self) -> float:
        scale = max(abs(self.volume_side), abs(self.boundary_side), MACHINE_FLOOR)
        return abs(self.defect) / scale

    def to_dict(self) -> dict:
        return {**asdict(self), "defect": self.defect, "relative_defect": self.relative_defect}


@dataclass
class PipelineStep:
    name: str
    lhs: float
    rhs: float
    sense: str  # "=" or ">="
    tolerance: float
    margin: float = 0.0
    passed: bool = False

    def __post_init__(self) -> None:
        self.margin = self.lhs - self.rhs
        scale = max(abs(self.lhs), abs(self.rhs), MACHINE_FLOOR)
        if self.sense == "=":
            self.passed = abs(self.margin) <= self.tolerance * scale
        else:
            self.passed = self.margin >= -self.tolerance * scale

    def to_dict(self) -> dict:
        fields = asdict(self)
        fields["pass"] = fields.pop("passed")
        return fields


@dataclass
class PipelineTrace:
    container: str
    steps: list
    final_gap: float
    equality_case: bool
    rigidity: dict | None

    @property
    def all_passed(self) -> bool:
        return all(s.passed for s in self.steps)

    def step(self, name: str) -> PipelineStep:
        for s in self.steps:
            if s.name == name:
                return s
        raise KeyError(name)

    def to_dict(self) -> dict:
        return {**asdict(self), "steps": [s.to_dict() for s in self.steps]}


# ---------------------------------------------------------------------------
# boundary machinery
# ---------------------------------------------------------------------------


def _t_trace_gradients(domain: DomainMesh, f: np.ndarray) -> np.ndarray:
    """Tangential P1 gradient of the trace of f on each T facet."""
    facets = domain.t_facets
    if len(facets) == 0:
        return np.zeros((0, domain.dim))
    pts = domain.vertices[facets]
    if domain.dim == 2:
        edge = pts[:, 1] - pts[:, 0]
        length2 = np.einsum("ij,ij->i", edge, edge)
        df = f[facets[:, 1]] - f[facets[:, 0]]
        return edge * (df / length2)[:, None]
    e1 = pts[:, 1] - pts[:, 0]
    e2 = pts[:, 2] - pts[:, 0]
    g11 = np.einsum("ij,ij->i", e1, e1)
    g12 = np.einsum("ij,ij->i", e1, e2)
    g22 = np.einsum("ij,ij->i", e2, e2)
    det = g11 * g22 - g12 * g12
    d1 = f[facets[:, 1]] - f[facets[:, 0]]
    d2 = f[facets[:, 2]] - f[facets[:, 0]]
    a = (g22 * d1 - g12 * d2) / det
    b = (g11 * d2 - g12 * d1) / det
    return a[:, None] * e1 + b[:, None] * e2


def gamma_t_flux(domain: DomainMesh, solution: BvpSolution, weighted: bool) -> float:
    """integral over Gamma of w * <grad_T f, nu_bar> with facet-planar conormals.

    w is x_d at the Gamma edge midpoint when weighted, 1 otherwise.  nu_bar is the
    in-facet direction perpendicular to the Gamma edge pointing out of T; the
    gradient is the recovered nodal gradient (nu_bar is facet-tangential, so
    no projection is needed and the one-sided trace differences are avoided).
    """
    ends, nubar, measure = gamma_edges(domain, domain.t_facets)
    grad = solution.nodal_gradients[ends].mean(axis=1)
    w = domain.vertices[:, -1][ends].mean(axis=1) if weighted else 1.0
    return ordered_sum(w * row_dot(grad, nubar) * measure)


def _height_weights(domain: DomainMesh, weighted: bool):
    """Weights of the cells and the Sigma facets: x_d at their midpoints when
    weighted, 1.0 (an exact factor) otherwise."""
    if not weighted:
        return 1.0, 1.0
    z = domain.vertices[:, -1]
    return z[domain.cells].mean(axis=1), z[domain.sigma_facets].mean(axis=1)


def _sigma_data(domain: DomainMesh, solution: BvpSolution):
    return domain.facet_measures(domain.sigma_facets), domain.sigma_H, solution.f_nu_sigma


# ---------------------------------------------------------------------------
# the two Reilly sides
# ---------------------------------------------------------------------------


def reilly_sides(solution: BvpSolution, *, weighted: bool = False) -> ReillySides:
    """Evaluate both sides of the (weighted) Reilly formula on a solution's domain."""
    domain = solution.domain
    container = domain.container
    if weighted:
        if container is Container.HALF_SPACE:
            raise HkLabError("the weighted formula is for the half-ball (V = 0 on T here)")
        if float(domain.vertices[:, -1].min()) < -1e-12:
            raise HkLabError("weighted Reilly requires x_d >= 0 on the domain")
    cell_w, sigma_w = _height_weights(domain, weighted)

    tr = solution.laplacian()
    h2 = np.einsum("cab,cab->c", solution.cell_hessians, solution.cell_hessians)
    volume_side = float(np.sum(domain.cell_volumes * cell_w * (tr**2 - h2)))

    areas, h_sigma, f_nu = _sigma_data(domain, solution)
    sigma_part = float(np.sum(areas * sigma_w * h_sigma * f_nu**2))
    parts: dict[str, float] = {"sigma": sigma_part}

    c = solution.problem.flux_constant
    n = domain.dim - 1
    t_part = 0.0
    if container.has_support:
        flux_gamma = gamma_t_flux(domain, solution, weighted)
        parts["gamma_flux_weighted" if weighted else "gamma_flux"] = flux_gamma
        t_part = c * flux_gamma
    if container is Container.HALF_BALL and weighted:
        t_part += n * c**2 * t_facet_integrals(domain)[1]
    elif container is Container.HALF_BALL:
        # the Robin condition d_N f - f = c of the half-ball, so f_N = c + f on T
        t_areas = domain.facet_measures(domain.t_facets)
        tg = _t_trace_gradients(domain, solution.f)
        t_part -= float(np.sum(t_areas * np.einsum("ij,ij->i", tg, tg)))  # int_T |grad_T f|^2
        f_t = solution.f[domain.t_facets].mean(axis=1)
        t_part += n * float(np.sum(t_areas * (c + f_t) ** 2))
    parts["t"] = t_part
    boundary_side = sigma_part + t_part
    return ReillySides(volume_side, boundary_side, weighted, parts)


# ---------------------------------------------------------------------------
# proof chain
# ---------------------------------------------------------------------------


def hk_pipeline(surface: SurfaceMesh, solution: BvpSolution, sides: ReillySides) -> PipelineTrace:
    """Replay the inequality chain on a discrete solution, step by step.

    sides are the Reilly sides of the solution in the weighting of its
    container: unweighted on the half-space, weighted on the half-ball.  The
    corner_flux step takes its Gamma flux from their parts.
    """
    domain = solution.domain
    container, angle = domain.container, domain.theta
    if container not in (Container.HALF_SPACE, Container.HALF_BALL):
        raise HkLabError("the proof chain is defined for the half-space and half-ball")
    if surface.container is not container:
        raise HkLabError("pipeline container mismatch")
    ball = container is Container.HALF_BALL
    if sides.weighted != ball:
        raise HkLabError(f"the {container.value} chain takes the "
                         f"{'weighted' if ball else 'unweighted'} Reilly sides")
    n = domain.dim - 1

    c_ref = capillary_constant(domain)
    c = solution.problem.flux_constant
    if abs(c - c_ref) > 1e-10 * max(abs(c_ref), 1e-12):
        raise ConstantMismatchError(
            f"solution flux constant {c} is not the capillary constant {c_ref}"
        )

    tr = solution.laplacian()
    cell_w, sigma_w = _height_weights(domain, ball)
    wcell = domain.cell_volumes * cell_w

    areas, h_sigma, f_nu = _sigma_data(domain, solution)
    if float(np.min(h_sigma)) <= 0.0:
        raise MeanConvexityError("pipeline requires H > 0 on Sigma")
    wface = areas * sigma_w

    vol_w = float(np.sum(wcell))
    area_t, int_t_z = t_facet_integrals(domain)

    steps: list[PipelineStep] = []
    int_tr2 = float(np.sum(wcell * tr**2))
    steps.append(
        PipelineStep(
            "cauchy_schwarz",
            n / (n + 1.0) * int_tr2,
            sides.volume_side,
            ">=",
            ALGEBRAIC_RTOL,
        )
    )
    steps.append(
        PipelineStep("reilly_identity", sides.volume_side, sides.boundary_side, "=", IDENTITY_RTOL)
    )

    flux = sides.parts["gamma_flux_weighted" if ball else "gamma_flux"]
    if ball:
        mu = surface.boundary_mu
        b_mu = integrate_boundary(surface, mu[:, -1])
        xe = conformal_field(surface.vertices[surface.boundary_vertices])
        xe[:, -1] += 1.0
        xe_mu = integrate_boundary(surface, np.einsum("ij,ij->i", xe, mu))
        corner_rhs = (n / (n + 1.0)) * (int_t_z / b_mu) * xe_mu
    else:
        corner_rhs = (n / (n + 1.0)) * area_t
    steps.append(PipelineStep("corner_flux", flux, corner_rhs, "=", IDENTITY_RTOL))

    int_f_nu = float(np.sum(wface * f_nu))
    int_h_f_nu2 = float(np.sum(wface * h_sigma * f_nu**2))
    int_inv_h = float(np.sum(wface / h_sigma))
    t_term = c * (int_t_z if ball else area_t)
    steps.append(PipelineStep("divergence", vol_w, int_f_nu + t_term, "=", IDENTITY_RTOL))

    if ball:
        correction = (n / (n + 1.0)) * angle.cos * int_t_z**2 / b_mu
    else:
        correction = (n / (n + 1.0)) * angle.cot * area_t**2 / measure_gamma(domain)
    steps.append(
        PipelineStep("capillary_balance", int_f_nu, vol_w + correction, "=", IDENTITY_RTOL)
    )
    steps.append(
        PipelineStep(
            "main_inequality", int_f_nu, (n + 1.0) / n * int_h_f_nu2, ">=", IDENTITY_RTOL
        )
    )
    steps.append(
        PipelineStep("hoelder", int_h_f_nu2 * int_inv_h, int_f_nu**2, ">=", ALGEBRAIC_RTOL)
    )
    final = PipelineStep(
        "heintze_karcher",
        int_inv_h,
        (n + 1.0) / n * vol_w + correction * (n + 1.0) / n,
        ">=",
        IDENTITY_RTOL,
    )
    steps.append(final)

    eq_steps = [s for s in steps if s.sense == ">="]
    equality_case = all(
        abs(s.margin) <= IDENTITY_RTOL * max(abs(s.lhs), abs(s.rhs), MACHINE_FLOOR)
        for s in eq_steps
    ) and all(s.passed for s in steps)

    rigidity = None
    if equality_case:
        d = domain.dim
        dev = solution.cell_hessians - np.eye(d)[None, :, :] / (d)
        hess_dev = float(np.sqrt(np.einsum("cab,cab->c", dev, dev)).max())
        shape_dev = float(np.max(np.abs(h_sigma * f_nu / n - 1.0 / (n + 1.0))) * n)
        rigidity = {
            "max_hessian_deviation": hess_dev,
            "max_sigma_shape_deviation": shape_dev,
        }

    return PipelineTrace(
        container=container.value,
        steps=steps,
        final_gap=final.margin,
        equality_case=equality_case,
        rigidity=rigidity,
    )
