"""Mixed Dirichlet-Neumann/Robin boundary value problems on domain meshes.

The discrete problem is the P1 Galerkin form of

    laplace f = h in Omega,   f = 0 on Sigma,   d_N f - gamma f = c on int(T),

solved by preconditioned conjugate gradients after eliminating the Sigma
closure (corner vertices are Dirichlet).  Planar systems (n = 1) take the
two-level aggregation preconditioner, whose iteration count does not grow
as h falls; solid systems (n = 2) keep Jacobi, which beats every coarse
space measured on them (see fem).  The capillary constant c is
always computed from mesh-measured patch integrals so that the discrete
divergence identities close at finite resolution; closed forms serve as
cross-checks only.  The problem, the constant, the corner fits and the wedge
model read the container and the contact angle from the domain mesh.

A solution recovers its derivatives lazily, on first read (BvpSolution), and
the corner fit evaluates Hessians on its window cells only, so the graded
corner solve of an n = 1 rung fits the vertices of that window and no more.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from hklab.containers import Container, ContactAngle, as_angle
from hklab.domain import DomainMesh
from hklab.errors import (
    ConfigError,
    DegenerateConfigurationError,
    HkLabError,
    SolverError,
    WindowError,
)
from hklab.fem import (
    assemble_boundary_mass,
    assemble_stiffness,
    cell_gradients_of,
    cell_hessians_of,
    load_facets,
    load_volume,
    nondegenerate,
    p1_gradients,
    pcg,
    recover_nodal_gradients,
    two_level,
    vertex_adjacency,
)
from hklab.meshutil import ordered_sum, row_dot

logger = logging.getLogger("hklab.bvp")

DEFAULT_TOL = 1e-10


@dataclass
class MixedBvpProblem:
    domain: DomainMesh
    rhs: np.ndarray  # per-vertex source of laplace f = rhs
    flux_constant: float  # c in d_N f - gamma f = c on T
    robin_gamma: int = 0

    def __post_init__(self) -> None:
        if self.robin_gamma < 0 or int(self.robin_gamma) != self.robin_gamma:
            raise HkLabError("robin coefficient must be a nonnegative integer")
        self.rhs = np.asarray(self.rhs, dtype=float)
        if self.rhs.shape != (self.domain.num_vertices,):
            raise HkLabError("rhs must be a per-vertex array")
        if len(self.domain.sigma_facets) == 0:
            raise HkLabError("problem needs at least one Sigma facet (else singular)")


class _lazy:
    """A property computed on first read and stored on the instance.

    functools.cached_property takes one lock per property before Python 3.12,
    shared by every instance, so solutions read by concurrent threads would
    recover one at a time; this one takes none.
    """

    def __init__(self, compute):
        self.compute = compute
        self.name = compute.__name__
        self.__doc__ = compute.__doc__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.compute(obj)
        return value


@dataclass
class BvpSolution:
    """Vertex values f of a solve or of a given field, and their derivatives.

    Recovery is lazy: nodal_gradients (patch recovery), cell_hessians,
    f_nu_sigma (normal derivative per Sigma facet) and cell_gradients (P1)
    are computed on first read and cached, so a solution whose derivatives
    nobody reads recovers nothing.  `hessians_of` gives the Hessians of some
    cells and recovers only at their vertices.  The P1 basis gradients are
    recomputed where a derivative needs them, not kept.
    """

    problem: MixedBvpProblem
    f: np.ndarray
    good: np.ndarray  # nondegenerate cells, as p1_gradients masks them
    iterations: int
    residual_norm: float
    energy: float

    @property
    def domain(self) -> DomainMesh:
        return self.problem.domain

    @_lazy
    def nodal_gradients(self) -> np.ndarray:
        dom = self.domain
        return recover_nodal_gradients(dom.vertices, dom.cells, self.f, self.good)

    @_lazy
    def cell_hessians(self) -> np.ndarray:
        dom = self.domain
        grads = p1_gradients(dom.vertices, dom.cells)[0]
        return cell_hessians_of(self.nodal_gradients, grads, dom.cells, self.good)

    @_lazy
    def f_nu_sigma(self) -> np.ndarray:
        """Normal derivative on Sigma from the recovered gradient (facet vertex mean)."""
        facets = self.domain.sigma_facets
        normals = self.domain.facet_normals(facets)
        return np.einsum("fd,fd->f", self.nodal_gradients[facets].mean(axis=1), normals)

    @_lazy
    def cell_gradients(self) -> np.ndarray:
        dom = self.domain
        return cell_gradients_of(self.f, p1_gradients(dom.vertices, dom.cells)[0], dom.cells)

    def hessians_of(self, which: np.ndarray) -> np.ndarray:
        """Hessians of the cells `which`, bit for bit those rows of cell_hessians.

        Recovery fits only the vertices of these cells.
        """
        dom = self.domain
        cells = dom.cells[which]
        at = np.unique(cells)
        nodal = recover_nodal_gradients(dom.vertices, dom.cells, self.f, self.good, at=at)
        grads = p1_gradients(dom.vertices, cells)[0]
        return cell_hessians_of(nodal, grads, np.searchsorted(at, cells), self.good[which])

    def hessian_frobenius(self, which: np.ndarray | None = None) -> np.ndarray:
        """Frobenius norms of the cell Hessians, of the cells `which` when given."""
        hess = self.cell_hessians if which is None else self.hessians_of(which)
        return np.sqrt(np.einsum("cab,cab->c", hess, hess))

    def laplacian(self) -> np.ndarray:
        """Trace of the recovered Hessian (the consistent discrete laplacian)."""
        return np.einsum("caa->c", self.cell_hessians)


# ---------------------------------------------------------------------------
# mesh-measured capillary data
# ---------------------------------------------------------------------------


def gamma_loop_measure(domain: DomainMesh) -> float:
    """|Gamma| on the domain mesh: counting for d=2, ring length for d=3."""
    if domain.dim == 2:
        return float(len(domain.gamma_vertices))
    ring = domain.vertices[domain.gamma_vertices]
    return float(np.linalg.norm(np.roll(ring, -1, axis=0) - ring, axis=1).sum())


def gamma_edges(domain: DomainMesh, facets: np.ndarray):
    """The Gamma-edge table of a boundary patch: (ends, conormal, measure).

    One row per facet that meets Gamma in a full edge (all vertices but one
    on Gamma).  ends holds the d - 1 Gamma vertices of that edge in facet
    order; conormal is the unit in-facet direction perpendicular to the edge
    and pointing away from the opposite vertex; measure is the edge measure,
    the product of its d - 2 tangent lengths: 1 for d = 2, the length for
    d = 3.
    """
    on_gamma = np.isin(facets, domain.gamma_vertices)
    full = on_gamma.sum(axis=1) == facets.shape[1] - 1
    hit, mask = facets[full], on_gamma[full]
    ends = hit[mask].reshape(-1, facets.shape[1] - 1)
    opposite = hit[~mask]
    pts = domain.vertices[ends]
    # d <= 3, so the edge has at most one tangent and projecting it out is
    # one unit-vector subtraction
    tangents = pts[:, 1:] - pts[:, :1]
    lengths = np.sqrt(row_dot(tangents, tangents))
    unit = tangents / lengths[..., None]
    conormal = pts.mean(axis=1) - domain.vertices[opposite]
    conormal -= (row_dot(unit, conormal[:, None, :])[..., None] * unit).sum(axis=1)
    conormal /= np.sqrt(row_dot(conormal, conormal))[:, None]
    return ends, conormal, lengths.prod(axis=1)


def gamma_mu_vertical_integral(domain: DomainMesh) -> float:
    """integral over Gamma of <mu, E_d> with mu the Sigma-facet conormal at Gamma."""
    _, mu, measure = gamma_edges(domain, domain.sigma_facets)
    return ordered_sum(mu[:, -1] * measure)


def t_facet_integrals(domain: DomainMesh) -> tuple[float, float]:
    """(|T|, integral of x_d over T) by facet midpoint quadrature."""
    areas = domain.facet_measures(domain.t_facets)
    if len(areas) == 0:
        return 0.0, 0.0
    z = domain.vertices[:, -1][domain.t_facets].mean(axis=1)
    return float(areas.sum()), float((areas * z).sum())


def capillary_constant(
    container: Container | str,
    theta: float | ContactAngle,
    n: int,
    area_T: float | None = None,
    measure_gamma: float | None = None,
    int_T_height: float | None = None,
    int_gamma_mu_vertical: float | None = None,
) -> float:
    """The flux constant of the capillary mixed problem.

    Half-space: -n/(n+1) cot(theta) |T| / |Gamma|.
    Half-ball:  -n/(n+1) cos(theta) (int_T x_d) / (int_Gamma <mu, E_d>).
    """
    from hklab.containers import parse_container

    container = parse_container(container)
    angle = as_angle(theta)
    ratio = n / (n + 1.0)
    if container is Container.HALF_SPACE:
        if area_T is None or measure_gamma is None:
            raise HkLabError("half-space constant needs area_T and measure_gamma")
        if measure_gamma <= 0:
            raise DegenerateConfigurationError("|Gamma| vanished")
        return -ratio * angle.cot * area_T / measure_gamma
    if container is Container.HALF_BALL:
        if int_T_height is None or int_gamma_mu_vertical is None:
            raise HkLabError("half-ball constant needs the T and Gamma height integrals")
        if abs(int_gamma_mu_vertical) < 1e-300:
            raise DegenerateConfigurationError("Gamma integral of <mu, E> vanished")
        return -ratio * angle.cos * int_T_height / int_gamma_mu_vertical
    raise HkLabError("closed container has no capillary constant")


def capillary_constant_from_domain(domain: DomainMesh) -> float:
    """The capillary constant from the domain's own patch integrals and angle."""
    angle = domain.theta
    n = domain.dim - 1
    if domain.container is Container.HALF_SPACE:
        area_t, _ = t_facet_integrals(domain)
        return capillary_constant(
            domain.container, angle, n, area_T=area_t, measure_gamma=gamma_loop_measure(domain)
        )
    if domain.container is Container.HALF_BALL:
        _, int_t_z = t_facet_integrals(domain)
        return capillary_constant(
            domain.container,
            angle,
            n,
            int_T_height=int_t_z,
            int_gamma_mu_vertical=gamma_mu_vertical_integral(domain),
        )
    raise HkLabError("closed container has no capillary constant")


def capillary_problem(domain: DomainMesh) -> MixedBvpProblem:
    """The capillary configuration: unit source, mesh-measured flux constant."""
    rhs = np.ones(domain.num_vertices)
    if domain.container is Container.CLOSED:
        return MixedBvpProblem(domain, rhs, 0.0, 0)
    gamma = 1 if domain.container is Container.HALF_BALL else 0
    return MixedBvpProblem(domain, rhs, capillary_constant_from_domain(domain), gamma)


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


def dirichlet_mask(domain: DomainMesh) -> np.ndarray:
    """Vertices in the Sigma closure (corner vertices are Dirichlet)."""
    mask = np.zeros(domain.num_vertices, dtype=bool)
    if len(domain.sigma_facets):
        mask[np.unique(domain.sigma_facets)] = True
    return mask


def solve_mixed_bvp(
    problem: MixedBvpProblem,
    tol: float = DEFAULT_TOL,
    max_iter: int | None = None,
) -> BvpSolution:
    """P1 Galerkin solve with strong Dirichlet elimination and CG.

    Planar domains are preconditioned by `two_level`, solid ones by Jacobi.
    """
    domain = problem.domain
    grads, vols, good = p1_gradients(domain.vertices, domain.cells)
    if not np.all(good):
        raise SolverError(f"{int(np.sum(~good))} degenerate cells; cannot assemble")
    nv = domain.num_vertices
    stiff = assemble_stiffness(grads, vols, domain.cells, nv)

    t_areas = domain.facet_measures(domain.t_facets)
    flux = np.full(len(domain.t_facets), problem.flux_constant)
    b = load_facets(domain.t_facets, t_areas, flux, nv) - load_volume(
        domain.cells, vols, problem.rhs, nv
    )
    a = stiff
    if problem.robin_gamma > 0:
        a = stiff - problem.robin_gamma * assemble_boundary_mass(domain.t_facets, t_areas, nv)

    fixed = dirichlet_mask(domain)
    free = ~fixed
    a_ff = a[free][:, free].tocsr()
    b_f = b[free]
    if max_iter is None:
        max_iter = 500 + 100 * int(math.sqrt(nv))

    if domain.dim == 2:
        precondition = two_level(a_ff)
        name, coarse = "two-level", precondition.coarse_size
    else:
        precondition, name, coarse = None, "jacobi", 0
    f = np.zeros(nv)
    x, iters, relres = pcg(a_ff, b_f, tol, max_iter, precondition)
    logger.info("solve: %s preconditioner, coarse size %d, %d iterations, residual %.3e",
                name, coarse, iters, relres)
    f[free] = x
    energy = float(0.5 * x @ (a_ff @ x) - b_f @ x)
    return BvpSolution(problem, f, good, iters, relres, energy)


def solution_from_field(problem: MixedBvpProblem, values) -> BvpSolution:
    """Wrap analytic vertex data as a solution, with the derivatives of a solve."""
    domain = problem.domain
    if callable(values):
        f = np.asarray(values(domain.vertices), dtype=float).reshape(-1)
    else:
        f = np.asarray(values, dtype=float)
    if f.shape != (domain.num_vertices,):
        raise HkLabError("field values must be per-vertex")
    return BvpSolution(problem, f, nondegenerate(domain.cell_volumes), 0, 0.0, math.nan)


# ---------------------------------------------------------------------------
# the exact cap solution
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuadraticField:
    """f = (|x - x0|^2 - R^2) / (2(n+1)): the equality-case solution."""

    center: np.ndarray
    radius: float
    dim: int
    container: Container

    def __call__(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(points)
        d2 = np.einsum("ij,ij->i", pts - self.center, pts - self.center)
        return (d2 - self.radius**2) / (2.0 * (self.dim + 1))

    def gradient(self, points: np.ndarray) -> np.ndarray:
        return (np.atleast_2d(points) - self.center) / (self.dim + 1)

    @property
    def neumann_constant(self) -> float | None:
        """The flux constant this field realizes on T (d_N f with N = -E_d)."""
        if self.container is Container.HALF_SPACE:
            return float(self.center[-1]) / (self.dim + 1)
        if self.container is Container.HALF_BALL:
            h2 = float(self.center @ self.center)
            return (1.0 - h2 + self.radius**2) / (2.0 * (self.dim + 1))
        return None

    @property
    def sigma_normal_derivative(self) -> float:
        return self.radius / (self.dim + 1)


def exact_cap_solution(cap) -> QuadraticField:
    """Closed-form solution of the capillary problem on an analytic cap domain."""
    return QuadraticField(
        center=np.asarray(cap.center, dtype=float),
        radius=float(cap.radius),
        dim=cap.dim,
        container=cap.container,
    )


# ---------------------------------------------------------------------------
# corner exponents
# ---------------------------------------------------------------------------

# corner fits leave out this many layers of cells at Gamma (recovery
# pollution), bin log d_Gamma into this many bins and mark a growth fit with a
# lower r^2 as low trust
COLLAR_LAYERS = 2
FIT_BINS = 12
MIN_GROWTH_R2 = 0.9


@dataclass
class CornerFit:
    window: tuple[float, float]
    beta_hat: float
    lambda_from_hessian: float
    lambda_hat: float
    r2_hessian: float
    r2_growth: float
    wedge_reference: float
    low_trust: bool

    def to_dict(self) -> dict:
        return {
            "window": list(self.window),
            "beta_hat": self.beta_hat,
            "lambda_from_hessian": self.lambda_from_hessian,
            "lambda_hat": self.lambda_hat,
            "r2_hessian": self.r2_hessian,
            "r2_growth": self.r2_growth,
            "wedge_reference": self.wedge_reference,
            "low_trust": self.low_trust,
        }


def _hop_distance(domain: DomainMesh, seeds: np.ndarray, max_hops: int) -> np.ndarray:
    """Graph distance from the seed vertices, capped at max_hops + 1."""
    nv = domain.num_vertices
    adj = vertex_adjacency(domain.cells, nv)
    hop = np.full(nv, max_hops + 1, dtype=np.int64)
    hop[seeds] = 0
    frontier = np.zeros(nv, dtype=np.float32)
    frontier[seeds] = 1.0
    for level in range(1, max_hops + 1):
        reached = ((adj @ frontier) > 0) & (hop > level)
        hop[reached] = level
        frontier = reached.astype(np.float32)
    return hop


def _binned_log_fit(d: np.ndarray, vals: np.ndarray, agg: str):
    mask = (d > 0) & (vals > 0) & np.isfinite(vals)
    if int(mask.sum()) < 4:
        raise WindowError("not enough samples in the corner window")
    ld = np.log10(d[mask])
    lv = np.log10(vals[mask])
    lo, hi = float(ld.min()), float(ld.max())
    if hi - lo < 0.5:
        raise WindowError("corner window spans less than half a decade")
    edges = np.linspace(lo, hi, FIT_BINS + 1)
    which = np.clip(np.digitize(ld, edges) - 1, 0, FIT_BINS - 1)
    xs, ys = [], []
    for b in range(FIT_BINS):
        sel = which == b
        if not np.any(sel):
            continue
        xs.append(float(np.mean(ld[sel])))
        ys.append(float(np.max(lv[sel]) if agg == "max" else np.mean(lv[sel])))
    if len(xs) < 3:
        raise WindowError("fewer than three populated bins in the corner window")
    xs = np.asarray(xs)
    ys = np.asarray(ys)
    slope, intercept = np.polyfit(xs, ys, 1)
    pred = slope * xs + intercept
    ss_res = float(np.sum((ys - pred) ** 2))
    ss_tot = float(np.sum((ys - ys.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(slope), r2


def corner_exponent(solution: BvpSolution, *, window_fraction: float = 0.2) -> CornerFit:
    """Log-log fits of the Hessian decay and the |f| growth against d_Gamma.

    The window excludes COLLAR_LAYERS layers of cells at Gamma (recovery
    pollution) and caps distances at window_fraction, in (0, 1), of the
    domain diameter; Hessians are read on the window cells only.  lambda_hat
    comes from the |f| growth; the Hessian fit reports beta_hat and the
    implied 3 - 2 beta_hat.
    """
    if not 0.0 < window_fraction < 1.0:
        raise ConfigError(f"corner window fraction must lie in (0, 1), got {window_fraction}")
    domain = solution.domain
    if domain.dim != 2:
        raise HkLabError("corner exponent fits are for planar domains (n = 1)")
    if len(domain.gamma_vertices) == 0:
        raise HkLabError("domain has no corners")
    angle = domain.theta

    extent = domain.vertices.max(axis=0) - domain.vertices.min(axis=0)
    diam = float(np.linalg.norm(extent))
    d_hi = window_fraction * diam

    hop = _hop_distance(domain, domain.gamma_vertices, COLLAR_LAYERS)
    cell_hop = hop[domain.cells].min(axis=1)
    centroids = domain.vertices[domain.cells].mean(axis=1)
    gamma_pts = domain.vertices[domain.gamma_vertices]
    d_cell = np.min(
        np.linalg.norm(centroids[:, None, :] - gamma_pts[None, :, :], axis=2), axis=1
    )
    window = np.flatnonzero((cell_hop > COLLAR_LAYERS) & (d_cell <= d_hi))
    d_used = d_cell[window]
    beta_slope, r2_h = _binned_log_fit(d_used, solution.hessian_frobenius(window), "mean")
    beta_hat = -beta_slope

    vert_ok = (hop > COLLAR_LAYERS) & (domain.d_gamma <= d_hi)
    growth_slope, r2_g = _binned_log_fit(
        domain.d_gamma[vert_ok], np.abs(solution.f[vert_ok]), "max"
    )

    wedge_ref = math.pi / (2.0 * angle.radians) if angle is not None else math.nan
    return CornerFit(
        window=(float(d_used.min()), float(d_used.max())),
        beta_hat=beta_hat,
        lambda_from_hessian=3.0 - 2.0 * beta_hat,
        lambda_hat=growth_slope,
        r2_hessian=r2_h,
        r2_growth=r2_g,
        wedge_reference=wedge_ref,
        low_trust=(r2_g < MIN_GROWTH_R2),
    )


# ---------------------------------------------------------------------------
# wedge barrier model
# ---------------------------------------------------------------------------


@dataclass
class WedgeBarrier:
    lam: float
    theta: float
    harmonic_residual: float
    neumann_value: float
    min_profile: float
    positivity_ok: bool

    def to_dict(self) -> dict:
        return {
            "lambda": self.lam,
            "theta": self.theta,
            "harmonic_residual": self.harmonic_residual,
            "neumann_value": self.neumann_value,
            "min_profile": self.min_profile,
            "positivity_ok": self.positivity_ok,
        }


def wedge_barrier_check(lam: float, theta: float | ContactAngle, grid: int = 128) -> WedgeBarrier:
    """Evaluate the cosine barrier candidate r^lambda cos(lambda eta) on a polar grid.

    Reports (a) the harmonicity residual assembled from the three polar
    Laplacian terms, (b) the Neumann value -phi'(0) at the flat side (zero for
    the pure cosine, which is why a perturbation is needed for a strict
    barrier), and (c) the positivity margin min phi = cos(lambda theta).
    """
    angle = as_angle(theta)
    if grid < 64:
        raise ConfigError(f"wedge grid must be at least 64, got {grid}")
    upper = math.pi / (2.0 * angle.radians)
    if not (1.0 - 1e-9 <= lam <= upper + 1e-9):
        raise ConfigError(
            f"lambda {lam} outside the admissible window [1, pi/(2 theta)] = [1, {upper}]"
        )
    eta = np.linspace(0.0, angle.radians, grid)
    r = np.linspace(1.0 / grid, 1.0, grid)
    rr, ee = np.meshgrid(r, eta, indexing="ij")
    profile = np.cos(lam * ee)
    radial = rr ** (lam - 2.0)
    term_rr = lam * (lam - 1.0) * radial * profile
    term_r = lam * radial * profile
    term_ee = -(lam**2) * radial * profile
    total = term_rr + term_r + term_ee
    scale = float(np.max(np.abs(term_rr) + np.abs(term_r) + np.abs(term_ee)))
    residual = float(np.max(np.abs(total))) / max(scale, 1e-300)
    min_profile = float(np.min(np.cos(lam * eta)))
    return WedgeBarrier(
        lam=lam,
        theta=angle.radians,
        harmonic_residual=residual,
        neumann_value=float(lam * math.sin(lam * 0.0)),
        min_profile=min_profile,
        positivity_ok=bool(min_profile > 1e-12),
    )


def wedge_model_values(domain: DomainMesh, *, lam: float | None = None) -> np.ndarray:
    """Vertex values of a field with the exact wedge behavior at every corner.

    Each corner contributes r^lambda cos(lambda eta) in its own (T-edge,
    inward) frame; the product of the contributions vanishes on Sigma near the
    corners and keeps the pure power law r^lambda at each corner, so corner
    fits on this field recover lambda directly.  lambda defaults to
    pi/(2 theta) with the domain's contact angle theta.
    """
    if domain.dim != 2:
        raise HkLabError("wedge model fields are planar")
    if lam is None:
        lam = math.pi / (2.0 * domain.theta.radians)
    corners = domain.gamma_vertices
    if len(corners) != 2:
        raise HkLabError("wedge model expects exactly two corners")
    verts = domain.vertices
    centroid = verts.mean(axis=0)

    # the T edge at a corner runs against the T-facet conormal there
    ends, conormal, _ = gamma_edges(domain, domain.t_facets)
    factors = []
    for corner in corners:
        t_dirs = -conormal[ends[:, 0] == corner]
        if len(t_dirs) == 0:
            raise HkLabError("corner has no adjacent T facet")
        t_dir = t_dirs[0]
        inward = np.array([-t_dir[1], t_dir[0]])
        if inward @ (centroid - verts[corner]) < 0:
            inward = -inward
        delta = verts - verts[corner]
        rr = np.linalg.norm(delta, axis=1)
        eta = np.arctan2(delta @ inward, delta @ t_dir)
        factors.append(np.where(rr > 0, rr**lam, 0.0) * np.cos(lam * eta))
    span = float(np.linalg.norm(verts[corners[1]] - verts[corners[0]]))
    return factors[0] * factors[1] / span**lam
