"""Mixed Dirichlet-Neumann/Robin boundary value problems on domain meshes.

The discrete problem is the P1 Galerkin form of

    laplace f = h in Omega,   f = 0 on Sigma,   d_N f - gamma f = c on int(T),

with the container's Robin coefficient gamma (1 on the half-ball, 0 on the
half-space; MixedBvpProblem.robin_gamma), solved by preconditioned conjugate gradients after eliminating the Sigma
closure (corner vertices are Dirichlet).  Planar systems (n = 1) take the
two-level aggregation preconditioner, whose iteration count does not grow
as h falls.  Solid systems (n = 2) that come from the revolve take the exact
inverse of their rotation average over the domain's rings (fem.circulant),
which brings CG to 6-10 iterations; Sigma is swept from cross-section
edges, so it holds whole rings and the free unknowns keep the ring
structure.  A solid without rings (one read from a file) keeps Jacobi.  The
capillary constant c is
always computed from mesh-measured patch integrals so that the discrete
divergence identities close at finite resolution; closed forms serve as
cross-checks only.  The problem, the constant, the corner fits and the wedge
model read the container and the contact angle from the domain mesh.

Assembly, derivative recovery and the corner collar all read one vertex
graph, the domain's own (DomainMesh.graph), which the first of them builds.
A solution recovers its derivatives lazily, on first read (BvpSolution), and
the corner fit evaluates Hessians on its window cells only, so the graded
corner solve of an n = 1 rung fits the vertices of that window and no more.
The stiffness, the cell gradients and the cell Hessians come from fem's
chunked kernels, which take the vertices and form P1 gradients chunk by
chunk: no (nc, m, .) array is built beyond the results themselves.
"""

from __future__ import annotations

import logging
import math
from dataclasses import asdict, dataclass

import numpy as np

from hklab.containers import Container
from hklab.domain import DomainBoundary, DomainMesh
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
    circulant,
    load_facets,
    load_volume,
    nondegenerate,
    p1_gradients,
    pcg,
    recover_nodal_gradients,
    two_level,
)
from hklab.meshutil import centroids, lazy, nearest_distance, ordered_sum, row_dot

logger = logging.getLogger("hklab.bvp")

# perfbench/spans.py times fem kernels where this module binds them.  The solve
# path no longer calls p1_gradients (its kernels take their gradients chunk by
# chunk), so the fem.p1_gradients span reads 0; the name stays bound here so
# that the trace site still resolves.
_TRACED_ONLY = p1_gradients

DEFAULT_TOL = 1e-10


@dataclass
class MixedBvpProblem:
    domain: DomainMesh
    rhs: np.ndarray  # per-vertex source of laplace f = rhs
    flux_constant: float  # c in d_N f - gamma f = c on T

    def __post_init__(self) -> None:
        self.rhs = np.asarray(self.rhs, dtype=float)
        if self.rhs.shape != (self.domain.num_vertices,):
            raise HkLabError("rhs must be a per-vertex array")
        if len(self.domain.sigma_facets) == 0:
            raise HkLabError("problem needs at least one Sigma facet (else singular)")

    @property
    def robin_gamma(self) -> int:
        """The container's Robin coefficient gamma: 1 on the half-ball, the one the
        x_d-weighted Reilly formula needs, and 0 (pure Neumann on T) elsewhere."""
        return 1 if self.domain.container is Container.HALF_BALL else 0


@dataclass
class BvpSolution:
    """Vertex values f of a solve or of a given field, and their derivatives.

    Recovery is lazy: nodal_gradients (patch recovery), cell_hessians,
    f_nu_sigma (normal derivative per Sigma facet) and cell_gradients (P1)
    are computed on first read and cached, so a solution whose derivatives
    nobody reads recovers nothing.  `hessians_of` gives the Hessians of some
    cells and recovers only at their vertices.  The P1 basis gradients are
    recomputed chunk by chunk where a derivative needs them, never kept.
    """

    problem: MixedBvpProblem
    f: np.ndarray
    iterations: int
    residual_norm: float
    energy: float

    @property
    def domain(self) -> DomainMesh:
        return self.problem.domain

    @property
    def diagnostics(self) -> dict:
        """The solver record: iterations, residual norm, energy and flux constant."""
        return {"iterations": self.iterations, "residual_norm": self.residual_norm,
                "energy": self.energy, "flux_constant": self.problem.flux_constant}

    @lazy
    def good(self) -> np.ndarray:
        """The mesh's nondegenerate cells, those p1_gradients does not zero."""
        return nondegenerate(self.domain.cell_volumes)

    @lazy
    def nodal_gradients(self) -> np.ndarray:
        return recover_nodal_gradients(self.domain.vertices, self.domain.graph, self.f)

    @lazy
    def cell_hessians(self) -> np.ndarray:
        dom = self.domain
        return cell_hessians_of(self.nodal_gradients, dom.vertices, dom.cells, self.good)

    @lazy
    def f_nu_sigma(self) -> np.ndarray:
        """Normal derivative on Sigma from the recovered gradient (facet vertex mean)."""
        facets = self.domain.sigma_facets
        normals = self.domain.facet_normals(facets)
        return np.einsum("fd,fd->f", self.nodal_gradients[facets].mean(axis=1), normals)

    @lazy
    def cell_gradients(self) -> np.ndarray:
        dom = self.domain
        return cell_gradients_of(self.f, dom.vertices, dom.cells, self.good)

    def hessians_of(self, which: np.ndarray) -> np.ndarray:
        """Hessians of the cells `which`, bit for bit those rows of cell_hessians.

        Recovery fits only the vertices of these cells.
        """
        dom = self.domain
        cells = dom.cells[which]
        at = np.unique(cells)
        nodal = recover_nodal_gradients(dom.vertices, dom.graph, self.f, at=at)
        return cell_hessians_of(nodal, dom.vertices[at], np.searchsorted(at, cells),
                                self.good[which])

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


def measure_gamma(domain: DomainMesh) -> float:
    """|Gamma|, the sum of the Gamma-edge measures of T, whatever the order of Gamma."""
    return ordered_sum(gamma_edges(domain, domain.t_facets)[2])


def gamma_mu_vertical_integral(domain: DomainMesh) -> float:
    """integral over Gamma of <mu, E_d> with mu the Sigma-facet conormal at Gamma."""
    _, mu, measure = gamma_edges(domain, domain.sigma_facets)
    return ordered_sum(mu[:, -1] * measure)


def t_facet_integrals(domain: DomainBoundary) -> tuple[float, float]:
    """(|T|, integral of x_d over T) by facet midpoint quadrature."""
    areas = domain.facet_measures(domain.t_facets)
    z = domain.vertices[:, -1][domain.t_facets].mean(axis=1)
    return float(areas.sum()), float((areas * z).sum())


def capillary_constant(domain: DomainMesh) -> float:
    """The flux constant of the capillary mixed problem, from the domain's own
    patch integrals and contact angle.

    Half-space: -n/(n+1) cot(theta) |T| / |Gamma| (measure_gamma).
    Half-ball:  -n/(n+1) cos(theta) (int_T x_d) / (int_Gamma <mu, E_d>).
    """
    n = domain.dim - 1
    ratio = n / (n + 1.0)
    if domain.container is Container.HALF_SPACE:
        area_t, _ = t_facet_integrals(domain)
        size_gamma = measure_gamma(domain)
        if size_gamma <= 0:
            raise DegenerateConfigurationError("|Gamma| vanished")
        return -ratio * domain.theta.cot * area_t / size_gamma
    if domain.container is Container.HALF_BALL:
        _, int_t_z = t_facet_integrals(domain)
        int_mu_z = gamma_mu_vertical_integral(domain)
        if abs(int_mu_z) < 1e-300:
            raise DegenerateConfigurationError("Gamma integral of <mu, E> vanished")
        return -ratio * domain.theta.cos * int_t_z / int_mu_z
    raise HkLabError("closed container has no capillary constant")


def capillary_problem(domain: DomainMesh) -> MixedBvpProblem:
    """The capillary configuration: unit source, mesh-measured flux constant."""
    c = 0.0 if domain.container is Container.CLOSED else capillary_constant(domain)
    return MixedBvpProblem(domain, np.ones(domain.num_vertices), c)


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


def dirichlet_mask(domain: DomainMesh) -> np.ndarray:
    """Vertices in the Sigma closure (corner vertices are Dirichlet)."""
    mask = np.zeros(domain.num_vertices, dtype=bool)
    mask[domain.sigma_facets] = True
    return mask


def solve_mixed_bvp(
    problem: MixedBvpProblem,
    tol: float = DEFAULT_TOL,
    max_iter: int | None = None,
) -> BvpSolution:
    """P1 Galerkin solve with strong Dirichlet elimination and CG.

    Planar domains are preconditioned by `two_level`; solid ones by
    `circulant` over their rings, renumbered to the free unknowns, or by
    Jacobi when they have none.  A Dirichlet set that splits a ring is
    refused.
    """
    domain = problem.domain
    vols = domain.cell_volumes
    good = nondegenerate(vols)
    if not np.all(good):
        raise SolverError(f"{int(np.sum(~good))} degenerate cells; cannot assemble")
    nv = domain.num_vertices
    graph = domain.graph
    a = assemble_stiffness(domain.vertices, vols, domain.cells, graph)

    t_areas = domain.facet_measures(domain.t_facets)
    flux = np.full(len(domain.t_facets), problem.flux_constant)
    b = load_facets(domain.t_facets, t_areas, flux, nv) - load_volume(
        domain.cells, vols, problem.rhs, nv
    )
    if problem.robin_gamma > 0:
        a = a - problem.robin_gamma * assemble_boundary_mass(domain.t_facets, t_areas, graph)

    fixed = dirichlet_mask(domain)
    free = ~fixed
    a_ff = a[free][:, free].tocsr()
    del a  # its memory serves the preconditioner's set-up (peak RSS)
    b_f = b[free]
    if max_iter is None:
        max_iter = 500 + 100 * int(math.sqrt(nv))

    if domain.dim == 2:
        precondition = two_level(a_ff)
        name = f"two-level preconditioner, coarse size {precondition.coarse_size}"
    elif domain.rings is not None:
        ring_fixed = fixed[domain.rings]
        if np.any(ring_fixed != ring_fixed[:, :1]):
            raise SolverError("the Dirichlet set is not a union of whole rings")
        rings = (np.cumsum(free) - 1)[domain.rings[~ring_fixed[:, 0]]]
        precondition = circulant(a_ff, rings)
        name = f"circulant preconditioner, factored size {precondition.factored_size}"
    else:
        precondition, name = None, "jacobi preconditioner, coarse size 0"
    f = np.zeros(nv)
    x, iters, relres = pcg(a_ff, b_f, tol, max_iter, precondition)
    logger.info("solve: %s, %d iterations, residual %.3e", name, iters, relres)
    f[free] = x
    energy = float(0.5 * x @ (a_ff @ x) - b_f @ x)
    return BvpSolution(problem, f, iters, relres, energy)


def solution_from_field(problem: MixedBvpProblem, values) -> BvpSolution:
    """Wrap analytic vertex data as a solution, with the derivatives of a solve."""
    domain = problem.domain
    if callable(values):
        f = np.asarray(values(domain.vertices), dtype=float).reshape(-1)
    else:
        f = np.asarray(values, dtype=float)
    if f.shape != (domain.num_vertices,):
        raise HkLabError("field values must be per-vertex")
    return BvpSolution(problem, f, 0, 0.0, math.nan)


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
        return {**asdict(self), "window": list(self.window)}


def _hop_distance(domain: DomainMesh, seeds: np.ndarray, max_hops: int) -> np.ndarray:
    """Distance along the mesh's vertex graph from the seed vertices, capped at
    max_hops + 1."""
    hop = np.full(domain.num_vertices, max_hops + 1, dtype=np.int64)
    hop[seeds] = 0
    for level in range(1, max_hops + 1):
        frontier = (hop == level - 1).astype(np.float32)
        hop[((domain.graph @ frontier) > 0) & (hop > level)] = level
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


def check_corner_inputs(window_fraction: float | None = None, lam: float | None = None) -> None:
    """Refuse a corner window fraction outside (0, 1) and a wedge exponent that
    is not finite and positive; None checks nothing."""
    if window_fraction is not None and not 0.0 < window_fraction < 1.0:
        raise ConfigError(f"corner window fraction must lie in (0, 1), got {window_fraction}")
    if lam is not None and not (math.isfinite(lam) and lam > 0):
        raise ConfigError(f"wedge exponent lambda must be finite and > 0, got {lam}")


def corner_exponent(solution: BvpSolution, *, window_fraction: float = 0.2) -> CornerFit:
    """Log-log fits of the Hessian decay and the |f| growth against d_Gamma.

    The window excludes COLLAR_LAYERS layers of cells at Gamma (recovery
    pollution) and caps distances at window_fraction, in (0, 1), of the
    domain diameter; Hessians are read on the window cells only.  lambda_hat
    comes from the |f| growth; the Hessian fit reports beta_hat and the
    implied 3 - 2 beta_hat.
    """
    check_corner_inputs(window_fraction)
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
    d_cell = nearest_distance(centroids(domain.vertices, domain.cells),
                              domain.vertices[domain.gamma_vertices])
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
    check_corner_inputs(lam=lam)
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
