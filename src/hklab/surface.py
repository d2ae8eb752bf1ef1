"""Simplicial hypersurface meshes and their geometric fields.

mesh_surface is the one mesher of caps and profile curves: n = 2 revolves the
samples of generator_polyline (meshutil.revolve rings zipped by
meshutil.zipper_rows), which domain meshing revolves too, and n = 1 lays its
samples out as one chain through the pole; fields, orientation and Gamma
then take one path.  Caps get exact fields, profiles those of their own
estimators; discrete estimators for everything (area-weighted normals,
cotangent mean curvature, boundary frames from the induced loop orientation)
live in discrete_geometry and are what imported meshes rely on.  Every mesh
comes from build_surface_mesh, which validates the cells and fills what a
source does not know.  On Gamma, a source's frame takes N_bar and nu_bar
from the support (support_normal, support_conormal) and mu from the source:
exact on caps, the end tangent turned about the axis on profiles.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace

import numpy as np

from hklab.caps import AnalyticCap, gamma_frame
from hklab.containers import Container, ContactAngle, support_conormal, support_normal
from hklab.errors import HkLabError, MeshQualityError
from hklab.meshutil import (
    centroids,
    check_indices,
    circumcircle_curvature,
    coordinate_rows,
    cross_rows,
    norm_rows,
    polyline_order,
    revolve,
    simplex_measures,
    zipper_rows,
)
from hklab.profiles import (
    ProfileCurve,
    profile_mean_curvature,
    profile_normals,
    profile_tangents,
    resample_profile,
)

logger = logging.getLogger("hklab.surface")


@dataclass
class SurfaceMesh:
    dim: int
    container: Container
    theta: ContactAngle | None
    vertices: np.ndarray  # (nv, dim + 1)
    cells: np.ndarray  # (nc, dim + 1) simplices, oriented outward of the enclosed region
    cell_areas: np.ndarray
    normals: np.ndarray  # per-vertex outward unit normal
    mean_curvature: np.ndarray  # per-vertex trace of the shape operator
    boundary_loops: list  # ordered index arrays with the induced orientation
    boundary_vertices: np.ndarray  # concatenation of the loops
    boundary_mu: np.ndarray  # outward conormal of Gamma within Sigma
    boundary_conormal_support: np.ndarray  # outward conormal of Gamma within T
    boundary_support_normal: np.ndarray
    low_trust: np.ndarray  # vertices whose curvature estimate is one-sided
    source: object | None = None

    @property
    def ambient_dim(self) -> int:
        return self.dim + 1

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)


def build_surface_mesh(
    dim: int,
    container: Container,
    theta: ContactAngle | None,
    vertices: np.ndarray,
    cells: np.ndarray,
    normals: np.ndarray | None = None,
    mean_curvature: np.ndarray | None = None,
    low_trust: np.ndarray | None = None,
    source: object | None = None,
) -> SurfaceMesh:
    """The one SurfaceMesh constructor; it fills what a source does not know.

    Cells are (nc, dim + 1) indices into the (nv, dim + 1) vertices.  Cell
    areas come from the cells; normals and curvature default to zero (the
    discrete estimators fill them); no vertex is low trust; Gamma is empty
    until _with_gamma sets it.
    """
    nv, d = len(vertices), dim + 1
    if vertices.ndim != 2 or vertices.shape[1] != d or cells.ndim != 2 or cells.shape[1] != d:
        raise HkLabError(f"a {dim}-dimensional surface needs {d} coordinates and {d} vertices per cell")
    check_indices(cells, nv, "cell")
    with np.errstate(divide="ignore", invalid="ignore"):  # a zero-measure cell is refused below
        areas, _ = simplex_measures(vertices, cells)
    if np.any(areas <= 0):
        raise MeshQualityError("degenerate surface cell")
    empty = np.empty((0, d))
    return SurfaceMesh(
        dim=dim,
        container=container,
        theta=theta,
        vertices=vertices,
        cells=cells,
        cell_areas=areas,
        normals=np.zeros_like(vertices) if normals is None else normals,
        mean_curvature=np.zeros(nv) if mean_curvature is None else mean_curvature,
        boundary_loops=[],
        boundary_vertices=np.empty(0, dtype=np.int64),
        boundary_mu=empty,
        boundary_conormal_support=empty,
        boundary_support_normal=empty,
        low_trust=np.zeros(nv, dtype=bool) if low_trust is None else low_trust,
        source=source,
    )


def _with_gamma(mesh: SurfaceMesh, loops: list, frame) -> SurfaceMesh:
    """mesh with Gamma as vertex loops and frame = (mu, nu_bar, N_bar) on their concatenation."""
    mu, nubar, nbar = frame
    return replace(
        mesh,
        boundary_loops=loops,
        boundary_vertices=np.concatenate(loops),
        boundary_mu=mu,
        boundary_conormal_support=nubar,
        boundary_support_normal=nbar,
    )


# ---------------------------------------------------------------------------
# measures, normals, flux
# ---------------------------------------------------------------------------


def enclosed_volume_flux(mesh: SurfaceMesh) -> float:
    """Enclosed volume from a divergence-free closure of the support patch.

    Half-space and closed surfaces use the position field x/(n+1) (the support
    contributes nothing); the half-ball uses the field x(1 - |x|^-(n+1))/(n+1)
    which is tangential on the unit sphere.
    """
    areas, normals = simplex_measures(mesh.vertices, mesh.cells)
    c = centroids(mesh.vertices, mesh.cells)
    d = mesh.ambient_dim
    if mesh.container is Container.HALF_BALL:
        r = np.linalg.norm(c, axis=1)
        w = c * (1.0 - r ** (-float(d)))[:, None] / d
    else:
        w = c / d
    return float(np.sum(areas * np.einsum("ij,ij->i", w, normals)))


# ---------------------------------------------------------------------------
# boundary loops and frames
# ---------------------------------------------------------------------------


def _boundary_loops_2d(cells: np.ndarray) -> list[np.ndarray]:
    """Loops of boundary half-edges, each started at its smallest vertex id.

    A boundary half-edge occurs once and its reverse never, that is, its
    undirected edge occurs once (the cells repeat no vertex).  The undirected
    keys are sorted once and only the singletons are kept.  The loops come in
    the order of their smallest vertex.
    """
    if len(cells) == 0:
        return []
    cells = np.asarray(cells, dtype=np.int64)
    a = cells.ravel()
    b = cells[:, [1, 2, 0]].ravel()
    lo = int(cells.min())
    span = int(cells.max()) - lo + 1
    keys = (np.minimum(a, b) - lo) * span + (np.maximum(a, b) - lo)
    order = np.argsort(keys, kind="stable")
    ranked = keys[order]
    single = np.ones(len(keys), dtype=bool)
    single[1:] = ranked[1:] != ranked[:-1]
    single[:-1] &= ranked[:-1] != ranked[1:]
    boundary = order[single]
    tails, heads = a[boundary], b[boundary]
    if len(np.unique(tails)) < len(tails):
        raise HkLabError("non-manifold boundary: vertex with two outgoing edges")
    # with one outgoing edge per vertex, the walk below ends only on a permutation
    if not np.array_equal(np.sort(tails), np.sort(heads)):
        raise HkLabError("non-manifold boundary: boundary half-edges do not close into loops")
    succ = dict(zip(tails.tolist(), heads.tolist()))
    loops = []
    visited = set()
    for start in sorted(succ):
        if start in visited:
            continue
        loop = [start]
        visited.add(start)
        cur = succ[start]
        while cur != start:
            loop.append(cur)
            visited.add(cur)
            cur = succ[cur]
        loops.append(np.asarray(loop, dtype=np.int64))
    return loops


def _loop_tangents(vertices: np.ndarray, loop: np.ndarray) -> np.ndarray:
    pts = vertices[loop]
    nxt = np.roll(pts, -1, axis=0)
    prv = np.roll(pts, 1, axis=0)
    t = nxt - prv
    return t / np.linalg.norm(t, axis=1, keepdims=True)


def _frames_from_loops(
    vertices: np.ndarray,
    loops: list[np.ndarray],
    normals: np.ndarray,
    container: Container,
):
    """Discrete (mu, nu_bar, N_bar) from the induced loop orientation.

    mu = t x nu and nu_bar = N_bar x t, which is the orientation convention
    under which mu = sin(theta) N_bar + cos(theta) nu_bar for capillary
    surfaces.
    """
    mus, nubars, nbars = [], [], []
    for loop in loops:
        pts = vertices[loop]
        t = _loop_tangents(vertices, loop)
        nbar = support_normal(container, pts)
        nu = normals[loop]
        mu = np.cross(t, nu)
        mu /= np.linalg.norm(mu, axis=1, keepdims=True)
        nubar = np.cross(nbar, t)
        nubar /= np.linalg.norm(nubar, axis=1, keepdims=True)
        mus.append(mu)
        nubars.append(nubar)
        nbars.append(nbar)
    return np.vstack(mus), np.vstack(nubars), np.vstack(nbars)


def _frames_1d(vertices: np.ndarray, order: np.ndarray, container: Container):
    """Endpoint frames of an open polyline: mu is the outgoing tangent."""
    first, last = order[0], order[-1]
    mu = np.vstack(
        [
            vertices[first] - vertices[order[1]],
            vertices[last] - vertices[order[-2]],
        ]
    )
    mu /= np.linalg.norm(mu, axis=1, keepdims=True)
    pts = vertices[[first, last]]
    nbar = support_normal(container, pts)
    # nu_bar: rotate N_bar to the support tangent pointing away from T
    cand = np.column_stack([-nbar[:, 1], nbar[:, 0]])
    other = pts[::-1]
    away = pts - other
    sign = np.where(np.einsum("ij,ij->i", cand, away) >= 0, 1.0, -1.0)
    nubar = cand * sign[:, None]
    return mu, nubar, nbar


# ---------------------------------------------------------------------------
# the mesher
# ---------------------------------------------------------------------------


def generator_polyline(source: AnalyticCap | ProfileCurve, resolution: int):
    """The generator of a source at resolution uniform steps.

    Returns the (rho, z) samples, pole first, the mean curvature at each and
    the step length.  Caps step uniformly in polar angle, profiles in
    arclength.  The n = 2 surface and domain meshers revolve these samples;
    an n = 1 profile mirrors them, at resolution // 2 steps.
    """
    if isinstance(source, ProfileCurve):
        prof = resample_profile(source, resolution)
        return prof.samples, profile_mean_curvature(prof), prof.length / resolution
    if not isinstance(source, AnalyticCap):
        raise HkLabError("3-d domain meshing needs an analytic cap or profile source")
    r = source.radius
    angles = np.linspace(0.0, source.polar_span * r, resolution + 1) / r
    samples = source.generator(angles)
    return samples, np.full(len(samples), source.mean_curvature), r * angles[-1] / resolution


def _revolve(samples: np.ndarray, spacing: float, close_end: bool):
    """Revolve a generator polyline; returns vertices, triangles, the sample of
    each vertex and omega, its horizontal unit direction away from the axis
    (zero on the axis).

    samples[0] is the pole; if close_end the final sample is a pole too
    (closed surface), otherwise the last ring is the boundary loop.  The poles
    are named, not found: a closed cap of radius 1e4 ends 1.2e-12 off the
    axis.  All rings share one azimuthal count: the structured lattice keeps
    every interior vertex regular, which the cotangent estimator rewards with
    superconvergence (ring-adaptive counts leave O(1) error pockets at the
    stitching rows).
    """
    on_axis = np.zeros(len(samples), dtype=bool)
    on_axis[0] = True
    on_axis[-1] = close_end
    vertices, vid, psi = revolve(samples, on_axis, spacing)
    ring_keys = np.append(psi, 2.0 * math.pi)
    rows = [v[:1] if pole else np.append(v, v[0]) for v, pole in zip(vid, on_axis)]
    keys = [ring_keys[:1] if pole else ring_keys for pole in on_axis]
    sample_of_vertex = np.empty(len(vertices), dtype=np.int64)
    sample_of_vertex[vid] = np.arange(len(samples))[:, None]
    horiz = vertices[:, :2]
    rho = np.linalg.norm(horiz, axis=1, keepdims=True)
    omega = np.where(rho > 1e-12, horiz / np.maximum(rho, 1e-12), 0.0)
    return vertices, zipper_rows(rows, keys), sample_of_vertex, omega


def _chain(source: AnalyticCap | ProfileCurve, resolution: int, closed: bool):
    """The n = 1 curve as one chain through the pole (a loop when closed):
    generator samples, their mean curvature, vertices, cells, the sample of
    each vertex and omega, its side of the axis.

    A cap takes resolution uniform steps over its whole arc, counterclockwise
    about its centre (the polar angle falls from a top pole and rises from the
    half-ball's bottom pole); a profile resolution // 2 steps per half, from
    its right end (bottom pole when closed) to the pole and down its mirror.
    """
    if isinstance(source, AnalyticCap):
        r, span = source.radius, source.polar_span
        if closed:
            angles = np.linspace(0.0, -2.0 * span, resolution + 1)[:-1]
        else:
            steps = np.linspace(0.0, 2.0 * span * r, resolution + 1) / r
            angles = steps - span if source.container is Container.HALF_BALL else span - steps
        samples = source.generator(angles)
        mean_curv = np.full(len(samples), source.mean_curvature)
        if source.container is Container.HALF_SPACE:
            samples[[0, -1], 1] = 0.0  # the ends sit on the plane
        vertices, sample_ix = samples, np.arange(len(samples))
        omega = np.where(samples[:, :1] < 0.0, -1.0, 1.0)
    else:
        samples, mean_curv, _ = generator_polyline(source, resolution // 2)
        m = len(samples)
        sample_ix = np.concatenate([np.arange(m)[::-1], np.arange(1, m - closed)])
        omega = np.repeat([1.0, -1.0], [m, m - 1 - closed])[:, None]
        vertices = _turned(samples[sample_ix], omega)
    order = np.arange(len(vertices))
    cells = np.column_stack([order, np.roll(order, -1)] if closed else [order[:-1], order[1:]])
    return samples, mean_curv, vertices, cells, sample_ix, omega


def _turned(rz: np.ndarray, omega: np.ndarray) -> np.ndarray:
    """Generator vectors (rho, z) turned about the axis into rho omega + z E_d."""
    return np.column_stack([rz[:, :1] * omega, rz[:, 1]])


def _gamma_loops(cells: np.ndarray, nv: int) -> list:
    """Gamma of an open mesh: the one boundary loop of a surface, or the two
    ends of a chain in its walk order."""
    if cells.shape[1] == 2:
        order = polyline_order(cells, nv)
        return [order[:1], order[-1:]]
    loops = _boundary_loops_2d(cells)
    if len(loops) != 1:
        raise HkLabError(f"surface of revolution must have one boundary loop, found {len(loops)}")
    return loops


def mesh_surface(source: AnalyticCap | ProfileCurve, resolution: int) -> SurfaceMesh:
    """Ungraded, outward-oriented mesh of the hypersurface with all its fields.

    Caps keep their exact normals, mean curvature and Gamma frame; profiles
    take theirs from the resampled profile, and their Gamma samples are low
    trust.  Unless closed, Gamma is the boundary loop or the chain's ends.
    """
    if resolution < 4:
        raise HkLabError("resolution must be at least 4")
    if not isinstance(source, (AnalyticCap, ProfileCurve)):
        raise TypeError(f"cannot mesh source of type {type(source).__name__}")
    closed = source.container is Container.CLOSED
    if source.dim == 2:
        samples, mean_curv, step = generator_polyline(source, resolution)
        vertices, cells, sample_ix, omega = _revolve(samples, step, close_end=closed)
    else:
        samples, mean_curv, vertices, cells, sample_ix, omega = _chain(source, resolution,
                                                                        closed)
    cap = isinstance(source, AnalyticCap)
    if cap:
        normals, low_trust = source.normal(vertices), None
    else:
        prof = replace(source, samples=samples)
        normals = _profile_vertex_normals(prof, sample_ix, omega)
        low_trust = sample_ix == len(samples) - 1
    mesh = build_surface_mesh(source.dim, source.container, source.theta, vertices, cells,
                              normals, mean_curv[sample_ix], low_trust, source)
    if enclosed_volume_flux(mesh) < 0:
        # the one orientation rule: swapping two vertices of every cell (of
        # mesh.cells, in place) turns the flux positive, and the areas stay
        cells[:, [0, 1]] = cells[:, [1, 0]]
    if closed:
        return mesh
    loops = _gamma_loops(mesh.cells, len(vertices))
    gamma = np.concatenate(loops)
    pts = vertices[gamma]
    return _with_gamma(mesh, loops, gamma_frame(source, pts) if cap
                       else _profile_boundary_frame(prof, pts, omega[gamma]))


def _profile_vertex_normals(profile: ProfileCurve, sample_ix: np.ndarray,
                            omega: np.ndarray) -> np.ndarray:
    """Profile normals turned onto the vertices; vertical on the axis."""
    pn = profile_normals(profile)[sample_ix]
    normals = _turned(pn, omega)
    on_axis = ~omega.any(axis=1)
    normals[on_axis, :-1] = 0.0
    normals[on_axis, -1] = np.sign(pn[on_axis, 1])
    return normals


def _profile_boundary_frame(profile: ProfileCurve, pts: np.ndarray, omega: np.ndarray):
    """The profile end tangent (rho, z) turned into mu = rho omega + z E_d at
    the Gamma points, with N_bar and nu_bar from the support."""
    t_end = np.broadcast_to(profile_tangents(profile)[-1], (len(pts), 2))
    return (_turned(t_end, omega), support_conormal(profile.container, pts),
            support_normal(profile.container, pts))


# ---------------------------------------------------------------------------
# discrete estimators
# ---------------------------------------------------------------------------


def _corner_terms(vertices: np.ndarray, cells: np.ndarray):
    """Edges of every triangle, and the dot and cross products at its corners.

    With p the coordinate rows of the triangles' vertices (coordinate_rows,
    p[c, a] is coordinate c of vertex a) and local indices mod 3, edges[a] =
    p[:, a + 2] - p[:, a + 1], coordinate rows (3, k), is the edge opposite
    vertex a.  The sides at vertex a are then edges[a + 2] = p[a + 1] - p[a]
    and -edges[a + 1] = p[a + 2] - p[a]; dots[a] is their dot product and
    crosses[a] the norm of their cross product, twice the triangle's area.
    """
    p = coordinate_rows(vertices, cells)
    edges = [p[:, (a + 2) % 3] - p[:, (a + 1) % 3] for a in range(3)]
    sides = [(edges[(a + 2) % 3], -edges[(a + 1) % 3]) for a in range(3)]
    dots = [_dot_rows(s, t) for s, t in sides]
    crosses = [norm_rows(cross_rows(s, t)) for s, t in sides]
    return edges, dots, crosses


def _dot_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products of coordinate rows (3, k), with the bits of the row-wise
    np.einsum("ab,ab->a") that they replaced: it adds x z first, then y."""
    return (a[0] * b[0] + a[2] * b[2]) + a[1] * b[1]


def _mixed_voronoi_areas(cells: np.ndarray, nv: int, edges, dots, crosses) -> np.ndarray:
    """Meyer mixed Voronoi one-ring areas (obtuse triangles fall back to 1/2, 1/4),
    summed into each vertex by local vertex, then by cell."""
    full = 0.5 * crosses[0]
    sin_area = 2.0 * full
    sq = [_dot_rows(e, e) for e in edges]
    obtuse_any = (dots[0] < 0) | (dots[1] < 0) | (dots[2] < 0)
    contribs = []
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        # |e_ik|^2 cot_j + |e_ij|^2 cot_k, with e_ik opposite j and e_ij opposite k
        vor = 0.125 * (sq[j] * (dots[j] / sin_area) + sq[k] * (dots[k] / sin_area))
        contribs.append(np.where(obtuse_any, np.where(dots[i] < 0, 0.5 * full, 0.25 * full), vor))
    return np.bincount(cells.T.ravel(), weights=np.concatenate(contribs), minlength=nv)


def _cotan_mean_curvature(vertices: np.ndarray, cells: np.ndarray, normals: np.ndarray):
    """Cotangent mean curvature.  For each local vertex i the accumulator takes
    the cells' terms at i, then at j = i + 1, each summed by cell."""
    nv = len(vertices)
    edges, dots, crosses = _corner_terms(vertices, cells)
    terms = []
    for i in range(3):
        # the angle at k = i + 2 faces the edge p_j - p_i, which is edges[k]
        k = (i + 2) % 3
        w = 0.5 * (dots[k] / np.where(crosses[k] > 0, crosses[k], np.inf))
        terms.append((w, edges[k]))
    index = cells.T[[0, 1, 1, 2, 2, 0]].ravel()
    # w (p_i - p_j) at i and -w (p_i - p_j) at j, one coordinate at a time
    acc = np.column_stack([
        np.bincount(index, weights=np.concatenate([t for w, e in terms
                                                   for t in (-(w * e[c]), w * e[c])]),
                    minlength=nv)
        for c in range(3)
    ])
    areas = _mixed_voronoi_areas(cells, nv, edges, dots, crosses)
    areas = np.where(areas > 1e-300, areas, np.inf)
    hvec = acc / areas[:, None]
    return np.einsum("ab,ab->a", hvec, normals)


def discrete_geometry(mesh: SurfaceMesh) -> SurfaceMesh:
    """Refresh all fields with mesh-based estimators.

    Normals are area-weighted facet normals, mean curvature comes from the
    cotangent Laplacian (n = 2) or the three-point circumscribed circle
    (n = 1), and boundary frames are rebuilt from the induced loop
    orientation.  Boundary vertices keep one-sided estimates and are flagged
    low trust.
    """
    areas, cell_normals = simplex_measures(mesh.vertices, mesh.cells)
    nv = len(mesh.vertices)
    # area-weighted cell normals summed onto their vertices by local vertex, then by cell
    by_local = mesh.cells.T.ravel()
    m = mesh.cells.shape[1]
    sums = [np.bincount(by_local, weights=np.tile(c * areas, m), minlength=nv)
            for c in cell_normals.T]
    norms = norm_rows(sums)
    if np.any(norms <= 0):
        raise HkLabError("vertex with vanishing normal: mesh is not orientable here")
    normals = np.column_stack(sums) / norms[:, None]

    loops = []
    if mesh.dim == 2:
        mean_curv = _cotan_mean_curvature(mesh.vertices, mesh.cells, normals)
        loops = _boundary_loops_2d(mesh.cells)
        if loops:
            frame = _frames_from_loops(mesh.vertices, loops, normals, mesh.container)
    else:
        order = polyline_order(mesh.cells, nv)
        closed = order[0] == order[-1]
        seq = order[:-1] if closed else order
        mean_curv = np.zeros(nv)
        mean_curv[seq] = circumcircle_curvature(mesh.vertices[seq], closed)
        if not closed:
            loops = [order[:1], order[-1:]]
            frame = _frames_1d(mesh.vertices, order, mesh.container)

    # the cells were validated when the mesh was built; only the fields change
    out = replace(mesh, cell_areas=areas, normals=normals, mean_curvature=mean_curv,
                  low_trust=np.zeros(nv, dtype=bool))
    if not loops:
        return out
    out = _with_gamma(out, loops, frame)
    out.low_trust[out.boundary_vertices] = True
    return out


def frame_residual(mesh: SurfaceMesh) -> float:
    """max over Gamma of |mu - (sin(theta) N_bar + cos(theta) nu_bar)|."""
    if mesh.theta is None or len(mesh.boundary_vertices) == 0:
        return 0.0
    target = mesh.theta.sin * mesh.boundary_support_normal + mesh.theta.cos * mesh.boundary_conormal_support
    return float(np.max(np.linalg.norm(mesh.boundary_mu - target, axis=1)))
