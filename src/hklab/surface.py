"""Simplicial hypersurface meshes and their geometric fields.

mesh_surface builds polylines (n = 1) or ring-zipper triangulations (n = 2)
from analytic caps and profile curves.  Analytic sources get exact fields;
profile sources get fields from the profile's own estimators; discrete
estimators for everything (area-weighted normals, cotangent mean curvature,
boundary frames from the induced loop orientation) live in discrete_geometry
and are what imported meshes rely on.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace

import numpy as np

from hklab.caps import AnalyticCap, gamma_frame
from hklab.containers import Container, ContactAngle, support_normal
from hklab.errors import HkLabError, MeshQualityError
from hklab.meshutil import graded_nodes, polyline_order, zipper_rings
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

    def boundary_index_of(self) -> dict:
        return {int(v): k for k, v in enumerate(self.boundary_vertices)}


# ---------------------------------------------------------------------------
# measures, normals, flux
# ---------------------------------------------------------------------------


def cell_measures(vertices: np.ndarray, cells: np.ndarray, dim: int):
    """(areas, unit normals, centroids) of the cells; normals follow cell order."""
    pts = vertices[cells]
    centroids = pts.mean(axis=1)
    if dim == 1:
        edge = pts[:, 1] - pts[:, 0]
        lengths = np.linalg.norm(edge, axis=1)
        tangents = edge / lengths[:, None]
        normals = np.column_stack([tangents[:, 1], -tangents[:, 0]])
        return lengths, normals, centroids
    e1 = pts[:, 1] - pts[:, 0]
    e2 = pts[:, 2] - pts[:, 0]
    cross = np.cross(e1, e2)
    doubled = np.linalg.norm(cross, axis=1)
    if np.any(doubled <= 0):
        raise MeshQualityError("degenerate surface cell")
    return 0.5 * doubled, cross / doubled[:, None], centroids


def enclosed_volume_flux(mesh: SurfaceMesh) -> float:
    """Enclosed volume from a divergence-free closure of the support patch.

    Half-space and closed surfaces use the position field x/(n+1) (the support
    contributes nothing); the half-ball uses the field x(1 - |x|^-(n+1))/(n+1)
    which is tangential on the unit sphere.
    """
    areas, normals, centroids = cell_measures(mesh.vertices, mesh.cells, mesh.dim)
    d = mesh.ambient_dim
    if mesh.container is Container.HALF_BALL:
        r = np.linalg.norm(centroids, axis=1)
        w = centroids * (1.0 - r ** (-float(d)))[:, None] / d
    else:
        w = centroids / d
    return float(np.sum(areas * np.einsum("ij,ij->i", w, normals)))


def surface_spacing(mesh: SurfaceMesh) -> float:
    if mesh.dim == 1:
        return float(np.mean(mesh.cell_areas))
    return float(np.sqrt(np.mean(mesh.cell_areas)))


# ---------------------------------------------------------------------------
# boundary loops and frames
# ---------------------------------------------------------------------------


def _boundary_loops_2d(cells: np.ndarray) -> list[np.ndarray]:
    """Loops of boundary half-edges, each started at its smallest vertex id.

    A boundary half-edge occurs once and its reverse never; the loops come in
    the order of their smallest vertex.
    """
    if len(cells) == 0:
        return []
    cells = np.asarray(cells, dtype=np.int64)
    a = cells.ravel()
    b = cells[:, [1, 2, 0]].ravel()
    lo = int(cells.min())
    span = int(cells.max()) - lo + 1
    keys, inverse, counts = np.unique((a - lo) * span + (b - lo), return_inverse=True,
                                      return_counts=True)
    reverse = (b - lo) * span + (a - lo)
    slot = np.minimum(np.searchsorted(keys, reverse), len(keys) - 1)
    boundary = (counts[inverse] == 1) & (keys[slot] != reverse)
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


def _frames_1d(
    vertices: np.ndarray, order: np.ndarray, normals: np.ndarray, container: Container
):
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
# generators
# ---------------------------------------------------------------------------


def _ladder_angles(cap: AnalyticCap, resolution: int, grading: float) -> np.ndarray:
    """Polar ladder of the generator arc, graded toward the support end."""
    if cap.container is Container.HALF_SPACE:
        span = cap.theta.effective
        sides = "end"
    elif cap.container is Container.HALF_BALL:
        span = cap.quantities["sigma_half_angle"]
        sides = "end"
    else:
        span = math.pi
        sides = "none"
    arc = span * cap.radius
    nodes = graded_nodes(arc, arc / resolution, grading, sides=sides)
    return nodes / cap.radius


def _cap_generator_point(cap: AnalyticCap, angles: np.ndarray) -> np.ndarray:
    """Generator (rho, z) samples at polar angles measured from the pole."""
    r = cap.radius
    if cap.container is Container.HALF_BALL:
        return np.column_stack([r * np.sin(angles), cap.center[-1] - r * np.cos(angles)])
    return np.column_stack([r * np.sin(angles), cap.center[-1] + r * np.cos(angles)])


def _revolve(
    samples: np.ndarray,
    ring_target: float,
    close_end: bool,
):
    """Revolve a generator polyline; returns vertices, triangles, ring indices.

    samples[0] must lie on the axis (pole); if close_end the final sample is a
    pole too (closed surface), otherwise the last ring is the boundary loop.
    All rings share one azimuthal count: the structured lattice keeps every
    interior vertex regular, which the cotangent estimator rewards with
    superconvergence (ring-adaptive counts leave O(1) error pockets at the
    stitching rows).
    """
    rho_max = float(samples[:, 0].max())
    k = max(8, int(math.ceil(2.0 * math.pi * rho_max / ring_target)))
    psi = 2.0 * math.pi * np.arange(k) / k
    cos_psi, sin_psi = np.cos(psi), np.sin(psi)

    verts = [np.array([0.0, 0.0, samples[0, 1]])]
    rings: list[np.ndarray] = [np.array([0])]
    ring_angles: list[np.ndarray] = [np.array([0.0])]
    sample_of_vertex = [0]
    last = len(samples) - 1
    for i in range(1, last + (0 if close_end else 1)):
        rho, z = samples[i]
        ring = np.arange(len(verts), len(verts) + k)
        verts.extend(np.column_stack([rho * cos_psi, rho * sin_psi, np.full(k, z)]))
        rings.append(ring)
        ring_angles.append(psi)
        sample_of_vertex.extend([i] * k)
    if close_end:
        verts.append(np.array([0.0, 0.0, samples[last, 1]]))
        rings.append(np.array([len(verts) - 1]))
        ring_angles.append(np.array([0.0]))
        sample_of_vertex.append(last)

    tris: list[tuple[int, int, int]] = []
    for a in range(len(rings) - 1):
        ia, ib = rings[a], rings[a + 1]
        if len(ia) == 1:
            tris.extend(
                (int(ia[0]), int(ib[j]), int(ib[(j + 1) % len(ib)])) for j in range(len(ib))
            )
        elif len(ib) == 1:
            tris.extend(
                (int(ia[j]), int(ib[0]), int(ia[(j + 1) % len(ia)])) for j in range(len(ia))
            )
        else:
            tris.extend(zipper_rings(ia, ring_angles[a], ib, ring_angles[a + 1]))
    vertices = np.asarray(verts, dtype=float)
    cells = np.asarray(tris, dtype=np.int64)
    return vertices, cells, rings, np.asarray(sample_of_vertex, dtype=np.int64)


def _orient_outward(mesh_args: dict) -> dict:
    """Flip cell orientation (and 1d traversal) so the flux volume is positive."""
    probe = SurfaceMesh(**mesh_args)
    if enclosed_volume_flux(probe) < 0:
        cells = mesh_args["cells"].copy()
        cells[:, [0, 1]] = cells[:, [1, 0]]
        mesh_args["cells"] = cells
    return mesh_args


def mesh_surface(
    source: AnalyticCap | ProfileCurve, resolution: int, grading: float = 0.0
) -> SurfaceMesh:
    """Simplicial mesh of the hypersurface with all geometric fields populated."""
    if resolution < 4:
        raise HkLabError("resolution must be at least 4")
    if isinstance(source, AnalyticCap):
        if source.dim == 1:
            return _mesh_cap_1d(source, resolution, grading)
        return _mesh_cap_2d(source, resolution, grading)
    if isinstance(source, ProfileCurve):
        if source.dim == 1:
            return _mesh_profile_1d(source, resolution, grading)
        return _mesh_profile_2d(source, resolution, grading)
    raise TypeError(f"cannot mesh source of type {type(source).__name__}")


def _mesh_cap_2d(cap: AnalyticCap, resolution: int, grading: float) -> SurfaceMesh:
    angles = _ladder_angles(cap, resolution, grading)
    samples = _cap_generator_point(cap, angles)
    ring_target = cap.radius * (angles[-1] - angles[0]) / resolution
    closed = cap.container is Container.CLOSED
    vertices, cells, rings, sample_ix = _revolve(samples, ring_target, close_end=closed)

    normals = cap.normal(vertices)
    mean_curv = np.full(len(vertices), cap.mean_curvature)
    areas, _, _ = cell_measures(vertices, cells, 2)
    args = dict(
        dim=2,
        container=cap.container,
        theta=cap.theta,
        vertices=vertices,
        cells=cells,
        cell_areas=areas,
        normals=normals,
        mean_curvature=mean_curv,
        boundary_loops=[],
        boundary_vertices=np.empty(0, dtype=np.int64),
        boundary_mu=np.empty((0, 3)),
        boundary_conormal_support=np.empty((0, 3)),
        boundary_support_normal=np.empty((0, 3)),
        low_trust=np.zeros(len(vertices), dtype=bool),
        source=cap,
    )
    args = _orient_outward(args)
    if not closed:
        loops = _boundary_loops_2d(args["cells"])
        if len(loops) != 1:
            raise HkLabError(f"cap surface must have one boundary loop, found {len(loops)}")
        args["boundary_loops"] = loops
        args["boundary_vertices"] = loops[0]
        mu, nubar, nbar = gamma_frame(cap, vertices[loops[0]])
        args["boundary_mu"] = mu
        args["boundary_conormal_support"] = nubar
        args["boundary_support_normal"] = nbar
    return SurfaceMesh(**args)


def _mesh_cap_1d(cap: AnalyticCap, resolution: int, grading: float) -> SurfaceMesh:
    r = cap.radius
    if cap.container is Container.CLOSED:
        beta = np.linspace(0.0, 2.0 * math.pi, resolution + 1)[:-1]
        # (-sin, cos) traversal keeps the enclosed disk on the left
        vertices = cap.center[None, :] + r * np.column_stack([-np.sin(beta), np.cos(beta)])
        order = np.arange(len(beta))
        cells = np.column_stack([order, np.roll(order, -1)]).astype(np.int64)
        boundary = {}
    elif cap.container is Container.HALF_SPACE:
        span = cap.theta.effective
        arc = graded_nodes(2.0 * span * r, 2.0 * span * r / resolution, grading, sides="both")
        beta = span - arc / r  # from +theta down to -theta: outward normals
        vertices = cap.center[None, :] + r * np.column_stack([np.sin(beta), np.cos(beta)])
        vertices[0, 1] = 0.0
        vertices[-1, 1] = 0.0
        order = np.arange(len(beta))
        cells = np.column_stack([order[:-1], order[1:]]).astype(np.int64)
        boundary = {"order": order}
    else:
        span = cap.quantities["sigma_half_angle"]
        arc = graded_nodes(2.0 * span * r, 2.0 * span * r / resolution, grading, sides="both")
        alpha = -span + arc / r  # from -alpha* to +alpha*: outward normals
        vertices = cap.center[None, :] + r * np.column_stack([np.sin(alpha), -np.cos(alpha)])
        order = np.arange(len(alpha))
        cells = np.column_stack([order[:-1], order[1:]]).astype(np.int64)
        boundary = {"order": order}

    normals = cap.normal(vertices)
    mean_curv = np.full(len(vertices), cap.mean_curvature)
    areas, _, _ = cell_measures(vertices, cells, 1)
    args = dict(
        dim=1,
        container=cap.container,
        theta=cap.theta,
        vertices=vertices,
        cells=cells,
        cell_areas=areas,
        normals=normals,
        mean_curvature=mean_curv,
        boundary_loops=[],
        boundary_vertices=np.empty(0, dtype=np.int64),
        boundary_mu=np.empty((0, 2)),
        boundary_conormal_support=np.empty((0, 2)),
        boundary_support_normal=np.empty((0, 2)),
        low_trust=np.zeros(len(vertices), dtype=bool),
        source=cap,
    )
    if boundary:
        order = boundary["order"]
        ends = np.array([order[0], order[-1]], dtype=np.int64)
        args["boundary_loops"] = [ends[:1], ends[1:]]
        args["boundary_vertices"] = ends
        mu, nubar, nbar = gamma_frame(cap, vertices[ends])
        args["boundary_mu"] = mu
        args["boundary_conormal_support"] = nubar
        args["boundary_support_normal"] = nbar
    mesh = SurfaceMesh(**args)
    if enclosed_volume_flux(mesh) < 0:
        raise HkLabError("1d cap polyline orientation is inverted")
    return mesh


def _profile_vertex_fields(profile: ProfileCurve, sample_ix: np.ndarray, vertices: np.ndarray):
    """Transfer profile normals and curvature onto revolved ring vertices."""
    pn = profile_normals(profile)
    h = profile_mean_curvature(profile)
    rho = np.linalg.norm(vertices[:, :2], axis=1)
    omega = np.zeros((len(vertices), 2))
    off_axis = rho > 1e-12
    omega[off_axis] = vertices[off_axis, :2] / rho[off_axis, None]
    omega[~off_axis] = np.array([1.0, 0.0])
    normals = np.column_stack(
        [
            pn[sample_ix, 0] * omega[:, 0],
            pn[sample_ix, 0] * omega[:, 1],
            pn[sample_ix, 1],
        ]
    )
    on_axis = ~off_axis
    normals[on_axis] = 0.0
    normals[on_axis, 2] = np.sign(pn[sample_ix[on_axis], 1])
    return normals, h[sample_ix]


def _mesh_profile_2d(profile: ProfileCurve, resolution: int, grading: float) -> SurfaceMesh:
    prof = resample_profile(profile, resolution)
    if grading > 0:
        fracs = graded_nodes(1.0, 1.0 / resolution, grading, sides="end")
        from hklab.meshutil import polyline_interp

        pts = polyline_interp(profile.samples, fracs)
        prof = replace(prof, samples=pts)
    samples = prof.samples
    ring_target = prof.length / resolution
    vertices, cells, rings, sample_ix = _revolve(samples, ring_target, close_end=False)
    normals, mean_curv = _profile_vertex_fields(prof, sample_ix, vertices)
    areas, _, _ = cell_measures(vertices, cells, 2)
    low_trust = np.zeros(len(vertices), dtype=bool)
    low_trust[sample_ix == len(samples) - 1] = True

    args = dict(
        dim=2,
        container=profile.container,
        theta=profile.theta,
        vertices=vertices,
        cells=cells,
        cell_areas=areas,
        normals=normals,
        mean_curvature=mean_curv,
        boundary_loops=[],
        boundary_vertices=np.empty(0, dtype=np.int64),
        boundary_mu=np.empty((0, 3)),
        boundary_conormal_support=np.empty((0, 3)),
        boundary_support_normal=np.empty((0, 3)),
        low_trust=low_trust,
        source=profile,
    )
    args = _orient_outward(args)
    loops = _boundary_loops_2d(args["cells"])
    if len(loops) != 1:
        raise HkLabError("profile surface must have one boundary loop")
    args["boundary_loops"] = loops
    args["boundary_vertices"] = loops[0]
    mu, nubar, nbar = _profile_boundary_frame(prof, vertices[loops[0]])
    args["boundary_mu"] = mu
    args["boundary_conormal_support"] = nubar
    args["boundary_support_normal"] = nbar
    return SurfaceMesh(**args)


def _profile_boundary_frame(profile: ProfileCurve, pts: np.ndarray):
    """Revolve the profile endpoint frame onto boundary ring points."""
    t_end = profile.end_tangent
    if t_end is None:
        t_end = profile_tangents(profile)[-1]
    nbar = support_normal(profile.container, pts)
    horiz = pts.copy()
    horiz[:, -1] = 0.0
    horiz /= np.linalg.norm(horiz, axis=1, keepdims=True)
    mu = np.column_stack([t_end[0] * horiz[:, 0], t_end[0] * horiz[:, 1], np.full(len(pts), t_end[1])])
    if profile.container is Container.HALF_SPACE:
        nubar = horiz
    else:
        z_e = float(pts[0, -1])
        rho_e = float(np.linalg.norm(pts[0, :2]))
        nubar = z_e * horiz
        nubar[:, -1] = -rho_e
    return mu, nubar, nbar


def _mesh_profile_1d(profile: ProfileCurve, resolution: int, grading: float) -> SurfaceMesh:
    half = max(resolution // 2, 2)
    prof = resample_profile(profile, half)
    if grading > 0:
        fracs = graded_nodes(1.0, 1.0 / half, grading, sides="end")
        from hklab.meshutil import polyline_interp

        prof = replace(prof, samples=polyline_interp(profile.samples, fracs))
    samples = prof.samples
    mirrored = samples[1:].copy()
    mirrored[:, 0] = -mirrored[:, 0]
    # right half support->pole, then mirrored pole->support keeps the enclosed
    # region on the left for the half-space; half-ball ordering is the reverse
    right = samples[::-1]
    vertices = np.vstack([right, mirrored])
    m = len(samples)
    sample_ix = np.concatenate([np.arange(m)[::-1], np.arange(1, m)])
    order = np.arange(len(vertices))
    cells = np.column_stack([order[:-1], order[1:]]).astype(np.int64)

    pn = profile_normals(prof)
    h = profile_mean_curvature(prof)
    normals = pn[sample_ix].copy()
    normals[:, 0] *= np.where(order < m, 1.0, -1.0)
    mean_curv = h[sample_ix]
    areas, _, _ = cell_measures(vertices, cells, 1)

    args = dict(
        dim=1,
        container=profile.container,
        theta=profile.theta,
        vertices=vertices,
        cells=cells,
        cell_areas=areas,
        normals=normals,
        mean_curvature=mean_curv,
        boundary_loops=[],
        boundary_vertices=np.empty(0, dtype=np.int64),
        boundary_mu=np.empty((0, 2)),
        boundary_conormal_support=np.empty((0, 2)),
        boundary_support_normal=np.empty((0, 2)),
        low_trust=np.zeros(len(vertices), dtype=bool),
        source=profile,
    )
    mesh = SurfaceMesh(**args)
    if enclosed_volume_flux(mesh) < 0:
        vertices = vertices[::-1].copy()
        sample_ix = sample_ix[::-1].copy()
        normals = normals[::-1].copy()
        mean_curv = mean_curv[::-1].copy()
        args.update(vertices=vertices, normals=normals, mean_curvature=mean_curv)
        args["cells"] = np.column_stack([order[:-1], order[1:]]).astype(np.int64)
        mesh = SurfaceMesh(**args)

    ends = np.array([0, len(vertices) - 1], dtype=np.int64)
    mesh.boundary_loops = [ends[:1], ends[1:]]
    mesh.boundary_vertices = ends
    t_end = prof.end_tangent if prof.end_tangent is not None else profile_tangents(prof)[-1]
    # endpoint at negative rho carries the mirrored tangent
    mu = np.vstack([t_end, t_end])
    neg = mesh.vertices[ends, 0] < 0
    mu[neg, 0] *= -1.0
    pts = mesh.vertices[ends]
    nbar = support_normal(mesh.container, pts)
    cand = np.column_stack([-nbar[:, 1], nbar[:, 0]])
    away = pts - pts[::-1]
    sign = np.where(np.einsum("ij,ij->i", cand, away) >= 0, 1.0, -1.0)
    mesh.boundary_mu = mu
    mesh.boundary_conormal_support = cand * sign[:, None]
    mesh.boundary_support_normal = nbar
    low = mesh.low_trust.copy()
    low[ends] = True
    mesh.low_trust = low
    return mesh


# ---------------------------------------------------------------------------
# discrete estimators
# ---------------------------------------------------------------------------


def _mixed_voronoi_areas(vertices: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """Meyer mixed Voronoi one-ring areas (obtuse triangles fall back to 1/2, 1/4)."""
    nv = len(vertices)
    areas = np.zeros(nv)
    p = vertices[cells]
    full = 0.5 * np.linalg.norm(np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]), axis=1)
    for local in range(3):
        i = cells[:, local]
        j = cells[:, (local + 1) % 3]
        k = cells[:, (local + 2) % 3]
        e_ij = vertices[j] - vertices[i]
        e_ik = vertices[k] - vertices[i]
        e_jk = vertices[k] - vertices[j]
        cos_i = np.einsum("ab,ab->a", e_ij, e_ik)
        cos_j = np.einsum("ab,ab->a", -e_ij, e_jk)
        cos_k = np.einsum("ab,ab->a", -e_ik, -e_jk)
        sin_area = 2.0 * full
        cot_j = cos_j / sin_area
        cot_k = cos_k / sin_area
        obtuse_any = (cos_i < 0) | (cos_j < 0) | (cos_k < 0)
        vor = 0.125 * (
            np.einsum("ab,ab->a", e_ik, e_ik) * cot_j
            + np.einsum("ab,ab->a", e_ij, e_ij) * cot_k
        )
        contrib = np.where(obtuse_any, np.where(cos_i < 0, 0.5 * full, 0.25 * full), vor)
        np.add.at(areas, i, contrib)
    return areas


def _cotan_mean_curvature(vertices: np.ndarray, cells: np.ndarray, normals: np.ndarray):
    nv = len(vertices)
    acc = np.zeros((nv, 3))
    for local in range(3):
        i = cells[:, local]
        j = cells[:, (local + 1) % 3]
        k = cells[:, (local + 2) % 3]
        # angle at k faces edge (i, j)
        u = vertices[i] - vertices[k]
        v = vertices[j] - vertices[k]
        cross = np.linalg.norm(np.cross(u, v), axis=1)
        cot = np.einsum("ab,ab->a", u, v) / np.where(cross > 0, cross, np.inf)
        w = 0.5 * cot
        diff = vertices[i] - vertices[j]
        np.add.at(acc, i, w[:, None] * diff)
        np.add.at(acc, j, -w[:, None] * diff)
    areas = _mixed_voronoi_areas(vertices, cells)
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
    areas, cell_normals, _ = cell_measures(mesh.vertices, mesh.cells, mesh.dim)
    nv = len(mesh.vertices)
    # area-weighted cell normals accumulated onto their vertices
    normals = np.zeros((nv, mesh.ambient_dim))
    for local in range(mesh.cells.shape[1]):
        np.add.at(normals, mesh.cells[:, local], cell_normals * areas[:, None])
    norms = np.linalg.norm(normals, axis=1, keepdims=True)
    if np.any(norms <= 0):
        raise HkLabError("vertex with vanishing normal: mesh is not orientable here")
    normals /= norms

    low_trust = np.zeros(nv, dtype=bool)
    if mesh.dim == 2:
        mean_curv = _cotan_mean_curvature(mesh.vertices, mesh.cells, normals)
        loops = _boundary_loops_2d(mesh.cells)
        boundary_vertices = (
            np.concatenate([l for l in loops]) if loops else np.empty(0, dtype=np.int64)
        )
        low_trust[boundary_vertices] = True
        if loops:
            mu, nubar, nbar = _frames_from_loops(mesh.vertices, loops, normals, mesh.container)
        else:
            mu = np.empty((0, 3))
            nubar = np.empty((0, 3))
            nbar = np.empty((0, 3))
    else:
        order = polyline_order(mesh.cells, nv)
        mean_curv = _circumcircle_curvature(mesh.vertices, order, normals)
        if order[0] == order[-1]:
            loops, boundary_vertices = [], np.empty(0, dtype=np.int64)
            mu = np.empty((0, 2))
            nubar = np.empty((0, 2))
            nbar = np.empty((0, 2))
        else:
            ends = np.array([order[0], order[-1]], dtype=np.int64)
            loops = [ends[:1], ends[1:]]
            boundary_vertices = ends
            low_trust[ends] = True
            mu, nubar, nbar = _frames_1d(mesh.vertices, order, normals, mesh.container)

    return replace(
        mesh,
        normals=normals,
        mean_curvature=mean_curv,
        cell_areas=areas,
        boundary_loops=loops,
        boundary_vertices=boundary_vertices,
        boundary_mu=mu,
        boundary_conormal_support=nubar,
        boundary_support_normal=nbar,
        low_trust=low_trust,
    )


def _circumcircle_curvature(vertices: np.ndarray, order: np.ndarray, normals: np.ndarray):
    closed = order[0] == order[-1]
    seq = order[:-1] if closed else order
    m = len(seq)
    kappa_on_seq = np.zeros(m)
    idx = np.arange(m)
    if closed:
        ia, iv, ib = (idx - 1) % m, idx, (idx + 1) % m
    else:
        ia = np.clip(idx - 1, 0, m - 3)
        iv = ia + 1
        ib = ia + 2
    a, v, b = vertices[seq[ia]], vertices[seq[iv]], vertices[seq[ib]]
    e1, e2, e3 = v - a, b - v, b - a
    cross = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    denom = (
        np.linalg.norm(e1, axis=1) * np.linalg.norm(e2, axis=1) * np.linalg.norm(e3, axis=1)
    )
    kappa_mid = 2.0 * cross / np.where(denom > 0, denom, np.inf)
    if closed:
        kappa_on_seq = kappa_mid
    else:
        kappa_on_seq[iv] = kappa_mid
        kappa_on_seq[0] = kappa_mid[0]
        kappa_on_seq[-1] = kappa_mid[-1]
    out = np.zeros(len(vertices))
    out[seq] = kappa_on_seq
    return out


def frame_residual(mesh: SurfaceMesh) -> float:
    """max over Gamma of |mu - (sin(theta) N_bar + cos(theta) nu_bar)|."""
    if mesh.theta is None or len(mesh.boundary_vertices) == 0:
        return 0.0
    target = mesh.theta.sin * mesh.boundary_support_normal + mesh.theta.cos * mesh.boundary_conormal_support
    return float(np.max(np.linalg.norm(mesh.boundary_mu - target, axis=1)))
