"""Simplicial meshes of the enclosed region with tagged boundary patches.

Both dimensions share one deterministic strip mesher: two rails, resampled
at shared graded parameters, are joined by straight rungs that are
subdivided by target size, and all rungs are zippered into triangles by one
meshutil.zipper_rows call.  The rails stay boundary chains, so Sigma and T
tags are never ambiguous.  The closed disk zips scaled copies of its loop,
closed rings, the same way.

Planar domains (n = 1) strip-mesh between the surface polyline and the
support path, graded into both corners with local size ~ d_Gamma^exponent.
Solid domains (n = 2) are axisymmetric (cap, lens or ball): the (rho, z)
cross-section between the generator curve (surface.generator_polyline,
the samples the surface revolves) and the axis+support path is
strip-meshed, then revolved by meshutil.revolve with the azimuthal count the
surfaces use; prisms are split into tetrahedra with the min-vertex
face-diagonal rule, so the mesh is conforming and deterministic.  The prism
stacks of all off-axis triangles are split in one call.

Cell geometry is one pass over fixed chunks of cells (cell_geometry): each
chunk gathers its vertex coordinates once and yields the signed volumes
(closed-form determinants: the triple product for tets, x1 y2 - y1 x2 for
triangles) and the longest squared edges.  The same pass fixes the
orientation of every mesher: a negative cell swaps its last two vertices in
place and its volume is negated, which is exact for both determinants.
Every mesher keeps both arrays of that pass, and mesh_quality grades a mesh
from them without another gather.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from hklab.containers import Container, ContactAngle
from hklab.errors import HkLabError, MeshQualityError
from hklab.meshutil import (
    graded_nodes,
    polyline_interp,
    polyline_order,
    revolve,
    simplex_measures,
    zipper_rows,
)
from hklab.surface import SurfaceMesh, generator_polyline

logger = logging.getLogger("hklab.domain")

QUALITY_WARNING = 1e-4  # mesh_domain warns about cells whose shape measure is below this


@dataclass
class DomainMesh:
    dim: int  # ambient dimension d = n + 1
    container: Container
    theta: ContactAngle | None
    vertices: np.ndarray  # (nv, d)
    cells: np.ndarray  # (nc, d + 1), positively oriented
    sigma_facets: np.ndarray  # (ns, d) outward-oriented boundary facets on Sigma
    t_facets: np.ndarray  # (nt, d) outward-oriented boundary facets on T
    gamma_vertices: np.ndarray  # corner vertex indices
    d_gamma: np.ndarray  # per-vertex distance to the corner set
    sigma_H: np.ndarray  # mean curvature of the source surface per Sigma facet
    cell_volumes: np.ndarray = field(default=None)
    cell_h2max: np.ndarray = field(default=None)  # longest squared edge per cell

    def __post_init__(self) -> None:
        if self.cell_volumes is None:
            self.cell_volumes, self.cell_h2max = cell_geometry(self.vertices, self.cells)

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def volume(self) -> float:
        return float(self.cell_volumes.sum())

    def facet_measures(self, facets: np.ndarray) -> np.ndarray:
        return simplex_measures(self.vertices, facets)[0]

    def facet_normals(self, facets: np.ndarray) -> np.ndarray:
        """Unit normals implied by the stored facet orientation."""
        return simplex_measures(self.vertices, facets)[1]


# ---------------------------------------------------------------------------
# simplex helpers
# ---------------------------------------------------------------------------


_CELL_BLOCK = 1 << 14  # cells whose vertex coordinates are gathered together


def _block_geometry(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Signed volumes and longest squared edges of cells given coordinate-major.

    p has shape (d, d + 1, k): p[c, a] is coordinate c of vertex a of each
    cell, so every product below runs on contiguous rows.  Tets use the triple
    product e1 . (e2 x e3) / 6, triangles (x1 y2 - y1 x2) / 2, both rounded as
    fem.p1_gradients rounds its determinants.
    """
    d, m, k = p.shape
    edges = p[:, 1:] - p[:, :1]
    if m == 4:
        (x1, x2, x3), (y1, y2, y3), (z1, z2, z3) = edges
        # e2 x e3 componentwise, as np.cross rounds it, without its copies
        vols = (x1 * (y2 * z3 - z2 * y3) + y1 * (z2 * x3 - x2 * z3)
                + z1 * (x2 * y3 - y2 * x3)) / 6.0
    else:
        (x1, x2), (y1, y2) = edges
        vols = (x1 * y2 - y1 * x2) / 2.0
    h2max = np.zeros(k)
    for a in range(m):
        for b in range(a + 1, m):
            e = p[:, a] - p[:, b]
            h2 = e[0] * e[0] + e[1] * e[1]
            if d == 3:
                h2 += e[2] * e[2]
            np.maximum(h2max, h2, out=h2max)
    return vols, h2max


def cell_geometry(vertices: np.ndarray, cells: np.ndarray,
                  orient: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Signed volumes and longest squared edges of all cells, chunk by chunk.

    Each chunk of _CELL_BLOCK cells gathers its vertex coordinates once.  With
    orient=True, a chunk's negatively oriented cells get their last two
    vertices swapped in place in `cells` and their volumes negated.  The set
    of squared edges stays as it was, and the swap negates the triple product
    and the triangle determinant exactly, so the returned volumes are those
    of the oriented cells.
    """
    coords = np.ascontiguousarray(vertices.T)
    vols = np.empty(len(cells))
    h2max = np.empty(len(cells))
    for start in range(0, len(cells), _CELL_BLOCK):
        block = cells[start:start + _CELL_BLOCK]
        block_vols, block_h2max = _block_geometry(coords.take(block.T, axis=1))
        if orient:
            flip = block_vols < 0
            block[flip, -2:] = block[flip, :-3:-1]
            block_vols[flip] = -block_vols[flip]
        vols[start:start + len(block)] = block_vols
        h2max[start:start + len(block)] = block_h2max
    return vols, h2max


def simplex_volumes(vertices: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """Signed cell volumes, as cell_geometry computes them."""
    return cell_geometry(vertices, cells)[0]


def _orient_facets_outward(vertices: np.ndarray, facets: np.ndarray,
                           inner_points: np.ndarray) -> np.ndarray:
    """Flip facet vertex order until the implied normal points away from inner_points."""
    if len(facets) == 0:
        return facets
    normals = simplex_measures(vertices, facets)[1]
    centroids = vertices[facets].mean(axis=1)
    flip = np.einsum("ij,ij->i", normals, centroids - inner_points) < 0
    out = facets.copy()
    out[flip] = out[flip, ::-1]
    return out


def mesh_quality(vertices: np.ndarray, cells: np.ndarray,
                 volumes: np.ndarray | None = None,
                 h2max: np.ndarray | None = None) -> np.ndarray:
    """Shape measure in (0, 1]: normalized volume / longest-edge^d.

    `volumes` and `h2max`, when given, are the signed cell volumes and the
    longest squared edges already computed; cell_geometry supplies the others.
    """
    if volumes is None or h2max is None:
        fresh_vols, fresh_h2max = cell_geometry(vertices, cells)
        volumes = fresh_vols if volumes is None else volumes
        h2max = fresh_h2max if h2max is None else h2max
    d = vertices.shape[1]
    ref = {2: math.sqrt(3.0) / 4.0, 3: math.sqrt(2.0) / 12.0}[d]
    return np.abs(volumes) / (ref * np.sqrt(h2max) ** d)


# ---------------------------------------------------------------------------
# support rails / patches
# ---------------------------------------------------------------------------


def _support_rail(container: Container, p_start: np.ndarray, p_end: np.ndarray,
                  count: int) -> np.ndarray:
    """Polyline along the support from p_start to p_end (through the wetted patch)."""
    if container is Container.HALF_SPACE:
        frac = np.linspace(0.0, 1.0, count + 1)[:, None]
        return (1.0 - frac) * p_start + frac * p_end
    # half-ball: arc of the unit circle through the top
    a0 = math.atan2(p_start[0], p_start[1])
    a1 = math.atan2(p_end[0], p_end[1])
    ang = np.linspace(a0, a1, count + 1)
    return np.column_stack([np.sin(ang), np.cos(ang)])


def _strip_mesh(rail_a: np.ndarray, rail_b: np.ndarray, fracs: np.ndarray, target: float,
                scale: float):
    """Strip mesh between two polylines that run between the same two ends.

    Rung k joins the points at arclength fraction fracs[k] of both rails.  The
    end rungs and rungs shorter than 1e-14 collapse to their midpoint; the
    others are subdivided to size ~ target * scale, all rungs in one pass:
    a rung of n segments samples s = i * (1/n) with its last sample 1.0, as
    linspace rounds them.  Consecutive rungs are zipper-triangulated.
    Returns the vertices, the positively oriented cells, their signed
    volumes and longest squared edges, and the rows of vertex ids per rung,
    each running from rail_a to rail_b.
    """
    pts_a = polyline_interp(rail_a, fracs)
    pts_b = polyline_interp(rail_b, fracs)
    lengths = np.linalg.norm(pts_b - pts_a, axis=1)
    segments = np.maximum(1, np.ceil(lengths / (target * scale))).astype(np.int64)
    segments[[0, -1]] = 0
    segments[lengths < 1e-14] = 0  # a collapsed rung is one sample, s = 0.5
    sizes = segments + 1
    rung = np.repeat(np.arange(len(fracs)), sizes)
    first = np.cumsum(sizes) - sizes
    i = np.arange(len(rung)) - first[rung]
    n = segments[rung]
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.where(n == 0, 0.5, np.where(i == n, 1.0, i * (1.0 / n)))
    vertices = (1.0 - s)[:, None] * pts_a[rung] + s[:, None] * pts_b[rung]
    rows = np.split(np.arange(len(rung)), first[1:])
    cells = zipper_rows(rows, np.split(s, first[1:]))
    vols, h2max = cell_geometry(vertices, cells, orient=True)
    return vertices, cells, vols, h2max, rows


def _rail_edges(rows: list) -> tuple[np.ndarray, np.ndarray]:
    """Boundary edges along rail_a and rail_b of a strip mesh."""
    first = np.array([r[0] for r in rows], dtype=np.int64)
    last = np.array([r[-1] for r in rows], dtype=np.int64)
    return np.column_stack([first[:-1], first[1:]]), np.column_stack([last[:-1], last[1:]])


def _mesh_domain_2d(surface: SurfaceMesh, container: Container, resolution: int,
                    grading: float) -> DomainMesh:
    order = polyline_order(surface.cells, surface.num_vertices)
    if order[0] == order[-1]:
        raise HkLabError("surface polyline is not an open chain")
    # rails run corner0 -> corner1; the T rail follows the support
    sigma_rail = surface.vertices[order]
    t_rail = _support_rail(container, sigma_rail[0], sigma_rail[-1], max(resolution, 8))
    fracs = graded_nodes(1.0, 1.0 / resolution, grading, sides="both")
    scale = max(np.linalg.norm(sigma_rail[0] - sigma_rail[-1]), 1.0)
    vertices, cells, vols, h2max, rows = _strip_mesh(t_rail, sigma_rail, fracs,
                                                     1.0 / resolution, scale)
    t_f, sig_f = _rail_edges(rows)
    corners = np.array([rows[0][0], rows[-1][0]], dtype=np.int64)
    h_along = surface.mean_curvature[order]
    sigma_H = np.interp(0.5 * (fracs[:-1] + fracs[1:]), np.linspace(0, 1, len(h_along)), h_along)
    inner = vertices.mean(axis=0)
    sig_f = _orient_facets_outward(vertices, sig_f, inner)
    t_f = _orient_facets_outward(vertices, t_f, inner)
    d_gamma = np.min(
        np.linalg.norm(vertices[:, None, :] - vertices[corners][None, :, :], axis=2), axis=1
    )
    dom = DomainMesh(
        dim=2,
        container=container,
        theta=surface.theta,
        vertices=vertices,
        cells=cells,
        sigma_facets=sig_f,
        t_facets=t_f,
        gamma_vertices=corners,
        d_gamma=d_gamma,
        sigma_H=sigma_H,
        cell_volumes=vols,
        cell_h2max=h2max,
    )
    _validate(dom)
    return dom


# ---------------------------------------------------------------------------
# 3-d axisymmetric domains: revolved cross-section
# ---------------------------------------------------------------------------

# prism vertex permutations bringing position p to slot 0 while preserving the
# bottom/top pairing (positions 3..5 sit above 0..2)
_PRISM_PERMS = np.array(
    [
        [0, 1, 2, 3, 4, 5],
        [1, 2, 0, 4, 5, 3],
        [2, 0, 1, 5, 3, 4],
        [3, 4, 5, 0, 1, 2],
        [4, 5, 3, 1, 2, 0],
        [5, 3, 4, 2, 0, 1],
    ],
    dtype=np.int64,
)


# the three tets of a prism brought to its smallest vertex by _PRISM_PERMS, by
# whether the face diagonals run from vertex 1 to 5 (case a, row 1) or not
_PRISM_TETS = np.array(
    [
        [[0, 1, 2, 4], [0, 4, 2, 5], [0, 4, 5, 3]],
        [[0, 1, 2, 5], [0, 1, 5, 4], [0, 4, 5, 3]],
    ],
    dtype=np.int64,
)
# the two triangles of a quad (u0, v0, v1, u1), by whether its diagonal runs
# from u0 to v1 (row 1) or from v0 to u1 (row 0)
_QUAD_TRIS = np.array([[[0, 1, 3], [1, 2, 3]], [[0, 1, 2], [0, 2, 3]]], dtype=np.int64)


def _split_prisms(prisms: np.ndarray) -> np.ndarray:
    """Split prisms (n, 6) into tets with the min-vertex face-diagonal rule.

    Every quad face receives the diagonal through its smallest global vertex
    id, which makes splits of face-sharing elements agree.  Prisms are split
    _CELL_BLOCK at a time, so the index arrays of the lookups stay small.
    """
    tets = np.empty((len(prisms), 3, 4), dtype=np.int64)
    for start in range(0, len(prisms), _CELL_BLOCK):
        block = prisms[start:start + _CELL_BLOCK]
        w = np.take_along_axis(block, _PRISM_PERMS[np.argmin(block, axis=1)], axis=1)
        case_a = np.minimum(w[:, 1], w[:, 5]) < np.minimum(w[:, 2], w[:, 4])
        tets[start:start + len(block)] = np.take_along_axis(
            w[:, None, :], _PRISM_TETS[case_a.astype(np.intp)], axis=2)
    return tets.reshape(-1, 4)


def _split_quads(quads: np.ndarray) -> np.ndarray:
    """Split quads (n, 4) given as (u0, v0, v1, u1) by the min-vertex diagonal."""
    diag_a = np.minimum(quads[:, 0], quads[:, 2]) < np.minimum(quads[:, 1], quads[:, 3])
    tris = np.take_along_axis(quads[:, None, :], _QUAD_TRIS[diag_a.astype(np.intp)], axis=2)
    return tris.reshape(-1, 3)


def _other_rail(container: Container, apex: np.ndarray, corner: np.ndarray,
                count: int) -> np.ndarray:
    """Axis + support path from the apex to the corner of the cross-section."""
    axis_pts = np.column_stack([
        np.zeros(count + 1),
        np.linspace(apex[1], 0.0 if container is Container.HALF_SPACE else 1.0, count + 1),
    ])
    if container is Container.CLOSED:
        return np.column_stack([np.zeros(count + 1),
                                np.linspace(apex[1], corner[1], count + 1)])
    if container is Container.HALF_SPACE:
        support = np.column_stack([
            np.linspace(0.0, corner[0], count + 1), np.zeros(count + 1)
        ])
    else:
        t_g = math.atan2(corner[0], corner[1])
        s = np.linspace(0.0, t_g, count + 1)
        support = np.column_stack([np.sin(s), np.cos(s)])
    return np.vstack([axis_pts, support[1:]])


def _mesh_domain_3d(surface: SurfaceMesh, container: Container, resolution: int,
                    grading: float) -> DomainMesh:
    gen, h_gen, _ = generator_polyline(surface.source, resolution)
    apex, corner = gen[0], gen[-1]
    rail_other = _other_rail(container, apex, corner, max(resolution, 8))

    sides = "none" if container is Container.CLOSED else "end"
    fracs = graded_nodes(1.0, 1.0 / resolution, grading, sides=sides)
    scale = max(float(np.linalg.norm(apex - corner)), 1e-12)
    target = 1.0 / resolution
    vertices2, cross_cells, _, _, rows = _strip_mesh(rail_other, gen, fracs, target, scale)
    if np.any(vertices2[:, 0] < -1e-12):
        raise MeshQualityError("cross-section left the rho >= 0 half plane")
    vertices2[:, 0] = np.maximum(vertices2[:, 0], 0.0)

    # boundary chains of the cross-section; the axis part of the other rail is not T
    other_edges, sigma_edges = _rail_edges(rows)
    sigma_h_mid = np.interp(0.5 * (fracs[:-1] + fracs[1:]), np.linspace(0.0, 1.0, len(gen)), h_gen)
    mid_rho = 0.5 * (vertices2[other_edges[:, 0], 0] + vertices2[other_edges[:, 1], 0])
    t_edges = other_edges[mid_rho > 1e-10 * scale]
    if container is Container.CLOSED:
        t_edges = t_edges[:0]

    on_axis = vertices2[:, 0] <= 1e-12
    vertices, vid, psi = revolve(vertices2, on_axis, target * scale)
    k_azim = len(psi)
    jj = np.arange(k_azim)
    jn = (jj + 1) % k_azim

    def revolve_edge(i0, i1) -> np.ndarray:
        """Triangles swept by a cross-section edge: a fan at the axis, else split quads."""
        if on_axis[i0] or on_axis[i1]:
            ax, off = (i0, i1) if on_axis[i0] else (i1, i0)
            return np.stack([np.full(k_azim, vid[ax, 0]), vid[off, jj], vid[off, jn]], axis=1)
        return _split_quads(np.stack([vid[i0, jj], vid[i1, jj], vid[i1, jn], vid[i0, jn]], axis=1))

    n_ax = on_axis[cross_cells].sum(axis=1)
    # triangles fully off-axis become prism stacks, one stack per triangle in order
    rings = vid[cross_cells[n_ax == 0]]  # (m, 3, k_azim)
    prisms = np.concatenate([rings, rings[:, :, jn]], axis=1)
    tet_blocks = [_split_prisms(prisms.transpose(0, 2, 1).reshape(-1, 6))]
    # triangles touching the axis: cones from the first axis vertex over the other edge
    for tri in np.concatenate([cross_cells[n_ax == 1], cross_cells[n_ax == 2]]):
        ax = tri[on_axis[tri]][0]
        side = revolve_edge(*tri[tri != ax])
        tet_blocks.append(np.hstack([np.full((len(side), 1), vid[ax, 0]), side]))
    cells = np.vstack(tet_blocks)
    vols, h2max = cell_geometry(vertices, cells, orient=True)

    # per-facet H: the generator value of each revolved Sigma edge
    sigma_blocks = [revolve_edge(i0, i1) for i0, i1 in sigma_edges]
    sigma_facets = np.vstack(sigma_blocks)
    sigma_H = np.repeat(sigma_h_mid, [len(b) for b in sigma_blocks])
    t_facets = np.vstack([np.empty((0, 3), dtype=np.int64)]
                         + [revolve_edge(i0, i1) for i0, i1 in t_edges])

    inner = vertices.mean(axis=0)
    sigma_facets = _orient_facets_outward(vertices, sigma_facets, inner)
    t_facets = _orient_facets_outward(vertices, t_facets, inner)

    if container.has_support:
        corner_row = rows[-1][0]
        gamma_vertices = vid[corner_row, :].astype(np.int64)
        rho_g, z_g = vertices2[corner_row]
        r_all = np.linalg.norm(vertices[:, :2], axis=1)
        d_gamma = np.sqrt((r_all - rho_g) ** 2 + (vertices[:, 2] - z_g) ** 2)
    else:
        gamma_vertices = np.empty(0, dtype=np.int64)
        d_gamma = np.full(len(vertices), np.inf)

    dom = DomainMesh(
        dim=3,
        container=container,
        theta=surface.theta,
        vertices=vertices,
        cells=cells,
        sigma_facets=sigma_facets,
        t_facets=t_facets,
        gamma_vertices=gamma_vertices,
        d_gamma=d_gamma,
        sigma_H=sigma_H,
        cell_volumes=vols,
        cell_h2max=h2max,
    )
    _validate(dom)
    return dom


# ---------------------------------------------------------------------------
# entry point and checks
# ---------------------------------------------------------------------------


def mesh_domain(
    surface: SurfaceMesh,
    container: Container | str | None,
    resolution: int,
    grading: float = 0.5,
) -> DomainMesh:
    """Mesh the region enclosed by the surface and its support patch.

    container None takes the surface's; a mesh with cells below
    QUALITY_WARNING is kept, with a warning.
    """
    from hklab.containers import parse_container, support_deviation

    container = surface.container if container is None else parse_container(container)
    if container is not surface.container:
        raise HkLabError("surface and requested container disagree")
    if container.has_support:
        loop_pts = surface.vertices[surface.boundary_vertices]
        dev = np.abs(support_deviation(container, loop_pts))
        if np.any(dev > 1e-8):
            raise HkLabError("surface boundary does not lie on the support")
    if surface.dim == 1:
        if container is Container.CLOSED:
            dom = _mesh_disk_2d(surface, resolution, grading)
        else:
            dom = _mesh_domain_2d(surface, container, resolution, grading)
    else:
        dom = _mesh_domain_3d(surface, container, resolution, grading)
    q = mesh_quality(dom.vertices, dom.cells, dom.cell_volumes, dom.cell_h2max)
    q_min = float(np.min(q))
    logger.info("domain mesh: nv=%d nc=%d min_quality=%.3e", dom.num_vertices,
                len(dom.cells), q_min)
    if q_min < QUALITY_WARNING:
        bad = int(np.sum(q < QUALITY_WARNING))
        logger.warning("domain mesh has %d cells below quality %.1e", bad, QUALITY_WARNING)
    return dom


def _mesh_disk_2d(surface: SurfaceMesh, resolution: int, grading: float) -> DomainMesh:
    """Triangulate the region inside a closed curve (fan of scaled loops)."""
    order = polyline_order(surface.cells, surface.num_vertices)
    if order[0] != order[-1]:
        raise HkLabError("closed surface polyline is not a loop")
    order = order[:-1]
    pts = surface.vertices[order]
    seed = pts.mean(axis=0)
    layers = max(2, resolution // 2)
    verts = [pts]
    for j in range(1, layers):
        t = 1.0 - j / layers
        keep = max(6, int(round(len(pts) * t)))
        stride_ix = np.linspace(0, len(pts), keep, endpoint=False).astype(int)
        verts.append(seed + t * (pts[stride_ix] - seed))
    vertices = np.vstack(verts + [seed[None, :]])

    # closed rings repeat their first vertex at angle 2 pi; the seed is the apex
    sizes = [len(v) for v in verts]
    starts = np.cumsum([0] + sizes)
    rows = [np.append(np.arange(a, a + m), a) for a, m in zip(starts, sizes)]
    keys = [np.append(np.arange(m) * 2.0 * math.pi / m, 2.0 * math.pi) for m in sizes]
    cells = zipper_rows(rows + [starts[-1:]], keys + [np.zeros(1)])
    vols, h2max = cell_geometry(vertices, cells, orient=True)

    sigma_facets = np.column_stack([order, np.roll(order, -1)]).astype(np.int64)
    sigma_facets = _orient_facets_outward(vertices, sigma_facets, seed[None, :])
    h_mid = 0.5 * (surface.mean_curvature[order] + surface.mean_curvature[np.roll(order, -1)])
    dom = DomainMesh(
        dim=2,
        container=Container.CLOSED,
        theta=None,
        vertices=vertices,
        cells=cells,
        sigma_facets=sigma_facets,
        t_facets=np.empty((0, 2), dtype=np.int64),
        gamma_vertices=np.empty(0, dtype=np.int64),
        d_gamma=np.full(len(vertices), np.inf),
        sigma_H=h_mid,
        cell_volumes=vols,
        cell_h2max=h2max,
    )
    _validate(dom)
    return dom


def _validate(dom: DomainMesh) -> None:
    if np.any(dom.cell_volumes <= 0):
        nonpos = int(np.sum(dom.cell_volumes <= 0))
        if np.any(dom.cell_volumes < -1e-14):
            raise MeshQualityError(f"{nonpos} negatively oriented cells after fixing")
        logger.warning("%d zero-volume cells retained (degenerate Delaunay faces)", nonpos)
    total_boundary = len(dom.sigma_facets) + len(dom.t_facets)
    if total_boundary == 0:
        raise HkLabError("domain mesh has no boundary facets")
