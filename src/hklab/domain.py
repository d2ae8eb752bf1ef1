"""Simplicial meshes of the enclosed region with tagged boundary patches.

Meshing is two steps.  The boundary step (domain_boundary) builds the
vertices and the tagged, outward-oriented Sigma and T facets; the tet step
fills in the cells from what the boundary step built, and mesh_domain is
the boundary step followed by the tet step.  The boundary alone fixes every
volume integral hk reads: by the divergence theorem |Omega| and the
integral of x_d over Omega are sums over the boundary facets
(identities.domain_volume_integrals), exact on the polyhedral domain, so a
rung that solves nothing builds no cells.

Both dimensions share one deterministic strip mesher: two rails, resampled
at shared graded parameters, are joined by straight rungs that are
subdivided by target size, and all rungs are zippered into triangles by one
meshutil.zipper_rows call.  The rails stay boundary chains, so Sigma and T
tags are never ambiguous, and every rail edge is oriented outward from the
strip triangle that owns it (_rail_edges reads only those owners); that is
exact where a test against an interior point fails on thin domains.  The
closed disk zips scaled copies of its loop, closed rings, the same way.  For
n = 1 the boundary step is the whole strip mesh, which is cheap, and the tet
step only hands over its triangles.

Planar domains (n = 1) strip-mesh between the surface polyline and the
support path, graded into both corners with local size ~ d_Gamma^exponent.
Solid domains (n = 2) are axisymmetric (cap, lens or ball): the (rho, z)
cross-section between the generator curve (surface.generator_polyline,
the samples the surface revolves) and the axis+support path is
strip-meshed and revolved by meshutil.revolve with the azimuthal count the
surfaces use.  The boundary step sweeps all of the cross-section's Sigma and
T edges into facets in one pass (_sweep_edges) and orients each edge's block
of facets at once, outward from the cross-section triangle that owns the
edge.  The tet step sweeps the triangles: prisms are split into tetrahedra
with the min-vertex face-diagonal rule, so the mesh is conforming and
deterministic, and the triangles at the axis sweep into cones over the fans
and split quads of one more _sweep_edges call.  The prism stacks of all
off-axis triangles are split in one call.  d_Gamma, which only the n = 1
corner fit and the domain-file writer read, is computed on first read.

Cell geometry is one pass over fixed chunks of cells (cell_geometry): each
chunk gathers its vertex coordinates once and yields the signed volumes
(meshutil.edge_determinant over d!) and the longest squared edges.  The same
pass fixes the orientation of every mesher: a negative cell swaps its last
two vertices in place and its volume is negated, which is exact for both
determinants.  Every mesher keeps both arrays of that pass, and mesh_quality
grades a mesh from them without another gather.

A mesh owns its vertex graph (DomainMesh.graph): the one sparsity pattern
that fem assembles into, whose row products are the recovery patches and
along which the corner collar counts hops.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from hklab.containers import Container, ContactAngle
from hklab.errors import HkLabError, MeshQualityError
from hklab.fem import nondegenerate, vertex_adjacency
from hklab.meshutil import (
    CELL_BLOCK,
    centroids,
    edge_determinant,
    graded_nodes,
    lazy,
    nearest_distance,
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
class DomainBoundary:
    """The boundary of a meshed domain: its vertices (interior ones included,
    numbered as in the cells) and its tagged Sigma and T facets, which together
    are the faces that belong to exactly one cell."""

    dim: int  # ambient dimension d = n + 1
    container: Container
    theta: ContactAngle | None
    vertices: np.ndarray  # (nv, d)
    sigma_facets: np.ndarray  # (ns, d) outward-oriented boundary facets on Sigma
    t_facets: np.ndarray  # (nt, d) outward-oriented boundary facets on T
    gamma_vertices: np.ndarray  # corner vertex indices
    sigma_H: np.ndarray  # mean curvature of the source surface per Sigma facet

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @lazy
    def d_gamma(self) -> np.ndarray:
        """Per-vertex distance to the corner set, on first read: only the n = 1
        corner fit and the domain-file writer read it.  A solid's corner ring
        revolves one cross-section point, so the distance is to its circle."""
        gamma = self.gamma_vertices
        if len(gamma) == 0:
            return np.full(self.num_vertices, np.inf)
        if self.dim == 2:
            return nearest_distance(self.vertices, self.vertices[gamma])
        rho_g, _, z_g = self.vertices[gamma[0]]
        r_all = np.linalg.norm(self.vertices[:, :2], axis=1)
        return np.sqrt((r_all - rho_g) ** 2 + (self.vertices[:, 2] - z_g) ** 2)

    def facet_measures(self, facets: np.ndarray) -> np.ndarray:
        return simplex_measures(self.vertices, facets)[0]

    def facet_normals(self, facets: np.ndarray) -> np.ndarray:
        """Unit normals implied by the stored facet orientation."""
        return simplex_measures(self.vertices, facets)[1]


@dataclass
class DomainMesh(DomainBoundary):
    """A boundary with the cells it encloses."""

    cells: np.ndarray  # (nc, d + 1), positively oriented
    cell_volumes: np.ndarray = field(default=None)
    cell_h2max: np.ndarray = field(default=None)  # longest squared edge per cell

    def __post_init__(self) -> None:
        if self.cell_volumes is None:
            self.cell_volumes, self.cell_h2max = cell_geometry(self.vertices, self.cells)

    @lazy
    def graph(self):
        """The vertex graph, fem.vertex_adjacency of the nondegenerate cells (CSR),
        built on first read: a mesh that is never solved never imports scipy.sparse."""
        return vertex_adjacency(self.cells[nondegenerate(self.cell_volumes)], self.num_vertices)

    @property
    def volume(self) -> float:
        return float(self.cell_volumes.sum())


# ---------------------------------------------------------------------------
# simplex helpers
# ---------------------------------------------------------------------------


def _block_geometry(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Signed volumes and longest squared edges of cells given coordinate-major.

    p has shape (d, d + 1, k): p[c, a] is coordinate c of vertex a of each
    cell, so every product below runs on contiguous rows.
    """
    d, m, k = p.shape
    vols = edge_determinant(p[:, 1:] - p[:, :1])[1] / math.factorial(d)
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

    Each chunk of CELL_BLOCK cells gathers its vertex coordinates once.  With
    orient=True, a chunk's negatively oriented cells get their last two
    vertices swapped in place in `cells` and their volumes negated.  The set
    of squared edges stays as it was, and the swap negates the triple product
    and the triangle determinant exactly, so the returned volumes are those
    of the oriented cells.
    """
    coords = np.ascontiguousarray(vertices.T)
    vols = np.empty(len(cells))
    h2max = np.empty(len(cells))
    for start in range(0, len(cells), CELL_BLOCK):
        block = cells[start:start + CELL_BLOCK]
        block_vols, block_h2max = _block_geometry(coords.take(block.T, axis=1))
        if orient:
            flip = block_vols < 0
            block[flip, -2:] = block[flip, :-3:-1]
            block_vols[flip] = -block_vols[flip]
        vols[start:start + len(block)] = block_vols
        h2max[start:start + len(block)] = block_h2max
    return vols, h2max


def _orient_facets_outward(vertices: np.ndarray, facets: np.ndarray,
                           inner_points: np.ndarray) -> np.ndarray:
    """Flip facet vertex order until the implied normal points away from inner_points."""
    if len(facets) == 0:
        return facets
    normals = simplex_measures(vertices, facets)[1]
    flip = np.einsum("ij,ij->i", normals, centroids(vertices, facets) - inner_points) < 0
    out = facets.copy()
    out[flip] = out[flip, ::-1]
    return out


def mesh_quality(dom: DomainMesh) -> np.ndarray:
    """Shape measure in (0, 1]: normalized volume / longest-edge^d, per cell,
    from the mesh's own volumes and longest squared edges."""
    ref = {2: math.sqrt(3.0) / 4.0, 3: math.sqrt(2.0) / 12.0}[dom.dim]
    return np.abs(dom.cell_volumes) / (ref * np.sqrt(dom.cell_h2max) ** dom.dim)


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


def _rail_edges(rows: list, cells: np.ndarray) -> list:
    """Boundary edges (u, v) along rail_a and rail_b of a strip mesh, each
    rail with whether the positively oriented cell that owns an edge runs it
    from u to v.

    Only the owners are read: zipper_rows emits strip after strip, so the
    first triangle of strip k holds the first vertices of rows k and k + 1,
    which are its rail_a edge, and its last triangle their last vertices.
    """
    sizes = np.array([len(r) for r in rows], dtype=np.int64)
    per_strip = sizes[:-1] + sizes[1:] - 2
    if np.any(per_strip == 0):
        raise MeshQualityError("the two rails of a strip mesh meet along an edge")
    end = np.cumsum(per_strip)
    rails = []
    for ends, owners in ((np.array([r[0] for r in rows]), cells[end - per_strip]),
                         (np.array([r[-1] for r in rows]), cells[end - 1])):
        edges = np.column_stack([ends[:-1], ends[1:]]).astype(np.int64)
        # a triangle runs u -> v when v follows u in its cyclic vertex order
        runs = np.any((owners == edges[:, :1]) & (np.roll(owners, -1, axis=1) == edges[:, 1:]),
                      axis=1)
        rails.append((edges, runs))
    return rails


def _boundary_2d(surface: SurfaceMesh, container: Container, resolution: int,
                 grading: float):
    """The strip mesh between the surface polyline and the support path: its
    boundary, and its triangles as the tet step."""
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
    # an edge's normal is its direction turned by -90 degrees, outward from
    # the owning triangle exactly when that triangle runs it
    (t_f, t_runs), (sig_f, sig_runs) = _rail_edges(rows, cells)
    corners = np.array([rows[0][0], rows[-1][0]], dtype=np.int64)
    h_along = surface.mean_curvature[order]
    sigma_H = np.interp(0.5 * (fracs[:-1] + fracs[1:]), np.linspace(0, 1, len(h_along)), h_along)
    boundary = DomainBoundary(
        dim=2,
        container=container,
        theta=surface.theta,
        vertices=vertices,
        sigma_facets=np.where(sig_runs[:, None], sig_f, sig_f[:, ::-1]),
        t_facets=np.where(t_runs[:, None], t_f, t_f[:, ::-1]),
        gamma_vertices=corners,
        sigma_H=sigma_H,
    )
    return boundary, lambda: (cells, vols, h2max)


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
    CELL_BLOCK at a time, so the index arrays of the lookups stay small.
    """
    tets = np.empty((len(prisms), 3, 4), dtype=np.int64)
    for start in range(0, len(prisms), CELL_BLOCK):
        block = prisms[start:start + CELL_BLOCK]
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


def _sweep_edges(vid: np.ndarray, on_axis: np.ndarray,
                 edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Triangles swept by the cross-section edges (i0, i1), edge after edge,
    and how many each edge sweeps: a fan from the axis vertex, else the quads
    (i0, i1, i1 next, i0 next) between the two rings split by the min-vertex
    diagonal."""
    k = vid.shape[1]
    jn = np.roll(np.arange(k), -1)
    i0, i1 = edges.T
    fan = on_axis[i0] | on_axis[i1]
    counts = np.where(fan, k, 2 * k)
    slots = np.cumsum(counts) - counts
    facets = np.empty((counts.sum(), 3), dtype=np.int64)
    ring = vid[np.where(on_axis[i0], i1, i0)[fan]]
    apex = np.repeat(vid[np.where(on_axis[i0], i0, i1)[fan], 0], k)
    facets[(slots[fan][:, None] + np.arange(k)).ravel()] = np.column_stack(
        [apex, ring.ravel(), ring[:, jn].ravel()])
    a, b = vid[i0[~fan]], vid[i1[~fan]]
    facets[(slots[~fan][:, None] + np.arange(2 * k)).ravel()] = _split_quads(
        np.stack([a, b, b[:, jn], a[:, jn]], axis=-1).reshape(-1, 4))
    return facets, counts


def _boundary_3d(surface: SurfaceMesh, container: Container, resolution: int,
                 grading: float):
    """The revolved cross-section's vertices and its Sigma and T edges swept
    into facets; the tet step sweeps its triangles (_revolve_cells)."""
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
    (other_edges, other_runs), (sigma_edges, sigma_runs) = _rail_edges(rows, cross_cells)
    sigma_h_mid = np.interp(0.5 * (fracs[:-1] + fracs[1:]), np.linspace(0.0, 1.0, len(gen)), h_gen)
    mid_rho = 0.5 * (vertices2[other_edges[:, 0], 0] + vertices2[other_edges[:, 1], 0])
    on_t = (mid_rho > 1e-10 * scale) & (container is not Container.CLOSED)

    on_axis = vertices2[:, 0] <= 1e-12
    vertices, vid, _ = revolve(vertices2, on_axis, target * scale)

    # A block swept from a to b (from the axis vertex, for a fan) has normals
    # along b - a turned by +90 degrees in the (rho, z) plane.  They point
    # into the positively oriented cross-section triangle that owns the edge
    # exactly when that triangle runs a -> b, and then the block is flipped.
    edges = np.vstack([sigma_edges, other_edges[on_t]])
    runs = np.concatenate([sigma_runs, other_runs[on_t]])
    facets, counts = _sweep_edges(vid, on_axis, edges)
    i0, i1 = edges.T
    flip = np.repeat(runs != (on_axis[i1] & ~on_axis[i0]), counts)
    facets[flip] = facets[flip, ::-1]
    sigma_counts = counts[:len(sigma_edges)]
    boundary = DomainBoundary(
        dim=3,
        container=container,
        theta=surface.theta,
        vertices=vertices,
        sigma_facets=facets[:sigma_counts.sum()],
        t_facets=facets[sigma_counts.sum():],
        gamma_vertices=vid[rows[-1][0]] if container.has_support else np.empty(0, dtype=np.int64),
        sigma_H=np.repeat(sigma_h_mid, sigma_counts),  # the generator value of each Sigma edge
    )
    return boundary, lambda: _revolve_cells(vertices, vid, on_axis, cross_cells)


def _revolve_cells(vertices: np.ndarray, vid: np.ndarray, on_axis: np.ndarray,
                   cross_cells: np.ndarray):
    """The tets swept by the cross-section's triangles, oriented, with their
    volumes and longest squared edges.

    A triangle off the axis sweeps a stack of prisms, and the stacks of all of
    them are split in one call; a triangle at the axis sweeps a cone from its
    first axis vertex over the facets its other edge sweeps.
    """
    jn = np.roll(np.arange(vid.shape[1]), -1)
    n_ax = on_axis[cross_cells].sum(axis=1)
    rings = vid[cross_cells[n_ax == 0]]  # (m, 3, k_azim)
    prisms = np.concatenate([rings, rings[:, :, jn]], axis=1)
    cones = np.concatenate([cross_cells[n_ax == 1], cross_cells[n_ax == 2]])
    ax = cones[np.arange(len(cones)), np.argmax(on_axis[cones], axis=1)]
    side, counts = _sweep_edges(vid, on_axis, cones[cones != ax[:, None]].reshape(-1, 2))
    cells = np.vstack([_split_prisms(prisms.transpose(0, 2, 1).reshape(-1, 6)),
                       np.column_stack([np.repeat(vid[ax, 0], counts), side])])
    return (cells, *cell_geometry(vertices, cells, orient=True))


# ---------------------------------------------------------------------------
# entry points and checks
# ---------------------------------------------------------------------------


def _mesh_steps(surface: SurfaceMesh, container: Container | str | None, resolution: int,
                grading: float):
    """The boundary step, and the tet step as a function that returns the
    cells, their volumes and their longest squared edges."""
    from hklab.containers import parse_container, support_deviation

    container = surface.container if container is None else parse_container(container)
    if container is not surface.container:
        raise HkLabError("surface and requested container disagree")
    if container.has_support:
        loop_pts = surface.vertices[surface.boundary_vertices]
        dev = np.abs(support_deviation(container, loop_pts))
        if np.any(dev > 1e-8):
            raise HkLabError("surface boundary does not lie on the support")
    if surface.dim == 2:
        boundary, tets = _boundary_3d(surface, container, resolution, grading)
    elif container is Container.CLOSED:
        boundary, tets = _boundary_disk(surface, resolution)
    else:
        boundary, tets = _boundary_2d(surface, container, resolution, grading)
    if len(boundary.sigma_facets) + len(boundary.t_facets) == 0:
        raise HkLabError("domain mesh has no boundary facets")
    logger.info("domain boundary: nv=%d sigma=%d T=%d", boundary.num_vertices,
                len(boundary.sigma_facets), len(boundary.t_facets))
    return boundary, tets


def domain_boundary(
    surface: SurfaceMesh,
    container: Container | str | None,
    resolution: int,
    grading: float = 0.5,
) -> DomainBoundary:
    """The boundary of the region mesh_domain meshes, with the same vertices
    and facets, and no cells: all that the volume integrals of hk read."""
    return _mesh_steps(surface, container, resolution, grading)[0]


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
    boundary, tets = _mesh_steps(surface, container, resolution, grading)
    cells, vols, h2max = tets()
    dom = DomainMesh(**vars(boundary), cells=cells, cell_volumes=vols, cell_h2max=h2max)
    if np.any(vols <= 0):
        nonpos = int(np.sum(vols <= 0))
        if np.any(vols < -1e-14):
            raise MeshQualityError(f"{nonpos} negatively oriented cells after fixing")
        logger.warning("%d zero-volume cells retained (degenerate Delaunay faces)", nonpos)
    q = mesh_quality(dom)
    q_min = float(np.min(q))
    logger.info("domain mesh: nv=%d nc=%d min_quality=%.3e", dom.num_vertices,
                len(dom.cells), q_min)
    if q_min < QUALITY_WARNING:
        bad = int(np.sum(q < QUALITY_WARNING))
        logger.warning("domain mesh has %d cells below quality %.1e", bad, QUALITY_WARNING)
    return dom


def _boundary_disk(surface: SurfaceMesh, resolution: int):
    """The region inside a closed curve, a fan of scaled loops: its boundary,
    the loop, and its triangles as the tet step."""
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
    h_mid = 0.5 * (surface.mean_curvature[order] + surface.mean_curvature[np.roll(order, -1)])
    boundary = DomainBoundary(
        dim=2,
        container=Container.CLOSED,
        theta=None,
        vertices=vertices,
        sigma_facets=_orient_facets_outward(vertices, sigma_facets, seed[None, :]),
        t_facets=np.empty((0, 2), dtype=np.int64),
        gamma_vertices=np.empty(0, dtype=np.int64),
        sigma_H=h_mid,
    )
    return boundary, lambda: (cells, vols, h2max)
