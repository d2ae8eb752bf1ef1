"""Surface meshing, discrete estimators, frames, orientation and equivariance."""

import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import THETA3, array_digest, frame_residual, rotate_z
from hklab import make_cap, mesh_surface, discrete_geometry
from hklab.caps import AnalyticCap
from hklab.containers import Container, support_conormal, support_normal
from hklab.errors import HkLabError
from hklab.meshio import read_off, write_off
from hklab.meshutil import (area_rows, centroids, coordinate_rows, polyline_order,
                            simplex_measures)
from hklab.profiles import make_axisymmetric, perturb_profile, profile_from_cap
from hklab.surface import _boundary_loops_2d, build_surface_mesh, enclosed_volume_flux


def test_cap_area_convergence(hs_cap2):
    areas = {}
    for res in (32, 64):
        mesh = mesh_surface(hs_cap2, res)
        areas[res] = abs(mesh.cell_areas.sum() - math.pi) / math.pi
    assert areas[64] < 2e-3
    assert areas[32] / areas[64] >= 3.5


def test_semicircle_length():
    cap = make_cap("half-space", math.pi / 2, 1.0, 1)
    mesh = mesh_surface(cap, 64)
    assert abs(mesh.cell_areas.sum() - math.pi) / math.pi < 2e-3


def test_enclosed_volume_positive_everywhere():
    configs = [
        make_cap("half-space", THETA3, 1.0, 1),
        make_cap("half-space", THETA3, 1.0, 2),
        make_cap("half-ball", THETA3, 0.5, 1),
        make_cap("half-ball", THETA3, 0.5, 2),
        make_cap("closed", None, 1.0, 1),
        make_cap("closed", None, 1.0, 2),
    ]
    for cap in configs:
        mesh = mesh_surface(cap, 24)
        vol = enclosed_volume_flux(mesh)
        assert vol > 0
        ref = cap.quantities["volume"]
        assert abs(vol - ref) / ref < 2e-2


def test_flux_volume_matches_closed_form(hs_surface2, hs_cap2):
    ref = hs_cap2.quantities["volume"]
    assert abs(enclosed_volume_flux(hs_surface2) - ref) / ref < 1e-3


def test_unit_vector_invariants(hs_surface2):
    assert np.max(np.abs(np.linalg.norm(hs_surface2.normals, axis=1) - 1)) < 1e-13
    assert np.max(np.abs(np.linalg.norm(hs_surface2.boundary_mu, axis=1) - 1)) < 1e-13
    nu_b = hs_surface2.normals[hs_surface2.boundary_vertices]
    assert np.max(np.abs(np.einsum("ij,ij->i", hs_surface2.boundary_mu, nu_b))) < 1e-13


def test_analytic_frame_residual_zero(hs_surface2):
    assert frame_residual(hs_surface2) < 1e-13


def test_discrete_mean_curvature_cap(hs_surface2):
    mesh = discrete_geometry(hs_surface2)
    interior = ~mesh.low_trust
    assert np.max(np.abs(mesh.mean_curvature[interior] - 2.0)) <= 0.05


def test_discrete_mean_curvature_semicircle():
    cap = make_cap("half-space", math.pi / 2, 1.0, 1)
    mesh = discrete_geometry(mesh_surface(cap, 64))
    interior = ~mesh.low_trust
    assert np.max(np.abs(mesh.mean_curvature[interior] - 1.0)) <= 1e-3


def test_discrete_mean_curvature_closed_circle():
    cap = make_cap("closed", None, 1.0, 1)
    mesh = discrete_geometry(mesh_surface(cap, 64))
    assert np.max(np.abs(mesh.mean_curvature - 1.0)) <= 1e-6


def test_discrete_frame_residual_refines(hs_cap2):
    residuals = {}
    for res in (32, 64, 128):
        mesh = discrete_geometry(mesh_surface(hs_cap2, res))
        residuals[res] = frame_residual(mesh)
    assert residuals[64] <= 1e-2
    assert residuals[128] <= 5e-3
    rate = math.log2(residuals[32] / residuals[64])
    assert rate >= 0.95


def test_rotation_equivariance(hb_cap2):
    mesh = mesh_surface(hb_cap2, 24)
    angle = 0.7
    rotated = replace(
        mesh,
        vertices=rotate_z(mesh.vertices, angle),
        normals=rotate_z(mesh.normals, angle),
    )
    d0 = discrete_geometry(mesh)
    d1 = discrete_geometry(rotated)
    assert np.max(np.abs(d0.cell_areas - d1.cell_areas)) < 1e-13
    assert np.max(np.abs(d0.mean_curvature - d1.mean_curvature)) < 1e-10
    assert np.max(np.abs(rotate_z(d0.normals, angle) - d1.normals)) < 1e-12


def test_scaling_equivariance_analytic_path():
    # ungraded cap meshes scale bitwise under s = 2
    a = mesh_surface(make_cap("half-space", THETA3, 1.0, 2), 24)
    b = mesh_surface(make_cap("half-space", THETA3, 2.0, 2), 24)
    assert np.array_equal(a.cells, b.cells)
    assert np.max(np.abs(b.vertices - 2.0 * a.vertices)) < 1e-14
    assert abs(b.cell_areas.sum() - 4.0 * a.cell_areas.sum()) < 1e-12
    assert np.max(np.abs(b.mean_curvature - 0.5 * a.mean_curvature)) < 1e-15


@pytest.mark.parametrize("dim", [2, 1])
def test_closed_profile_revolves_to_a_closed_surface(dim):
    # caps and profiles share one mesher: a surface closes its second pole,
    # a chain closes into a loop
    mesh = mesh_surface(profile_from_cap(make_cap("closed", None, 1.0, dim)), 16)
    assert len(mesh.boundary_vertices) == 0 and mesh.boundary_loops == []
    full = 4.0 * math.pi if dim == 2 else 2.0 * math.pi
    assert abs(mesh.cell_areas.sum() / full - 1.0) < 1e-2
    assert enclosed_volume_flux(mesh) > 0


def test_single_boundary_loop(hs_surface2):
    assert len(hs_surface2.boundary_loops) == 1
    loop = hs_surface2.boundary_loops[0]
    pts = hs_surface2.vertices[loop]
    assert np.max(np.abs(pts[:, -1])) < 1e-12  # loop on the support plane


def test_resolution_validation(hs_cap2):
    with pytest.raises(Exception):
        mesh_surface(hs_cap2, 3)


def _dict_boundary_loops(cells):
    """Oracle: the per-triangle dict walker that boundary loops used to come from."""
    edges = {}
    for tri in cells:
        for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
            edges[(int(a), int(b))] = edges.get((int(a), int(b)), 0) + 1
    succ = {}
    for (a, b), cnt in edges.items():
        if cnt == 1 and (b, a) not in edges:
            if a in succ:
                raise HkLabError("non-manifold boundary: vertex with two outgoing edges")
            succ[a] = b
    loops, visited = [], set()
    for start in sorted(succ):
        if start in visited:
            continue
        loop, cur = [start], succ[start]
        visited.add(start)
        while cur != start:
            loop.append(cur)
            visited.add(cur)
            cur = succ[cur]
        loops.append(np.asarray(loop, dtype=np.int64))
    return loops


def _loop_sources(tmp_path):
    hb = mesh_surface(make_cap("half-ball", THETA3, 0.5, 2), 16)
    cap = mesh_surface(make_cap("half-space", THETA3, 1.0, 2), 16)
    prof = make_axisymmetric(
        perturb_profile(profile_from_cap(make_cap("half-space", THETA3, 1.0, 2)), 0.02),
        THETA3, "half-space")
    perturbed = mesh_surface(prof, 16)
    write_off(cap, tmp_path / "cap.off")
    off = read_off(tmp_path / "cap.off", "half-space", THETA3)
    # the cap without its pole fan has two loops; duplicated triangles hide edges
    holed = cap.cells[~np.any(cap.cells == 0, axis=1)]
    doubled = np.vstack([cap.cells[:40], cap.cells[:40]])
    return {"half-ball cap": hb.cells, "half-space cap": cap.cells,
            "perturbed profile": perturbed.cells, "OFF": off.cells,
            "two loops": holed, "doubled": doubled, "empty": np.empty((0, 3), np.int64)}


def test_boundary_loops_match_dict_walker(tmp_path):
    for name, cells in _loop_sources(tmp_path).items():
        got, want = _boundary_loops_2d(cells), _dict_boundary_loops(cells)
        assert len(got) == len(want), name
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and np.array_equal(g, w), name


def test_boundary_loops_reject_two_outgoing_edges():
    bowtie = np.array([[0, 1, 2], [0, 3, 4]], dtype=np.int64)
    with pytest.raises(HkLabError, match="two outgoing edges"):
        _dict_boundary_loops(bowtie)
    with pytest.raises(HkLabError, match="two outgoing edges"):
        _boundary_loops_2d(bowtie)


@pytest.mark.parametrize("cells", [
    [[0, 2, 3], [2, 0, 4], [2, 1, 4], [4, 2, 1]],  # the dict walker raised KeyError
    [[4, 0, 1], [3, 1, 0], [2, 1, 3], [0, 1, 2]],  # the dict walker never returned
])
def test_boundary_loops_reject_open_boundary_chains(cells):
    with pytest.raises(HkLabError, match="do not close into loops"):
        _boundary_loops_2d(np.array(cells, dtype=np.int64))


def _per_source_conormal(source, mesh):
    """nu_bar as each source built it before support_conormal existed.

    n = 1 profiles turned N_bar by 90 degrees away from the other end point;
    otherwise the half-space took the horizontal radial direction and the
    half-ball z omega - rho E_d, with the closed-form (z, rho) of Gamma on caps
    and (z, rho) of the first Gamma point on n = 2 profiles.
    """
    pts = mesh.vertices[mesh.boundary_vertices]
    nbar = support_normal(source.container, pts)
    if source.dim == 1 and not isinstance(source, AnalyticCap):
        cand = np.column_stack([-nbar[:, 1], nbar[:, 0]])
        sign = np.where(np.einsum("ij,ij->i", cand, pts - pts[::-1]) >= 0, 1.0, -1.0)
        return cand * sign[:, None]
    horiz = pts.copy()
    horiz[:, -1] = 0.0
    horiz /= np.linalg.norm(horiz, axis=1, keepdims=True)
    if source.container is Container.HALF_SPACE:
        return horiz
    if isinstance(source, AnalyticCap):
        z, rho = source.quantities["gamma_height"], source.quantities["gamma_radius"]
    else:
        z, rho = float(pts[0, -1]), float(np.linalg.norm(pts[0, :2]))
    nubar = z * horiz
    nubar[:, -1] = -rho
    return nubar


@pytest.mark.parametrize("kind", ["cap", "profile"])
@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("container, radius", [("half-space", 1.0), ("half-ball", 0.5)])
def test_support_conormal_matches_per_source_formulas(container, radius, dim, kind):
    source = make_cap(container, THETA3, radius, dim)
    if kind == "profile":
        source = make_axisymmetric(perturb_profile(profile_from_cap(source), 0.02),
                                   THETA3, container)
    mesh = mesh_surface(source, 16)
    pts = mesh.vertices[mesh.boundary_vertices]
    assert np.array_equal(mesh.boundary_conormal_support, support_conormal(mesh.container, pts))
    oracle = _per_source_conormal(source, mesh)
    assert np.max(np.abs(mesh.boundary_conormal_support - oracle)) <= 1e-15


@pytest.mark.parametrize("dim", [1, 2])
def test_build_surface_mesh_fills_what_a_source_does_not_know(dim):
    d = dim + 1
    vertices = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.5]])[:, :d]
    cells = np.array([[0, 1], [1, 2]] if dim == 1 else [[0, 1, 2]], dtype=np.int64)
    mesh = build_surface_mesh(dim, Container.HALF_SPACE, None, vertices, cells)
    assert np.array_equal(mesh.cell_areas, simplex_measures(vertices, cells)[0])
    assert mesh.boundary_loops == [] and mesh.boundary_vertices.shape == (0,)
    for field in (mesh.boundary_mu, mesh.boundary_conormal_support, mesh.boundary_support_normal):
        assert field.shape == (0, d)
    assert not mesh.low_trust.any() and mesh.low_trust.shape == (3,)
    assert not mesh.normals.any() and mesh.normals.shape == (3, d)
    assert not mesh.mean_curvature.any() and mesh.mean_curvature.shape == (3,)
    for bad in (7, -1):
        wrong = cells.copy()
        wrong[-1, -1] = bad
        with pytest.raises(HkLabError, match="cell index outside"):
            build_surface_mesh(dim, Container.HALF_SPACE, None, vertices, wrong)
    with pytest.raises(HkLabError, match="vertices per cell"):
        build_surface_mesh(dim, Container.HALF_SPACE, None, vertices, cells[:, :1])


# sha256 of vertices, cells, normals, mean curvature and Gamma vertices of
# revolved surfaces (theta = pi/3).  Keys are (source, container,
# resolution, grading); taken before the revolve and the row zipper became
# one vectorised primitive each, when surfaces could still be graded.  Every
# surface is ungraded now, so every key has grading 0.0.
REVOLVED_SURFACE_SHA256 = {
    ("cap", "closed", 13, 0.0): "f70017369d4f8ce332bbf7c6711348176f093694f19a1a080ff7bc4e088b788a",
    ("cap", "closed", 16, 0.0): "d9b210f567d94b95a9740e11e8e352ab8b60cf5eecff59fe3701b6d4fadb29a1",
    ("cap", "half-ball", 13, 0.0): "1a0ccd7124b42f2dcbb158c1e63e4510781f2aa94cd3b067b692167cf0da90c5",
    ("cap", "half-ball", 16, 0.0): "f20de3ebc5e5100881cb997d84f12938f6e984a4c26238152b46bd091f2cb385",
    ("cap", "half-space", 13, 0.0): "a8e84f0b7191137927c2a9d36d1a7099696df47446239e20af60251c5d222b73",
    ("cap", "half-space", 16, 0.0): "e23a1c1348313492eea0585146314a6a6528e89db67a8d311b1863aac5e478fe",
    ("profile", "half-ball", 16, 0.0): "ca467ad691a41aa7a792de8f812c942d46d5a08305560e36c85ec514f442e15d",
    ("profile", "half-space", 16, 0.0): "3dadb8ed009b94ce93ff0e5a2c7f14d7de9f2326cb2a3bff5da75d785cd693a2",
}


@pytest.mark.parametrize("key", sorted(REVOLVED_SURFACE_SHA256),
                         ids=lambda k: "-".join(map(str, k)))
def test_revolved_surfaces_are_unchanged(key):
    kind, container, resolution, _ = key
    source = make_cap(container, THETA3, 0.5 if container == "half-ball" else 1.0, 2)
    if kind == "profile":
        source = make_axisymmetric(perturb_profile(profile_from_cap(source), 0.02), THETA3,
                                   container)
    mesh = mesh_surface(source, resolution)
    got = array_digest(mesh.vertices, mesh.cells, mesh.normals, mesh.mean_curvature,
                       mesh.boundary_vertices)
    assert got == REVOLVED_SURFACE_SHA256[key]


def _n1_source(kind, container):
    source = make_cap(container, None if container == "closed" else THETA3,
                      0.5 if container == "half-ball" else 1.0, 1)
    if kind == "profile":
        source = make_axisymmetric(perturb_profile(profile_from_cap(source), 0.02), THETA3,
                                   container)
    return source


def _walk_digest(mesh) -> str:
    """sha256 of an n = 1 surface's source fields in the walk order of its chain.

    Vertices, normals, mean curvature and low trust are gathered along
    polyline_order, then the Gamma frame (mu, nu_bar, N_bar) at the walk's
    first and last vertex; so the digest does not depend on vertex numbering.
    """
    order = polyline_order(mesh.cells, mesh.num_vertices)
    walk = order[:-1] if order[0] == order[-1] else order
    rows = [int(np.flatnonzero(mesh.boundary_vertices == v)[0])
            for v in (order[[0, -1]] if len(mesh.boundary_vertices) else [])]
    return array_digest(mesh.vertices[walk], mesh.normals[walk], mesh.mean_curvature[walk],
                        mesh.low_trust[walk], mesh.boundary_mu[rows],
                        mesh.boundary_conormal_support[rows], mesh.boundary_support_normal[rows])


# sha256 of _walk_digest on n = 1 surfaces (theta = pi/3): caps and 0.02
# perturbed profiles.  Keys are (source, container, resolution); taken while
# caps and profiles still had a polyline mesher each and the half-ball profile
# was numbered from its other end.
CHAIN_SURFACE_SHA256 = {
    ("cap", "closed", 13): "ce917cffc11cf44cc000162cb95b94d3cbf03b8fc8301f7cf084a5d1f8eecc33",
    ("cap", "closed", 16): "2130e21df2e9d33bf5aaf3664342e9b8f3787d63376d2838e1b434bf8682e540",
    ("cap", "half-ball", 13): "fe2ef68ebbf7a7262236706139393178618a93acf93349f5d4148f19d0f50c74",
    ("cap", "half-ball", 16): "8a71ce63f70b44dc36f23748cf6f873a0d07053eb8f6b8b5c6fba1fcb9ce8226",
    ("cap", "half-space", 13): "4cd0298c158d37a132577469407e688b6e5062b438e73e22ca410f665c16bcda",
    ("cap", "half-space", 16): "c12912f718b847ca9834fedfe4b0bcc52ad1576ebcf76a7114d4faea2261c389",
    ("profile", "half-ball", 16): "0caa9aed03c6f95f6cc3f003a7ff4199754e33d7b110e864d6468933feeff9b7",
    ("profile", "half-space", 16): "d9df87cf011f1908897849c7029a915895ebb20681099a2a067bbea05c9b7f53",
}


@pytest.mark.parametrize("key", sorted(CHAIN_SURFACE_SHA256),
                         ids=lambda k: "-".join(map(str, k)))
def test_chain_surfaces_are_unchanged(key):
    kind, container, resolution = key
    assert _walk_digest(mesh_surface(_n1_source(kind, container), resolution)) == \
        CHAIN_SURFACE_SHA256[key]


# sha256 of the fields discrete_geometry gives (cell areas, normals, mean
# curvature, low trust, Gamma vertices and frame, loops) on meshes of caps and
# perturbed profiles (theta = pi/3).  Keys are (source, container, dim,
# resolution); taken while it still measured the cells twice.
DISCRETE_GEOMETRY_SHA256 = {
    ("cap", "half-space", 2, 16): "cfa8550bf925ddda3cf03c89bfd089d6df175642c64fb4b97ff594c9872ee9ae",
    ("cap", "closed", 2, 13): "7fdb9123833f43640af5aae469c5d32cdbdd894184424cff00e98e79d8aca0fc",
    ("cap", "half-ball", 1, 16): "d71d086836121f0f1faa02b307a63906376c23e3f22834b9cb3469795bc9a11a",
    ("cap", "closed", 1, 16): "59c70dbece9521a4cf78e9c290b5ada5590db9d16b8461f6c550760e3fd7e2de",
    ("profile", "half-ball", 2, 16): "d1dee318a1ec8e85e2338c9c955cc9e2de1dd8fe8ec3d36b2f96fe72a687c03c",
    ("profile", "half-space", 1, 16): "b8f997cbd19e35ea95bdd06a92a854690f8bccbd88860823322ec600195d3e88",
}


@pytest.mark.parametrize("key", sorted(DISCRETE_GEOMETRY_SHA256),
                         ids=lambda k: "-".join(map(str, k)))
def test_discrete_geometry_measures_the_cells_once(key, monkeypatch):
    from hklab import surface

    kind, container, dim, resolution = key
    source = make_cap(container, None if container == "closed" else THETA3,
                      0.5 if container == "half-ball" else 1.0, dim)
    if kind == "profile":
        source = make_axisymmetric(perturb_profile(profile_from_cap(source), 0.02), THETA3,
                                   container)
    mesh = mesh_surface(source, resolution)
    calls = []

    def counting(*args):
        calls.append(len(args[1]))
        return simplex_measures(*args)

    monkeypatch.setattr(surface, "simplex_measures", counting)
    out = discrete_geometry(mesh)
    assert calls == [len(mesh.cells)]
    got = array_digest(out.cell_areas, out.normals, out.mean_curvature, out.low_trust,
                       out.boundary_vertices, out.boundary_mu, out.boundary_conormal_support,
                       out.boundary_support_normal, *out.boundary_loops)
    assert got == DISCRETE_GEOMETRY_SHA256[key]


def _old_facet_kernels(vertices, simplices):
    # the np.cross, np.linalg.norm and .mean(axis=1) forms of the facet kernels
    p = vertices[simplices]
    if simplices.shape[1] == 2:
        edge = p[:, 1] - p[:, 0]
        area = np.column_stack([edge[:, 1], -edge[:, 0]])
    else:
        area = 0.5 * np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])
    measures = np.linalg.norm(area, axis=1)
    return area, measures, area / measures[:, None], p.mean(axis=1)


def test_facet_kernels_match_cross_norm_and_mean_oracle():
    rng = np.random.default_rng(11)
    plane = rng.standard_normal((40, 2))
    space = rng.standard_normal((40, 3)) * np.exp(3.0 * rng.standard_normal((40, 1)))
    space[:3, 0] = -0.0  # facet 0 has x = -0.0 at every vertex
    edges = np.array([rng.choice(40, 2, replace=False) for _ in range(200)])
    triangles = np.vstack([[0, 1, 2], [rng.choice(40, 3, replace=False) for _ in range(200)]])
    cases = {"edges": (plane, edges), "triangles": (space, triangles),
             "few edges": (plane, edges[:7]), "few triangles": (space, triangles[:5]),
             "no edges": (plane, edges[:0]), "no triangles": (space, triangles[:0])}
    for name, (vertices, simplices) in cases.items():
        area, measures, normals, means = _old_facet_kernels(vertices, simplices)
        got = simplex_measures(vertices, simplices)
        rows = coordinate_rows(vertices, simplices)
        assert rows.flags.c_contiguous, name
        assert np.array_equal(np.column_stack(area_rows(rows)), area), name
        assert np.array_equal(got[0], measures) and np.array_equal(got[1], normals), name
        cells_mean = centroids(vertices, simplices)
        assert np.array_equal(cells_mean, means) and cells_mean.flags.c_contiguous, name
        assert np.array_equal(np.signbit(cells_mean), np.signbit(means)), name
        values = vertices[:, -1]
        assert np.array_equal(centroids(values, simplices), values[simplices].mean(axis=1)), name


def _add_at_geometry(vertices, cells):
    # normals, mean curvature and cell areas by the np.add.at loops that
    # discrete_geometry ran before it scattered with bincount
    _, areas, cell_normals, _ = _old_facet_kernels(vertices, cells)
    normals = np.zeros_like(vertices)
    for local in range(cells.shape[1]):
        np.add.at(normals, cells[:, local], cell_normals * areas[:, None])
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    if cells.shape[1] == 2:
        return normals, None, areas
    nv = len(vertices)
    voronoi = np.zeros(nv)
    p = vertices[cells]
    full = 0.5 * np.linalg.norm(np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]), axis=1)
    acc = np.zeros((nv, 3))
    for local in range(3):
        i, j, k = (cells[:, (local + s) % 3] for s in range(3))
        e_ij, e_ik = vertices[j] - vertices[i], vertices[k] - vertices[i]
        e_jk = vertices[k] - vertices[j]
        cos_i = np.einsum("ab,ab->a", e_ij, e_ik)
        cos_j = np.einsum("ab,ab->a", -e_ij, e_jk)
        cos_k = np.einsum("ab,ab->a", -e_ik, -e_jk)
        cot_j, cot_k = cos_j / (2.0 * full), cos_k / (2.0 * full)
        vor = 0.125 * (np.einsum("ab,ab->a", e_ik, e_ik) * cot_j
                       + np.einsum("ab,ab->a", e_ij, e_ij) * cot_k)
        obtuse_any = (cos_i < 0) | (cos_j < 0) | (cos_k < 0)
        np.add.at(voronoi, i, np.where(obtuse_any,
                                       np.where(cos_i < 0, 0.5 * full, 0.25 * full), vor))
    for local in range(3):
        i, j, k = (cells[:, (local + s) % 3] for s in range(3))
        u, v = vertices[i] - vertices[k], vertices[j] - vertices[k]
        cross = np.linalg.norm(np.cross(u, v), axis=1)
        w = 0.5 * (np.einsum("ab,ab->a", u, v) / np.where(cross > 0, cross, np.inf))
        diff = vertices[i] - vertices[j]
        np.add.at(acc, i, w[:, None] * diff)
        np.add.at(acc, j, -w[:, None] * diff)
    hvec = acc / np.where(voronoi > 1e-300, voronoi, np.inf)[:, None]
    return normals, np.einsum("ab,ab->a", hvec, normals), areas


def test_discrete_geometry_matches_add_at_oracle(tmp_path):
    hb = make_cap("half-ball", THETA3, 0.5, 2)
    sources = {"half-space cap": (make_cap("half-space", THETA3, 1.0, 2), "half-space"),
               "half-ball cap": (hb, "half-ball"),
               "perturbed half-ball": (make_axisymmetric(
                   perturb_profile(profile_from_cap(hb), 0.02), THETA3, "half-ball"), "half-ball"),
               "polyline": (make_cap("half-space", THETA3, 1.0, 1), "half-space")}
    meshes = {name: (mesh_surface(source, 16), container)
              for name, (source, container) in sources.items()}
    # off the revolved lattice no two cells have the same shape, so a term summed
    # out of order is unlikely to round the same
    cap = meshes["half-space cap"][0]
    jitter = 0.02 * np.random.default_rng(5).standard_normal(cap.vertices.shape)
    meshes["jittered cap"] = (replace(cap, vertices=cap.vertices + jitter), "half-space")
    for name, (mesh, container) in meshes.items():
        write_off(mesh, tmp_path / "surface.off")
        got = read_off(tmp_path / "surface.off", container, THETA3)
        normals, mean_curvature, areas = _add_at_geometry(got.vertices, got.cells)
        assert np.array_equal(got.normals, normals), name
        assert mean_curvature is None or np.array_equal(got.mean_curvature, mean_curvature), name
        assert np.array_equal(got.cell_areas, areas), name
