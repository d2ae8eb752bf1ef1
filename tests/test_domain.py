"""Domain meshing: measures, tags, corners, grading, quality."""

import logging
import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from conftest import THETA3, array_digest
from hklab import (
    domain_boundary,
    make_axisymmetric,
    make_cap,
    mesh_domain,
    mesh_surface,
    perturb_profile,
)
from hklab import domain
from hklab.domain import DomainBoundary, cell_geometry, mesh_quality
from hklab.identities import domain_volume_integrals
from hklab.meshutil import polyline_order
from hklab.profiles import profile_from_cap
from hklab.errors import HkLabError


def test_planar_cap_area(hs_surface1):
    ref = math.pi / 3 - math.sqrt(3) / 4
    dom = mesh_domain(hs_surface1, "half-space", 64)
    assert abs(dom.volume - ref) / ref < 5e-3


def test_planar_area_refinement_ratio(hs_cap1):
    ref = math.pi / 3 - math.sqrt(3) / 4
    errs = []
    for res in (32, 64):
        surf = mesh_surface(hs_cap1, res)
        dom = mesh_domain(surf, "half-space", res, grading=0.0)
        errs.append(abs(dom.volume - ref) / ref)
    assert errs[0] / errs[1] >= 3.5


def test_hemisphere_volume():
    cap = make_cap("half-space", math.pi / 2, 1.0, 2)
    dom = mesh_domain(mesh_surface(cap, 24), "half-space", 24)
    ref = 2 * math.pi / 3
    assert abs(dom.volume - ref) / ref < 1e-2


def test_solid_volume_refinement_ratio(hs_cap2):
    ref = 5 * math.pi / 24
    errs = []
    for res in (12, 24):
        dom = mesh_domain(mesh_surface(hs_cap2, res), "half-space", res, grading=0.0)
        errs.append(abs(dom.volume - ref) / ref)
    assert errs[0] / errs[1] >= 3.5


def test_lens_volume_and_height(hb_cap2):
    dom = mesh_domain(mesh_surface(hb_cap2, 24), "half-ball", 24)
    q = hb_cap2.quantities
    vol, volz = domain_volume_integrals(dom)
    assert abs(vol - q["volume"]) / q["volume"] < 1e-2
    assert abs(volz - q["int_volume_height"]) / q["int_volume_height"] < 1e-2


def test_boundary_tag_partition(hs_domain1):
    # degree-one faces of the cell complex must be exactly Sigma union T
    faces = Counter()
    for cell in hs_domain1.cells:
        m = len(cell)
        for k in range(m):
            faces[tuple(sorted(np.delete(cell, k)))] += 1
    boundary = {f for f, c in faces.items() if c == 1}
    assert not {f for f, c in faces.items() if c > 2}
    tagged = {tuple(sorted(f)) for f in hs_domain1.sigma_facets} | {
        tuple(sorted(f)) for f in hs_domain1.t_facets
    }
    assert tagged == boundary
    overlap = {tuple(sorted(f)) for f in hs_domain1.sigma_facets} & {
        tuple(sorted(f)) for f in hs_domain1.t_facets
    }
    assert not overlap


def test_gamma_is_shared_patch_boundary(hs_domain1):
    sigma_v = set(np.unique(hs_domain1.sigma_facets))
    t_v = set(np.unique(hs_domain1.t_facets))
    assert set(hs_domain1.gamma_vertices) == sigma_v & t_v


def test_gamma_shared_boundary_3d(hs_cap2):
    dom = mesh_domain(mesh_surface(hs_cap2, 16), "half-space", 16)
    sigma_v = set(np.unique(dom.sigma_facets))
    t_v = set(np.unique(dom.t_facets))
    assert set(dom.gamma_vertices) == sigma_v & t_v
    # the corner ring sits on the support circle of the cap
    ring = dom.vertices[dom.gamma_vertices]
    rho = np.linalg.norm(ring[:, :2], axis=1)
    assert np.max(np.abs(rho - math.sin(THETA3))) < 1e-12
    assert np.max(np.abs(ring[:, 2])) < 1e-12


def test_d_gamma_exact_for_caps(hs_domain1):
    corners = hs_domain1.vertices[hs_domain1.gamma_vertices]
    d = np.min(
        np.linalg.norm(hs_domain1.vertices[:, None, :] - corners[None, :, :], axis=2), axis=1
    )
    assert np.max(np.abs(d - hs_domain1.d_gamma)) < 1e-12


def test_d_gamma_is_the_distance_to_the_gamma_circle(hs_cap2):
    # a solid's corner ring lies on the circle rho = sin(theta), z = 0 of the
    # unit half-space cap, and d_gamma is the distance to that circle
    boundary = domain_boundary(mesh_surface(hs_cap2, 16), None, 16)
    rho = np.linalg.norm(boundary.vertices[:, :2], axis=1)
    exact = np.hypot(rho - math.sin(THETA3), boundary.vertices[:, 2])
    assert np.max(np.abs(boundary.d_gamma - exact)) < 1e-12
    assert np.max(boundary.d_gamma[boundary.gamma_vertices]) < 1e-12


def test_grading_refines_toward_corner(hs_surface1):
    graded = mesh_domain(hs_surface1, "half-space", 64, grading=0.5)
    uniform = mesh_domain(hs_surface1, "half-space", 64, grading=0.0)
    # smallest positive corner distance is far smaller on the graded mesh
    g_min = np.min(graded.d_gamma[graded.d_gamma > 0])
    u_min = np.min(uniform.d_gamma[uniform.d_gamma > 0])
    assert g_min < 0.2 * u_min


def test_positive_volumes_and_quality(hs_domain1, hb_cap2):
    assert np.all(hs_domain1.cell_volumes > 0)
    q = mesh_quality(hs_domain1)
    assert np.min(q) > 1e-4
    dom3 = mesh_domain(mesh_surface(hb_cap2, 16), "half-ball", 16)
    assert np.all(dom3.cell_volumes > 0)


def test_closed_domains():
    disk = make_cap("closed", None, 1.0, 1)
    dom2 = mesh_domain(mesh_surface(disk, 64), "closed", 64)
    assert abs(dom2.volume - math.pi) / math.pi < 5e-3
    assert len(dom2.t_facets) == 0 and len(dom2.gamma_vertices) == 0
    ball = make_cap("closed", None, 1.0, 2)
    dom3 = mesh_domain(mesh_surface(ball, 20), "closed", 20)
    ref = 4 * math.pi / 3
    assert abs(dom3.volume - ref) / ref < 1e-2


def test_boundary_off_support_rejected(hs_surface1):
    lifted = __import__("dataclasses").replace(
        hs_surface1, vertices=hs_surface1.vertices + np.array([0.0, 0.1])
    )
    with pytest.raises(HkLabError):
        mesh_domain(lifted, "half-space", 32)


def test_sigma_h_matches_cap(hs_domain1, hs_cap1):
    assert np.max(np.abs(hs_domain1.sigma_H - hs_cap1.mean_curvature)) < 1e-12


def test_polyline_order_open_closed_and_broken():
    open_chain = np.array([[2, 0], [3, 2], [0, 1]])  # 3 -> 2 -> 0 -> 1, edges shuffled
    assert polyline_order(open_chain, 4).tolist() == [3, 2, 0, 1]
    loop = np.array([[1, 2], [0, 1], [3, 0], [2, 3]])
    assert polyline_order(loop, 4).tolist() == [1, 2, 3, 0, 1]
    with pytest.raises(HkLabError, match="single chain"):
        polyline_order(np.array([[0, 1], [2, 3]]), 4)
    with pytest.raises(HkLabError, match="disconnected"):
        polyline_order(open_chain, 5)
    with pytest.raises(HkLabError, match="disconnected"):
        polyline_order(loop, 5)


# ---------------------------------------------------------------------------
# one volume pass per solid mesh
# ---------------------------------------------------------------------------


def _det_volumes(vertices, cells):
    """Oracle: the batched-determinant volumes that the triple product replaced."""
    p = vertices[cells]
    return np.linalg.det(p[:, 1:] - p[:, :1]) / math.factorial(vertices.shape[1])


def _closed_form_volumes(vertices, cells):
    """Oracle: triple-product tet and determinant triangle volumes from one
    gather of the whole mesh, the unchunked expressions."""
    p = vertices[cells]
    edges = (p[:, 1:] - p[:, :1]).transpose(1, 2, 0)
    if len(edges) == 2:
        (x1, y1), (x2, y2) = edges
        return (x1 * y2 - y1 * x2) / 2.0
    (x1, y1, z1), (x2, y2, z2), (x3, y3, z3) = edges
    return (x1 * (y2 * z3 - z2 * y3) + y1 * (z2 * x3 - x2 * z3) + z1 * (x2 * y3 - y2 * x3)) / 6.0


def _norm_quality(vertices, cells):
    """Oracle: mesh_quality with determinant volumes and longest edges from norms."""
    p = vertices[cells]
    d = vertices.shape[1]
    hmax = np.zeros(len(cells))
    for a in range(d + 1):
        for b in range(a + 1, d + 1):
            hmax = np.maximum(hmax, np.linalg.norm(p[:, a] - p[:, b], axis=1))
    ref = {2: math.sqrt(3.0) / 4.0, 3: math.sqrt(2.0) / 12.0}[d]
    return np.abs(_det_volumes(vertices, cells)) / (ref * hmax**d)


# sha256 of the little-endian int64 bytes of cells, sigma_facets and t_facets
# of the resolution-16 solid meshes (theta = pi/3, grading 0.5), taken before
# the revolve was vectorised.
SOLID_TOPOLOGY_SHA256 = {
    ("half-space", 1.0): "c8009418c38c0430ab835510349c67798b1af94177a5c7fd5f1aac2110f3c9a0",
    ("half-ball", 0.5): "e35d14ff643a698c7792b6563fd10d39fb0d78238c4076310a754bec32c01f3c",
}


@pytest.fixture(scope="module", params=sorted(SOLID_TOPOLOGY_SHA256), ids=lambda k: k[0])
def solid_domain(request):
    container, radius = request.param
    cap = make_cap(container, THETA3, radius, 2)
    return request.param, mesh_domain(mesh_surface(cap, 16), None, 16, grading=0.5)


def test_tet_volumes_match_determinant_oracle(solid_domain):
    _, dom = solid_domain
    want = _det_volumes(dom.vertices, dom.cells)
    rel = np.abs(cell_geometry(dom.vertices, dom.cells)[0] - want) / np.abs(want)
    assert np.max(rel) <= 1e-12


def test_stored_volumes_are_the_fresh_volumes(solid_domain):
    _, dom = solid_domain
    vols, h2max = cell_geometry(dom.vertices, dom.cells)
    assert np.array_equal(dom.cell_volumes, vols)
    assert np.array_equal(dom.cell_h2max, h2max)
    assert np.all(dom.cell_volumes > 0)


def test_quality_longest_edge_matches_norm_oracle(solid_domain, hs_domain1):
    for dom in (solid_domain[1], hs_domain1):
        got = mesh_quality(replace(dom, cell_volumes=_det_volumes(dom.vertices, dom.cells)))
        assert np.array_equal(got, _norm_quality(dom.vertices, dom.cells))


def _topology_digest(dom) -> str:
    return array_digest(dom.cells, dom.sigma_facets, dom.t_facets)


def test_solid_mesh_topology_is_unchanged(solid_domain):
    key, dom = solid_domain
    assert _topology_digest(dom) == SOLID_TOPOLOGY_SHA256[key]


# sha256 of vertices, cells, Sigma and T facets, cell volumes and sigma_H of
# domains no other digest covers: n = 1 strips and the disk, and solids of
# closed caps and of perturbed profiles (theta = pi/3).  Keys are (source,
# container, n, resolution, grading); taken before the revolve, the row
# zipper and the cell orientation became one primitive each.  The n = 1
# digests leave out the cell volumes: they were re-taken without them before
# triangle volumes became closed-form determinants, which moved them by
# rounding (test_chunk_boundaries_leave_meshes_bit_identical pins those).
DOMAIN_SHA256 = {
    ("cap", "half-space", 1, 32, 0.5): "d56f17536610397ce300d2489d11e5e3d0452a0e50b01811cf60978c58e7696c",
    ("cap", "half-ball", 1, 32, 0.5): "2c9b1326a80c0fb78251c27961464eb9b31f3d37492a819b00eff170ea478372",
    ("cap", "closed", 1, 16, 0.5): "7e4200a73b921da8e434909593cb8249474e303cac92c3a36d5848bd18120e62",
    ("cap", "closed", 2, 16, 0.5): "3e770108b69612bbcfcd7a47f2c48fbcfdd3aaf50fec9eed30c63f72653d94cb",
    ("profile", "half-space", 2, 16, 0.5): "43040fdc7415b891efa37db4df6381cd2c56e3e4894f4b19377999fc8963bd13",
    ("profile", "half-ball", 2, 16, 0.5): "afecae12c4cc001abeb4fbe1008368d1a088504a8bf9107bb430faa4c5a813e2",
}


@pytest.mark.parametrize("key", sorted(DOMAIN_SHA256), ids=lambda k: "-".join(map(str, k)))
def test_domain_meshes_are_unchanged(key):
    kind, container, n, resolution, grading = key
    source = make_cap(container, THETA3, 0.5 if container == "half-ball" else 1.0, n)
    if kind == "profile":
        source = make_axisymmetric(perturb_profile(profile_from_cap(source), 0.02), THETA3,
                                   container)
    dom = mesh_domain(mesh_surface(source, resolution), None, resolution, grading=grading)
    volumes = [dom.cell_volumes] if n == 2 else []
    got = array_digest(dom.vertices, dom.cells, dom.sigma_facets, dom.t_facets, *volumes,
                       dom.sigma_H)
    assert got == DOMAIN_SHA256[key]


# ---------------------------------------------------------------------------
# chunked cell geometry
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("block", [7, domain.CELL_BLOCK])
def test_chunk_boundaries_leave_meshes_bit_identical(block, monkeypatch, hs_surface1):
    # a prime chunk length puts chunk ends at every offset within a prism stack
    monkeypatch.setattr(domain, "CELL_BLOCK", block)
    for key in sorted(SOLID_TOPOLOGY_SHA256):
        container, radius = key
        cap = make_cap(container, THETA3, radius, 2)
        dom = mesh_domain(mesh_surface(cap, 16), None, 16, grading=0.5)
        assert _topology_digest(dom) == SOLID_TOPOLOGY_SHA256[key]
        assert np.array_equal(dom.cell_volumes, cell_geometry(dom.vertices, dom.cells)[0])
        assert np.array_equal(dom.cell_volumes, _closed_form_volumes(dom.vertices, dom.cells))
        assert np.all(dom.cell_volumes > 0)
        det = _det_volumes(dom.vertices, dom.cells)
        assert np.array_equal(mesh_quality(replace(dom, cell_volumes=det)),
                              _norm_quality(dom.vertices, dom.cells))
    # triangles of a strip and of the disk: bit for bit the closed-form
    # determinant, and to rounding the LU one
    strip = mesh_domain(hs_surface1, "half-space", 32)
    disk = mesh_domain(mesh_surface(make_cap("closed", THETA3, 1.0, 1), 16), None, 16)
    for dom in (strip, disk):
        assert np.array_equal(dom.cell_volumes, _closed_form_volumes(dom.vertices, dom.cells))
        det = _det_volumes(dom.vertices, dom.cells)
        assert np.max(np.abs(dom.cell_volumes - det) / np.abs(det)) <= 1e-12
        assert np.all(dom.cell_volumes > 0)
        assert np.array_equal(mesh_quality(replace(dom, cell_volumes=det)),
                              _norm_quality(dom.vertices, dom.cells))


def test_cell_geometry_of_no_cells():
    for d, orient in ((3, True), (2, False)):
        vertices = np.zeros((4, d))
        cells = np.empty((0, d + 1), dtype=np.int64)
        vols, h2max = cell_geometry(vertices, cells, orient=orient)
        assert vols.shape == h2max.shape == (0,)


def test_mesh_domain_logs_size_and_quality(hs_surface1, caplog):
    with caplog.at_level(logging.INFO, logger="hklab.domain"):
        dom = mesh_domain(hs_surface1, "half-space", 32, grading=0.0)
    q_min = float(np.min(mesh_quality(dom)))
    want = f"domain mesh: nv={dom.num_vertices} nc={len(dom.cells)} min_quality={q_min:.3e}"
    assert want in caplog.messages


def test_domain_boundary_logs_its_size(hs_cap2, caplog):
    # an hk-only rung builds no cells, and this line still names the layer
    with caplog.at_level(logging.INFO, logger="hklab.domain"):
        b = domain_boundary(mesh_surface(hs_cap2, 12), None, 12, grading=0.0)
    want = (f"domain boundary: nv={b.num_vertices} sigma={len(b.sigma_facets)} "
            f"T={len(b.t_facets)}")
    assert caplog.messages == [want]


# ---------------------------------------------------------------------------
# the boundary step: Sigma and T are the faces of exactly one cell
# ---------------------------------------------------------------------------


# (source, container, n, resolution, grading[, theta[, amplitude]]): every cap
# mesher at an odd and an even resolution, n = 1 graded and ungraded, one
# perturbed profile, thin n = 2 caps whose T cone at the axis foot (the two
# caps) or whose Sigma blocks (the profile) a test against the mean of all
# vertices turned inward, and thin perturbed n = 1 profiles whose Sigma or T
# edges that test turned inward; theta is pi/3 and a profile's perturbation
# amplitude 0.02 where they are not given
BOUNDARY_CASES = [
    ("cap", container, n, resolution, grading)
    for container in ("half-space", "half-ball", "closed")
    for n in (1, 2)
    for resolution in (9, 16)
    for grading in ((0.0, 0.5) if n == 1 else (0.0,))
] + [("profile", "half-ball", 2, 16, 0.0), ("cap", "half-space", 2, 8, 0.5, 0.3),
     ("cap", "half-ball", 2, 9, 0.0, 0.1), ("profile", "half-ball", 2, 16, 0.0, 0.1)] + [
    ("profile", container, 1, resolution, grading, 0.1, 0.05)
    for container, resolution, grading in (
        ("half-space", 64, 0.0), ("half-space", 128, 0.0), ("half-space", 128, 0.5),
        ("half-ball", 64, 0.5), ("half-ball", 128, 0.0), ("half-ball", 128, 0.5))
]


@pytest.fixture(scope="module", params=BOUNDARY_CASES, ids=lambda k: "-".join(map(str, k)))
def boundary_and_mesh(request):
    kind, container, n, resolution, grading, *rest = request.param
    theta, amplitude = (*rest, *(THETA3, 0.02)[len(rest):])
    source = make_cap(container, theta if container != "closed" else None,
                      0.5 if container == "half-ball" else 1.0, n)
    if kind == "profile":
        source = make_axisymmetric(perturb_profile(profile_from_cap(source), amplitude), theta,
                                   container)
    surface = mesh_surface(source, resolution)
    return (domain_boundary(surface, None, resolution, grading=grading),
            mesh_domain(surface, None, resolution, grading=grading))


def _sorted_rows(rows: np.ndarray) -> np.ndarray:
    return np.unique(np.sort(rows, axis=1), axis=0)


def test_sigma_and_t_are_the_faces_of_one_cell(boundary_and_mesh):
    boundary, dom = boundary_and_mesh
    m = dom.cells.shape[1]
    faces = np.sort(dom.cells[:, [[a for a in range(m) if a != k] for k in range(m)]]
                    .reshape(-1, m - 1), axis=1)
    unique, counts = np.unique(faces, axis=0, return_counts=True)
    assert counts.max() <= 2
    tagged = np.vstack([boundary.sigma_facets, boundary.t_facets])
    assert len(_sorted_rows(tagged)) == len(tagged)  # no facet is tagged twice
    assert np.array_equal(_sorted_rows(tagged), unique[counts == 1])


def test_boundary_step_is_the_mesh_boundary(boundary_and_mesh):
    # mesh_domain is the boundary step and then the tet step: the same
    # vertices, facets, corner data and sigma_H, bit for bit, and the same
    # d_gamma, which each computes on first read
    boundary, dom = boundary_and_mesh
    for name in DomainBoundary.__dataclass_fields__:
        got, want = getattr(boundary, name), getattr(dom, name)
        assert np.array_equal(got, want) if isinstance(want, np.ndarray) else got == want, name
    assert np.array_equal(boundary.d_gamma, dom.d_gamma)


def test_tagged_facets_point_away_from_their_cell(boundary_and_mesh):
    # the true outward test: the normal of every Sigma and T facet points
    # away from the vertex of its one cell that the facet leaves out
    boundary, dom = boundary_and_mesh
    m = dom.cells.shape[1]
    faces = np.sort(dom.cells[:, [[a for a in range(m) if a != k] for k in range(m)]]
                    .reshape(-1, m - 1), axis=1)  # face k of a cell leaves out its vertex k
    tagged = np.vstack([boundary.sigma_facets, boundary.t_facets])
    ids = np.unique(np.vstack([faces, np.sort(tagged, axis=1)]), axis=0,
                    return_inverse=True)[1].reshape(-1)
    face_of = np.empty(ids.max() + 1, dtype=np.int64)
    face_of[ids[:len(faces)]] = np.arange(len(faces))  # a boundary face is one cell's
    left_out = dom.vertices[dom.cells.reshape(-1)[face_of[ids[len(faces):]]]]
    offset = left_out - dom.vertices[tagged[:, 0]]
    assert np.all(np.einsum("ij,ij->i", boundary.facet_normals(tagged), offset) < 0)


def _cell_volume_integrals(dom):
    """Oracle: (|Omega|, integral of x_d) by the cell midpoint sums the
    boundary sums replaced."""
    z = dom.vertices[:, -1][dom.cells].mean(axis=1)
    return float(np.sum(dom.cell_volumes)), float(np.sum(dom.cell_volumes * z))


def test_boundary_volume_integrals_match_cell_sums(boundary_and_mesh):
    boundary, dom = boundary_and_mesh
    volume, volume_z = domain_volume_integrals(boundary)
    want_volume, want_z = _cell_volume_integrals(dom)
    assert abs(volume - want_volume) <= 1e-12 * want_volume
    if boundary.container.value == "closed":
        # the ball and disk are centred at height 0: both sums are rounding
        # noise about the exact 0
        assert abs(volume_z) <= 1e-14 * volume and abs(want_z) <= 1e-14 * want_volume
    else:
        assert abs(volume_z - want_z) <= 1e-12 * abs(want_z)
