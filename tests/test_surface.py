"""Surface meshing, discrete estimators, frames, orientation and equivariance."""

import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import THETA3, rotate_z
from hklab import make_cap, mesh_surface, discrete_geometry
from hklab.errors import HkLabError
from hklab.meshio import read_off, write_off
from hklab.profiles import make_axisymmetric, perturb_profile, profile_from_cap
from hklab.surface import _boundary_loops_2d, enclosed_volume_flux, frame_residual


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
    perturbed = mesh_surface(prof, 16, grading=0.5)
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
