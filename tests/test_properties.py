"""Property-based checks of the geometric invariants."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hklab import make_cap, mesh_surface
from hklab.caps import measured_contact_angle
from hklab.containers import ContactAngle
from hklab.meshutil import graded_nodes, zipper_rows
from hklab.surface import enclosed_volume_flux, frame_residual

angles = st.floats(min_value=0.2, max_value=math.pi / 2)
radii = st.floats(min_value=0.3, max_value=2.0)


@settings(max_examples=25, deadline=None)
@given(theta=angles, radius=radii, n=st.sampled_from([1, 2]),
       container=st.sampled_from(["half-space", "half-ball"]))
def test_cap_construction_properties(theta, radius, n, container):
    if container == "half-ball":
        radius = min(radius, 1.5)
    cap = make_cap(container, theta, radius, n)
    assert abs(measured_contact_angle(cap) - theta) <= 1e-9
    assert cap.quantities["volume"] > 0
    mesh = mesh_surface(cap, 12)
    assert enclosed_volume_flux(mesh) > 0
    assert np.max(np.abs(np.linalg.norm(mesh.normals, axis=1) - 1.0)) < 1e-12
    if mesh.boundary_mu.size:
        assert np.max(np.abs(np.linalg.norm(mesh.boundary_mu, axis=1) - 1.0)) < 1e-12
        nu_b = mesh.normals[mesh.boundary_vertices]
        assert np.max(np.abs(np.einsum("ij,ij->i", mesh.boundary_mu, nu_b))) < 1e-12
    assert frame_residual(mesh) < 1e-12  # analytic frames satisfy the relation exactly


@settings(max_examples=30, deadline=None)
@given(theta=angles)
def test_halfspace_scaling_property(theta):
    a = make_cap("half-space", theta, 1.0, 2).quantities
    b = make_cap("half-space", theta, 2.0, 2).quantities
    assert b["area_sigma"] == 4.0 * a["area_sigma"]
    assert b["area_T"] == 4.0 * a["area_T"]
    assert b["volume"] == 8.0 * a["volume"]


@settings(max_examples=40, deadline=None)
@given(length=st.floats(min_value=0.1, max_value=10.0),
       target=st.floats(min_value=0.01, max_value=0.2),
       exponent=st.sampled_from([0.0, 0.3, 0.5, 0.7]))
def test_graded_nodes_properties(length, target, exponent):
    nodes = graded_nodes(length, target * length, exponent, sides="both")
    assert nodes[0] == 0.0
    assert abs(nodes[-1] - length) < 1e-12 * max(1.0, length)
    steps = np.diff(nodes)
    assert np.all(steps > 0)
    assert steps.max() <= 2.0 * target * length + 1e-12


@settings(max_examples=30, deadline=None)
@given(value=st.floats(min_value=-1.0, max_value=4.0))
def test_contact_angle_domain(value):
    valid = 0.05 <= value <= math.pi / 2 + 1e-12
    if valid:
        ContactAngle(value)
    else:
        with pytest.raises(ValueError):
            ContactAngle(value)


@settings(max_examples=20, deadline=None)
@given(theta=angles, res=st.sampled_from([8, 12, 16]))
def test_planar_domain_tags_partition(theta, res):
    from collections import Counter

    from hklab import mesh_domain

    cap = make_cap("half-space", theta, 1.0, 1)
    dom = mesh_domain(mesh_surface(cap, res), None, res, grading=0.5)
    faces = Counter()
    for cell in dom.cells:
        for k in range(len(cell)):
            faces[tuple(sorted(np.delete(cell, k)))] += 1
    boundary = {f for f, c in faces.items() if c == 1}
    tagged = {tuple(sorted(f)) for f in dom.sigma_facets} | {
        tuple(sorted(f)) for f in dom.t_facets
    }
    assert tagged == boundary
    assert np.all(dom.cell_volumes > 0)


def _merge_oracle(rows, keys) -> np.ndarray:
    """Scalar zipper: walk each strip, stepping along the row with the smaller next key."""
    tris = []
    for a, ka, b, kb in zip(rows, keys, rows[1:], keys[1:]):
        i = j = 0
        while i < len(a) - 1 or j < len(b) - 1:
            if i < len(a) - 1 and (j == len(b) - 1 or ka[i + 1] <= kb[j + 1]):
                tris.append((a[i], b[j], a[i + 1]))
                i += 1
            else:
                tris.append((a[i], b[j], b[j + 1]))
                j += 1
    return np.array(tris, dtype=np.int64).reshape(-1, 3)


def _numbered(sizes):
    starts = np.cumsum([0] + list(sizes))
    return [np.arange(a, a + m) for a, m in zip(starts, sizes)]


# keys drawn from a few values so that ties within and across rows are common
tied_keys = st.lists(st.integers(0, 4), min_size=1, max_size=8).map(sorted)


@settings(max_examples=200, deadline=None)
@given(keys=st.lists(tied_keys, min_size=2, max_size=6),
       apex_first=st.booleans(), apex_last=st.booleans())
def test_zipper_rows_matches_merge_oracle(keys, apex_first, apex_last):
    keys = [np.asarray(k, dtype=float) for k in keys]
    if apex_first:
        keys[0] = keys[0][:1]
    if apex_last:
        keys[-1] = keys[-1][:1]
    rows = _numbered([len(k) for k in keys])
    got = zipper_rows(rows, keys)
    assert got.dtype == np.int64 and got.shape[1] == 3
    assert np.array_equal(got, _merge_oracle(rows, keys))


@settings(max_examples=100, deadline=None)
@given(counts=st.lists(st.integers(3, 24), min_size=1, max_size=5), apex=st.booleans())
def test_zipper_rows_closes_rings_of_unequal_counts(counts, apex):
    # rings as the disk mesher makes them: the first vertex again at angle 2 pi
    rows = [np.append(r, r[0]) for r in _numbered(counts)]
    keys = [np.append(np.arange(m) * 2.0 * math.pi / m, 2.0 * math.pi) for m in counts]
    if apex:
        rows.append(np.array([sum(counts)]))
        keys.append(np.zeros(1))
    got = zipper_rows(rows, keys)
    assert np.array_equal(got, _merge_oracle(rows, keys))
    assert len(got) == sum(counts) + sum(counts[1:]) - (0 if apex else counts[-1])
