"""OFF / JSON serialization: roundtrips, schemas, canonical bytes."""

import json
import math
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from conftest import THETA3
from hklab import make_cap, mesh_domain, mesh_surface
from hklab.errors import HkLabError
from hklab.meshio import (
    domain_to_dict,
    dumps_json,
    read_domain_json,
    read_off,
    read_surface_json,
    solution_to_dict,
    write_domain_json,
    write_off,
    write_surface_json,
)

DOMAIN_SCHEMA = {
    "type": "object",
    "required": ["vertices", "cells", "facet_tags", "fields"],
    "properties": {
        "vertices": {"type": "array", "items": {"type": "array", "items": {"type": "number"}}},
        "cells": {"type": "array", "items": {"type": "array", "items": {"type": "integer"}}},
        "facet_tags": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["facet", "tag"],
                "properties": {
                    "facet": {"type": "array", "items": {"type": "integer"}},
                    "tag": {"enum": ["Sigma", "T"]},
                },
            },
        },
        "fields": {"type": "object"},
    },
}


def test_off_roundtrip_triangles(hs_cap2, tmp_path):
    mesh = mesh_surface(hs_cap2, 24)
    path = tmp_path / "cap.off"
    write_off(mesh, path)
    back = read_off(path, "half-space", THETA3)
    assert np.max(np.abs(back.vertices - mesh.vertices)) == 0.0
    assert np.array_equal(back.cells, mesh.cells)
    interior = ~back.low_trust
    assert np.max(np.abs(back.mean_curvature[interior] - 2.0)) < 0.06


def test_off_roundtrip_polyline(hs_cap1, tmp_path):
    mesh = mesh_surface(hs_cap1, 32)
    path = tmp_path / "curve.off"
    write_off(mesh, path)
    back = read_off(path, "half-space", THETA3)
    assert back.dim == 1
    assert np.max(np.abs(back.vertices - mesh.vertices)) == 0.0


def test_surface_json_roundtrip(hs_cap2, tmp_path):
    mesh = mesh_surface(hs_cap2, 16)
    path = tmp_path / "cap.json"
    write_surface_json(mesh, path)
    back = read_surface_json(path)
    assert np.max(np.abs(back.vertices - mesh.vertices)) == 0.0
    assert back.theta is not None and abs(back.theta.radians - THETA3) < 1e-15


def test_domain_json_roundtrip_and_schema(hs_domain1, tmp_path):
    path = tmp_path / "dom.json"
    write_domain_json(hs_domain1, path)
    data = json.loads(path.read_text())
    jsonschema.validate(data, DOMAIN_SCHEMA)
    back = read_domain_json(path)
    assert np.max(np.abs(back.vertices - hs_domain1.vertices)) == 0.0
    assert np.array_equal(back.cells, hs_domain1.cells)
    assert np.array_equal(np.sort(back.gamma_vertices), np.sort(hs_domain1.gamma_vertices))
    assert abs(back.volume - hs_domain1.volume) < 1e-15


def test_solution_serialization(hs_solution1):
    data = solution_to_dict(hs_solution1)
    for name in ("f", "grad_f", "hessian_frob", "f_nu"):
        assert name in data["fields"]
    assert len(data["fields"]["f"]) == hs_solution1.domain.num_vertices
    assert len(data["fields"]["f_nu"]) == len(hs_solution1.domain.sigma_facets)
    jsonschema.validate(json.loads(dumps_json(data)), DOMAIN_SCHEMA)


def test_canonical_bytes(hs_domain1):
    a = dumps_json(domain_to_dict(hs_domain1))
    b = dumps_json(domain_to_dict(hs_domain1))
    assert a == b


def test_nan_serializes_as_null():
    assert json.loads(dumps_json({"x": math.nan}))["x"] is None


def _token_off_arrays(path):
    """Oracle: the token-by-token OFF parser that read_off used to run."""
    tokens = []
    for raw in Path(path).read_text(encoding="utf-8").splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            tokens.extend(line.split())
    nv, nf = int(tokens[1]), int(tokens[2])
    pos = 4
    verts = np.array([[float(tokens[pos + 3 * i + k]) for k in range(3)] for i in range(nv)])
    pos += 3 * nv
    cells = []
    for _ in range(nf):
        m = int(tokens[pos])
        cells.append([int(tokens[pos + 1 + k]) for k in range(m)])
        pos += m + 1
    return verts, np.asarray(cells, dtype=np.int64)


def test_off_arrays_match_token_parser(hs_cap2, hs_cap1, tmp_path):
    for name, mesh in (("tri", mesh_surface(hs_cap2, 16)), ("line", mesh_surface(hs_cap1, 16))):
        path = tmp_path / f"{name}.off"
        write_off(mesh, path)
        # comments, blank lines and a header split over lines parse the same way
        text = path.read_text().replace("OFF\n", "OFF # header\n\n", 1)
        path.write_text("# leading comment\n" + text)
        verts, cells = _token_off_arrays(path)
        back = read_off(path, "half-space", THETA3)
        assert np.array_equal(back.vertices, verts[:, : back.dim + 1])
        assert back.cells.dtype == cells.dtype and np.array_equal(back.cells, cells)


@pytest.mark.parametrize("text, message", [
    ("", "not an OFF file"),
    ("COFF\n3 1 0\n", "not an OFF file"),
    ("OFF\n4 2 0\n0 0 0\n1 0 0\n0 1 0\n1 1 0\n3 0 1 2\n2 1 3\n", "mixed facet arities"),
    ("OFF\n4 1 0\n0 0 0\n1 0 0\n0 1 0\n1 1 0\n4 0 1 2 3\n", "unsupported facet arity 4"),
    ("OFF\n3 0 0\n0 0 0\n1 0 0\n0 1 0\n", "unsupported facet arity None"),
    ("OFF\n3 2 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n", "malformed OFF file"),
    ("OFF\n3 2 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n3 0 1\n", "ends within facet 1"),
    ("OFF\n3 1 0\n0 0 0\n1 0\n", "malformed OFF file"),
    ("OFF\n3 1 0\n0 0 0\n1 0 x\n0 1 0\n3 0 1 2\n", "malformed OFF file"),
    ("OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 7\n", "cell index outside"),
    ("OFF\n4 2 0\n0 0 0\n1 0 0\n0 1 0\n1 1 0\n3 0 1 2\n3 2 1 -1\n", "cell index outside"),
])
def test_off_errors(text, message, tmp_path):
    path = tmp_path / "bad.off"
    path.write_text(text)
    with pytest.raises(HkLabError, match=message):
        read_off(path, "half-space", THETA3)


def test_off_readers_stay_meshio_attributes():
    import hklab.meshio

    # the benchmark tracer wraps both functions on the meshio module
    assert callable(hklab.meshio.read_off) and callable(hklab.meshio.discrete_geometry)


# a valid 1-d surface file and the edits that break it
_SURFACE = {"metadata": {"kind": "surface", "dim": 1, "container": "half-space", "theta": 1.0},
            "vertices": [[-1.0, 0.0], [0.0, 1.0], [1.0, 0.0]], "cells": [[0, 1], [1, 2]]}
MALFORMED_SURFACE_JSON = {
    "theta-3": ({"metadata": {**_SURFACE["metadata"], "theta": 3.0}}, "contact angle 3.0"),
    "moon": ({"metadata": {**_SURFACE["metadata"], "container": "moon"}}, "unknown container"),
    "no-vertices": ({"vertices": None}, "malformed surface JSON"),
    "index-7": ({"cells": [[0, 1], [1, 7]]}, "cell index outside"),
    "index-neg": ({"cells": [[0, 1], [1, -1]]}, "cell index outside"),
    "ragged": ({"cells": [[0, 1], [1]]}, "malformed surface JSON"),
    "dim-2": ({"metadata": {**_SURFACE["metadata"], "dim": 2}}, "3 coordinates"),
}


def write_surface_case(path: Path, edit: dict) -> None:
    data = {**_SURFACE, **edit}
    path.write_text(json.dumps({k: v for k, v in data.items() if v is not None}))


@pytest.mark.parametrize("case", sorted(MALFORMED_SURFACE_JSON))
def test_surface_json_errors(case, tmp_path):
    edit, message = MALFORMED_SURFACE_JSON[case]
    path = tmp_path / "bad.json"
    write_surface_case(path, edit)
    with pytest.raises(HkLabError, match=message):
        read_surface_json(path)


def test_valid_surface_case_reads(tmp_path):
    path = tmp_path / "good.json"
    write_surface_case(path, {})
    mesh = read_surface_json(path)
    assert mesh.dim == 1 and np.array_equal(mesh.boundary_vertices, [0, 2])


@pytest.mark.parametrize("edit, message", [
    (lambda d: d["metadata"].update(container="moon"), "unknown container"),
    (lambda d: d.pop("facet_tags"), "malformed domain JSON"),
    (lambda d: d["cells"][0].__setitem__(0, 10**6), "cell index outside"),
    (lambda d: d["cells"][0].__setitem__(0, -1), "cell index outside"),
    (lambda d: d["facet_tags"][0]["facet"].__setitem__(0, -1), "facet index outside"),
    (lambda d: d["metadata"].update(gamma_vertices=[-1]), "Gamma vertex index outside"),
    (lambda d: d["fields"].update(sigma_H=[1.0]), "sigma_H needs one value"),
])
def test_domain_json_errors(edit, message, hs_domain1, tmp_path):
    data = json.loads(dumps_json(domain_to_dict(hs_domain1)))
    edit(data)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    with pytest.raises(HkLabError, match=message):
        read_domain_json(path)
