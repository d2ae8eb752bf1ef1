"""OFF / JSON serialization: roundtrips, schemas, canonical bytes."""

import itertools
import json
import math
import warnings
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from conftest import THETA3
from hklab import make_cap, mesh_domain, mesh_surface
from hklab.errors import MeshFileError
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


def _line_write_off(mesh, path):
    """Oracle: the line-by-line OFF writer that write_off used to run."""
    pad = [0.0] * (3 - mesh.vertices.shape[1])
    lines = ["OFF", f"{mesh.num_vertices} {len(mesh.cells)} 0"]
    lines += [" ".join(map(repr, v + pad)) for v in mesh.vertices.tolist()]
    lines += [f"{len(cell)} " + " ".join(map(str, cell)) for cell in mesh.cells.tolist()]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


@pytest.mark.parametrize("n", [1, 2])
def test_off_writer_bytes_and_rewrite(n, hs_cap1, hs_cap2, tmp_path):
    # one format call per block writes the bytes of the line writer, and a
    # file read back and written again is the same file
    mesh = mesh_surface(hs_cap1 if n == 1 else hs_cap2, 16)
    mesh.vertices[0, 0] = -0.0  # repr keeps the sign of a zero
    write_off(mesh, tmp_path / "a.off")
    _line_write_off(mesh, tmp_path / "want.off")
    assert (tmp_path / "a.off").read_bytes() == (tmp_path / "want.off").read_bytes()
    write_off(read_off(tmp_path / "a.off", "half-space", THETA3), tmp_path / "b.off")
    assert (tmp_path / "b.off").read_bytes() == (tmp_path / "a.off").read_bytes()


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
    assert data["metadata"]["diagnostics"] == {**hs_solution1.diagnostics, "robin_gamma": 0}
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


def _edit_line(index, edit):
    """An edit of a text that applies `edit` to its line `index` (0 is "OFF")."""
    def apply(text):
        lines = text.split("\n")
        lines[index] = edit(lines[index])
        return "\n".join(lines)
    return apply


# edits of a written OFF text that must not change what it parses to
_OFF_LAYOUTS = {
    # comments, blank lines and a header split over lines
    "comments": lambda text: "# leading comment\n" + text.replace("OFF\n", "OFF # header\n\n", 1),
    "crlf": lambda text: text.replace("\n", "\r\n"),
    "tabs": lambda text: text.replace(" ", "\t"),
    "form feeds": lambda text: text.replace("\n", "\n\f", 3),
    "vertex comment": _edit_line(2, lambda line: line + " # the first vertex"),
    "split vertex": _edit_line(3, lambda line: line.replace(" ", "\n", 1)),
    # whitespace that str.split knows and numpy's C parser does not
    "unicode spaces": lambda text: text.replace(" ", "\u2003").replace("\n", "\x1f\n"),
    "vertical tabs": lambda text: text.replace(" ", "\v"),
    "trailing comment": lambda text: text + "\n# end of facets\n\n   \n",
}


def test_off_arrays_match_token_parser(hs_cap2, hs_cap1, tmp_path):
    for (name, mesh), layout in itertools.product(
            (("tri", mesh_surface(hs_cap2, 16)), ("line", mesh_surface(hs_cap1, 16))),
            sorted(_OFF_LAYOUTS)):
        path = tmp_path / f"{name}.off"
        write_off(mesh, path)
        path.write_bytes(_OFF_LAYOUTS[layout](path.read_text()).encode("utf-8"))
        verts, cells = _token_off_arrays(path)
        back = read_off(path, "half-space", THETA3)
        assert np.array_equal(back.vertices, verts[:, : back.dim + 1]), (name, layout)
        assert back.cells.dtype == cells.dtype and np.array_equal(back.cells, cells), layout
        assert np.array_equal(back.vertices, mesh.vertices), (name, layout)


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
    ("OFF\n-3 1 0\n0 0 0\n", "malformed OFF file"),
    # a facet token is a decimal integer, never truncated to one
    ("OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2.5\n", "malformed OFF file"),
    ("OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 0x1 2\n", "malformed OFF file"),
    ("OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3.0 0 1 2\n", "malformed OFF file"),
    ("OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 + 1 2\n", "malformed OFF file"),
    ("OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 -\n", "malformed OFF file"),
    # a header that promises more facets than the text holds
    ("OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1\n", "ends within facet 0"),
    ("OFF\n3 1000 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n3 0\n", "ends within facet 1"),
    ("OFF\n3 1000 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n", "malformed OFF file"),
    # text after the last facet that is not an integer
    ("OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\nend\n", "malformed OFF file"),
    ("OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2 0.5 0.5 0.5\n", "malformed OFF file"),
    ("OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2 +\n", "malformed OFF file"),
    # per-facet integer colours
    ("OFF\n3 2 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2 255 0 0\n3 0 2 1 255 0 0\n",
     "mixed facet arities"),
])
def test_off_errors(text, message, tmp_path):
    path = tmp_path / "bad.off"
    path.write_text(text)
    with pytest.raises(MeshFileError, match=message):
        read_off(path, "half-space", THETA3)


def test_off_file_that_is_not_utf8_is_malformed(tmp_path):
    path = tmp_path / "bad.off"
    path.write_bytes(b"OFF\n3 1 0\n\xff 0 0\n")
    with pytest.raises(MeshFileError, match="malformed OFF file"):
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
    "zero-length": ({"cells": [[0, 1], [1, 1]]}, "degenerate surface cell"),
}


def write_surface_case(path: Path, edit: dict) -> None:
    data = {**_SURFACE, **edit}
    path.write_text(json.dumps({k: v for k, v in data.items() if v is not None}))


@pytest.mark.parametrize("case", sorted(MALFORMED_SURFACE_JSON))
def test_surface_json_errors(case, tmp_path):
    edit, message = MALFORMED_SURFACE_JSON[case]
    path = tmp_path / "bad.json"
    write_surface_case(path, edit)
    with pytest.raises(MeshFileError, match=message):
        read_surface_json(path)


def test_zero_length_cell_is_refused_without_a_warning(tmp_path):
    path = tmp_path / "one.json"
    path.write_text(json.dumps({**_SURFACE, "vertices": [[0.0, 0.0]], "cells": [[0, 0]]}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(MeshFileError, match="degenerate surface cell"):
            read_surface_json(path)


@pytest.mark.parametrize("reader", [read_surface_json, read_domain_json])
def test_json_file_that_is_not_utf8_is_malformed(reader, tmp_path):
    path = tmp_path / "bad.json"
    path.write_bytes(b'{"vertices": \xff}')
    with pytest.raises(MeshFileError, match="malformed (surface|domain) JSON"):
        reader(path)


@pytest.mark.parametrize("reader", [read_surface_json, read_domain_json])
def test_json_syntax_error_is_not_a_mesh_file_error(reader, tmp_path):
    # a syntax error stays a JSONDecodeError, which the CLI reports as an I/O failure
    path = tmp_path / "cut.json"
    path.write_text('{"vertices": ')
    with pytest.raises(json.JSONDecodeError):
        reader(path)


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
    with pytest.raises(MeshFileError, match=message):
        read_domain_json(path)


def _interior_face(dom) -> list:
    """A face of two cells of a planar mesh: an edge of a cell that no tag names."""
    tagged = {tuple(sorted(f)) for f in np.vstack([dom.sigma_facets, dom.t_facets]).tolist()}
    for cell in dom.cells.tolist():
        for k in range(3):
            edge = sorted(cell[:k] + cell[k + 1:])
            if tuple(edge) not in tagged:
                return edge
    raise AssertionError("no interior edge")


@pytest.mark.parametrize("case", ["distant-vertex", "interior-face"])
def test_domain_json_refuses_a_facet_that_is_not_a_boundary_face(case, hs_domain1, tmp_path,
                                                                capsys):
    # hk's volume integrals are sums over the tagged facets, so a facet that
    # is not the face of exactly one cell would move |Omega| silently
    from hklab.cli import main

    data = json.loads(dumps_json(domain_to_dict(hs_domain1)))
    tag = next(tag for tag in data["facet_tags"] if tag["tag"] == "T")
    if case == "distant-vertex":
        a = tag["facet"][0]
        dist = np.linalg.norm(hs_domain1.vertices - hs_domain1.vertices[a], axis=1)
        tag["facet"][1] = int(np.argmax(dist))
    else:
        tag["facet"] = _interior_face(hs_domain1)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    with pytest.raises(MeshFileError, match="not a face of exactly one cell"):
        read_domain_json(path)
    assert main(["convert", str(path), str(tmp_path / "out.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("hk: invalid mesh file: ") and "Traceback" not in err
