"""OFF and JSON mesh import/export.

Surface meshes travel as ASCII OFF (counts header, vertex lines, facet
lines; polylines use 2-gon facets with a zero z padding) or as JSON, and
generator profiles as JSON.  Every reader turns malformed data into a
MeshFileError that names the file.  Domain meshes and field data use the
JSON schema

    {"vertices": [[x, ...]], "cells": [[i, ...]],
     "facet_tags": [{"facet": [i, ...], "tag": "Sigma" | "T"}],
     "fields": {name: [values]}}

plus a "metadata" block (dim, container, theta).  Serialization is canonical
(sorted keys, fixed float repr), so identical inputs produce identical bytes.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from hklab.containers import Container, as_angle, parse_container
from hklab.domain import DomainMesh
from hklab.errors import HkLabError, MeshFileError
from hklab.meshutil import check_indices
from hklab.profiles import ProfileCurve, make_axisymmetric
from hklab.surface import SurfaceMesh, build_surface_mesh, discrete_geometry

# what numpy, int() and the container/angle parsers raise on malformed input
_MALFORMED = (AttributeError, IndexError, KeyError, TypeError, ValueError)


@contextmanager
def _file_data(path: str | Path, what: str):
    """Raise MeshFileError, naming the file, for anything wrong with its data.

    Parser failures become "malformed <what>"; the HkLabErrors of the mesh
    constructors (indices, coordinates, support) keep their message.
    """
    try:
        yield
    except _MALFORMED as exc:
        raise MeshFileError(f"{path}: malformed {what} ({exc})") from None
    except HkLabError as exc:
        raise MeshFileError(f"{path}: {exc}") from None


def _read_json(path: str | Path, what: str):
    """Parse a JSON mesh file.

    Text that is not UTF-8 makes the file malformed (MeshFileError); a JSON
    syntax error stays a JSONDecodeError, which the CLI reports as an I/O
    failure.
    """
    raw = Path(path).read_bytes()
    with _file_data(path, what):
        text = raw.decode("utf-8")
    return json.loads(text)


def _canonical(obj):
    if isinstance(obj, dict):
        return {k: _canonical(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        if math.isnan(v):
            return None
        return v
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return _canonical(obj.tolist())
    return obj


def dumps_json(obj) -> str:
    return json.dumps(_canonical(obj), sort_keys=True, indent=1)


def dump_json(obj, path: str | Path) -> None:
    Path(path).write_text(dumps_json(obj) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# OFF
# ---------------------------------------------------------------------------


def write_off(mesh: SurfaceMesh, path: str | Path) -> None:
    pad = [0.0] * (3 - mesh.vertices.shape[1])
    lines = ["OFF", f"{mesh.num_vertices} {len(mesh.cells)} 0"]
    lines += [" ".join(map(repr, v + pad)) for v in mesh.vertices.tolist()]
    lines += [f"{len(cell)} " + " ".join(map(str, cell)) for cell in mesh.cells.tolist()]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _off_arrays(text: str):
    """(vertices, cells) of an OFF text, with the 3 coordinates of every vertex.

    One whitespace split tokenizes the text: str.split breaks at every line
    boundary of str.splitlines, so only a text with a "#" is cut into lines,
    to drop each line's comment.
    """
    if "#" in text:
        text = "\n".join(line.split("#", 1)[0] for line in text.splitlines())
    tokens = text.split()
    if not tokens or tokens[0] != "OFF":
        raise HkLabError("not an OFF file")
    nv, nf = int(tokens[1]), int(tokens[2])
    pos = 4 + 3 * nv
    verts = np.array(tokens[4:pos], dtype=float).reshape(nv, 3)
    # facet lines "m i_1 ... i_m", all with the arity m of the first one
    arity = int(tokens[pos]) if nf else None
    width = max(arity or 0, 0) + 1
    facet_tokens = tokens[pos:pos + nf * width]
    whole = len(facet_tokens) // width
    rows = np.array(facet_tokens[:whole * width], dtype=np.int64).reshape(whole, width)
    # a short file either ends early or holds a facet of smaller arity
    next_arity = int(facet_tokens[whole * width]) if whole < nf else arity
    if np.any(rows[:, 0] != arity) or next_arity != arity:
        raise HkLabError("mixed facet arities are not supported")
    if whole < nf:
        raise HkLabError(f"OFF file ends within facet {whole}")
    if arity not in (2, 3):
        raise HkLabError(f"unsupported facet arity {arity}")
    return verts, rows[:, 1:].copy()


def read_off(
    path: str | Path,
    container: Container | str = Container.HALF_SPACE,
    theta: float | None = None,
) -> SurfaceMesh:
    """Read an OFF surface and populate fields with the discrete estimators.

    The token strings of the text are freed before the estimators run.
    """
    with _file_data(path, "OFF file"):
        verts, cells = _off_arrays(Path(path).read_text(encoding="utf-8"))
        dim = cells.shape[1] - 1
        vertices = verts[:, :2].copy() if dim == 1 else verts
        mesh = build_surface_mesh(dim, parse_container(container), as_angle(theta), vertices,
                                  cells)
        return discrete_geometry(mesh)


# ---------------------------------------------------------------------------
# JSON meshes and profiles
# ---------------------------------------------------------------------------


def read_profile_json(
    path: str | Path,
    container: Container | str,
    theta: float | None,
    dim: int,
) -> ProfileCurve:
    """Read a profile file {"samples": [[rho, z], ...], "theta", "dim"} and
    correct it into the capillary profile of the given container and angle.

    "theta" and "dim" are optional; dim defaults to the given one, and a
    "theta" must be the given angle to 1e-9 rad.  A file whose samples make
    no profile, or one that the correction rejects, is malformed like any
    other mesh file.
    """
    data = _read_json(path, "profile JSON")
    with _file_data(path, "profile JSON"):
        if "theta" in data:
            given = data["theta"]
            if theta is None or not (isinstance(given, (int, float))
                                     and abs(given - theta) <= 1e-9):
                raise HkLabError(f'"theta" {given!r} is not the contact angle {theta!r}')
        prof = ProfileCurve(
            np.asarray(data["samples"], dtype=float),
            parse_container(container),
            as_angle(theta),
            dim=int(data.get("dim", dim)),
        )
        return make_axisymmetric(prof, theta, container)


def surface_to_dict(mesh: SurfaceMesh) -> dict:
    return {
        "metadata": {
            "kind": "surface",
            "dim": mesh.dim,
            "container": mesh.container.value,
            "theta": None if mesh.theta is None else mesh.theta.radians,
        },
        "vertices": mesh.vertices,
        "cells": mesh.cells,
        "boundary_loops": [loop for loop in mesh.boundary_loops],
        "fields": {
            "normals": mesh.normals,
            "mean_curvature": mesh.mean_curvature,
            "boundary_mu": mesh.boundary_mu,
            "boundary_conormal_support": mesh.boundary_conormal_support,
            "boundary_support_normal": mesh.boundary_support_normal,
        },
    }


def write_surface_json(mesh: SurfaceMesh, path: str | Path) -> None:
    dump_json(surface_to_dict(mesh), path)


def read_mesh_json(path: str | Path) -> SurfaceMesh | DomainMesh:
    """The surface or the domain of a JSON mesh file, by its metadata "kind";
    the file is parsed once."""
    data = _read_json(path, "mesh JSON")
    with _file_data(path, "mesh JSON"):
        domain = data.get("metadata", {}).get("kind") == "domain"
    return (read_domain_json if domain else read_surface_json)(path, data)


def read_surface_json(path: str | Path, data=None) -> SurfaceMesh:
    """The surface of a JSON file; data is its parsed content, if already read."""
    data = _read_json(path, "surface JSON") if data is None else data
    with _file_data(path, "surface JSON"):
        meta = data.get("metadata", {})
        vertices = np.asarray(data["vertices"], dtype=float)
        cells = np.asarray(data["cells"], dtype=np.int64)
        dim = int(meta.get("dim", cells.shape[-1] - 1))
        container = parse_container(meta.get("container", "half-space"))
        theta = as_angle(meta.get("theta"))
        return discrete_geometry(build_surface_mesh(dim, container, theta, vertices, cells))


def domain_to_dict(domain: DomainMesh) -> dict:
    tags = [
        {"facet": [int(i) for i in f], "tag": "Sigma"} for f in domain.sigma_facets
    ] + [{"facet": [int(i) for i in f], "tag": "T"} for f in domain.t_facets]
    fields = {"sigma_H": domain.sigma_H}
    if np.all(np.isfinite(domain.d_gamma)):
        fields["d_gamma"] = domain.d_gamma
    return {
        "metadata": {
            "kind": "domain",
            "dim": domain.dim,
            "container": domain.container.value,
            "theta": None if domain.theta is None else domain.theta.radians,
            "gamma_vertices": domain.gamma_vertices,
        },
        "vertices": domain.vertices,
        "cells": domain.cells,
        "facet_tags": tags,
        "fields": fields,
    }


def write_domain_json(domain: DomainMesh, path: str | Path) -> None:
    dump_json(domain_to_dict(domain), path)


def _check_boundary_faces(cells: np.ndarray, facets: np.ndarray) -> None:
    """HkLabError unless every facet is a face of exactly one cell: the volume
    integrals of hk are sums over the tagged facets, so these must be the
    boundary of the cells."""
    m = cells.shape[1]
    faces = cells[:, [[a for a in range(m) if a != k] for k in range(m)]].reshape(-1, m - 1)
    rows = np.sort(np.vstack([faces, facets]), axis=1)
    ids = np.unique(rows, axis=0, return_inverse=True)[1].reshape(-1)
    cells_per_face = np.bincount(ids[:len(faces)], minlength=len(rows))
    bad = np.flatnonzero(cells_per_face[ids[len(faces):]] != 1)
    if len(bad):
        raise HkLabError(f"{len(bad)} Sigma or T facets are not a face of exactly one cell "
                         f"(first: {facets[bad[0]].tolist()})")


def read_domain_json(path: str | Path, data=None) -> DomainMesh:
    """The domain of a JSON file; data is its parsed content, if already read."""
    data = _read_json(path, "domain JSON") if data is None else data
    with _file_data(path, "domain JSON"):
        meta = data.get("metadata", {})
        vertices = np.asarray(data["vertices"], dtype=float)
        cells = np.asarray(data["cells"], dtype=np.int64)
        sigma, tfac = [], []
        for tag in data["facet_tags"]:
            (sigma if tag["tag"] == "Sigma" else tfac).append(tag["facet"])
        d = vertices.shape[1]
        sigma_facets = np.asarray(sigma, dtype=np.int64).reshape(-1, d)
        t_facets = np.asarray(tfac, dtype=np.int64).reshape(-1, d)
        gamma = np.asarray(meta.get("gamma_vertices", []), dtype=np.int64)
        fields = data.get("fields", {})
        d_gamma = np.asarray(fields["d_gamma"], dtype=float) if "d_gamma" in fields else None
        sigma_h = np.asarray(fields.get("sigma_H", np.zeros(len(sigma_facets))), dtype=float)
        container = parse_container(meta.get("container", "half-space"))
        theta = as_angle(meta.get("theta"))
        nv = len(vertices)
        if cells.ndim != 2 or cells.shape[1] != d + 1:
            raise HkLabError(f"domain cells need {d + 1} vertices each")
        if sigma_h.shape != (len(sigma_facets),) or d_gamma is not None and d_gamma.shape != (nv,):
            raise HkLabError("sigma_H needs one value per Sigma facet, d_gamma one per vertex")
        for what, index in (("cell", cells), ("Sigma facet", sigma_facets),
                            ("T facet", t_facets), ("Gamma vertex", gamma)):
            check_indices(index, nv, what)
        _check_boundary_faces(cells, np.vstack([sigma_facets, t_facets]))
    domain = DomainMesh(
        dim=d,
        container=container,
        theta=theta,
        vertices=vertices,
        cells=cells,
        sigma_facets=sigma_facets,
        t_facets=t_facets,
        gamma_vertices=gamma,
        sigma_H=sigma_h,
    )
    if d_gamma is not None:
        domain.d_gamma = d_gamma
    return domain


def solution_to_dict(solution) -> dict:
    """Domain schema plus the solution fields {f, grad_f, hessian_frob, f_nu}."""
    data = domain_to_dict(solution.domain)
    data["fields"]["f"] = solution.f
    data["fields"]["grad_f"] = solution.cell_gradients
    data["fields"]["hessian_frob"] = solution.hessian_frobenius()
    data["fields"]["f_nu"] = solution.f_nu_sigma
    data["metadata"]["diagnostics"] = {**solution.diagnostics,
                                       "robin_gamma": solution.problem.robin_gamma}
    return data
