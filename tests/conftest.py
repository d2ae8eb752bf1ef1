import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hklab import (
    exact_cap_solution,
    capillary_problem,
    make_cap,
    mesh_domain,
    mesh_surface,
    solve_mixed_bvp,
)

THETA3 = math.pi / 3.0
SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture(scope="session")
def hs_cap1():
    return make_cap("half-space", THETA3, 1.0, 1)


@pytest.fixture(scope="session")
def hs_cap2():
    return make_cap("half-space", THETA3, 1.0, 2)


@pytest.fixture(scope="session")
def hb_cap1():
    return make_cap("half-ball", THETA3, 0.5, 1)


@pytest.fixture(scope="session")
def hb_cap2():
    return make_cap("half-ball", THETA3, 0.5, 2)


@pytest.fixture(scope="session")
def hs_surface1(hs_cap1):
    return mesh_surface(hs_cap1, 64)


@pytest.fixture(scope="session")
def hs_surface2(hs_cap2):
    return mesh_surface(hs_cap2, 64)


@pytest.fixture(scope="session")
def hs_domain1(hs_surface1):
    return mesh_domain(hs_surface1, "half-space", 64, grading=0.0)


@pytest.fixture(scope="session")
def hs_domain1_graded(hs_surface1):
    return mesh_domain(hs_surface1, "half-space", 64, grading=0.5)


@pytest.fixture(scope="session")
def hs_solution1(hs_domain1):
    return solve_mixed_bvp(capillary_problem(hs_domain1))


@pytest.fixture(scope="session")
def hs_exact_solution1(hs_cap1, hs_domain1):
    problem = capillary_problem(hs_domain1)
    from hklab import solution_from_field

    return solution_from_field(problem, exact_cap_solution(hs_cap1))


def l2_relative_error(domain, values, exact_values):
    e = values - exact_values
    num = np.sum(domain.cell_volumes * (e[domain.cells] ** 2).mean(axis=1))
    den = np.sum(domain.cell_volumes * (exact_values[domain.cells] ** 2).mean(axis=1))
    return math.sqrt(num / den)


def rotate_z(points: np.ndarray, angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    out = points.copy()
    out[:, 0] = c * points[:, 0] - s * points[:, 1]
    out[:, 1] = s * points[:, 0] + c * points[:, 1]
    return out


def run_python(*args: str, timeout: float = 120.0):
    """Run a fresh interpreter with this checkout's src/ first on PYTHONPATH."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=SRC if not path else SRC + os.pathsep + path)
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=timeout, check=False)


def array_digest(*arrays) -> str:
    """sha256 of the arrays' little-endian bytes: float64 for reals, int64 otherwise."""
    digest = hashlib.sha256()
    for a in arrays:
        a = np.asarray(a)
        dtype = "<f8" if a.dtype.kind == "f" else "<i8"
        digest.update(np.ascontiguousarray(a, dtype=dtype).tobytes())
    return digest.hexdigest()


def frame_residual(mesh) -> float:
    """max over Gamma of |mu - (sin(theta) N_bar + cos(theta) nu_bar)|, the
    capillary frame relation."""
    if mesh.theta is None or len(mesh.boundary_vertices) == 0:
        return 0.0
    target = (mesh.theta.sin * mesh.boundary_support_normal
              + mesh.theta.cos * mesh.boundary_conormal_support)
    return float(np.max(np.linalg.norm(mesh.boundary_mu - target, axis=1)))
