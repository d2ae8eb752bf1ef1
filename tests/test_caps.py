"""Analytic cap construction against closed forms and Monte-Carlo oracles."""

import math

import numpy as np
import pytest

from conftest import run_python
from hklab import make_cap
from hklab.caps import gamma_frame, gamma_point, measured_contact_angle
from hklab.containers import Container
from hklab.errors import InfeasibleCapError

THETA = math.pi / 3.0


def test_halfspace_closed_forms_n2():
    cap = make_cap("half-space", THETA, 1.0, 2)
    q = cap.quantities
    assert np.allclose(cap.center, [0.0, 0.0, -0.5], atol=1e-15)
    assert abs(q["area_sigma"] - math.pi) < 1e-12
    assert abs(q["area_T"] - 3.0 * math.pi / 4.0) < 1e-12
    assert abs(q["measure_gamma"] - math.pi * math.sqrt(3.0)) < 1e-12
    assert abs(q["volume"] - 5.0 * math.pi / 24.0) < 1e-12
    assert abs(measured_contact_angle(cap) - THETA) < 1e-12


def test_hemisphere_is_trivial_case():
    cap = make_cap("half-space", math.pi / 2.0, 1.0, 2)
    assert np.allclose(cap.center, 0.0, atol=1e-12)
    assert abs(cap.quantities["volume"] - 2.0 * math.pi / 3.0) < 1e-12


def test_halfspace_monte_carlo_volume_oracle():
    # independent oracle: rejection sampling in a bounding box
    cap = make_cap("half-space", THETA, 1.0, 2)
    rng = np.random.default_rng(1234)
    n = 400_000
    lo = np.array([-1.0, -1.0, 0.0])
    hi = np.array([1.0, 1.0, 0.5])
    pts = rng.uniform(lo, hi, size=(n, 3))
    inside = cap.contains_enclosed(pts)
    box = float(np.prod(hi - lo))
    est = box * inside.mean()
    sigma = box * math.sqrt(inside.mean() * (1 - inside.mean()) / n)
    assert abs(est - cap.quantities["volume"]) < 5.0 * sigma


def test_halfspace_monte_carlo_area_oracle():
    # uniform sphere sampling; the cap is the fraction above the plane
    cap = make_cap("half-space", THETA, 1.0, 2)
    rng = np.random.default_rng(99)
    n = 400_000
    u = rng.standard_normal((n, 3))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    pts = cap.center + cap.radius * u
    frac = (pts[:, 2] >= 0.0).mean()
    est = 4.0 * math.pi * cap.radius**2 * frac
    sigma = 4.0 * math.pi * math.sqrt(frac * (1 - frac) / n)
    assert abs(est - cap.quantities["area_sigma"]) < 5.0 * sigma


def test_halfspace_n1_closed_forms():
    cap = make_cap("half-space", THETA, 1.0, 1)
    q = cap.quantities
    assert abs(q["area_sigma"] - 2.0 * THETA) < 1e-12
    assert abs(q["area_T"] - math.sqrt(3.0)) < 1e-12
    assert q["measure_gamma"] == 2.0
    assert abs(q["volume"] - (math.pi / 3.0 - math.sqrt(3.0) / 4.0)) < 1e-12


def test_halfball_construction_and_angle():
    cap = make_cap("half-ball", THETA, 0.5, 2)
    h = math.sqrt(1.0 + 0.25 + 2.0 * 0.5 * 0.5)
    assert abs(cap.center[-1] - h) < 1e-9
    assert abs(measured_contact_angle(cap) - THETA) < 1e-9
    # contact condition <p, c> = 1 + R cos theta on the intersection circle
    p = gamma_point(cap, 0.3)
    assert abs(float(p @ cap.center) - (1.0 + 0.5 * 0.5)) < 1e-9


@pytest.mark.parametrize("n", [1, 2])
def test_halfball_center_is_the_closed_form(n):
    for theta in np.linspace(0.2, math.pi / 2, 6):
        for r in (0.25, 0.5, 1.0, 2.0, 8.0):
            cap = make_cap("half-ball", theta, r, n)
            h = math.sqrt(1.0 + r * r + 2.0 * r * math.cos(theta))
            assert abs(cap.center[-1] - h) <= 1e-15 * h
            assert np.all(cap.center[:-1] == 0.0)


def test_cli_import_leaves_scipy_optimize_out():
    # the cap centers need no root finding, and scipy.optimize is slow to import
    done = run_python("-c", "import sys, hklab.cli; print('scipy.optimize' in sys.modules)")
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def test_halfball_monte_carlo_volume_oracle():
    cap = make_cap("half-ball", THETA, 0.5, 2)
    rng = np.random.default_rng(7)
    n = 400_000
    z_lo = cap.center[-1] - cap.radius
    lo = np.array([-0.55, -0.55, z_lo])
    hi = np.array([0.55, 0.55, 1.0])
    pts = rng.uniform(lo, hi, size=(n, 3))
    inside = cap.contains_enclosed(pts)
    box = float(np.prod(hi - lo))
    est = box * inside.mean()
    sigma = box * math.sqrt(inside.mean() * (1 - inside.mean()) / n)
    assert abs(est - cap.quantities["volume"]) < 5.0 * sigma


def test_halfball_height_integrals_against_quadrature():
    # cross-check the attached closed forms with 1-d quadrature in z
    from scipy.integrate import quad

    cap = make_cap("half-ball", THETA, 0.5, 2)
    h, r = cap.center[-1], cap.radius
    z_g = cap.quantities["gamma_height"]

    def section(z):
        r_ball = math.sqrt(max(1.0 - z * z, 0.0)) if z <= 1 else 0.0
        r_cap = math.sqrt(max(r * r - (z - h) ** 2, 0.0))
        return math.pi * min(r_ball, r_cap) ** 2

    vol = quad(section, h - r, 1.0, limit=200)[0]
    volz = quad(lambda z: z * section(z), h - r, 1.0, limit=200)[0]
    assert abs(vol - cap.quantities["volume"]) < 1e-9
    assert abs(volz - cap.quantities["int_volume_height"]) < 1e-9
    assert abs(cap.quantities["int_T_height"] - math.pi * (1 - z_g**2)) < 1e-12


def test_gamma_frame_exact():
    for cap in (make_cap("half-space", THETA, 1.0, 2), make_cap("half-ball", THETA, 0.5, 2)):
        pts = np.array([gamma_point(cap, a) for a in (0.0, 1.1, 2.5)])
        mu, nu_bar, nbar = gamma_frame(cap, pts)
        target = cap.theta.sin * nbar + cap.theta.cos * nu_bar
        assert np.max(np.abs(mu - target)) < 1e-14
        assert np.max(np.abs(np.linalg.norm(mu, axis=1) - 1.0)) < 1e-14
        assert np.max(np.abs(np.linalg.norm(nu_bar, axis=1) - 1.0)) < 1e-14


def test_exact_scaling_of_closed_forms():
    a = make_cap("half-space", THETA, 1.0, 2).quantities
    b = make_cap("half-space", THETA, 2.0, 2).quantities
    assert b["area_sigma"] == 4.0 * a["area_sigma"]
    assert b["volume"] == 8.0 * a["volume"]
    assert b["measure_gamma"] == 2.0 * a["measure_gamma"]


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(container="half-space", theta=THETA, size=-1.0, n=2),
        dict(container="half-space", theta=THETA, size=1.0, n=3),
        dict(container="half-ball", theta=None, size=0.5, n=2),
    ],
)
def test_infeasible_inputs(kwargs):
    with pytest.raises(InfeasibleCapError):
        make_cap(kwargs["container"], kwargs["theta"], kwargs["size"], kwargs["n"])


def test_contact_angle_validation():
    with pytest.raises(ValueError):
        make_cap("half-space", 0.01, 1.0, 2)  # below theta_min
    with pytest.raises(ValueError):
        make_cap("half-space", 2.0, 1.0, 2)  # above pi/2


def test_closed_container_cap():
    cap = make_cap("closed", None, 1.0, 2)
    assert cap.container is Container.CLOSED
    assert abs(cap.quantities["area_sigma"] - 4 * math.pi) < 1e-12
    assert abs(cap.quantities["volume"] - 4 * math.pi / 3) < 1e-12
    shifted = make_cap("closed", None, 1.0, 2, center=np.array([0.0, 0.0, 5.0]))
    assert abs(shifted.quantities["int_volume_height"] - 5.0 * 4 * math.pi / 3) < 1e-12


@pytest.mark.parametrize("center", [[0.5, 0.0], [0.0, 1e-9, 2.0]], ids=["n1", "n2"])
def test_closed_cap_centre_lies_on_the_axis(center):
    # both meshers sample the generator about the x_d-axis
    with pytest.raises(InfeasibleCapError, match="x_d-axis"):
        make_cap("closed", None, 1.0, len(center) - 1, center=np.array(center))
