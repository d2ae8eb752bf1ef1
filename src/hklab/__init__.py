"""Numerical verification lab for capillary Heintze-Karcher inequalities.

Builds exact spherical-cap configurations in the half-space and the half-ball,
meshes the wetted domain, solves the associated mixed Dirichlet-Neumann/Robin
boundary value problems with P1 finite elements, and checks every integral
identity, inequality and corner-regularity prediction at desk scale.
"""

from hklab.containers import Container, ContactAngle, as_angle, parse_container
from hklab.caps import AnalyticCap, make_cap
from hklab.profiles import ProfileCurve, make_axisymmetric, perturb_profile, profile_from_cap
from hklab.surface import SurfaceMesh, discrete_geometry, mesh_surface
from hklab.domain import DomainBoundary, DomainMesh, domain_boundary, mesh_domain
from hklab.identities import (
    HkReport,
    IdentityId,
    Residual,
    alexandrov_certify,
    check_identity,
    hk_report,
    integrate_boundary,
    integrate_surface,
)
from hklab.bvp import (
    BvpSolution,
    CornerFit,
    MixedBvpProblem,
    capillary_constant,
    capillary_problem,
    corner_exponent,
    exact_cap_solution,
    solution_from_field,
    solve_mixed_bvp,
    wedge_model_values,
)
from hklab.reilly import PipelineStep, PipelineTrace, ReillySides, hk_pipeline, reilly_sides

__version__ = "0.1.0"

__all__ = [
    "AnalyticCap",
    "BvpSolution",
    "Container",
    "ContactAngle",
    "CornerFit",
    "DomainBoundary",
    "DomainMesh",
    "HkReport",
    "IdentityId",
    "MixedBvpProblem",
    "PipelineStep",
    "PipelineTrace",
    "ProfileCurve",
    "Residual",
    "ReillySides",
    "SurfaceMesh",
    "alexandrov_certify",
    "as_angle",
    "capillary_constant",
    "capillary_problem",
    "check_identity",
    "corner_exponent",
    "discrete_geometry",
    "domain_boundary",
    "exact_cap_solution",
    "hk_pipeline",
    "hk_report",
    "integrate_boundary",
    "integrate_surface",
    "make_axisymmetric",
    "make_cap",
    "mesh_domain",
    "mesh_surface",
    "parse_container",
    "perturb_profile",
    "profile_from_cap",
    "reilly_sides",
    "solution_from_field",
    "solve_mixed_bvp",
    "wedge_model_values",
    "__version__",
]
