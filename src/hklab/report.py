"""Scenario driver: resolution ladders, verdicts, JSON/CSV reports.

A scenario names a geometry source, a strictly increasing resolution ladder
and the checks to run.  Ladder entries are independent and may run
concurrently; the report is assembled in ladder order, so results are
bit-reproducible for identical inputs (timings are only included on request
since they would break that).
"""

from __future__ import annotations

import csv
import logging
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import MISSING, asdict, dataclass, fields
from pathlib import Path

import numpy as np

import hklab
from hklab.bvp import (DEFAULT_TOL, capillary_problem, corner_exponent, exact_cap_solution,
                        solve_mixed_bvp)
from hklab.caps import AnalyticCap, make_cap
from hklab.containers import Container, ContactAngle, parse_container
from hklab.domain import domain_boundary, mesh_domain
from hklab.errors import ConfigError, WindowError
from hklab.identities import MACHINE_FLOOR, applicable_identities, check_identity, hk_report
from hklab.profiles import make_axisymmetric, perturb_profile, profile_from_cap
from hklab.reilly import REILLY_DEFECT_TOL, hk_pipeline, reilly_sides
from hklab.surface import SurfaceMesh, mesh_surface

logger = logging.getLogger("hklab.report")

ALL_CHECKS = ("identities", "hk", "bvp", "reilly", "corner")

RATE_FLOOR = 1e-13

# cap radii the meshers handle: their absolute tolerances (1e-12 to 1e-14)
# assume geometry of unit order
RADIUS_MIN, RADIUS_MAX = 1e-6, 1e4


def check_inputs(container: str, theta: float | None, radius: float = 1.0, resolutions=(),
                 grading: float = 0.0, tol: float = 0.0, max_iter: int | None = None,
                 theta_required: bool = True, dim: int | None = None) -> Container:
    """The parsed container; ConfigError for input outside the documented ranges.

    theta is finite in [0.05, pi/2] and given unless the container is closed
    (or theta_required is False); radius in [RADIUS_MIN, RADIUS_MAX]; every
    resolution >= 4; grading in [0, 1); tol finite and >= 0; max_iter None
    or >= 1; dim, when given, 1 or 2.
    """
    try:
        kind = parse_container(container)
        radius, grading, tol = float(radius), float(grading), float(tol)
        if theta is not None:
            ContactAngle(float(theta))
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from None
    for bad, message in (
        (theta is None and theta_required and kind.has_support,
         "a contact angle (--theta) is required unless the container is closed"),
        (not RADIUS_MIN <= radius <= RADIUS_MAX,
         f"cap radius must lie in [{RADIUS_MIN:g}, {RADIUS_MAX:g}], got {radius}"),
        (any(r < 4 for r in resolutions), f"resolutions must be >= 4, got {list(resolutions)}"),
        (not 0.0 <= grading < 1.0, f"grading must lie in [0, 1), got {grading}"),
        (not (math.isfinite(tol) and tol >= 0), f"tol must be finite and >= 0, got {tol}"),
        (max_iter is not None and max_iter < 1, f"max_iter must be at least 1, got {max_iter}"),
        (dim is not None and dim not in (1, 2), "dim must be 1 or 2"),
    ):
        if bad:
            raise ConfigError(message)
    return kind


@dataclass
class Scenario:
    name: str
    container: str
    theta: float | None
    dim: int
    surface: dict
    ladder: list[int]
    checks: list[str]
    grading: float = 0.5
    perturb: float = 0.0
    tol: float = DEFAULT_TOL
    max_iter: int | None = None
    jobs: int = 1
    out: str | None = None
    csv: str | None = None
    timings: bool = False

    def __post_init__(self) -> None:
        try:
            self.ladder = [int(r) for r in self.ladder]
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"resolution ladder must hold integers: {exc}") from None
        if len(self.ladder) == 0 or any(
            b <= a for a, b in zip(self.ladder, self.ladder[1:])
        ):
            raise ConfigError("resolution ladder must be strictly increasing and non-empty")
        if not all(isinstance(c, str) for c in self.checks):
            raise ConfigError(f"checks must be a list of check names, got {self.checks!r}")
        if "all" in self.checks:
            self.checks = list(ALL_CHECKS)
        unknown = set(self.checks) - set(ALL_CHECKS)
        if unknown:
            raise ConfigError(f"unknown checks: {sorted(unknown)}")
        if not self.checks:
            raise ConfigError("at least one check is required")
        kind = self.surface.get("kind", "cap")
        if kind not in tuple(_SURFACE_KEYS):  # a list or object kind is compared, not hashed
            raise ConfigError(f"unknown surface kind {kind!r}")
        _check_keys(self.surface, _SURFACE_KEYS[kind], "surface", [] if kind == "cap" else ["path"])
        container = check_inputs(self.container, self.theta, self.surface.get("radius", 1.0),
                                 self.ladder, self.grading, self.tol, self.max_iter,
                                 dim=self.dim)
        if not isinstance(self.jobs, int) or self.jobs < 1:
            raise ConfigError(f"jobs must be an integer >= 1, got {self.jobs!r}")
        try:
            finite = math.isfinite(float(self.perturb))
        except (TypeError, ValueError):
            finite = False
        if not finite:
            raise ConfigError(f"perturb must be a finite number, got {self.perturb!r}")
        if self.perturb and not container.has_support:
            raise ConfigError("a perturbed cap needs a container with a support")
        if kind == "profile" and not container.has_support:
            raise ConfigError(f"a profile surface needs a container with a support, "
                              f"and the {container.value} container has none")

    def to_dict(self) -> dict:
        """The fields that define the run: all but the output paths and the timings switch."""
        return {k: v for k, v in asdict(self).items() if k not in ("out", "csv", "timings")}

    @classmethod
    def from_dict(cls, data) -> "Scenario":
        """The scenario of a parsed scenario file: a JSON object that gives
        every field without a default, each key of its field's annotated type."""
        if not isinstance(data, dict):
            raise ConfigError(f"a scenario file holds a JSON object, got {data!r}")
        _check_keys(data, {f.name: f.type for f in fields(cls)}, "scenario",
                    [f.name for f in fields(cls) if f.default is MISSING])
        return cls(**data)


# the JSON name and the exact Python types of every annotated type of a
# scenario or surface key: type(True) is bool, so a boolean is no number
_JSON_TYPES = {"str": ("a string", {str}), "float": ("a number", {int, float}),
               "int": ("an integer", {int}), "None": ("null", {type(None)}),
               "dict": ("an object", {dict}), "list": ("an array", {list}),
               "bool": ("a boolean", {bool})}


# the keys of a surface object by its kind; "kind" defaults to "cap" and a
# cap's "radius" to 1, and a file kind needs its "path"
_SURFACE_KEYS = {
    "cap": {"kind": "str", "radius": "float"},
    "off": {"kind": "str", "path": "str"},
    "profile": {"kind": "str", "path": "str"},
}


def _check_keys(data: dict, types: dict, what: str, required: list) -> None:
    """ConfigError naming the keys of data that types lacks, the required keys
    that data lacks, or the first key whose value is not of its type (an
    annotation: "float | None" takes either, "list[int]" integers only)."""
    unknown = set(data) - set(types)
    if unknown:
        raise ConfigError(f"unknown {what} keys: {sorted(unknown)}")
    missing = [key for key in required if key not in data]
    if missing:
        raise ConfigError(f"missing {what} keys: {missing}")
    for key, value in data.items():
        kinds, _, item = types[key].removesuffix("]").partition("[")
        kinds = kinds.split(" | ")
        if not any(type(value) in _JSON_TYPES[kind][1] for kind in kinds):
            names = " or ".join(_JSON_TYPES[kind][0] for kind in kinds)
            raise ConfigError(f"{what} key {key!r} must be {names}, got {value!r}")
        bad = [entry for entry in value if type(entry) not in _JSON_TYPES[item][1]] if item else []
        if bad:
            raise ConfigError(f"every entry of {what} key {key!r} must be "
                              f"{_JSON_TYPES[item][0]}, got {bad[0]!r}")


def _build_source(scenario: Scenario):
    """Geometry source per the scenario surface spec.

    An OFF file is one mesh: it takes one rung, and at n = 2 only the
    identities, which need no domain.  A file must hold a surface of the
    scenario's dimension.
    """
    kind = scenario.surface.get("kind", "cap")
    container = parse_container(scenario.container)
    if kind == "cap":
        radius = float(scenario.surface.get("radius", 1.0))
        cap = make_cap(container, scenario.theta, radius, scenario.dim)
        if scenario.perturb:
            prof = perturb_profile(profile_from_cap(cap), scenario.perturb)
            return make_axisymmetric(prof, scenario.theta, container)
        return cap
    path = scenario.surface["path"]
    if kind == "off":
        from hklab.meshio import read_off

        if len(scenario.ladder) > 1:
            raise ConfigError(f"an OFF surface is one mesh and takes one rung, "
                              f"got the ladder {scenario.ladder}")
        source = read_off(path, container, scenario.theta)
        domain_checks = sorted({"hk", "bvp", "reilly"} & set(scenario.checks))
        if source.dim == 2 and domain_checks:
            raise ConfigError(f"{', '.join(domain_checks)} need the domain, which an n = 2 "
                              f"OFF surface cannot give: use a cap or a profile source")
    else:
        from hklab.meshio import read_profile_json

        source = read_profile_json(path, container, scenario.theta, scenario.dim)
    if source.dim != scenario.dim:
        raise ConfigError(f"the surface file holds an n = {source.dim} surface, "
                          f"but the scenario asks for dim {scenario.dim}")
    return source


def _l2_error(domain, values, exact) -> float:
    """Relative L2 error of vertex values, each cell weighing the mean of its
    vertices' squares: a vertex's weight is the volume of its cells over d + 1."""
    ref = exact(domain.vertices)
    e = values - ref
    cells = domain.cells
    weight = sum(np.bincount(cells[:, a], weights=domain.cell_volumes, minlength=len(ref))
                 for a in range(cells.shape[1])) / cells.shape[1]
    num, den = float(weight @ (e * e)), float(weight @ (ref * ref))
    return math.sqrt(num / den) if den > 0 else math.sqrt(num)


def _run_stage(scenario: Scenario, source, resolution: int) -> dict:
    container = parse_container(scenario.container)
    # imported meshes are used as-is
    surface = source if isinstance(source, SurfaceMesh) else mesh_surface(source, resolution)
    result: dict = {"resolution": resolution}

    # derivative recovery is cleanest on ungraded meshes; only the corner fit
    # needs the grading toward Gamma.  Every domain of the rung is meshed at
    # the rung's own resolution.  hk reads boundary sums only, so a rung that
    # solves nothing takes the domain's boundary and builds no cells.
    needs_solve = bool({"bvp", "reilly"} & set(scenario.checks)) and container.has_support
    domain = boundary = None
    if needs_solve:
        domain = boundary = mesh_domain(surface, container, resolution, grading=0.0)
    elif "hk" in scenario.checks:
        boundary = domain_boundary(surface, container, resolution, grading=0.0)

    if "identities" in scenario.checks:
        entries = []
        for ident in applicable_identities(container):
            residual = check_identity(ident, surface).to_dict()
            entries.append({"identity": residual.pop("identity"), "residual": residual})
        result["identities"] = entries

    if "hk" in scenario.checks:
        result["hk"] = asdict(hk_report(surface, boundary))

    solution = None
    if needs_solve:
        problem = capillary_problem(domain)
        solution = solve_mixed_bvp(problem, tol=scenario.tol, max_iter=scenario.max_iter)

    if "bvp" in scenario.checks and solution is not None:
        entry = {**solution.diagnostics, "max_f": float(solution.f.max())}
        if isinstance(source, AnalyticCap):
            entry["l2_error"] = _l2_error(domain, solution.f, exact_cap_solution(source))
        result["bvp"] = entry

    if "reilly" in scenario.checks and solution is not None:
        # the chain replays the unweighted sides on the half-space and the
        # weighted ones on the half-ball
        sides = reilly_sides(solution, weighted=False)
        entry = {"unweighted": sides.to_dict()}
        if container is Container.HALF_BALL:
            sides = reilly_sides(solution, weighted=True)
            entry["weighted"] = sides.to_dict()
        entry["pipeline"] = hk_pipeline(surface, solution, sides).to_dict()
        result["reilly"] = entry

    if "corner" in scenario.checks and scenario.dim == 1 and container.has_support:
        graded = mesh_domain(surface, container, resolution, grading=scenario.grading)
        corner_problem = capillary_problem(graded)
        corner_solution = solve_mixed_bvp(
            corner_problem, tol=scenario.tol, max_iter=scenario.max_iter
        )
        try:
            result["corner"] = corner_exponent(corner_solution).to_dict()
        except WindowError as exc:
            result["corner"] = {"error": str(exc)}

    return result


def _rates(series: list, ladder: list) -> list:
    """Observed order per refinement step (log ratio normalized by the step)."""
    out = []
    for (a, b), (r0, r1) in zip(zip(series, series[1:]), zip(ladder, ladder[1:])):
        if abs(a) < RATE_FLOOR or abs(b) < RATE_FLOOR:
            out.append(None)
        else:
            out.append(math.log2(abs(a) / abs(b)) / math.log2(r1 / r0))
    return out


def _collect_rates(results: list, ladder: list) -> dict:
    rates: dict = {}
    if len(results) < 2:
        return rates
    if all("identities" in r for r in results):
        by_name: dict[str, list] = {}
        for r in results:
            for item in r["identities"]:
                by_name.setdefault(item["identity"], []).append(item["residual"]["relative"])
        rates["identities"] = {k: _rates(v, ladder) for k, v in by_name.items()}
    if all("hk" in r for r in results):
        rates["hk_gap"] = _rates([r["hk"]["gap"] for r in results], ladder)
    if all("bvp" in r and "l2_error" in r.get("bvp", {}) for r in results):
        rates["bvp_l2"] = _rates([r["bvp"]["l2_error"] for r in results], ladder)
    if all("reilly" in r for r in results):
        rates["reilly_defect"] = _rates(
            [r["reilly"]["unweighted"]["defect"] for r in results], ladder
        )
    return rates


def _verdicts(scenario: Scenario, results: list, rates: dict) -> dict:
    verdicts: dict = {}
    top = results[-1]
    if "identities" in scenario.checks:
        ok = all(item["residual"]["relative"] <= 1e-2 for item in top["identities"])
        if len(results) >= 3:
            for name, rr in rates.get("identities", {}).items():
                vals = [x for x in rr if x is not None]
                if vals and float(np.mean(vals)) < 1.5:
                    residual = [i for i in top["identities"] if i["identity"] == name][0]
                    if residual["residual"]["relative"] > 1e-6:
                        ok = False
        verdicts["identities"] = ok
    if "hk" in scenario.checks:
        hk = top["hk"]
        scale = max(abs(hk["lhs"]), abs(hk["rhs_form2"]), MACHINE_FLOOR)
        forms_agree = abs(hk["rhs_form1"] - hk["rhs_form2"]) <= 1e-2 * scale
        inequality_holds = hk["gap"] >= -2e-2 * scale
        verdicts["hk"] = bool(forms_agree and inequality_holds)
    if "bvp" in scenario.checks and "bvp" in top:
        entry = top["bvp"]
        ok = entry["residual_norm"] <= max(scenario.tol * 10, 1e-8)
        if "l2_error" in entry:
            ok = ok and entry["l2_error"] <= 1e-2
        verdicts["bvp"] = bool(ok)
    if "reilly" in scenario.checks and "reilly" in top:
        entry = top["reilly"]
        # the chain's reilly_identity step judges the weighted sides of a
        # half-ball, at IDENTITY_RTOL < WEIGHTED_REILLY_DEFECT_TOL
        ok = entry["unweighted"]["relative_defect"] <= REILLY_DEFECT_TOL
        ok = ok and all(s["pass"] for s in entry["pipeline"]["steps"])
        verdicts["reilly"] = bool(ok)
    if "corner" in scenario.checks and "corner" in top:
        entry = top["corner"]
        verdicts["corner"] = bool("error" not in entry and not entry.get("low_trust", False))
    return verdicts


def run_scenario(scenario: Scenario) -> dict:
    """Execute every check of the scenario over its ladder; returns the report."""
    source = _build_source(scenario)

    def stage(res: int) -> tuple[dict, float]:
        t0 = time.perf_counter()
        out = _run_stage(scenario, source, res)
        return out, time.perf_counter() - t0

    if scenario.jobs > 1 and len(scenario.ladder) > 1:
        with ThreadPoolExecutor(max_workers=scenario.jobs) as pool:
            paired = list(pool.map(stage, scenario.ladder))
    else:
        paired = [stage(res) for res in scenario.ladder]
    results = [p[0] for p in paired]
    stage_times = [p[1] for p in paired]

    rates = _collect_rates(results, scenario.ladder)
    verdicts = _verdicts(scenario, results, rates)
    report = {
        "version": hklab.__version__,
        "scenario": scenario.to_dict(),
        "results": results,
        "rates": rates,
        "verdicts": verdicts,
        "passed": bool(all(verdicts.values())) if verdicts else True,
    }
    if scenario.timings:
        report["timings"] = {
            "stages": {str(r): t for r, t in zip(scenario.ladder, stage_times)}
        }
    return report


def write_csv(report: dict, path: str | Path) -> None:
    """Flat (check, name, resolution, value) table for external plotting."""
    rows = []
    for result in report["results"]:
        res = result["resolution"]
        for item in result.get("identities", []):
            rows.append(("identities", item["identity"], res, item["residual"]["relative"]))
        if "hk" in result:
            rows.append(("hk", "gap", res, result["hk"]["gap"]))
            rows.append(("hk", "relative_gap", res, result["hk"]["relative_gap"]))
        if "bvp" in result and "l2_error" in result["bvp"]:
            rows.append(("bvp", "l2_error", res, result["bvp"]["l2_error"]))
        if "reilly" in result:
            rows.append(
                ("reilly", "relative_defect", res, result["reilly"]["unweighted"]["relative_defect"])
            )
            for step in result["reilly"]["pipeline"]["steps"]:
                rows.append(("pipeline", step["name"], res, step["margin"]))
        if "corner" in result and "error" not in result["corner"]:
            rows.append(("corner", "lambda_hat", res, result["corner"]["lambda_hat"]))
            rows.append(("corner", "beta_hat", res, result["corner"]["beta_hat"]))
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["check", "name", "resolution", "value"])
        writer.writerows(rows)
