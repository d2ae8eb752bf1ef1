"""Command line front end (`hk`).

Subcommands: run (scenario ladders), cap (closed-form cap quantities),
solve (one BVP), reilly (formula sides + proof chain), corner (corner-exponent
fit), convert (OFF <-> JSON).  Exit codes:
0 all verdicts pass, 1 a check failed, 2 invalid configuration, 3 IO failure.
Angles are radians unless --degrees is given; HK_LOG sets the log level.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
from pathlib import Path

import hklab
from hklab import meshio
from hklab.bvp import (
    DEFAULT_TOL,
    capillary_problem,
    check_corner_inputs,
    corner_exponent,
    solution_from_field,
    solve_mixed_bvp,
    wedge_model_values,
)
from hklab.caps import make_cap
from hklab.containers import Container
from hklab.domain import DomainMesh, mesh_domain
from hklab.errors import ConfigError, HkLabError, MeshFileError
from hklab.meshio import (
    dumps_json,
    read_mesh_json,
    read_off,
    solution_to_dict,
    write_domain_json,
    write_off,
    write_surface_json,
)
from hklab.reilly import REILLY_DEFECT_TOL, WEIGHTED_REILLY_DEFECT_TOL, hk_pipeline, reilly_sides
from hklab.report import Scenario, check_inputs, run_scenario, write_csv
from hklab.surface import mesh_surface

logger = logging.getLogger("hklab.cli")

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_IO = 3


def _setup_logging() -> None:
    level = os.environ.get("HK_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(name)s %(levelname)s %(message)s")


def _angle(args, required: bool = True) -> float | None:
    """--theta in radians; required unless the container is closed."""
    theta = args.theta
    if theta is not None and args.degrees:
        theta = math.radians(theta)
    check_inputs(args.container, theta, theta_required=required)
    return theta


def _add_geometry_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--container", default="half-space",
                   help="half-space | half-ball | closed")
    p.add_argument("--theta", type=float, default=None, help="contact angle")
    p.add_argument("--degrees", action="store_true", help="interpret --theta in degrees")
    p.add_argument("--dim", type=int, default=2, help="surface dimension n (1 or 2)")
    p.add_argument("--cap-radius", type=float, default=1.0, help="cap radius R")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hk", description=__doc__)
    parser.add_argument("--version", action="version", version=hklab.__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a scenario over a resolution ladder")
    _add_geometry_args(run_p)
    run_p.add_argument("--surface", default=None,
                       help="OFF or profile JSON file instead of an analytic cap")
    run_p.add_argument("--perturb", type=float, default=0.0,
                       help="normal bump amplitude applied to a cap source")
    run_p.add_argument("--checks", default="all",
                       help="comma list of identities,hk,bvp,reilly,corner or all")
    run_p.add_argument("--ladder", default=None,
                       help="comma list of resolutions (default 16,32,64 at --dim 1, "
                            "8,16,24 at --dim 2)")
    run_p.add_argument("--grading", type=float, default=0.5, help="corner grading exponent")
    run_p.add_argument("--tol", type=float, default=DEFAULT_TOL, help="linear solver tolerance")
    run_p.add_argument("--max-iter", type=int, default=None, help="CG iteration cap")
    run_p.add_argument("--jobs", type=int, default=1, help="concurrent ladder entries")
    run_p.add_argument("--name", default=None, help="scenario name in the report")
    run_p.add_argument("--out", default=None, help="report JSON path")
    run_p.add_argument("--csv", default=None, help="flat CSV table path")
    run_p.add_argument("--timings", action="store_true",
                       help="include wall-clock times (reports are then not byte-stable)")
    run_p.add_argument("--config", default=None, help="scenario JSON file (overrides flags)")

    cap_p = sub.add_parser("cap", help="print closed-form cap quantities")
    _add_geometry_args(cap_p)

    solve_p = sub.add_parser("solve", help="solve the capillary mixed problem once")
    _add_geometry_args(solve_p)
    solve_p.add_argument("--resolution", type=int, default=64)
    solve_p.add_argument("--grading", type=float, default=0.5)
    solve_p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    solve_p.add_argument("--max-iter", type=int, default=None)
    solve_p.add_argument("--out", default=None, help="solution JSON path")

    reilly_p = sub.add_parser("reilly", help="evaluate the Reilly sides and proof chain")
    _add_geometry_args(reilly_p)
    reilly_p.add_argument("--resolution", type=int, default=64)
    # the recovered Hessian breaks the Reilly identity on graded meshes, so
    # reilly meshes ungraded by default, as the reilly check of `run` does
    reilly_p.add_argument("--grading", type=float, default=0.0)
    reilly_p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    reilly_p.add_argument("--weighted", action="store_true")
    reilly_p.add_argument("--out", default=None)

    corner_p = sub.add_parser("corner", help="corner-exponent fit on a planar domain")
    _add_geometry_args(corner_p)
    corner_p.add_argument("--resolution", type=int, default=96)
    corner_p.add_argument("--grading", type=float, default=0.5)
    corner_p.add_argument("--model", choices=["fem", "wedge"], default="fem",
                          help="fit the FEM solution or the analytic wedge field")
    corner_p.add_argument("--lambda", dest="lam", type=float, default=None,
                          help="wedge exponent of --model wedge (default pi/(2 theta))")
    corner_p.add_argument("--corner-window", type=float, default=0.2,
                          help="window fraction of the domain diameter")
    corner_p.add_argument("--out", default=None)

    conv_p = sub.add_parser("convert", help="convert between OFF and JSON mesh files")
    conv_p.add_argument("input")
    conv_p.add_argument("output")
    conv_p.add_argument("--container", default="half-space")
    conv_p.add_argument("--theta", type=float, default=None)
    conv_p.add_argument("--degrees", action="store_true")
    return parser


def _scenario_from_args(args) -> Scenario:
    if args.config:
        data = json.loads(Path(args.config).read_text(encoding="utf-8"))
        return Scenario.from_dict(data)
    if args.surface:
        path = args.surface
        kind = "off" if path.endswith(".off") else "profile"
        surface = {"kind": kind, "path": path}
    else:
        surface = {"kind": "cap", "radius": args.cap_radius}
    checks = [c.strip() for c in args.checks.split(",") if c.strip()]
    ladder = args.ladder
    if ladder is None:  # every rung is solved at its own resolution: n = 2 at 64 is ~500k vertices
        ladder = "16,32,64" if args.dim == 1 else "8,16,24"
    ladder = [r for r in ladder.split(",") if r.strip()]  # Scenario checks them
    name = args.name or f"{args.container}-n{args.dim}"
    return Scenario(
        name=name,
        container=args.container,
        theta=_angle(args),
        dim=args.dim,
        surface=surface,
        ladder=ladder,
        checks=checks,
        grading=args.grading,
        perturb=args.perturb,
        tol=args.tol,
        max_iter=args.max_iter,
        jobs=args.jobs,
        out=args.out,
        csv=args.csv,
        timings=args.timings,
    )


def _cap_and_meshes(args):
    theta = _angle(args)
    container = check_inputs(args.container, theta, args.cap_radius, [args.resolution],
                             args.grading, getattr(args, "tol", 0.0),
                             getattr(args, "max_iter", None), dim=args.dim)
    cap = make_cap(container, theta, args.cap_radius, args.dim)
    surface = mesh_surface(cap, args.resolution)
    domain = mesh_domain(surface, container, args.resolution, grading=args.grading)
    return cap, surface, domain


def _emit(payload: dict, out: str | None) -> None:
    if out:
        # looked up on the module, so that a wrapper of meshio.dump_json sees every write
        meshio.dump_json(payload, out)
        logger.info("wrote %s", out)
    else:
        print(dumps_json(payload))


def cmd_run(args) -> int:
    scenario = _scenario_from_args(args)
    report = run_scenario(scenario)
    _emit(report, scenario.out)
    if scenario.csv:
        write_csv(report, scenario.csv)
    return EXIT_OK if report["passed"] else EXIT_CHECK_FAILED


def cmd_cap(args) -> int:
    theta = _angle(args)
    container = check_inputs(args.container, theta, args.cap_radius, dim=args.dim)
    cap = make_cap(container, theta, args.cap_radius, args.dim)
    payload = {
        "container": container.value,
        "theta": None if cap.theta is None else cap.theta.radians,
        "dim": cap.dim,
        "radius": cap.radius,
        "center": cap.center,
        "mean_curvature": cap.mean_curvature,
        "quantities": cap.quantities,
    }
    print(dumps_json(payload))
    return EXIT_OK


def cmd_solve(args) -> int:
    _, _, domain = _cap_and_meshes(args)
    solution = solve_mixed_bvp(capillary_problem(domain), tol=args.tol, max_iter=args.max_iter)
    _emit(solution_to_dict(solution), args.out)
    return EXIT_OK


def cmd_reilly(args) -> int:
    container = check_inputs(args.container, None, theta_required=False)
    if args.weighted and container is not Container.HALF_BALL:
        raise ConfigError("the weighted Reilly formula (--weighted) is for the half-ball")
    _, surface, domain = _cap_and_meshes(args)
    solution = solve_mixed_bvp(capillary_problem(domain), tol=args.tol)
    sides = reilly_sides(solution, weighted=args.weighted)
    payload = {"reilly": sides.to_dict()}
    if domain.container.has_support:
        # the chain takes the weighting of its container: weighted on the half-ball
        ball = domain.container is Container.HALF_BALL
        chain_sides = sides if sides.weighted == ball else reilly_sides(solution, weighted=ball)
        payload["pipeline"] = hk_pipeline(surface, solution, chain_sides).to_dict()
    _emit(payload, args.out)
    tol = WEIGHTED_REILLY_DEFECT_TOL if args.weighted else REILLY_DEFECT_TOL
    return EXIT_OK if sides.relative_defect <= tol else EXIT_CHECK_FAILED


def cmd_corner(args) -> int:
    if args.dim != 1:
        raise ConfigError("corner fits need --dim 1 (planar domain)")
    if not check_inputs(args.container, None, theta_required=False).has_support:
        raise ConfigError("corner fits need a container with a support")
    if args.model == "fem" and args.lam is not None:
        raise ConfigError("--lambda applies only to --model wedge")
    check_corner_inputs(args.corner_window, args.lam)
    _, _, domain = _cap_and_meshes(args)
    problem = capillary_problem(domain)
    if args.model == "wedge":
        solution = solution_from_field(problem, wedge_model_values(domain, lam=args.lam))
    else:
        solution = solve_mixed_bvp(problem)
    fit = corner_exponent(solution, window_fraction=args.corner_window)
    _emit(fit.to_dict(), args.out)
    return EXIT_OK if not fit.low_trust else EXIT_CHECK_FAILED


def cmd_convert(args) -> int:
    src, dst = Path(args.input), Path(args.output)
    theta = _angle(args, required=False)
    if src.suffix == ".off" and dst.suffix == ".json":
        mesh = read_off(src, args.container, theta)
        write_surface_json(mesh, dst)
    elif src.suffix == ".json" and dst.suffix == ".off":
        mesh = read_mesh_json(src)
        if isinstance(mesh, DomainMesh):
            raise MeshFileError(f"{src}: a domain file cannot be written as OFF")
        write_off(mesh, dst)
    elif src.suffix == ".json" and dst.suffix == ".json":
        mesh = read_mesh_json(src)
        (write_domain_json if isinstance(mesh, DomainMesh) else write_surface_json)(mesh, dst)
    else:
        raise ConfigError(f"cannot convert {src.name} -> {dst.name}")
    return EXIT_OK


def main(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses 2 for bad usage already
        return int(exc.code) if exc.code is not None else EXIT_CONFIG
    handlers = {
        "run": cmd_run,
        "cap": cmd_cap,
        "solve": cmd_solve,
        "reilly": cmd_reilly,
        "corner": cmd_corner,
        "convert": cmd_convert,
    }
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"hk: invalid configuration: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MeshFileError as exc:
        print(f"hk: invalid mesh file: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (OSError, json.JSONDecodeError) as exc:
        print(f"hk: io failure: {exc}", file=sys.stderr)
        return EXIT_IO
    except HkLabError as exc:
        print(f"hk: check failed: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED


if __name__ == "__main__":
    raise SystemExit(main())
