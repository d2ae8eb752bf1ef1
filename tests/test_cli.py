"""CLI: subcommands, exit codes, report determinism."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hklab.cli
import hklab.report
from hklab.cli import main
from hklab.errors import ConfigError

THETA_STR = "1.0471975511965976"


def run_cli(*args):
    return main(list(args))


def test_run_halfspace_n1(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = run_cli(
        "run", "--container", "half-space", "--theta", THETA_STR, "--dim", "1",
        "--cap-radius", "1", "--checks", "all", "--ladder", "16,32,64",
        "--out", str(out), "--csv", str(tmp_path / "table.csv"),
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert report["passed"] is True
    assert set(report["verdicts"]) == {"identities", "hk", "bvp", "reilly", "corner"}
    assert all(report["verdicts"].values())
    assert "timings" not in report
    csv_text = (tmp_path / "table.csv").read_text()
    assert csv_text.startswith("check,name,resolution,value")
    assert "MinkowskiHalfSpace" in csv_text


def test_reports_are_byte_identical(tmp_path):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for p in paths:
        code = run_cli(
            "run", "--container", "half-ball", "--theta", THETA_STR, "--dim", "1",
            "--cap-radius", "0.5", "--checks", "identities,hk", "--ladder", "16,32",
            "--out", str(p),
        )
        assert code == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_concurrent_ladder_is_deterministic(tmp_path):
    paths = [tmp_path / "serial.json", tmp_path / "jobs.json"]
    for p, jobs in zip(paths, ("1", "3")):
        code = run_cli(
            "run", "--container", "half-space", "--theta", THETA_STR, "--dim", "1",
            "--checks", "identities,bvp", "--ladder", "16,24,32", "--jobs", jobs,
            "--out", str(p),
        )
        assert code == 0
    a = json.loads(paths[0].read_text())
    b = json.loads(paths[1].read_text())
    a["scenario"].pop("jobs")
    b["scenario"].pop("jobs")
    assert a == b


def test_geometry_checks_mesh_no_solve_domain(tmp_path, monkeypatch):
    calls = []
    mesh_domain = hklab.report.mesh_domain

    def counting(*args, **kwargs):
        calls.append(args[2] if len(args) > 2 else kwargs.get("resolution"))
        return mesh_domain(*args, **kwargs)

    monkeypatch.setattr(hklab.report, "mesh_domain", counting)
    out = tmp_path / "r.json"
    code = run_cli(
        "run", "--container", "half-space", "--theta", THETA_STR, "--dim", "2",
        "--checks", "hk", "--ladder", "16,52", "--out", str(out),
    )
    assert code == 0
    # each rung is meshed at its own resolution (n = 2 rungs were once capped
    # at 48), and the rate divides by the resolutions used
    assert calls == [16, 52]
    report = json.loads(out.read_text())
    coarse, fine = (r["hk"]["gap"] for r in report["results"])
    assert report["rates"]["hk_gap"] == [
        math.log2(abs(coarse) / abs(fine)) / math.log2(52 / 16)
    ]


def _count_reilly_sides(monkeypatch) -> list:
    """Count reilly_sides calls, both where report and cli call it and inside reilly."""
    import hklab.cli
    import hklab.reilly

    calls = []
    original = hklab.reilly.reilly_sides

    def counting(*args, **kwargs):
        calls.append(kwargs.get("weighted", False))
        return original(*args, **kwargs)

    for module in (hklab.reilly, hklab.report, hklab.cli):
        monkeypatch.setattr(module, "reilly_sides", counting)
    return calls


@pytest.mark.parametrize("container, radius, per_rung", [
    ("half-space", "1", [False]),
    ("half-ball", "0.5", [False, True]),
])
def test_reilly_check_evaluates_each_weighting_once_per_rung(container, radius, per_rung,
                                                             tmp_path, monkeypatch):
    # the proof chain takes the sides of its weighting from the caller
    calls = _count_reilly_sides(monkeypatch)
    code = run_cli(
        "run", "--container", container, "--theta", THETA_STR, "--dim", "1",
        "--cap-radius", radius, "--checks", "reilly", "--ladder", "16,32",
        "--out", str(tmp_path / "r.json"),
    )
    assert code in (0, 1)
    assert calls == per_rung * 2


def test_weighted_reilly_subcommand_evaluates_the_sides_once(tmp_path, monkeypatch):
    calls = _count_reilly_sides(monkeypatch)
    out = tmp_path / "reilly.json"
    code = run_cli(
        "reilly", "--container", "half-ball", "--theta", THETA_STR, "--dim", "1",
        "--cap-radius", "0.5", "--resolution", "32", "--weighted", "--out", str(out),
    )
    assert code in (0, 1)
    assert calls == [True]
    data = json.loads(out.read_text())
    assert data["reilly"]["weighted"] and "pipeline" in data


@pytest.mark.parametrize("container", ["half-space", "closed"])
def test_weighted_reilly_off_the_half_ball_exits_2_before_meshing(container, capsys,
                                                                  monkeypatch):
    meshed = []
    monkeypatch.setattr(hklab.cli, "mesh_domain", lambda *a, **k: meshed.append(a))
    code = run_cli(
        "reilly", "--container", container, "--theta", THETA_STR, "--dim", "1",
        "--resolution", "48", "--weighted",
    )
    assert code == 2 and meshed == []
    err = capsys.readouterr().err
    assert err.startswith("hk: invalid configuration")
    assert "Traceback" not in err


def test_cli_import_leaves_scipy_sparse_unloaded():
    # only the fem kernels that build sparse matrices import scipy.sparse
    probe = "import sys, hklab.cli; print('scipy.sparse' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(hklab.__file__).resolve().parents[1])}
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout.strip() == "False"


def test_closed_hk_report_has_no_angle(tmp_path):
    # the closed container carries no contact angle, whatever --theta says
    out = tmp_path / "closed.json"
    code = run_cli(
        "run", "--container", "closed", "--theta", "1.0", "--dim", "1",
        "--checks", "hk", "--ladder", "16", "--out", str(out),
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert report["scenario"]["theta"] == 1.0
    assert report["results"][0]["hk"]["theta"] is None


@pytest.mark.parametrize("dim, ladder", [("1", [16, 32, 64]), ("2", [8, 16, 24])])
def test_default_ladder_follows_the_dimension(dim, ladder):
    from hklab.cli import _scenario_from_args, build_parser

    args = build_parser().parse_args(["run", "--theta", THETA_STR, "--dim", dim])
    assert _scenario_from_args(args).ladder == ladder


def test_degrees_flag(tmp_path):
    out = tmp_path / "r.json"
    code = run_cli(
        "run", "--container", "half-space", "--theta", "60", "--degrees", "--dim", "1",
        "--checks", "identities", "--ladder", "16,32", "--out", str(out),
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert abs(report["scenario"]["theta"] - math.pi / 3) < 1e-12


def test_cap_subcommand(capsys):
    assert run_cli("cap", "--container", "half-space", "--theta", THETA_STR, "--dim", "2") == 0
    payload = json.loads(capsys.readouterr().out)
    assert abs(payload["quantities"]["volume"] - 5 * math.pi / 24) < 1e-12


def test_wedge_subcommand(capsys):
    assert run_cli("wedge", "--lambda", "1.4", "--theta", THETA_STR) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["harmonic_residual"] <= 1e-12
    assert abs(payload["min_profile"] - math.cos(1.4 * math.pi / 3)) < 1e-12
    assert payload["positivity_ok"] is True


def test_wedge_boundary_case(capsys):
    assert run_cli("wedge", "--lambda", "1.5", "--theta", THETA_STR) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["positivity_ok"] is False


def test_solve_subcommand(tmp_path):
    out = tmp_path / "sol.json"
    code = run_cli(
        "solve", "--container", "half-space", "--theta", THETA_STR, "--dim", "1",
        "--resolution", "32", "--out", str(out),
    )
    assert code == 0
    data = json.loads(out.read_text())
    assert "f" in data["fields"] and "f_nu" in data["fields"]


def test_reilly_subcommand(tmp_path):
    out = tmp_path / "reilly.json"
    code = run_cli(
        "reilly", "--container", "half-space", "--theta", THETA_STR, "--dim", "1",
        "--resolution", "64", "--grading", "0.0", "--out", str(out),
    )
    assert code == 0
    data = json.loads(out.read_text())
    assert data["reilly"]["relative_defect"] <= 3e-2
    assert all(s["pass"] for s in data["pipeline"]["steps"])


def test_corner_subcommand_wedge_model(tmp_path):
    out = tmp_path / "fit.json"
    code = run_cli(
        "corner", "--container", "half-space", "--theta", THETA_STR, "--dim", "1",
        "--resolution", "96", "--model", "wedge", "--out", str(out),
    )
    assert code == 0
    data = json.loads(out.read_text())
    assert abs(data["lambda_hat"] - 1.5) <= 0.1


def test_convert_roundtrip(tmp_path):
    from hklab import make_cap, mesh_surface
    from hklab.meshio import write_off

    mesh = mesh_surface(make_cap("half-space", math.pi / 3, 1.0, 2), 16)
    off = tmp_path / "m.off"
    write_off(mesh, off)
    assert run_cli("convert", str(off), str(tmp_path / "m.json"),
                   "--container", "half-space", "--theta", THETA_STR) == 0
    assert run_cli("convert", str(tmp_path / "m.json"), str(tmp_path / "m2.off")) == 0
    assert (tmp_path / "m2.off").read_text().startswith("OFF")


def test_invalid_config_exit_code():
    assert run_cli(
        "run", "--container", "half-space", "--theta", THETA_STR, "--dim", "1",
        "--checks", "nonsense", "--ladder", "16,32",
    ) == 2
    assert run_cli(
        "run", "--container", "half-space", "--theta", THETA_STR, "--dim", "1",
        "--checks", "identities", "--ladder", "32,16",
    ) == 2


def test_io_failure_exit_code(tmp_path):
    assert run_cli(
        "run", "--surface", str(tmp_path / "missing.off"), "--theta", THETA_STR,
        "--dim", "2", "--checks", "identities", "--ladder", "16",
    ) == 3


def test_config_file(tmp_path):
    cfg = {
        "name": "from-config",
        "container": "half-space",
        "theta": math.pi / 3,
        "dim": 1,
        "surface": {"kind": "cap", "radius": 1.0},
        "ladder": [16, 32],
        "checks": ["identities"],
        "out": str(tmp_path / "out.json"),
    }
    cfg_path = tmp_path / "scenario.json"
    cfg_path.write_text(json.dumps(cfg))
    assert run_cli("run", "--config", str(cfg_path)) == 0
    report = json.loads((tmp_path / "out.json").read_text())
    assert report["scenario"]["name"] == "from-config"


@pytest.mark.parametrize("argv", [
    ["run", "--theta", "nan"],
    ["run", "--theta", "inf"],
    ["run", "--theta", "2.0"],
    ["corner", "--dim", "1", "--theta", "nan"],
    ["run", "--theta", THETA_STR, "--dim", "1", "--checks", "corner", "--grading", "1.0"],
    ["solve", "--theta", THETA_STR, "--dim", "1", "--grading", "1.0"],
    ["run", "--theta", THETA_STR, "--grading", "1.5"],
    ["run", "--surface", "missing.off"],
    ["run", "--container", "half-ball"],
    ["run", "--theta", THETA_STR, "--cap-radius", "-1"],
    ["run", "--theta", THETA_STR, "--ladder", "2,8"],
    ["run", "--theta", THETA_STR, "--tol", "-1"],
    ["run", "--theta", THETA_STR, "--max-iter", "0"],
    ["run", "--container", "nowhere", "--theta", THETA_STR],
    ["solve", "--theta", THETA_STR, "--resolution", "3"],
    ["wedge", "--lambda", "1.2", "--theta", "nan"],
    {"surface": {"kind": "cap", "radius": "big"}},
    {"ladder": ["a"]},
    ["run", "--theta", THETA_STR, "--ladder", "a"],
    ["run", "--container", "closed", "--perturb", "0.02", "--ladder", "4"],
    ["run", "--theta", THETA_STR, "--perturb", "nan", "--ladder", "4"],
    ["reilly", "--theta", THETA_STR, "--cap-radius", "1e308", "--resolution", "4"],
    ["run", "--theta", THETA_STR, "--cap-radius", "1e-12", "--ladder", "4"],
    ["corner", "--container", "closed", "--dim", "1", "--resolution", "6"],
    ["wedge", "--lambda", "1.2", "--theta", THETA_STR, "--grid", "16"],
    ["wedge", "--lambda", "0.5", "--theta", THETA_STR],
    ["wedge", "--lambda", "2", "--theta", THETA_STR],
    ["wedge", "--lambda", "nan", "--theta", THETA_STR],
    ["corner", "--theta", THETA_STR, "--dim", "1", "--resolution", "16", "--corner-window", "0"],
    ["corner", "--theta", THETA_STR, "--dim", "1", "--resolution", "16", "--corner-window", "1"],
    ["corner", "--theta", THETA_STR, "--dim", "1", "--resolution", "16",
     "--corner-window", "nan"],
    ["run", "--theta", THETA_STR, "--ladder", "4", "--jobs", "-3"],
    ["run", "--theta", THETA_STR, "--ladder", "4", "--jobs", "0"],
    ["run", "--surface", "@cap2.off", "--theta", THETA_STR, "--dim", "2", "--ladder", "8,16",
     "--checks", "identities"],
    ["run", "--surface", "@cap1.off", "--theta", THETA_STR, "--dim", "2", "--ladder", "8",
     "--checks", "identities"],
    ["run", "--surface", "@cap2.off", "--theta", THETA_STR, "--dim", "1", "--ladder", "8",
     "--checks", "identities"],
    ["run", "--surface", "@cap2.off", "--theta", THETA_STR, "--dim", "2", "--ladder", "8",
     "--checks", "hk"],
    ["run", "--surface", "@cap2.off", "--theta", THETA_STR, "--dim", "2", "--ladder", "8",
     "--checks", "bvp"],
    ["run", "--surface", "@cap2.off", "--theta", THETA_STR, "--dim", "2", "--ladder", "8",
     "--checks", "reilly"],
    "5",
    '{"name": "x"}',
    {"surface": "cap"},
    {"checks": "hk"},
    {"jobs": True},
    {"surface": {"kind": "profile"}},
    {"surface": {"kind": "off", "path": 5}},
    {"surface": {"kind": "cap", "radius": True}},
    {"surface": {"kind": "cap", "radius": 1.0, "bogus": 1}},
    {"surface": {"kind": "cap", "path": "cap.off"}},
    {"surface": {"kind": "profile", "path": "prof.json", "radius": 1.0}},
    {"surface": {"kind": "moon"}},
    {"surface": {"kind": ["cap"]}},
])
def test_invalid_input_exits_2_without_traceback(argv, capsys, tmp_path):
    # a dict is a scenario file that differs from a valid one in these keys,
    # a string the whole text of a scenario file
    if isinstance(argv, (dict, str)):
        text = argv if isinstance(argv, str) else json.dumps({**_VALID_SCENARIO, **argv})
        (tmp_path / "scenario.json").write_text(text)
        argv = ["run", "--config", str(tmp_path / "scenario.json")]
    argv = [_write_cap_off(tmp_path, arg) if arg.startswith("@") else arg for arg in argv]
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("hk: invalid configuration")
    assert "Traceback" not in err


_VALID_SCENARIO = {"name": "bad", "container": "half-space", "theta": math.pi / 3, "dim": 1,
                   "surface": {"kind": "cap", "radius": 1.0}, "ladder": [16],
                   "checks": ["identities"]}


@pytest.mark.parametrize("change, key", [
    ({"surface": "cap"}, "'surface' must be an object"),
    ({"checks": "hk"}, "'checks' must be an array"),
    ({"jobs": True}, "'jobs' must be an integer"),
    ({"theta": "1.0"}, "'theta' must be a number or null"),
    ({"dim": None}, "missing scenario keys: ['dim']"),
    ({"surface": {"kind": "cap", "radius": True}}, "surface key 'radius' must be a number"),
    ({"surface": {"kind": "cap", "bogus": 1}}, "unknown surface keys: ['bogus']"),
    ({"surface": {"kind": "off"}}, "missing surface keys: ['path']"),
], ids=["surface", "checks", "jobs", "theta", "dim", "radius", "surface-key", "path"])
def test_scenario_file_errors_name_the_key(change, key):
    data = {k: v for k, v in {**_VALID_SCENARIO, **change}.items() if v is not None}
    with pytest.raises(ConfigError) as err:
        hklab.report.Scenario.from_dict(data)
    assert key in str(err.value)


def _write_cap_off(tmp_path, placeholder: str) -> str:
    """Path of an OFF file of the pi/3 half-space cap; "@cap<n>.off" names its dim n."""
    from hklab import make_cap, mesh_surface
    from hklab.meshio import write_off

    path = tmp_path / placeholder[1:]
    dim = int(placeholder[len("@cap")])
    write_off(mesh_surface(make_cap("half-space", math.pi / 3, 1.0, dim), 8), path)
    return str(path)


_SURFACE_JSON = {"metadata": {"kind": "surface", "dim": 1, "container": "half-space",
                             "theta": 1.0},
                 "vertices": [[-1.0, 0.0], [0.0, 1.0], [1.0, 0.0]], "cells": [[0, 1], [1, 2]]}
_MALFORMED_FILES = {  # name: (file text, extra convert arguments)
    "theta-3.json": (json.dumps({**_SURFACE_JSON, "metadata": {
        **_SURFACE_JSON["metadata"], "theta": 3.0}}), []),
    "moon.json": (json.dumps({**_SURFACE_JSON, "metadata": {
        **_SURFACE_JSON["metadata"], "container": "moon"}}), []),
    "no-vertices.json": (json.dumps({"metadata": _SURFACE_JSON["metadata"],
                                     "cells": _SURFACE_JSON["cells"]}), []),
    "index-7.off": ("OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 7\n", []),
    "index-neg.off": ("OFF\n4 2 0\n0 0 0\n1 0 0\n0 1 0\n1 1 0\n3 0 1 2\n3 2 1 -1\n", []),
    "off-sphere.off": ("OFF\n3 2 0\n-2 0 0\n0 2 0\n2 0 0\n2 0 1\n2 1 2\n",
                       ["--container", "half-ball"]),
    "zero-length.json": (json.dumps({**_SURFACE_JSON, "vertices": [[0.0, 0.0]],
                                     "cells": [[0, 0]]}), []),
}


@pytest.mark.parametrize("name", sorted(_MALFORMED_FILES))
def test_malformed_mesh_file_exits_2_without_traceback(name, capsys, tmp_path):
    text, extra = _MALFORMED_FILES[name]
    src = tmp_path / name
    src.write_text(text)
    dst = tmp_path / ("out.json" if name.endswith(".off") else "out.off")
    argvs = [["convert", str(src), str(dst), "--theta", THETA_STR, *extra]]
    if name.endswith(".off"):
        argvs.append(["run", "--surface", str(src), "--theta", THETA_STR, "--dim", "1",
                      "--ladder", "8", "--checks", "identities", *extra])
    for argv in argvs:
        assert run_cli(*argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("hk: invalid mesh file: ")
        assert "Traceback" not in err


@pytest.mark.parametrize("content, code, prefix", [
    (b'{"vertices": \xff}', 2, "hk: invalid mesh file: "),
    (b'{"vertices": ', 3, "hk: io failure: "),
], ids=["not-utf8", "json-syntax"])
def test_json_mesh_file_decode_exit_codes(content, code, prefix, capsys, tmp_path):
    src = tmp_path / "bad.json"
    src.write_bytes(content)
    assert run_cli("convert", str(src), str(tmp_path / "out.off")) == code
    err = capsys.readouterr().err
    assert err.startswith(prefix)
    assert "Traceback" not in err


def _profile_data(container: str, dim: int) -> dict:
    from hklab import make_cap, perturb_profile, profile_from_cap

    cap = make_cap(container, math.pi / 3, 1.0, dim)
    prof = perturb_profile(profile_from_cap(cap), 0.02)
    return {"samples": prof.samples.tolist(), "theta": math.pi / 3, "dim": dim}


_SAMPLES = _profile_data("half-space", 1)["samples"]
_MALFORMED_PROFILES = {
    "empty-object": b"{}",
    "array": b"[1, 2]",
    "dim-x": json.dumps({"samples": _SAMPLES, "dim": "x"}).encode(),
    "non-numeric": json.dumps({"samples": [["a", "b"]] * 8}).encode(),
    "not-utf8": b'{"samples": \xff}',
    "two-samples": json.dumps({"samples": [[0.0, 1.0], [1.0, 0.0]]}).encode(),
}


@pytest.mark.parametrize("name", sorted(_MALFORMED_PROFILES))
def test_malformed_profile_file_exits_2_without_traceback(name, capsys, tmp_path):
    src = tmp_path / "prof.json"
    src.write_bytes(_MALFORMED_PROFILES[name])
    assert run_cli("run", "--surface", str(src), "--theta", THETA_STR, "--dim", "1",
                   "--ladder", "8", "--checks", "identities") == 2
    err = capsys.readouterr().err
    assert err.startswith(f"hk: invalid mesh file: {src}: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("dim, ladder, checks", [(1, "16,32", "all"),
                                                 (2, "8,12", "identities,hk,bvp")])
def test_profile_file_runs_end_to_end(dim, ladder, checks, tmp_path):
    src = tmp_path / "prof.json"
    src.write_text(json.dumps(_profile_data("half-space", dim)))
    out = tmp_path / "report.json"
    assert run_cli("run", "--surface", str(src), "--theta", THETA_STR, "--dim", str(dim),
                   "--ladder", ladder, "--checks", checks, "--out", str(out)) == 0
    report = json.loads(out.read_text())
    assert report["scenario"]["surface"] == {"kind": "profile", "path": str(src)}
    assert report["passed"] and len(report["results"]) == len(ladder.split(","))


@pytest.mark.parametrize("theta, code", [
    (math.pi / 3, 0),
    (1.0471975512, 0),  # pi/3 to ten decimals
    (None, 0),
    (0.5, 2),
    (math.pi / 3 + 1e-8, 2),
    ("1.0471975511965976", 2),
], ids=["agrees", "ten-decimals", "absent", "disagrees", "off-by-1e-8", "string"])
def test_profile_file_theta_is_the_contact_angle(theta, code, capsys, tmp_path):
    data = _profile_data("half-space", 1)
    if theta is None:
        del data["theta"]
    else:
        data["theta"] = theta
    src = tmp_path / "prof.json"
    src.write_text(json.dumps(data))
    assert run_cli("run", "--surface", str(src), "--theta", THETA_STR, "--dim", "1",
                   "--ladder", "16", "--checks", "hk", "--out", str(tmp_path / "r.json")) == code
    if code == 2:
        err = capsys.readouterr().err
        assert err.startswith(f'hk: invalid mesh file: {src}: "theta" ')
        assert "Traceback" not in err


def test_readme_reilly_example_passes(tmp_path):
    # the README line, with the report written to a file instead of stdout
    code = run_cli(
        "reilly", "--container", "half-ball", "--theta", "1.0471975512", "--dim", "1",
        "--cap-radius", "0.5", "--out", str(tmp_path / "reilly.json"),
    )
    assert code == 0


# -- argument fuzzing --------------------------------------------------------
# Each subcommand gets a random subset of its own options.  An option takes a
# valid value four times as often as an invalid one (out of range or
# unparsable).  Resolutions stay at 6 or below and the wedge grid at 64, its
# least valid value, so every example runs in well under a second.

_FUZZ_VALUES = {  # option: (valid values, invalid values)
    "--container": (["half-space", "half-ball", "closed"], ["nowhere", ""]),
    "--theta": (["0.3", "0.7853981634", "1.0471975512", "1.5707963268", "45"],
                ["nan", "inf", "-1", "0", "2", "x", ""]),
    "--dim": (["1", "2"], ["-1", "0", "3", "x"]),
    "--cap-radius": (["0.5", "1", "2"], ["nan", "inf", "-1", "0", "1e-12", "1e6", "1e308", "x"]),
    "--resolution": (["4", "6"], ["-4", "0", "3", "x"]),
    "--grading": (["0", "0.5", "0.9"], ["-0.1", "1", "nan", "x"]),
    "--tol": (["0", "1e-10", "1e-3"], ["-1", "inf", "nan", "x"]),
    "--max-iter": (["1", "5", "500"], ["-1", "0", "x"]),
    "--jobs": (["1", "2"], ["0", "-1", "x"]),
    "--ladder": (["4", "4,6"], ["6,4", "4,4", "", ",", "2,6", "a", "6,-6"]),
    "--checks": (["identities", "hk", "bvp", "reilly", "corner", "all", "hk,bvp"],
                 ["nonsense", ""]),
    "--perturb": (["0", "0.02", "-0.02"], ["nan", "5", "x"]),
    "--lambda": (["0.5", "1.4", "3"], ["-1", "0", "nan", "inf", "x"]),
    "--grid": (["64"], ["-1", "0", "1", "2", "16", "x"]),
    "--corner-window": (["0.2", "0.5"], ["-1", "0", "1", "nan", "x"]),
    "--model": (["fem", "wedge"], ["other"]),
}
_GEOMETRY = ["--container", "--theta", "--dim", "--cap-radius"]
_FUZZ_COMMANDS = {  # subcommand: its options
    "run": _GEOMETRY + ["--perturb", "--checks", "--ladder", "--grading", "--tol",
                        "--max-iter", "--jobs"],
    "cap": _GEOMETRY,
    "solve": _GEOMETRY + ["--resolution", "--grading", "--tol", "--max-iter"],
    "reilly": _GEOMETRY + ["--resolution", "--grading", "--tol"],
    "corner": _GEOMETRY + ["--resolution", "--grading", "--model", "--lambda",
                           "--corner-window"],
    "wedge": ["--theta", "--lambda", "--grid"],
    "nope": [],
}
_FUZZ_FLAGS = ["--degrees", "--weighted", "--timings", "--help", "--version"]
# defaults that would mesh at the CLI's full resolution are always overridden
_FUZZ_SMALL = {"run": "--ladder", "solve": "--resolution", "reilly": "--resolution",
               "corner": "--resolution"}


def _fuzz_argv(pick, subset) -> list:
    """One argument vector; pick(values) chooses one, subset(keys) some keys."""
    command = pick(sorted(_FUZZ_COMMANDS))
    keys = subset(_FUZZ_COMMANDS[command])
    small = _FUZZ_SMALL.get(command)
    if small and small not in keys:
        keys.append(small)
    argv = [command]
    for key in keys:
        valid, invalid = _FUZZ_VALUES[key]
        argv += [key, pick(4 * valid + invalid)]
    return argv + subset(_FUZZ_FLAGS)[:1]


@st.composite
def _argv(draw):
    return _fuzz_argv(lambda values: draw(st.sampled_from(values)),
                      lambda keys: draw(st.lists(st.sampled_from(keys), unique=True))
                      if keys else [])


@settings(max_examples=150, deadline=None, derandomize=True)
@given(argv=_argv())
def test_cli_arguments_never_escape_the_exit_codes(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
