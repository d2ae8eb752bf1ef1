"""Golden reports: short `hk` runs compared against committed JSON files.

Each case runs one `hk` command in-process and compares its JSON output with
`tests/golden/<case>.json`: key sets, strings, booleans, integers and nulls
exactly, floats to a relative tolerance of 1e-9 (refactors may reorder sums).
Exit codes are not compared, because some cases fail their verdicts on
purpose (the half-ball n=2 run stops at resolution 16).

Regenerate every file from the current code with

    PYTHONPATH=src python tests/test_golden.py

Regenerating changes what the test protects, so a CHANGES.md line must say
why the reports were allowed to change.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import pytest

from hklab.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
THETA_STR = "1.0471975511965976"
FLOAT_RTOL = 1e-9


def _run(container, dim, ladder, radius="1"):
    return ["run", "--container", container, "--theta", THETA_STR, "--dim", str(dim),
            "--cap-radius", radius, "--checks", "all", "--ladder", ladder]


CASES = {
    "run-half-space-n1": _run("half-space", 1, "16,32"),
    "run-half-ball-n1": _run("half-ball", 1, "32,64", radius="0.5"),
    "run-half-space-n2": _run("half-space", 2, "8,16"),
    "run-half-ball-n2": _run("half-ball", 2, "8,16", radius="0.5"),
    "run-closed-n1": ["run", "--container", "closed", "--dim", "1", "--checks", "all",
                      "--ladder", "16,32"],
    "corner-wedge": ["corner", "--container", "half-space", "--theta", THETA_STR,
                     "--dim", "1", "--resolution", "96", "--model", "wedge"],
    "reilly-weighted-n1": ["reilly", "--container", "half-ball", "--theta", THETA_STR,
                           "--dim", "1", "--cap-radius", "0.5", "--resolution", "32",
                           "--weighted"],
}


def _report(case: str, out: Path) -> dict:
    main(CASES[case] + ["--out", str(out)])
    return json.loads(out.read_text(encoding="utf-8"))


def _compare(got, want, path: str = "$") -> None:
    if isinstance(want, dict):
        assert isinstance(got, dict), path
        assert sorted(got) == sorted(want), path
        for key in want:
            _compare(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            _compare(g, w, f"{path}[{i}]")
    elif isinstance(want, float):
        assert isinstance(got, float), path
        assert math.isclose(got, want, rel_tol=FLOAT_RTOL), f"{path}: {got!r} != {want!r}"
    else:
        assert type(got) is type(want) and got == want, f"{path}: {got!r} != {want!r}"


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_matches_golden(case, tmp_path):
    want = json.loads((GOLDEN / f"{case}.json").read_text(encoding="utf-8"))
    _compare(_report(case, tmp_path / "report.json"), want)


def regenerate() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for case in sorted(CASES):
        _report(case, GOLDEN / f"{case}.json")
        print(f"wrote {GOLDEN / case}.json", file=sys.stderr)


if __name__ == "__main__":
    regenerate()
