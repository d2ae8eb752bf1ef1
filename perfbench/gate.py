"""Correctness gate and accuracy figures read from `hk run` reports.

A check fails when a call wrote no report, when its exit code disagrees
with the report's verdict, when a verdict is false, or when a top-rung error
number is worse than the committed reference for the same band point by more
than RTOL (plus ATOL, for numbers at rounding level).  The comparison is
one-sided so that an accuracy fix passes and shows up in the accuracy
metrics instead.  RTOL (0.1%) is far above rounding differences between
machines or BLAS builds.
"""

from __future__ import annotations

import json
from pathlib import Path

RTOL = 1e-3
ATOL = 1e-12

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"


def error_numbers(report: dict, exact_cap: bool) -> dict:
    """Top-rung error numbers of one report (lower is better for each)."""
    top = report["results"][-1]
    out = {}
    for item in top.get("identities", []):
        out[f"identities.{item['identity']}"] = item["residual"]["relative"]
    if exact_cap and "hk" in top:
        out["hk.abs_relative_gap"] = abs(top["hk"]["relative_gap"])
    if exact_cap and "l2_error" in top.get("bvp", {}):
        out["bvp.l2_error"] = top["bvp"]["l2_error"]
    for side in ("unweighted", "weighted"):
        if side in top.get("reilly", {}):
            out[f"reilly.{side}.relative_defect"] = top["reilly"][side]["relative_defect"]
    return out


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))


class Checks:
    """Checks run and failure messages over all passes of one benchmark run."""

    def __init__(self, reference: dict) -> None:
        self.reference = reference
        self.run = 0
        self.failures: list = []

    def reports(self, label: str, outcomes: list) -> None:
        """Gate every (scenario, exit code, report) against its band point's reference."""
        for sc, code, report in outcomes:
            run, failures = check_report(code, report, self.reference[sc.variant], sc.exact_cap)
            self.run += run
            self.failures += [f"{label} {sc.name}: {f}" for f in failures]

    def expect(self, label: str, ok: bool) -> None:
        """One more check; `label` is its failure message."""
        self.run += 1
        if not ok:
            self.failures.append(label)


def check_report(code: int, report: dict | None, expected: dict, exact_cap: bool) -> tuple:
    """(checks run, failure messages) for one `hk run` against its reference.

    `report` is None when the call wrote none, as `hk run` does when it stops
    on an error.  The exit code must agree with the report's own verdict.
    """
    if report is None:
        return 1, [f"exit code {code} and no report written"]
    failures = []
    run = 1
    if code != (0 if report["passed"] else 1):
        failures.append(f"exit code {code} disagrees with passed = {report['passed']!r}")
    for name, ok in sorted(report["verdicts"].items()):
        run += 1
        if ok is not True:
            failures.append(f"verdict {name} is false")
    numbers = error_numbers(report, exact_cap)
    for name, ref in sorted(expected.items()):
        run += 1
        value = numbers.get(name)
        if value is None:
            failures.append(f"{name} missing from the report")
        elif value > ref * (1.0 + RTOL) + ATOL:
            failures.append(f"{name} = {value!r} is worse than the reference {ref!r}")
    return run, failures


# Accuracy metric -> prefix of the error numbers it is the largest of.
TOP_ERRORS = (
    ("identity_resid_top", "identities."),
    ("hk_cap_gap_top", "hk.abs_relative_gap"),
    ("bvp_l2_top", "bvp.l2_error"),
    ("reilly_defect_top", "reilly.unweighted.relative_defect"),
)


def accuracy(outcomes: list) -> dict:
    """Accuracy figures of one pass over (scenario, exit code, report) triples."""
    numbers, rates = [], []
    for sc, _code, report in outcomes:
        if report is None:
            continue
        numbers.append(error_numbers(report, sc.exact_cap))
        steps = [r for r in report["rates"].get("bvp_l2", []) if r is not None]
        if "bvp.l2_error" in numbers[-1] and steps:
            rates.append(sum(steps) / len(steps))
    out = {}
    for metric, prefix in TOP_ERRORS:
        values = [v for n in numbers for k, v in n.items() if k.startswith(prefix)]
        if values:
            out[metric] = max(values)
    if rates:
        out["bvp_l2_rate"] = min(rates)
    return out
