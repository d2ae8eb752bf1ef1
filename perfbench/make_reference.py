"""Regenerate reference.json: the top-rung error numbers of every band point.

Usage, from the root of a checkout:  python3 perfbench/make_reference.py

Run it only on the commit whose numbers are the accepted baseline.  It
refuses to record a band point at which any check of the gate fails, so it
also proves that the band in workloads.py is admissible.
"""

import json
import sys

import run  # first: fixes the BLAS thread count before numpy loads
import gate
import workloads


def main() -> int:
    cli = run.load_package()
    workdir = run.HERE / "out" / "reference"
    workdir.mkdir(parents=True, exist_ok=True)
    reference: dict = {}
    for workload in workloads.WORKLOADS:
        for sc in workloads.variants(workload):
            workloads.build_sources([sc], workdir, workloads.direct_call)
            code, report, _, _ = run.hk_run(cli.main, sc.argv(workdir, timings=False))
            _, failures = gate.check_report(code, report, {}, sc.exact_cap)
            if failures:
                sys.exit(f"{workload} {sc.variant}: {failures}; band not admissible")
            numbers = gate.error_numbers(report, sc.exact_cap)
            reference.setdefault(workload, {})[sc.variant] = numbers
            print(workload, sc.variant, json.dumps(numbers), flush=True)
    gate.REFERENCE_PATH.write_text(
        json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
