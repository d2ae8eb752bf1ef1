"""The benchmark tracer wraps hklab functions at named import sites.

A refactor that moves or renames one of them must fail here, in the test
suite, and not only in a benchmark run.  perfbench/spans.py is read and
executed in memory, so no bytecode is written next to it.
"""

import importlib
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_trace_site_resolves():
    namespace = {"__name__": "perfbench_spans"}
    exec(compile(SPANS.read_text(encoding="utf-8"), str(SPANS), "exec"), namespace)
    sites = namespace["SITES"]
    assert sites
    missing = [
        (module, attr) for module, attr, *_ in sites
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert not missing
