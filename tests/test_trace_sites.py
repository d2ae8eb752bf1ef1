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


def test_mesh_domain_grades_each_mesh_once(monkeypatch, hs_surface1, hb_cap2):
    # the tracer reads domain.min_quality from this call; a site that still
    # exists but is no longer called would read 0 and pass unnoticed
    from hklab import domain, mesh_domain, mesh_surface

    grades = []
    original = domain.mesh_quality

    def counting(*args, **kwargs):
        grades.append(original(*args, **kwargs))
        return grades[-1]

    monkeypatch.setattr(domain, "mesh_quality", counting)
    for surface, resolution in ((hs_surface1, 32), (mesh_surface(hb_cap2, 12), 12)):
        grades.clear()
        dom = mesh_domain(surface, None, resolution)
        assert len(grades) == 1
        assert grades[0].shape == (len(dom.cells),)
