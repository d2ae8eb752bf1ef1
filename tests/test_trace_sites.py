"""The benchmark tracer wraps hklab functions at named import sites.

A refactor that moves or renames one of them must fail here, in the test
suite, and not only in a benchmark run.  The perfbench modules are read and
executed in memory, so no bytecode is written next to them.
"""

import importlib
import sys
import types
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SPANS = PERFBENCH / "spans.py"


def _load(path: Path, name: str) -> types.ModuleType:
    """Execute a perfbench file as a module (dataclasses look theirs up while it runs)."""
    module = types.ModuleType(name)
    sys.modules[name] = module
    try:
        exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
    finally:
        del sys.modules[name]
    return module


def test_every_trace_site_resolves():
    sites = _load(SPANS, "perfbench_spans").SITES
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


@pytest.mark.parametrize("workload", ["n2-solve", "n1-corner", "n2-geometry"])
def test_workload_sources_build(workload, tmp_path):
    # the benchmark set-up calls the entry points with string containers and
    # float angles; it writes the OFF file that an OFF scenario reads
    workloads = _load(PERFBENCH / "workloads.py", "perfbench_workloads")
    scenarios = workloads.draw(workload, 1)
    workloads.build_sources(scenarios, tmp_path, workloads.direct_call)
    offs = [sc.off_path(tmp_path) for sc in scenarios if sc.spec.off]
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(Path(p).name for p in offs)


def test_tracer_sees_recovery_when_derivatives_are_read(hs_domain1):
    # a solve recovers nothing; recovery runs on the first derivative read,
    # through the hklab.bvp name that the tracer wraps
    from hklab.bvp import capillary_problem, solve_mixed_bvp
    from hklab.reilly import reilly_sides

    tracer = _load(SPANS, "perfbench_spans").Tracer()
    assert tracer.install() == []
    try:
        solution = solve_mixed_bvp(capillary_problem(hs_domain1))
        solved = len(tracer.spans)
        reilly_sides(solution)
    finally:
        assert tracer.uninstall()
    names = [span["name"] for span in tracer.spans]
    assert "fem.recover_nodal_gradients" not in names[:solved]
    recoveries = [span for span in tracer.spans if span["name"] == "fem.recover_nodal_gradients"]
    assert [span["counts"] for span in recoveries] == [{"vertices": hs_domain1.num_vertices}]


def test_tracer_sees_the_report_written(tmp_path):
    # `hk run --out` writes through the hklab.meshio name that the tracer wraps
    from hklab.cli import main

    tracer = _load(SPANS, "perfbench_spans").Tracer()
    assert tracer.install() == []
    try:
        code = main(["run", "--container", "half-space", "--theta", "1.0471975511965976",
                     "--dim", "1", "--checks", "identities", "--ladder", "8",
                     "--out", str(tmp_path / "report.json")])
    finally:
        assert tracer.uninstall()
    assert code == 0
    assert [span["name"] for span in tracer.spans].count("meshio.dump_json") == 1
