"""In-memory span recorder that wraps hklab functions where they are imported.

Each span holds a name, start, end, parent span, the scenario id shared by
all spans of one scenario, the resolution when the call receives one, and
counts read from the return value.  Self time is a span's duration minus the
time its child spans cover.  `uninstall` puts every original function back.
"""

from __future__ import annotations

import functools
import importlib
import time

# (module, attribute, span name, position of the resolution argument)
SITES = (
    ("hklab.cli", "run_scenario", "report.run_scenario", None),
    ("hklab.report", "make_cap", "caps.make_cap", None),
    ("hklab.report", "make_axisymmetric", "profiles.make_axisymmetric", None),
    ("hklab.report", "mesh_surface", "surface.mesh_surface", 1),
    ("hklab.report", "mesh_domain", "domain.mesh_domain", 2),
    # mesh_domain grades every mesh it returns with mesh_quality; its result
    # gives the minimum quality without a second evaluation.
    ("hklab.domain", "mesh_quality", "domain.mesh_quality", None),
    ("hklab.report", "check_identity", "identities.check_identity", None),
    ("hklab.report", "hk_report", "identities.hk_report", None),
    ("hklab.report", "capillary_problem", "bvp.capillary_problem", None),
    ("hklab.report", "solve_mixed_bvp", "bvp.solve_mixed_bvp", None),
    ("hklab.report", "corner_exponent", "bvp.corner_exponent", None),
    ("hklab.report", "reilly_sides", "reilly.reilly_sides", None),
    ("hklab.report", "hk_pipeline", "reilly.hk_pipeline", None),
    ("hklab.bvp", "p1_gradients", "fem.p1_gradients", None),
    ("hklab.bvp", "assemble_stiffness", "fem.assemble_stiffness", None),
    ("hklab.bvp", "pcg", "fem.pcg", None),
    ("hklab.bvp", "recover_nodal_gradients", "fem.recover_nodal_gradients", None),
    ("hklab.bvp", "cell_hessians_of", "fem.cell_hessians_of", None),
    ("hklab.meshio", "read_off", "meshio.read_off", None),
    ("hklab.meshio", "discrete_geometry", "surface.discrete_geometry", None),
    ("hklab.meshio", "dump_json", "meshio.dump_json", None),
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self.scenario: str | None = None
        self._stack: list = []
        self._installed: list = []

    # -- spans ---------------------------------------------------------------

    def call(self, name: str, fn, *args, resolution=None, **kwargs):
        """Run `fn` inside a span; record counts read from its result."""
        span = {
            "id": len(self.spans),
            "parent": self._stack[-1]["id"] if self._stack else None,
            "name": name,
            "scenario": self.scenario,
            "resolution": resolution,
            "start": time.perf_counter(),
        }
        self.spans.append(span)
        self._stack.append(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            self._stack.pop()
            span["end"] = time.perf_counter()
        counts = self._counts(name, result)
        if counts:
            span["counts"] = counts
        return result

    def _counts(self, name: str, result) -> dict:
        if name == "fem.pcg":
            return {"iterations": int(result[1])}
        if name == "fem.recover_nodal_gradients":
            return {"vertices": len(result)}
        if name == "surface.mesh_surface":
            return {"nv": result.num_vertices}
        if name == "domain.mesh_domain":
            return {"nv": result.num_vertices, "nc": len(result.cells)}
        if name == "domain.mesh_quality":
            return {"min_quality": float(result.min())}
        return {}

    # -- import-site wrappers ------------------------------------------------

    def install(self) -> list:
        """Wrap every site; returns the sites that no longer exist (never traced).

        The caller counts a missing site as a failed check: a layer that is
        never traced would read 0 and pass for a gain.
        """
        missing = []
        for module_name, attr, name, res_pos in SITES:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                missing.append(f"{module_name}.{attr}")
                continue
            original = getattr(module, attr, None)
            if original is None:
                missing.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self._wrap(name, original, res_pos))
            self._installed.append((module, attr, original))
        return missing

    def _wrap(self, name: str, fn, res_pos):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            resolution = None
            if res_pos is not None:
                resolution = args[res_pos] if len(args) > res_pos else kwargs.get("resolution")
            return self.call(name, fn, *args, resolution=resolution, **kwargs)

        return wrapper

    def uninstall(self) -> bool:
        """Restore every wrapped function; True when all are the originals again."""
        for module, attr, original in self._installed:
            setattr(module, attr, original)
        restored = all(getattr(m, a) is o for m, a, o in self._installed)
        self._installed = []
        return restored


def self_times(spans: list) -> list:
    """Duration minus child coverage, per span (children never overlap)."""
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def layer_metrics(spans: list, names: list) -> dict:
    """Per-layer totals over `spans`, for the metric names in `names`.

    `<span>.s` is total time, `<span>.self_s` total self time, `<span>.calls`
    the number of calls; `domain.*` and `surface.nv` sum or minimise the counts
    of the mesh spans.  A layer that was never called reads 0.
    """
    own = self_times(spans)
    totals: dict = {}

    def add(key, value):
        totals[key] = totals.get(key, 0) + value

    quality = []
    for s, self_s in zip(spans, own):
        add(f"{s['name']}.s", s["end"] - s["start"])
        add(f"{s['name']}.self_s", self_s)
        add(f"{s['name']}.calls", 1)
        counts = s.get("counts", {})
        for key in ("iterations", "vertices"):
            if key in counts:
                add(f"{s['name']}.{key}", counts[key])
        if s["name"] == "domain.mesh_domain":
            add("domain.nv", counts["nv"])
            add("domain.nc", counts["nc"])
        if s["name"] == "domain.mesh_quality":
            quality.append(counts["min_quality"])
        if s["name"] == "surface.mesh_surface":
            add("surface.nv", counts["nv"])
    if quality:
        totals["domain.min_quality"] = min(quality)
    vertices = totals.get("fem.recover_nodal_gradients.vertices", 0)
    if vertices:
        totals["fem.recover_nodal_gradients.us_per_vertex"] = (
            1e6 * totals["fem.recover_nodal_gradients.s"] / vertices
        )
    return {name: totals.get(name, 0) for name in names}


def rung_table(spans: list) -> list:
    """(scenario, span name, resolution, counts) of every mesh span, in call order.

    A domain mesh row also carries the minimum quality of its mesh_quality child.
    """
    rows = {}
    for s in spans:
        if s["name"] in ("domain.mesh_domain", "surface.mesh_surface"):
            rows[s["id"]] = (s["scenario"], s["name"], s["resolution"], dict(s["counts"]))
        elif s["name"] == "domain.mesh_quality" and s["parent"] in rows:
            rows[s["parent"]][3].update(s["counts"])
    return list(rows.values())
