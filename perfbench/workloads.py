"""Workload definitions and the seeded input generator.

A workload is a fixed list of `hk run` scenarios.  The seed only moves the
contact angle and the cap radius of each scenario inside a narrow band
around its named value; every point of the band passes all verdicts, and
`reference.json` holds the top-rung accuracy numbers of every point, so the
correctness gate applies to every seed.  The package receives nothing but
the generated command-line arguments.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

# The band: each scenario draws one angle offset (radians) and one radius
# factor.  The exact-cap hk gap is a near-cancellation that swings by 5x
# across +-0.01 rad at n = 2 (and crosses zero near pi/3 - 0.0075), so the
# band is kept to +-0.002 rad, where every accuracy figure moves by a few
# percent at most.
THETA_OFFSETS = (-0.002, -0.001, 0.001, 0.002)
RADIUS_FACTORS = (0.99, 1.01)

OFF_RESOLUTION = 64


@dataclass(frozen=True)
class Spec:
    """One scenario at its named (band centre) values."""

    name: str
    container: str
    dim: int
    theta: float
    radius: float
    checks: str
    ladder: tuple
    perturb: float = 0.0
    off: bool = False  # identities on an OFF file that setup writes from the cap


@dataclass(frozen=True)
class Scenario:
    """A spec at the point of the band that the seed drew."""

    spec: Spec
    theta_index: int
    radius_index: int

    @property
    def theta(self) -> float:
        return self.spec.theta + THETA_OFFSETS[self.theta_index]

    @property
    def radius(self) -> float:
        return self.spec.radius * RADIUS_FACTORS[self.radius_index]

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def variant(self) -> str:
        """Key of this band point in `reference.json`."""
        return f"{self.spec.name}/t{self.theta_index}r{self.radius_index}"

    @property
    def exact_cap(self) -> bool:
        return self.spec.perturb == 0.0

    def off_path(self, workdir) -> str:
        return str(workdir / f"{self.spec.name}.off")

    def argv(self, workdir, timings: bool, out_name: str | None = None) -> list:
        """`hk run` arguments; the report goes to `workdir/<out_name>.json`."""
        spec = self.spec
        argv = ["run", "--container", spec.container, "--theta", repr(self.theta),
                "--dim", str(spec.dim)]
        if spec.off:
            argv += ["--surface", self.off_path(workdir)]
        else:
            argv += ["--cap-radius", repr(self.radius)]
        if spec.perturb:
            argv += ["--perturb", repr(spec.perturb)]
        argv += ["--checks", spec.checks, "--ladder", ",".join(map(str, spec.ladder)),
                 "--jobs", "1", "--name", spec.name,
                 "--out", str(workdir / f"{out_name or spec.name}.json")]
        if timings:
            argv.append("--timings")
        return argv


# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {
    # Full n = 2 pipeline.  Patch recovery dominates, CG is ~5%.  The ladder
    # stops at 24, so the solver-resolution cap in report.py never relabels
    # a rung.
    "n2-solve": (
        Spec("hs-cap", "half-space", 2, math.pi / 3, 1.0, "all", (8, 16, 24)),
        Spec("hb-cap", "half-ball", 2, math.pi / 3, 0.5, "all", (8, 16, 24)),
    ),
    # n = 1: 2-D patches, many vertices, graded corner meshes; CG ~12%.
    "n1-corner": (
        Spec("hb-cap", "half-ball", 1, math.pi / 3, 0.5, "all", (32, 64, 128, 256, 512)),
        Spec("hs-perturbed", "half-space", 1, math.pi / 4, 1.0, "hk,bvp,reilly,corner",
             (32, 64, 128, 256), perturb=0.02),
    ),
    # No solve: meshing, identities and hk only; fem is never called.
    "n2-geometry": (
        Spec("hs-cap", "half-space", 2, math.pi / 4, 1.0, "identities,hk", (16, 32, 48)),
        Spec("hb-perturbed", "half-ball", 2, math.pi / 3, 0.5, "hk", (16, 32, 48),
             perturb=0.02),
        Spec("hs-off", "half-space", 2, math.pi / 3, 1.0, "identities", (OFF_RESOLUTION,),
             off=True),
    ),
}


def draw(workload: str, seed: int) -> list:
    """The scenarios of a workload at the band points drawn from `seed`."""
    rng = random.Random(seed)
    return [
        Scenario(spec, rng.randrange(len(THETA_OFFSETS)), rng.randrange(len(RADIUS_FACTORS)))
        for spec in WORKLOADS[workload]
    ]


def variants(workload: str) -> list:
    """Every band point of every scenario of a workload."""
    return [
        Scenario(spec, t, r)
        for spec in WORKLOADS[workload]
        for t in range(len(THETA_OFFSETS))
        for r in range(len(RADIUS_FACTORS))
    ]


def build_sources(scenarios: list, workdir, call) -> None:
    """Set-up: build each scenario's geometry source before the first rung.

    This rejects inadmissible inputs before any rung runs and writes the OFF
    files that OFF scenarios read.  `call(name, fn, *args)` runs `fn`; the
    traced run passes one that records a span.
    """
    from hklab import caps, meshio, profiles, surface

    for sc in scenarios:
        spec = sc.spec
        cap = call("caps.make_cap", caps.make_cap, spec.container, sc.theta, sc.radius, spec.dim)
        if spec.perturb:
            profile = profiles.perturb_profile(profiles.profile_from_cap(cap), spec.perturb)
            call("profiles.make_axisymmetric", profiles.make_axisymmetric,
                 profile, sc.theta, spec.container)
        if spec.off:
            mesh = call("surface.mesh_surface", surface.mesh_surface, cap, OFF_RESOLUTION)
            call("meshio.write_off", meshio.write_off, mesh, sc.off_path(workdir))


def direct_call(_name, fn, *args):
    return fn(*args)
