"""Benchmark of the hklab `hk run` pipeline.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload n2-solve --seed 0 --seconds 40 --trace 0

The benchmark drives the package in this one process through
`hklab.cli.main(["run", ...])`, the path `hk run --out` takes, with the
package imported from `src/` of the checkout.  It repeats passes over the
workload's scenarios until the next pass would overrun `--seconds`, checks
every report, prints each metric by name with its unit, and prints one JSON
result as the last line.

`--trace 0` reports the end-to-end metrics of BENCHMARK.json: medians over the
passes, set-up time as the median of five fresh interpreters, and peak
resident memory up to the end of the first pass.
`--trace 1` alternates untraced passes with passes in which hklab functions
are wrapped where they are imported (see spans.py), and reports the per-layer
metrics.  Spans and run records go to perfbench/out/<workload>/.
"""

import os

# One BLAS thread on every commit and every machine: it is at or below any
# core count, and the seed profile showed no wall-time gain from two.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import functools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import gate  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5


def environment() -> dict:
    import numpy
    import scipy

    env = {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu": "unknown",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": BLAS_THREADS,
    }
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    env["cpu"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data") and level in ("2", "3"):
            env[f"l{level}"] = size
    return env


def load_package():
    """Import hklab from this checkout's src/, and from nowhere else."""
    if not (SRC / "hklab" / "__init__.py").is_file():
        sys.exit(f"perfbench: no hklab package under {SRC}")
    sys.path.insert(0, str(SRC))
    import hklab.cli

    if Path(hklab.__file__).resolve().parent != SRC / "hklab":
        sys.exit(f"perfbench: hklab was imported from {hklab.__file__}, not from {SRC}")
    return hklab.cli


def measure_setup(workload: str, seed: int, workdir: Path) -> list:
    """Set-up times of fresh interpreters; leaves the OFF files in workdir."""
    child_env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed), str(workdir)],
            env=child_env, capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(proc.stdout.split()[-1]))
    return times


def hk_run(main, argv: list) -> tuple:
    """(exit code, report, wall s, CPU s) of one `main(argv)`, an `hk run`.

    The --out file is deleted first, so that a report left by an earlier call
    can never stand in for this one; report is None when the call wrote none.
    The exit code is left to the gate.
    """
    out = Path(argv[argv.index("--out") + 1])
    out.unlink(missing_ok=True)
    t0, c0 = time.perf_counter(), time.process_time()
    code = main(argv)
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    report = json.loads(out.read_text(encoding="utf-8")) if out.is_file() else None
    return code, report, wall, cpu


def repeat(seconds: float, one_pass) -> None:
    """Run passes until the next one, if as long as the last, would overrun."""
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        one_pass()
        took = time.perf_counter() - t0
        if time.perf_counter() - start + took > seconds:
            return


def plain_run(cli, scenarios, workdir, seconds, checks: gate.Checks, setups: list) -> tuple:
    """Untraced passes; the end-to-end metrics are medians over them."""
    passes: list = []
    rss: list = []  # peak resident MB at the end of the first pass

    def one_pass():
        walls, cpu, top = {}, 0.0, 0.0
        outcomes = []
        for sc in scenarios:
            code, report, walls[sc.name], took = hk_run(cli.main, sc.argv(workdir, timings=True))
            cpu += took
            if report is not None:
                top += report["timings"]["stages"][str(sc.spec.ladder[-1])]
            outcomes.append((sc, code, report))
        checks.reports(f"pass {len(passes) + 1}", outcomes)
        passes.append({"wall_s": sum(walls.values()), "cpu_s": cpu, "top_rung_s": top,
                       "scenario_wall_s": walls, **gate.accuracy(outcomes)})
        if len(passes) == 1:
            # Later passes only add allocator fragmentation, which grows with
            # the number of passes that fit in the window.
            rss.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)

    repeat(seconds, one_pass)
    metrics = {k: statistics.median(p[k] for p in passes)
               for k in passes[0] if k != "scenario_wall_s"}
    metrics["setup_s"] = statistics.median(setups)
    metrics["peak_rss_mb"] = rss[0]
    return metrics, {"passes": passes, "setup_s": setups}


def traced_run(cli, scenarios, workdir, seconds, checks: gate.Checks, names: list) -> tuple:
    """Alternate untraced and traced passes; per-layer metrics from the traced ones."""
    untraced, traced, all_spans = [], [], []

    def untraced_pass():
        t0 = time.perf_counter()
        workloads.build_sources(scenarios, workdir, workloads.direct_call)
        outcomes = [(sc, *hk_run(cli.main, sc.argv(workdir, timings=False))[:2])
                    for sc in scenarios]
        untraced.append(time.perf_counter() - t0)
        checks.reports(f"untraced pass {len(untraced)}", outcomes)

    def traced_pass():
        label = f"traced pass {len(traced) + 1}"
        tracer = spans.Tracer()
        missing = tracer.install()
        checks.expect(f"{label}: import sites {missing} no longer exist and were not traced",
                      not missing)
        outcomes = []
        try:
            t0 = time.perf_counter()
            tracer.scenario = "setup"
            workloads.build_sources(scenarios, workdir, tracer.call)
            for sc in scenarios:
                tracer.scenario = sc.name
                argv = sc.argv(workdir, timings=False, out_name=f"{sc.name}.traced")
                main = functools.partial(tracer.call, "cli.main", cli.main)
                outcomes.append((sc, *hk_run(main, argv)[:2]))
            wall = time.perf_counter() - t0
        finally:
            restored = tracer.uninstall()
        checks.reports(label, outcomes)
        checks.expect(f"{label}: wrapped functions were not restored", restored)
        for sc in scenarios:
            # Both files were deleted before their calls; a missing one reads as None.
            plain, with_spans = (
                path.read_bytes() if path.is_file() else None
                for path in (workdir / f"{sc.name}.json", workdir / f"{sc.name}.traced.json")
            )
            checks.expect(f"{label} {sc.name}: traced report differs from the untraced one",
                          plain is not None and plain == with_spans)
        metrics = spans.layer_metrics(tracer.spans, names)
        for name, value in gate.accuracy(outcomes).items():
            if name in metrics:
                metrics[name] = value
        traced.append({"wall": wall, "metrics": metrics})
        all_spans.append(tracer.spans)

    def pair():
        untraced_pass()
        traced_pass()

    repeat(seconds, pair)
    metrics = {n: statistics.median(t["metrics"][n] for t in traced) for n in names}
    metrics["trace.overhead_s"] = (
        statistics.median(t["wall"] for t in traced) - statistics.median(untraced)
    )
    record = {
        "untraced_wall_s": untraced,
        "traced": traced,
        "rungs": spans.rung_table(all_spans[-1]),
        "spans": all_spans,
    }
    return metrics, record


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}

    cli = load_package()
    env = environment()
    print("env " + " ".join(f"{k}={v!r}" for k, v in env.items()), flush=True)
    scenarios = workloads.draw(args.workload, args.seed)
    for sc in scenarios:
        print(f"scenario {sc.variant} theta={sc.theta!r} radius={sc.radius!r} "
              f"ladder={list(sc.spec.ladder)}", flush=True)
    workdir = HERE / "out" / args.workload
    workdir.mkdir(parents=True, exist_ok=True)
    checks = gate.Checks(gate.load_reference()[args.workload])

    if args.trace:
        layer_names = [n for n in units if n != "trace.overhead_s"]
        metrics, record = traced_run(cli, scenarios, workdir, args.seconds, checks, layer_names)
        for scenario, name, res, counts in record["rungs"]:
            print(f"rung {scenario} {name} resolution={res} "
                  + " ".join(f"{k}={v}" for k, v in counts.items()))
    else:
        setups = measure_setup(args.workload, args.seed, workdir)
        metrics, record = plain_run(cli, scenarios, workdir, args.seconds, checks, setups)
        for i, p in enumerate(record["passes"], 1):
            print(f"pass {i} wall_s={p['wall_s']:.3f} cpu_s={p['cpu_s']:.3f} "
                  f"top_rung_s={p['top_rung_s']:.3f}")
        for name in sorted(set(metrics) - set(units)):
            print(f"accuracy {name} {metrics[name]!r}")

    for failure in checks.failures:
        print(f"FAILED {failure}")
    print(f"checks_failed {len(checks.failures)} of checks_run {checks.run}")
    result_metrics = {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}
    for name, m in result_metrics.items():
        print(f"metric {name} {m['value']!r} {m['unit']}")
    record.update(env=env, workload=args.workload, seed=args.seed, metrics=result_metrics,
                  checks_run=checks.run, failures=checks.failures,
                  scenarios=[sc.variant for sc in scenarios])
    (workdir / f"run-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8"
    )
    print(json.dumps({
        "correct": not checks.failures,
        "attempted": checks.run,
        "failed": len(checks.failures),
        "metrics": result_metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
