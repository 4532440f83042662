#!/usr/bin/env python3
"""Layered benchmark of the BASH coherence simulator.

Run from the repository root::

    python3 perfbench/run.py --workload locking_sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py            # all four workloads, one process each

``--trace 0`` times the workload untraced and reports the end-to-end
metrics; ``--trace 1`` adds a profiled run and reports the per-layer metrics
(see ``layers.py``).  Either way the run builds the compiled extension if it
is missing, pins the backend, checks every unit's simulated outputs and
prints one JSON object as its last line of output.  ``--record`` rewrites the
reference digests in ``record.json`` on the pure backend, the executable
specification.  The exit code is 1 when a check fails and 2 when the
benchmark cannot run at all.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import REFERENCE_S, Speedometer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_build" / "perfbench"
RECORD = HERE / "record.json"
BENCHMARK = ROOT / "BENCHMARK.json"

#: Fresh interpreters started to time set-up; the median is reported.
SETUP_PROBES = 5
#: Rounds of fixed work a run makes at least, so rounds can be compared.
MIN_ROUNDS = 2
#: How a performance claim made with this benchmark is judged.
CLAIM_RULE = (
    "Measure the parent and the change with the same benchmark code and"
    " settings, at least ten interleaved pairs. Claim a gain only when the"
    " change wins nine tenths of the pairs and the medians differ by more than"
    " the parent's own quartile spread, and only when it also holds on a seed"
    " not used while writing the change. Every other metric and workload must"
    " stay within its bound in BENCHMARK.json, and exact per-layer counts are"
    " compared exactly."
)
#: Settings that would let a run skip or parallelise work.
UNPINNED_ENV = ("REPRO_SWEEP_CACHE", "REPRO_SWEEP_WORKERS", "REPRO_TASK_TIMEOUT")


class BenchError(Exception):
    """The benchmark cannot run (as opposed to a check that failed)."""


def pin_environment(backend: str) -> None:
    """Select the backend loudly and drop settings that change the work."""
    for name in UNPINNED_ENV:
        os.environ.pop(name, None)
    os.environ["REPRO_BACKEND"] = backend
    os.environ["PYTHONPATH"] = str(SRC)
    sys.path.insert(0, str(SRC))


def ensure_extension() -> None:
    """Build the compiled extension unless it is already up to date."""
    built = subprocess.run(
        [sys.executable, "-m", "repro._core.build", "--quiet"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    if built.returncode != 0:
        raise BenchError(
            "building the compiled extension failed:\n" + built.stdout + built.stderr
        )


def provenance(backend: str) -> dict:
    from repro import _core
    from repro._core import build

    compiler = build.find_compiler()
    version = None
    if compiler:
        probe = subprocess.run(
            [compiler, "--version"], capture_output=True, text=True, timeout=60
        )
        version = (probe.stdout.splitlines() or [compiler])[0]
    info = _core.backend_info()
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "compiler": version,
        "extension_version": info["compiled_version"],
        "backend": backend,
    }


def backend_state() -> dict:
    """What decides which code runs: backend, components, handler choices."""
    from repro import _core

    info = _core.backend_info()
    return {
        "name": info["name"],
        "compiled_version": info["compiled_version"],
        "components": info["components"],
        "handler_selections": info["handler_selections"],
    }


def measure_setup(name: str, seed: int) -> float:
    """Median time from starting a fresh interpreter to the first event.

    Raw host time: set-up is interpreter start and imports in another
    process, which the speed kernel sampled here does not track.
    """
    times = []
    for _ in range(SETUP_PROBES):
        started = time.monotonic()
        probe = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), name, str(seed), str(WORKDIR)],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=120,
        )
        if probe.returncode != 0:
            raise BenchError(f"set-up probe failed:\n{probe.stderr}")
        times.append(float(probe.stdout.split()[-1]) - started)
    return statistics.median(times)


def run_rounds(workload, meter, seconds: float, min_rounds: int = 1,
               min_units: int = 0, profiler=None) -> list:
    """Repeat the fixed work until another typical round would pass ``seconds``."""
    rounds = []
    started = time.perf_counter()
    while True:
        gc.collect()
        if profiler is not None:
            profiler.enable()
        try:
            rounds.append(workload.run_round(meter))
        finally:
            if profiler is not None:
                profiler.disable()
        units = sum(len(r.unit_s) for r in rounds)
        typical = statistics.median(r.wall_s for r in rounds)
        if (
            len(rounds) >= min_rounds
            and units >= min_units
            and time.perf_counter() - started + typical > seconds
        ):
            return rounds


def reference_digests(name: str, seed: int):
    from suite import DEFAULT_SEED

    if seed != DEFAULT_SEED or not RECORD.exists():
        return None
    return json.loads(RECORD.read_text()).get("digests", {}).get(name)


def check_rounds(workload, rounds, expected, backend: str, problems: list):
    """Count failed units; a unit fails on an error or a digest mismatch.

    ``expected`` are the reference digests (default seed); otherwise the
    first round is the reference every other round must agree with, and one
    unit is recomputed on the pure backend.
    """
    attempted = failed = 0
    reference = expected if expected is not None else rounds[0].digests
    for number, result in enumerate(rounds):
        if len(result.digests) != len(reference):
            problems.append(f"round {number} ran {len(result.digests)} units, expected {len(reference)}")
        for index, (got, failure) in enumerate(zip(result.digests, result.failures)):
            attempted += 1
            want = reference[index] if index < len(reference) else None
            if failure is not None:
                failed += 1
                problems.append(f"round {number} unit {index}: {failure}")
            elif got != want:
                failed += 1
                problems.append(f"round {number} unit {index}: digest {got} != {want}")
    if expected is None and backend != "pure":
        from repro import _core

        attempted += 1
        with _core.use_backend("pure"):
            pure = workload.cross_check(Speedometer())
        if pure != rounds[0].digests[0]:
            failed += 1
            problems.append(f"unit 0 on pure: digest {pure} != {rounds[0].digests[0]}")
    return attempted, failed


def check_backend_pin(name: str, seed: int, backend: str, state: dict, problems: list) -> None:
    """The backend and handler selections must not change between runs."""
    # Which message types a run meets, and so which handlers it compiles,
    # depends on the seed; one seed must always take the same paths.
    path = WORKDIR / f"backend-{name}-{seed}-{backend}.json"
    if path.exists():
        previous = json.loads(path.read_text())
        if previous != state:
            problems.append(f"backend or handler selections changed since the last run ({path})")
            return
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(state, indent=1, sort_keys=True))


def end_to_end(rounds, setup_s: float, peak_rss_mb: float, seconds) -> dict:
    """The end-to-end metrics; ``seconds(start, end)`` converts a span."""
    wall = statistics.median(sum(seconds(*span) for span in r.wall_spans) for r in rounds)
    latencies = [seconds(*span) for r in rounds for span in r.unit_spans]
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall, "s"),
        "sim_ops_per_s": (rounds[0].ops / wall, "1/s"),
        "unit_p50_ms": (statistics.median(latencies) * 1000.0, "ms"),
        "unit_p90_ms": (statistics.quantiles(latencies, n=10)[8] * 1000.0, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def declared_metrics(key: str):
    if not BENCHMARK.exists():
        return None
    return {metric["name"] for metric in json.loads(BENCHMARK.read_text())[key]}


def traced_run(workload, seconds: float, problems: list):
    """One untraced round, then profiled rounds: the per-layer metrics."""
    import cProfile

    from layers import Profile, layer_metrics
    from repro import _core

    # Traced times are raw; sampling only between rounds keeps the kernel
    # out of the profiled entry points (a service claim would include it).
    meter = Speedometer(interval=float("inf"))
    (untraced,) = run_rounds(workload, meter, 0)
    selections = _core.handler_selections()
    profiler = cProfile.Profile()
    traced = run_rounds(workload, meter, seconds - untraced.wall_s, profiler=profiler)
    if _core.handler_selections() != selections:
        problems.append("tracing changed the compiled handler selections")
    counts = workload.observe_round(untraced.counts)
    metrics = layer_metrics(
        Profile(profiler),
        counts,
        rounds=len(traced),
        units=len(untraced.unit_s),
        unit_s=sum(sum(r.unit_s) for r in traced),
        untraced_wall_s=untraced.wall_s,
        traced_wall_s=statistics.median(r.wall_s for r in traced),
    )
    return [untraced, *traced], metrics


def emit(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )


def benchmark(args) -> int:
    from layers import EXACT, unit_of
    from suite import WORKLOADS

    from repro import _core

    if _core.active_backend() != args.backend:
        raise BenchError(f"asked for {args.backend}, running {_core.active_backend()}")
    workload = WORKLOADS[args.workload](args.seed, WORKDIR)
    problems: list = []
    print(f"perfbench {args.workload} seed={args.seed} backend={args.backend}")
    print("provenance " + json.dumps(provenance(args.backend), sort_keys=True))
    try:
        workload.prepare()
        if args.trace:
            rounds, layer_values = traced_run(workload, args.seconds, problems)
            metrics = {name: (value, unit_of(name)) for name, value in layer_values.items()}
            declared = declared_metrics("per_layer")
        else:
            setup_s = measure_setup(args.workload, args.seed)
            meter = Speedometer()
            rounds = run_rounds(
                workload, meter, args.seconds, MIN_ROUNDS, workload.units_per_run
            )
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics = end_to_end(rounds, setup_s, peak_rss_mb, meter.normalise)
            raw = end_to_end(rounds, setup_s, peak_rss_mb, lambda start, end: end - start)
            declared = declared_metrics("end_to_end")
        state = backend_state()
        expected = reference_digests(args.workload, args.seed)
        attempted, failed = check_rounds(workload, rounds, expected, args.backend, problems)
    finally:
        workload.cleanup()
    check_backend_pin(args.workload, args.seed, args.backend, state, problems)
    if declared is not None and declared != set(metrics):
        problems.append(f"metrics {sorted(set(metrics) ^ declared)} disagree with BENCHMARK.json")

    print(f"rounds {len(rounds)}, units per round {len(rounds[0].unit_s)}, "
          f"reference {'record.json' if expected is not None else 'first round + pure unit 0'}")
    print("handler_selections " + json.dumps(state["handler_selections"], sort_keys=True))
    if not args.trace:
        print(f"host speed: kernel median {meter.median_kernel_s() * 1e3:.4f} ms over "
              f"{len(meter.samples)} samples, reference {REFERENCE_S * 1e3:g} ms")
    for name, (value, unit) in metrics.items():
        if args.trace:
            note = " (exact)" if name in EXACT else ""
        else:
            note = f"   raw {raw[name][0]:.6g}" if raw[name] != metrics[name] else ""
        print(f"  {name:36s} {value:14.6g} {unit}{note}")
    print(f"  {'failed_frac':36s} {failed / attempted:14.6g} fraction ({failed}/{attempted} units)")
    for problem in problems[:20]:
        print(f"CHECK FAILED: {problem}")
    correct = not problems
    emit(correct, attempted, failed, metrics)
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in turn, each in its own process (its own peak RSS)."""
    from suite import WORKLOADS

    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOADS:
        command = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--backend", args.backend,
        ]
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if done.returncode == 2 or not lines:
            raise BenchError(f"{name} could not run:\n{done.stderr}")
        result = json.loads(lines[-1])
        correct = correct and result["correct"] and done.returncode == 0
        attempted += result["attempted"]
        failed += result["failed"]
        for metric, value in result["metrics"].items():
            metrics[f"{name}.{metric}"] = (value["value"], value["unit"])
    emit(correct, attempted, failed, metrics)
    return 0 if correct else 1


def record(args) -> int:
    """Rewrite the reference digests of the default seed on pure."""
    from layers import EXACT
    from suite import DEFAULT_SEED, WORKLOADS

    previous = json.loads(RECORD.read_text()) if RECORD.exists() else {}
    digests = {}
    for name, cls in WORKLOADS.items():
        workload = cls(DEFAULT_SEED, WORKDIR)
        try:
            workload.prepare()
            (result,) = run_rounds(workload, Speedometer(), 0)
        finally:
            workload.cleanup()
        broken = [f for f in result.failures if f is not None]
        if broken:
            raise BenchError(f"{name}: reference round failed: {broken[:3]}")
        digests[name] = result.digests
        print(f"{name}: {len(result.digests)} unit digests")
    document = {
        "default_seed": DEFAULT_SEED,
        "reference_backend": "pure",
        "claim_rule": CLAIM_RULE,
        "workloads": {
            name: {"why": cls.why, "unit": cls.unit, "default_seed": DEFAULT_SEED}
            for name, cls in WORKLOADS.items()
        },
        "exact_counts": sorted(EXACT),
        "provenance": provenance("pure"),
        "trajectory": previous.get("trajectory", []),
        "digests": digests,
    }
    RECORD.write_text(json.dumps(document, indent=1) + "\n")
    return 0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", help="a workload, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--backend", choices=("compiled", "pure"), default="compiled")
    parser.add_argument("--record", action="store_true", help=record.__doc__)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").exists():
        print(f"perfbench: no simulator sources under {SRC}", file=sys.stderr)
        return 2
    backend = "pure" if args.record else args.backend
    pin_environment(backend)
    try:
        if backend == "compiled":
            ensure_extension()
        if args.record:
            return record(args)
        from suite import WORKLOADS

        if args.workload == "all":
            return run_all(args)
        if args.workload not in WORKLOADS:
            raise BenchError(f"unknown workload {args.workload!r} (have {sorted(WORKLOADS)})")
        return benchmark(args)
    except BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
