"""Event-core throughput and sweep wall-time tracker.

Measures the quantities the performance work of this repo is judged by:

* **events/sec** through the discrete-event core on the paper's 16-processor
  locking microbenchmark (one number per protocol, plus the aggregate),
* **end-to-end wall time** of a reduced Figure 1 sweep, serially and (when the
  parallel executor is available) across process-pool workers,
* **batched vs rebuild-per-point** sweep execution — the zero-rebuild engine's
  arena/reset reuse against building a fresh system for every point, and
* **workers=N scaling** of ``run_sweep`` (degrading to a documented note on
  single-core containers, where scaling is not measurable).

Run it directly to refresh ``BENCH_core.json`` in the repo root::

    PYTHONPATH=src python benchmarks/bench_event_throughput.py

The JSON keeps a ``baseline`` section (captured on the pre-refactor seed core)
alongside ``current`` so the speedup trajectory is tracked PR over PR.  Pass
``--set-baseline`` to overwrite the baseline with a fresh measurement,
``--profile`` for a cProfile report of the hot loop, and ``--smoke`` /
``--smoke-sweep`` for the seconds-scale CI checks.

Wall times are recorded as the best of ``repeats`` runs (like the throughput
rows): single-shot sweep timings on shared CI/container hardware swing by
+/-10 %, and the minimum is the standard estimator for "how fast does this
code run".
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import sys
import time
from pathlib import Path
from typing import Callable, Dict, Optional

from repro import _core
from repro.common.config import ProtocolName
from repro.experiments.runner import QUICK, microbenchmark_config
from repro.system.multiprocessor import MultiprocessorSystem
from repro.workloads.microbenchmark import LockingMicrobenchmark

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULT_PATH = REPO_ROOT / "BENCH_core.json"

#: Reduced Figure 1 sweep used for the wall-time measurement (3 protocols x
#: 3 bandwidth points, single seed) so the benchmark finishes in seconds.
SWEEP_BANDWIDTHS = (400.0, 1600.0, 6400.0)

PROTOCOL_LIST = (ProtocolName.SNOOPING, ProtocolName.DIRECTORY, ProtocolName.BASH)


def _build_system(protocol: ProtocolName, num_processors: int) -> MultiprocessorSystem:
    config = microbenchmark_config(
        QUICK, protocol, bandwidth=1600.0, num_processors=num_processors, seed=1
    )
    workload = LockingMicrobenchmark(
        num_locks=QUICK.num_locks,
        acquires_per_processor=QUICK.acquires_per_processor,
        think_cycles=0,
        think_jitter=16,
    )
    return MultiprocessorSystem(config, workload)


def _metadata() -> Dict:
    """Measurement provenance: interpreter, platform, CPUs, event-core backend.

    Recorded with every benchmark section so numbers from different machines
    or backends are never silently compared (ROADMAP open item: the seed
    records carried only the Python version).
    """
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count() or 1,
        "backend": _core.active_backend(),
    }


@contextlib.contextmanager
def _backend(name: str):
    """Pin the event-core backend in process *and* in the environment.

    ``use_backend`` covers schedulers built in this process; mirroring the
    choice into ``$REPRO_BACKEND`` makes process-pool sweep workers (which
    re-resolve the backend on import) measure the same thing.
    """
    previous = os.environ.get(_core.ENV_VAR)
    os.environ[_core.ENV_VAR] = name
    try:
        with _core.use_backend(name):
            yield
    finally:
        if previous is None:
            os.environ.pop(_core.ENV_VAR, None)
        else:
            os.environ[_core.ENV_VAR] = previous


def measure_event_throughput(num_processors: int = 16, repeats: int = 3) -> Dict:
    """Events/sec on the locking microbenchmark, best of ``repeats`` runs."""
    per_protocol: Dict[str, Dict[str, float]] = {}
    total_fired = 0
    total_wall = 0.0
    for protocol in PROTOCOL_LIST:
        best: Optional[Dict[str, float]] = None
        for _ in range(repeats):
            system = _build_system(protocol, num_processors)
            start = time.perf_counter()
            system.run()
            wall = time.perf_counter() - start
            fired = system.simulator.scheduler.fired
            rate = fired / wall if wall > 0 else 0.0
            if best is None or rate > best["events_per_sec"]:
                best = {
                    "fired_events": fired,
                    "wall_seconds": round(wall, 4),
                    "events_per_sec": round(rate, 1),
                }
        assert best is not None
        per_protocol[str(protocol)] = best
        total_fired += int(best["fired_events"])
        total_wall += float(best["wall_seconds"])
    return {
        "num_processors": num_processors,
        "per_protocol": per_protocol,
        "aggregate_events_per_sec": round(total_fired / total_wall, 1)
        if total_wall
        else 0.0,
    }


BACKEND_PAIR = (_core.PURE, _core.COMPILED)


def measure_event_throughput_ab(num_processors: int = 16, repeats: int = 3) -> Dict:
    """Interleaved pure-vs-compiled end-to-end A/B on the locking benchmark.

    Each repeat runs both backends back to back (A/B/A/B...) so a load spike
    is never attributed to one arm; the best rate per arm is kept, exactly
    like :func:`measure_event_throughput`.
    """
    per_protocol: Dict[str, Dict] = {}
    totals = {name: [0, 0.0] for name in BACKEND_PAIR}  # fired, wall
    for protocol in PROTOCOL_LIST:
        best: Dict[str, Optional[Dict]] = {name: None for name in BACKEND_PAIR}
        for _ in range(repeats):
            for name in BACKEND_PAIR:
                with _backend(name):
                    system = _build_system(protocol, num_processors)
                    start = time.perf_counter()
                    system.run()
                    wall = time.perf_counter() - start
                fired = system.simulator.scheduler.fired
                rate = fired / wall if wall > 0 else 0.0
                if best[name] is None or rate > best[name]["events_per_sec"]:
                    best[name] = {
                        "fired_events": fired,
                        "wall_seconds": round(wall, 4),
                        "events_per_sec": round(rate, 1),
                    }
        row: Dict = {}
        for name in BACKEND_PAIR:
            arm = best[name]
            assert arm is not None
            row[f"{name}_events_per_sec"] = arm["events_per_sec"]
            totals[name][0] += int(arm["fired_events"])
            totals[name][1] += float(arm["wall_seconds"])
        row["fired_events"] = best[_core.PURE]["fired_events"]
        row["speedup"] = round(
            row["compiled_events_per_sec"] / row["pure_events_per_sec"], 2
        )
        per_protocol[str(protocol)] = row
    aggregate = {
        f"{name}_events_per_sec": round(totals[name][0] / totals[name][1], 1)
        for name in BACKEND_PAIR
        if totals[name][1]
    }
    aggregate["speedup_vs_pure"] = round(
        aggregate["compiled_events_per_sec"] / aggregate["pure_events_per_sec"], 2
    )
    return {
        "num_processors": num_processors,
        "per_protocol": per_protocol,
        "aggregate": aggregate,
    }


def _chain_rate(events: int, width: int) -> float:
    """Events/sec of ``width`` self-rescheduling callbacks under the active
    backend — the scheduler loop with a trivial Python handler."""
    from repro.sim import active_scheduler_class

    scheduler = active_scheduler_class()()

    def hop(_arg) -> None:
        scheduler.schedule_after_fast1(1, hop, None, "hop")

    for _ in range(width):
        scheduler.schedule_after_fast1(1, hop, None, "hop")
    start = time.perf_counter()
    fired = scheduler.run(max_events=events)
    wall = time.perf_counter() - start
    if fired != events:
        raise SystemExit(f"event-core chain fired {fired} of {events} events")
    return fired / wall if wall > 0 else 0.0


def _relay_rate(events: int) -> float:
    """Events/sec of a self-referencing relay ring under the active backend.

    Compiled: an ``ext.Relay`` whose callback is itself, so the run loop and
    the handler are both C and no Python frame enters the hot loop.  Pure:
    the equivalent Python closure.  This is the upper bound of the event core
    with the handler cost removed entirely.
    """
    from repro.sim import active_scheduler_class

    scheduler = active_scheduler_class()()
    ext = _core.accelerator_for(scheduler)
    if ext is not None:
        relay = ext.Relay(scheduler, 1, None, "relay")
        relay.callback = relay
    else:
        schedule = scheduler.schedule_after_fast1

        def relay(message) -> None:
            schedule(1, relay, message, "relay")

    scheduler.schedule_at_fast1(0, relay, None, "seed")
    start = time.perf_counter()
    fired = scheduler.run(max_events=events)
    wall = time.perf_counter() - start
    if fired != events:
        raise SystemExit(f"event-core relay ring fired {fired} of {events} events")
    return fired / wall if wall > 0 else 0.0


def measure_event_core_ab(events: int = 400_000, repeats: int = 3) -> Dict:
    """Engine-isolated pure-vs-compiled A/B: the scheduler without protocols.

    End-to-end runs are bounded by the Python protocol handlers (see the
    ``note`` written next to the results), so this section isolates what the
    compiled core itself delivers on three traffic shapes: a single
    self-scheduling chain (strictly serial buckets), a 16-wide burst (the
    bucket width of a 16-processor system), and the all-C relay ring.
    """
    shapes: Dict[str, Callable[[], float]] = {
        "chain": lambda: _chain_rate(events, width=1),
        "burst16": lambda: _chain_rate(events, width=16),
        "relay_ring": lambda: _relay_rate(events),
    }
    section: Dict[str, Dict] = {"events_per_run": events}
    for shape, fn in shapes.items():
        best = {name: 0.0 for name in BACKEND_PAIR}
        for _ in range(repeats):
            for name in BACKEND_PAIR:
                with _backend(name):
                    best[name] = max(best[name], fn())
        section[shape] = {
            f"{name}_events_per_sec": round(best[name], 1) for name in BACKEND_PAIR
        }
        if best[_core.PURE]:
            section[shape]["speedup"] = round(
                best[_core.COMPILED] / best[_core.PURE], 2
            )
    return section


#: Source-path markers delimiting the protocol-handler side of a run — the
#: coherence logic plus the sequencer/MSHR layer driving it — as opposed to
#: the event engine, the interconnect closures, and the workload generator.
#: This is the "~85% of a profiled run inside the Python protocol handlers"
#: claim from the PR 6 ROADMAP note, as a tracked number.
HANDLER_LAYER_MARKERS = (
    "/repro/protocols/",
    "/repro/coherence/",
    "/repro/system/",
)


def _handler_time(profiler) -> Dict[str, float]:
    """Handler-layer tottime, total tottime, and their ratio, from a profile.

    Builtins and the C engine's run loop land in the total (their tottime is
    attributed to the calling frame or the extension method), so ``fraction``
    is the Python-handler share of the whole run — comparable across
    backends even though the compiled run's total is much smaller.
    """
    import pstats

    total = 0.0
    handler = 0.0
    for (filename, _line, _name), row in pstats.Stats(profiler).stats.items():
        tottime = row[2]
        total += tottime
        normalized = filename.replace("\\", "/")
        if any(marker in normalized for marker in HANDLER_LAYER_MARKERS):
            handler += tottime
    return {
        "seconds": round(handler, 4),
        "total_seconds": round(total, 4),
        "fraction": round(handler / total, 3) if total else 0.0,
    }


def measure_handler_time_fraction() -> Dict:
    """Per-protocol, per-backend share of run time inside the handler layer.

    One profiled run per (protocol, backend): cProfile tottime attributed
    to frames under :data:`HANDLER_LAYER_MARKERS`, as absolute seconds and
    as a share of the whole profiled run.  Under the compiled backend the
    C delivery objects execute without Python frames, so the drop in
    ``seconds`` from pure to compiled is exactly the handler work the
    extension absorbed (what remains is the request-issue side).
    """
    import cProfile

    section: Dict[str, Dict] = {}
    for name in BACKEND_PAIR:
        with _backend(name):
            per: Dict[str, Dict[str, float]] = {}
            for protocol in PROTOCOL_LIST:
                system = _build_system(protocol, 16)
                profiler = cProfile.Profile()
                profiler.enable()
                system.run()
                profiler.disable()
                per[str(protocol)] = _handler_time(profiler)
            section[name] = per
    return section


#: The request-issue chain the compiled ``SequencerStep`` absorbs: every frame
#: of the sequencer itself, plus (by function name, anywhere in the repro
#: tree) the issue/send helpers it drives — request issue, message build,
#: arena allocation and network injection.  The name-matched ``send`` /
#: ``message`` frames also carry protocol-reply traffic, so the pure-backend
#: number slightly overstates the slice; under the compiled backend those
#: shared frames already run in C, which is the point of tracking the drop.
ISSUE_CHAIN_FILE_MARKERS = ("/repro/system/sequencer.py",)
ISSUE_CHAIN_FUNCTIONS = frozenset(
    {
        "issue_request",
        "issue_writeback",
        "_send_request",
        "_send_writeback",
        "_build_request_message",
        "_request_recipients",
        "_writeback_recipients",
        "send",
        "message",
        "transaction",
        "next_operation",
    }
)


def _issue_time(profiler) -> Dict[str, float]:
    """Issue-chain tottime, total tottime, and their ratio, from a profile.

    Same accounting as :func:`_handler_time`, over the request-issue frames:
    everything in the sequencer module, plus the issue/send helpers matched
    by name within the repro tree.
    """
    import pstats

    total = 0.0
    issue = 0.0
    for (filename, _line, name), row in pstats.Stats(profiler).stats.items():
        tottime = row[2]
        total += tottime
        normalized = filename.replace("\\", "/")
        if "/repro/" not in normalized:
            continue
        if any(marker in normalized for marker in ISSUE_CHAIN_FILE_MARKERS):
            issue += tottime
        elif name in ISSUE_CHAIN_FUNCTIONS:
            issue += tottime
    return {
        "seconds": round(issue, 4),
        "total_seconds": round(total, 4),
        "fraction": round(issue / total, 3) if total else 0.0,
    }


def measure_issue_time_fraction() -> Dict:
    """Per-protocol, per-backend share of run time in the request-issue chain.

    Mirrors :func:`measure_handler_time_fraction` for the other half of the
    per-reference path: the sequencer step, request issue, message build and
    network injection.  Under the compiled backend the ``SequencerStep``
    object runs this chain without Python frames, so the drop in ``seconds``
    from pure to compiled is the issue work the extension absorbed.
    """
    import cProfile

    section: Dict[str, Dict] = {}
    for name in BACKEND_PAIR:
        with _backend(name):
            per: Dict[str, Dict[str, float]] = {}
            for protocol in PROTOCOL_LIST:
                system = _build_system(protocol, 16)
                profiler = cProfile.Profile()
                profiler.enable()
                system.run()
                profiler.disable()
                per[str(protocol)] = _issue_time(profiler)
            section[name] = per
    return section


def measure_compiled_section(repeats: int = 3) -> Dict:
    """The full ``compiled`` record for BENCH_core.json (requires the ext)."""
    with _backend(_core.COMPILED):
        info = _core.backend_info()
    return {
        **{**_metadata(), "backend": "both (interleaved A/B)"},
        "compiled_version": info["compiled_version"],
        "event_throughput": measure_event_throughput_ab(repeats=repeats),
        "event_core": measure_event_core_ab(repeats=repeats),
        "handler_time_fraction": measure_handler_time_fraction(),
        "issue_time_fraction": measure_issue_time_fraction(),
        "note": (
            "end-to-end throughput is bounded by the Python around the "
            "protocol handlers (sequencer, workload, message construction); "
            "handler_time_fraction shows the handler-layer share per backend "
            "-- the compiled delivery objects absorb most of it -- "
            "issue_time_fraction shows the request-issue share the compiled "
            "SequencerStep absorbs, and event_core isolates the engine "
            "itself, where the compiled backend is the one doing 5M+ "
            "events/sec on bucket-parallel traffic"
        ),
    }


def _sweep_specs():
    from repro.experiments.parallel import PointSpec
    from repro.experiments.runner import PROTOCOLS, microbenchmark_factory

    workload = microbenchmark_factory(QUICK)
    return [
        PointSpec(scale=QUICK, protocol=protocol, bandwidth=bandwidth, workload=workload)
        for protocol in PROTOCOLS
        for bandwidth in SWEEP_BANDWIDTHS
    ]


def _best_wall(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return round(best, 3)


def _ab_sweep(specs, repeats: int) -> Dict:
    """Interleaved batched-vs-rebuild A/B over one spec list, best-of-repeats.

    The batched arm is ``run_sweep``; the rebuild arm is ``PointSpec.run``
    per point.  ``cache_dir=False`` disables the on-disk cache *including*
    the $REPRO_SWEEP_CACHE default — a timed arm that loads cached points
    would measure JSON reads.  The interleaving (A/B/A/B...) keeps a load spike from being
    attributed to one arm.
    """
    from repro.experiments.parallel import run_sweep

    run_sweep(specs, workers=1, cache_dir=False)  # warm-up
    batched = rebuild = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        run_sweep(specs, workers=1, cache_dir=False)
        batched = min(batched, time.perf_counter() - start)
        start = time.perf_counter()
        for spec in specs:
            spec.run()
        rebuild = min(rebuild, time.perf_counter() - start)
    batched = round(batched, 3)
    rebuild = round(rebuild, 3)
    return {
        "batched_serial_seconds": batched,
        "rebuild_per_point_seconds": rebuild,
        "batched_speedup": round(rebuild / batched, 2) if batched else 0.0,
    }


def measure_sweep_wall(repeats: int = 3) -> Dict:
    """Wall time of the reduced Figure 1 sweep, serial and parallel."""
    from repro.experiments.figures import figure1_microbenchmark_performance

    # cache_dir=False: a $REPRO_SWEEP_CACHE in the environment would turn
    # the timed sweeps into JSON cache reads.
    figure1_microbenchmark_performance(
        QUICK, bandwidths=SWEEP_BANDWIDTHS, cache_dir=False
    )  # warm-up
    timings: Dict[str, float] = {
        "serial_seconds": _best_wall(
            lambda: figure1_microbenchmark_performance(
                QUICK, bandwidths=SWEEP_BANDWIDTHS, cache_dir=False
            ),
            repeats,
        )
    }
    try:
        from repro.experiments.parallel import available_workers
    except ImportError:
        return timings
    workers = min(4, available_workers())
    if workers > 1:
        timings[f"parallel_{workers}w_seconds"] = _best_wall(
            lambda: figure1_microbenchmark_performance(
                QUICK, bandwidths=SWEEP_BANDWIDTHS, workers=workers, cache_dir=False
            ),
            repeats,
        )
    return timings


def measure_sweep_batched(repeats: int = 3) -> Dict:
    """Batched (arena/reset reuse) vs rebuild-per-point sweep execution.

    Both paths run the same reduced Figure 1 spec list serially in this
    process and produce identical results (pinned by the reset-equivalence
    tests); the ratio isolates what the zero-rebuild engine buys at QUICK
    scale on this machine, independent of cross-session noise.
    """
    specs = _sweep_specs()
    return {
        "points": len(specs),
        **_ab_sweep(specs, repeats),
        "construction_bound": _measure_construction_bound(repeats),
    }


def _measure_construction_bound(repeats: int) -> Dict:
    """The same A/B on a construction-heavy shape: 64-node systems, short runs.

    QUICK's 16-processor points spend ~1 % of their wall time in system
    construction (PR 1/2 made building cheap), so reuse barely moves that
    ratio; at the paper's larger machine sizes with per-seed rebuilds the
    constructed system is a real fraction of every point, which is the regime
    the zero-rebuild engine exists for.
    """
    import dataclasses

    from repro.experiments.parallel import PointSpec
    from repro.experiments.runner import PROTOCOLS, microbenchmark_factory

    wide = dataclasses.replace(
        QUICK,
        name="wide",
        microbenchmark_processors=64,
        acquires_per_processor=6,
        num_locks=256,
        seeds=(1, 2, 3),
    )
    workload = microbenchmark_factory(wide)
    specs = [
        PointSpec(scale=wide, protocol=protocol, bandwidth=bandwidth, workload=workload)
        for protocol in PROTOCOLS
        for bandwidth in (800.0, 1600.0, 3200.0)
    ]
    return {
        "shape": "64 processors x 9 points x 3 seeds, short runs",
        **_ab_sweep(specs, repeats),
    }


def measure_workers_scaling(repeats: int = 2) -> Dict:
    """``run_sweep`` wall time vs worker count (ROADMAP open item).

    On a single-core container process-pool scaling cannot be measured —
    workers only add IPC overhead — so the section degrades to a documented
    note instead of recording meaningless numbers.
    """
    cpus = os.cpu_count() or 1
    if cpus <= 1:
        return {
            "cpu_count": cpus,
            "note": "single-core container, scaling not measurable",
        }
    from repro.experiments.parallel import run_sweep

    specs = _sweep_specs()
    run_sweep(specs, workers=1, cache_dir=False)  # warm-up
    result: Dict = {"cpu_count": cpus, "points": len(specs), "wall_seconds": {}}
    serial = None
    for workers in sorted({1, 2, min(4, cpus), cpus} - {0}):
        if workers > cpus:
            continue
        wall = _best_wall(
            lambda: run_sweep(specs, workers=workers, cache_dir=False), repeats
        )
        result["wall_seconds"][f"workers_{workers}"] = wall
        if workers == 1:
            serial = wall
        elif serial:
            result.setdefault("speedup_vs_serial", {})[f"workers_{workers}"] = round(
                serial / wall, 2
            )
    return result


def profile_hot_loop(top: int = 25, output: Optional[Path] = None) -> None:
    """Dump a cProfile report of warm reset-reused runs, one per protocol."""
    import cProfile
    import pstats

    from repro.experiments.runner import microbenchmark_factory
    from repro.sim.arena import SimulationArena

    factory = microbenchmark_factory(QUICK)
    profiler = cProfile.Profile()
    for protocol in PROTOCOL_LIST:
        config = microbenchmark_config(
            QUICK, protocol, bandwidth=1600.0, num_processors=16, seed=1
        )
        system = MultiprocessorSystem(config, factory(1), arena=SimulationArena())
        system.run()  # warm: compiled closures, memos, pools
        system.reset(factory(1), config)
        profiler.enable()
        system.run()
        profiler.disable()
    if output is not None:
        profiler.dump_stats(output)
        print(f"profile data written to {output}")
    stats = pstats.Stats(profiler)
    stats.sort_stats("tottime").print_stats(top)


def measure_scenario_engine(repeats: int = 3) -> Dict:
    """Overhead of the declarative scenario engine over the direct sweep path.

    Runs the reduced Figure 1 sweep twice per repeat, interleaved: once
    through ``protocol_sweep`` (the direct path the figure drivers used
    before the scenario engine) and once through ``run_scenario("figure1")``
    (grid expansion + ResultFrame collection + presentation).  Both execute
    the identical ``PointSpec`` list through the identical batched executor,
    so the ratio isolates what the engine's bookkeeping costs — expected to
    be noise at QUICK scale.  Equality of the two outputs is asserted before
    timing anything.
    """
    from repro.experiments.runner import microbenchmark_factory, protocol_sweep
    from repro.experiments.scenario import run_scenario

    def direct():
        return protocol_sweep(
            QUICK, SWEEP_BANDWIDTHS, microbenchmark_factory(QUICK), cache_dir=False
        )

    def engine():
        return run_scenario(
            "figure1",
            scale=QUICK,
            axes={"bandwidth": SWEEP_BANDWIDTHS},
            cache_dir=False,
        ).data

    if engine() != direct():  # warm-up doubling as an equivalence check
        raise SystemExit("scenario engine and direct sweep produced different data")
    direct_wall = engine_wall = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        direct()
        direct_wall = min(direct_wall, time.perf_counter() - start)
        start = time.perf_counter()
        engine()
        engine_wall = min(engine_wall, time.perf_counter() - start)
    direct_wall = round(direct_wall, 3)
    engine_wall = round(engine_wall, 3)
    return {
        "points": len(SWEEP_BANDWIDTHS) * len(PROTOCOL_LIST),
        "direct_protocol_sweep_seconds": direct_wall,
        "scenario_engine_seconds": engine_wall,
        "engine_overhead_ratio": (
            round(engine_wall / direct_wall, 3) if direct_wall else 0.0
        ),
        "outputs_identical": True,
    }


def run_smoke_sweep() -> Dict:
    """Seconds-scale CI check of the batched sweep engine.

    Runs a tiny sweep through the batched executor and the rebuild-per-point
    path and fails loudly if either produces no data or they disagree — the
    reset-equivalence contract, exercised end to end in CI.
    """
    import dataclasses

    from repro.experiments.parallel import PointSpec, run_sweep
    from repro.experiments.runner import PROTOCOLS, microbenchmark_factory

    tiny = dataclasses.replace(
        QUICK,
        name="smoke",
        microbenchmark_processors=4,
        acquires_per_processor=8,
        num_locks=16,
        seeds=(1,),
    )
    workload = microbenchmark_factory(tiny)
    specs = [
        PointSpec(scale=tiny, protocol=protocol, bandwidth=bandwidth, workload=workload)
        for protocol in PROTOCOLS
        for bandwidth in (800.0, 3200.0)
    ]
    start = time.perf_counter()
    batched = run_sweep(specs, workers=1, cache_dir=False)
    batched_wall = round(time.perf_counter() - start, 3)
    rebuilt = [spec.run() for spec in specs]
    for index, (a, b) in enumerate(zip(batched, rebuilt)):
        if a.results != b.results:
            raise SystemExit(f"smoke sweep: batched point {index} diverged")
        if not a.results or a.results[0].operations <= 0:
            raise SystemExit(f"smoke sweep: point {index} produced no work")
    return {
        "points": len(specs),
        "batched_wall_seconds": batched_wall,
        "batched_equals_rebuild": True,
    }


def run_benchmark() -> Dict:
    return {
        **_metadata(),
        "event_throughput": measure_event_throughput(),
        "sweep_wall_time": measure_sweep_wall(),
        "sweep_batched": measure_sweep_batched(),
        "workers_scaling": measure_workers_scaling(),
        "scenario_engine": measure_scenario_engine(),
    }


def run_smoke(num_processors: int = 8) -> Dict:
    """A seconds-scale measurement for CI: one repeat, no sweep, no file write.

    Exists so pull requests exercise the full event core end to end and
    surface order-of-magnitude perf regressions without the noise-sensitive
    full benchmark.
    """
    throughput = measure_event_throughput(num_processors=num_processors, repeats=1)
    for name, result in throughput["per_protocol"].items():
        if result["fired_events"] <= 0 or result["events_per_sec"] <= 0:
            raise SystemExit(f"smoke benchmark fired no events for {name}")
    return {**_metadata(), "event_throughput": throughput}


def run_smoke_ab(num_processors: int = 8) -> Dict:
    """Seconds-scale CI check of the compiled backend against pure.

    Runs each protocol once per backend with the fired-event trace recorded
    and fails loudly if the compiled backend's ``(time, label)`` sequence
    diverges from pure by a single event — the golden-trace contract,
    enforced between the two live backends rather than against the frozen
    file, so it also catches in-sync-but-wrong regressions in both.
    """
    per_protocol: Dict[str, Dict] = {}
    for protocol in PROTOCOL_LIST:
        traces: Dict[str, list] = {}
        rates: Dict[str, float] = {}
        for name in BACKEND_PAIR:
            with _backend(name):
                system = _build_system(protocol, num_processors)
            trace: list = []
            system.simulator.scheduler.on_fire = (
                lambda time, label, _trace=trace: _trace.append((time, label))
            )
            start = time.perf_counter()
            system.run()
            wall = time.perf_counter() - start
            traces[name] = trace
            rates[name] = round(len(trace) / wall, 1) if wall > 0 else 0.0
        if traces[_core.PURE] != traces[_core.COMPILED]:
            pairs = zip(traces[_core.PURE], traces[_core.COMPILED])
            index = next(
                (i for i, (a, b) in enumerate(pairs) if a != b),
                min(len(traces[_core.PURE]), len(traces[_core.COMPILED])),
            )
            raise SystemExit(
                f"compiled trace diverged from pure for {protocol} at event "
                f"#{index} ({len(traces[_core.PURE])} pure vs "
                f"{len(traces[_core.COMPILED])} compiled events)"
            )
        per_protocol[str(protocol)] = {
            "fired_events": len(traces[_core.PURE]),
            **{f"{name}_events_per_sec": rates[name] for name in BACKEND_PAIR},
        }
    return {
        "num_processors": num_processors,
        "traces_identical": True,
        "per_protocol": per_protocol,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--set-baseline",
        action="store_true",
        help="record this measurement as the baseline instead of 'current'",
    )
    parser.add_argument(
        "--backend",
        choices=("pure", "compiled", "both"),
        default=None,
        help="event-core backend to measure; 'both' interleaves a pure-vs-"
        "compiled A/B and records it as the 'compiled' section (default: "
        "'both' when the extension is built, else 'pure')",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="quick CI mode: reduced measurement, prints JSON, writes nothing",
    )
    parser.add_argument(
        "--smoke-sweep",
        action="store_true",
        help="quick CI mode: tiny batched sweep, checks batched == rebuild",
    )
    parser.add_argument(
        "--scenario",
        action="store_true",
        help="measure only the scenario-engine overhead section and merge it "
        "into the result JSON's 'current' record",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="print a cProfile report of the hot loop instead of benchmarking",
    )
    parser.add_argument(
        "--profile-output",
        type=Path,
        default=None,
        help="with --profile: also dump raw pstats data to this path",
    )
    parser.add_argument(
        "--output", type=Path, default=RESULT_PATH, help="result JSON path"
    )
    args = parser.parse_args(argv)

    backend = args.backend
    if backend is None:
        backend = "both" if _core.compiled_available() else "pure"
    elif backend in ("compiled", "both") and not _core.compiled_available():
        raise SystemExit(
            f"--backend {backend} requires the compiled extension; build it "
            "with: python -m repro._core.build"
        )
    # Single-backend modes pin every measurement (including subprocess sweep
    # workers) to the requested core; 'both' runs the standard sections under
    # pure -- keeping 'current' comparable with the recorded baselines -- and
    # adds the interleaved A/B as its own section.
    single = {"pure": _core.PURE, "compiled": _core.COMPILED}.get(backend)

    if args.profile:
        with contextlib.ExitStack() as stack:
            if single is not None:
                stack.enter_context(_backend(single))
            profile_hot_loop(output=args.profile_output)
        if backend == "both":
            # Refresh the per-protocol handler-layer and issue-chain shares
            # alongside the printed report, so a profiling session also
            # updates the numbers the A/B section is interpreted against.
            handler_section = measure_handler_time_fraction()
            issue_section = measure_issue_time_fraction()
            record = (
                json.loads(args.output.read_text()) if args.output.exists() else {}
            )
            compiled = record.setdefault("compiled", {})
            compiled["handler_time_fraction"] = handler_section
            compiled["issue_time_fraction"] = issue_section
            args.output.write_text(json.dumps(record, indent=2) + "\n")
            print(
                json.dumps(
                    {
                        "handler_time_fraction": handler_section,
                        "issue_time_fraction": issue_section,
                    },
                    indent=2,
                )
            )
        return 0

    if args.smoke or args.smoke_sweep:
        report: Dict = {}
        with contextlib.ExitStack() as stack:
            if single is not None:
                stack.enter_context(_backend(single))
            if args.smoke:
                if backend == "both":
                    report.update(_metadata())
                    report["backend"] = "both (interleaved A/B)"
                    report["event_throughput_ab"] = run_smoke_ab()
                else:
                    report.update(run_smoke())
            if args.smoke_sweep:
                report["sweep_smoke"] = run_smoke_sweep()
        print(json.dumps(report, indent=2))
        return 0

    if args.scenario:
        record = json.loads(args.output.read_text()) if args.output.exists() else {}
        section = measure_scenario_engine()
        record.setdefault("current", {})["scenario_engine"] = section
        args.output.write_text(json.dumps(record, indent=2) + "\n")
        print(json.dumps(section, indent=2))
        return 0

    record: Dict = {}
    if args.output.exists():
        record = json.loads(args.output.read_text())
    with contextlib.ExitStack() as stack:
        # 'both' measures the standard sections under pure (see above).
        stack.enter_context(_backend(single if single is not None else _core.PURE))
        measurement = run_benchmark()
    if args.set_baseline or "baseline" not in record:
        record["baseline"] = measurement
    if not args.set_baseline:
        record["current"] = measurement
        base = record["baseline"]["event_throughput"]["aggregate_events_per_sec"]
        cur = measurement["event_throughput"]["aggregate_events_per_sec"]
        if base:
            record["speedup_vs_baseline"] = round(cur / base, 2)
    if backend == "both":
        record["compiled"] = measure_compiled_section()
    args.output.write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(record, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
