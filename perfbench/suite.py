"""The four benchmark workloads: inputs from a seed, one round of fixed work.

Every workload generates its load in this process, with no process pool, and
drives the simulator through the same public entry points a user's command
reaches:

* ``locking_sweep``   -- the Figure 1 sweep on the batched sweep engine;
* ``verify_campaign`` -- the quick differential campaign's task mix, serially;
* ``stream_soak``     -- Zipf service traces streamed from JSONL, 3 protocols;
* ``service_sweep``   -- short sweep points through the durable job service.

A *round* is the workload's fixed work, run once.  It returns the host
latency of every unit, a digest of every unit's simulated outputs and the
simulated counts the per-layer report needs.  Rounds of one seed repeat the
same simulations, so their digests must agree.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
import shutil
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from speed import Speedometer

#: Seed whose unit digests are pinned in ``record.json`` (made on pure).
DEFAULT_SEED = 1


def digest(payload) -> str:
    """Short, stable hash of a JSON-able payload (floats keep every digit)."""
    blob = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _jsonable(obj):
    """Dataclass results (RunResult, SweepPoint) as plain JSON data."""
    return dataclasses.asdict(obj) if dataclasses.is_dataclass(obj) else obj


def pooled_systems(runner) -> Dict:
    """The systems a BatchRunner holds, by batch key.

    BatchRunner has no public accessor for them; the benchmark only reads
    counters from them after a unit has finished.
    """
    return runner._systems


@dataclasses.dataclass
class Counts:
    """Simulated counts of one round, read from the program's statistics."""

    events: int = 0
    ops: int = 0
    cycles: int = 0
    messages: int = 0
    broadcasts: int = 0
    multicasts: int = 0
    misses: int = 0
    hits: int = 0
    writebacks: int = 0
    miss_latency_total: float = 0.0
    link_utilization_total: float = 0.0
    systems_observed: int = 0
    segments_retained: int = 0
    sample_ticks: int = 0
    bash_broadcasts: int = 0
    bash_multicasts: int = 0
    bash_retries: int = 0
    bash_nacks: int = 0
    max_resident_ops: int = 0
    replays: int = 0
    ops_checked: int = 0
    service_retries: int = 0
    service_redispatched: int = 0

    def observe(self, system) -> int:
        """Add one finished system's statistics; returns its fired events."""
        stats = system.stats
        counters = stats.counters()
        means = stats.means()
        fired = system.simulator.scheduler.fired
        self.events += fired
        self.cycles += system.simulator.now
        self.systems_observed += 1
        self.messages += counters.get("network.ordered.messages", 0)
        self.messages += counters.get("network.unordered.messages", 0)
        broadcasts = counters.get("network.ordered.broadcasts", 0)
        multicasts = counters.get("network.ordered.multicasts", 0)
        self.broadcasts += broadcasts
        self.multicasts += multicasts
        misses = hits = writebacks = 0
        for name, value in counters.items():
            if name.startswith("sequencer"):
                if name.endswith(".misses"):
                    misses += value
                elif name.endswith(".hits"):
                    hits += value
            elif name.startswith("cache") and name.endswith(".writebacks"):
                writebacks += value
        self.misses += misses
        self.hits += hits
        self.writebacks += writebacks
        self.miss_latency_total += means.get("system.miss_latency", 0.0) * misses
        self.link_utilization_total += system.mean_endpoint_utilization()
        segments = 0
        for pair in system.interconnect.links.values():
            # EndpointLink keeps its merged busy segments in private lists.
            segments += len(pair.incoming._segment_starts)
            segments += len(pair.outgoing._segment_starts)
        self.segments_retained = max(self.segments_retained, segments)
        if str(system.config.protocol) == "bash":
            self.bash_broadcasts += broadcasts
            self.bash_multicasts += multicasts
            self.bash_retries += counters.get("system.retries", 0)
            self.bash_nacks += counters.get("system.nacks", 0)
            # One record per node per sampling tick, made by the program
            # itself (not a Python call count, so it survives a C tick).
            if "system.link_utilization" in means:
                self.sample_ticks += stats.running_mean(
                    "system.link_utilization"
                ).count
        return fired


@dataclasses.dataclass
class Round:
    """What one round of fixed work produced.

    Times are ``(start, end)`` spans of ``time.perf_counter()``, so they can
    be normalised to a reference host speed afterwards (see ``speed.py``).
    ``wall_spans`` add up to the round's fixed work without the benchmark's
    own sampling between units.
    """

    unit_spans: List[Tuple[float, float]]
    wall_spans: List[Tuple[float, float]]
    digests: List[str]
    failures: List[Optional[str]]
    ops: int
    counts: Counts

    @property
    def unit_s(self) -> List[float]:
        return [end - start for start, end in self.unit_spans]

    @property
    def wall_s(self) -> float:
        return sum(end - start for start, end in self.wall_spans)


class Workload:
    """One benchmark workload; subclasses fill in the fixed work."""

    name = ""
    why = ""
    unit = ""
    #: Units a run must time at least (rounds are added until it does).
    units_per_run = 100

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.rng = random.Random(f"{self.name}:{seed}")

    def prepare(self) -> None:
        """Write inputs that are made once, before any timing."""

    def first_system(self):
        """Build the system the first unit runs on (the set-up probe)."""
        raise NotImplementedError

    def run_round(self, meter) -> Round:
        """One round of fixed work; ``meter`` samples host speed between units."""
        raise NotImplementedError

    def cross_check(self, meter) -> str:
        """Digest of unit 0, recomputed on whatever backend is active."""
        raise NotImplementedError

    def observe_round(self, counts: Counts) -> Counts:
        """A round's counts, completed where the round could not see them."""
        return counts

    def cleanup(self) -> None:
        """Remove what ``prepare`` and the rounds wrote."""


def _timed_units(items, run_one, counts: Counts, meter) -> Round:
    """Run ``run_one(item) -> (digest payload, ops, failure)`` per item."""
    spans: List[Tuple[float, float]] = []
    digests: List[str] = []
    failures: List[Optional[str]] = []
    ops = 0
    meter.sample()
    for item in items:
        started = time.perf_counter()
        try:
            payload, unit_ops, failure = run_one(item)
        except Exception as error:  # noqa: BLE001 - a failed unit is counted
            payload, unit_ops, failure = None, 0, f"{type(error).__name__}: {error}"
        spans.append((started, time.perf_counter()))
        meter.maybe_sample()
        digests.append(digest(payload))
        failures.append(failure)
        ops += unit_ops
    meter.sample()
    return Round(spans, spans, digests, failures, ops, counts)


# ------------------------------------------------------------ locking_sweep


def run_sweep_points(specs, counts: Counts, meter) -> Round:
    """The serial path of run_sweep: one runner, its GC guard held throughout."""
    from repro.experiments.batch import BatchRunner, spec_batch_key

    runner = BatchRunner()

    def run_one(spec):
        point = runner.run_spec(spec)
        fired = counts.observe(pooled_systems(runner)[spec_batch_key(spec)])
        ops = sum(r.operations for r in point.results)
        counts.ops += ops
        return {"point": _jsonable(point), "fired": fired}, ops, None

    with runner.arena.runtime():
        return _timed_units(specs, run_one, counts, meter)


class LockingSweep(Workload):
    name = "locking_sweep"
    why = (
        "The paper's Figure 1 experiment; the compiled event core, interconnect"
        " closures, handlers and issue chain do most of the work, with no JSONL,"
        " verification or service work, so it is the control for BASH-tick and"
        " service changes."
    )
    unit = "one sweep point: one protocol at one bandwidth for one seed"

    SIM_SEEDS = 3

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        from repro.experiments.parallel import PointSpec
        from repro.experiments.runner import PROTOCOLS, QUICK, microbenchmark_factory

        sim_seeds = self.rng.sample(range(1, 1 << 16), self.SIM_SEEDS)
        self.specs = [
            PointSpec(
                scale=dataclasses.replace(QUICK, seeds=(sim_seed,)),
                protocol=protocol,
                bandwidth=bandwidth,
                workload=microbenchmark_factory(QUICK),
            )
            for sim_seed in sim_seeds
            for protocol in PROTOCOLS
            for bandwidth in QUICK.bandwidth_points
        ]

    def first_system(self):
        from repro.experiments.runner import point_configs
        from repro.system.multiprocessor import MultiprocessorSystem

        spec = self.specs[0]
        config = point_configs(spec.scale, spec.protocol, spec.bandwidth)[0]
        return MultiprocessorSystem(config, spec.workload(config.random_seed))

    def run_round(self, meter) -> Round:
        return run_sweep_points(self.specs, Counts(), meter)

    def cross_check(self, meter) -> str:
        return run_sweep_points(self.specs[:1], Counts(), meter).digests[0]


# ---------------------------------------------------------- verify_campaign


class VerifyCampaign(Workload):
    name = "verify_campaign"
    why = (
        "BASH sampling, common.stats and the verification checkers dominate"
        " here, so a compiled sampling tick or skipped idle windows show on"
        " this workload and not on locking_sweep."
    )
    unit = "one verification task (strict/racy replay, windowed replay or random test)"

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        from repro.verification.campaign import QUICK_CAMPAIGN

        seeds = self.rng.sample(range(1 << 20), len(QUICK_CAMPAIGN.seeds))
        self.tasks = QUICK_CAMPAIGN.with_overrides(seeds=seeds).tasks()

    def first_system(self):
        from repro.system.multiprocessor import MultiprocessorSystem

        task = self.tasks[0]
        trace = task.trace()
        config = task.replay_config().system_config(trace, task.protocols[0])
        return MultiprocessorSystem(config, trace.to_workload(config.cache_block_bytes))

    def _run_tasks(self, tasks, counts: Counts, meter) -> Round:
        from repro.experiments.batch import BatchRunner
        from repro.verification.campaign import run_task

        # The serial path of the campaign executor: one reset-reusing runner.
        runner = BatchRunner()

        def run_one(task):
            outcome = run_task(task, runner)
            # Every quick-shaped task replays on each protocol's pooled
            # system, so after the task they all hold its fired counts.
            fired = sum(counts.observe(system) for system in pooled_systems(runner).values())
            counts.ops += outcome.operations
            counts.replays += outcome.protocol_runs
            counts.ops_checked += outcome.operations
            failure = None if outcome.ok else "; ".join(outcome.failures[:3])
            return (
                {"outcome": outcome.to_jsonable(), "fired": fired},
                outcome.operations,
                failure,
            )

        return _timed_units(tasks, run_one, counts, meter)

    def run_round(self, meter) -> Round:
        return self._run_tasks(self.tasks, Counts(), meter)

    def cross_check(self, meter) -> str:
        return self._run_tasks(self.tasks[:1], Counts(), meter).digests[0]


# -------------------------------------------------------------- stream_soak


class StreamSoak(Workload):
    name = "stream_soak"
    why = (
        "The only workload with capacity misses and writebacks beside reads,"
        " JSONL parsing in the workloads layer and long simulated time, where"
        " retained link segments grow resident memory."
    )
    unit = "one trace file soaked on all three protocols (6 files per round)"
    # Soaks are long by design, so a run holds a few dozen of them.
    units_per_run = 0

    PROCESSORS = 8
    TRACES = 6
    OPS_PER_PROCESSOR = 500
    NUM_KEYS = 65536
    CACHE_BLOCKS = 128
    WRITE_FRACTION = 0.2

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self.traces = [
            (self.rng.randrange(1, 1 << 20), workdir / f"stream-{seed}-{index}.jsonl")
            for index in range(self.TRACES)
        ]

    def prepare(self) -> None:
        from repro.workloads.streaming import write_trace_jsonl
        from repro.workloads.traffic import ZipfSampler, traffic_operation_stream

        sampler = ZipfSampler(self.NUM_KEYS, 0.9)
        self.workdir.mkdir(parents=True, exist_ok=True)
        for trace_seed, path in self.traces:
            streams = {
                node: traffic_operation_stream(
                    node,
                    seed=trace_seed,
                    num_processors=self.PROCESSORS,
                    num_keys=self.NUM_KEYS,
                    write_fraction=self.WRITE_FRACTION,
                    operations=self.OPS_PER_PROCESSOR,
                    sampler=sampler,
                )
                for node in range(self.PROCESSORS)
            }
            write_trace_jsonl(str(path), streams)

    def _system(self, protocol, trace):
        from repro.common.config import SystemConfig
        from repro.system.multiprocessor import MultiprocessorSystem
        from repro.workloads.streaming import JsonlTraceReader, StreamingTraceWorkload

        trace_seed, path = trace
        config = SystemConfig(
            num_processors=self.PROCESSORS,
            protocol=protocol,
            cache_capacity_blocks=self.CACHE_BLOCKS,
            random_seed=trace_seed,
        )
        workload = StreamingTraceWorkload(JsonlTraceReader(str(path)))
        return MultiprocessorSystem(config, workload), workload

    def first_system(self):
        from repro.experiments.runner import PROTOCOLS

        return self._system(PROTOCOLS[0], self.traces[0])[0]

    def _soak(self, traces, counts: Counts, meter) -> Round:
        from repro.experiments.runner import PROTOCOLS

        def run_one(trace):
            payload, ops = [], 0
            for protocol in PROTOCOLS:
                # What simulate() does, keeping the system to read its counters.
                system, workload = self._system(protocol, trace)
                result = system.run()
                fired = counts.observe(system)
                ops += result.operations
                counts.max_resident_ops = max(
                    counts.max_resident_ops, workload.max_resident_ops
                )
                payload.append(
                    {
                        "result": _jsonable(result),
                        "fired": fired,
                        "streamed": workload.total_streamed,
                        "max_resident_ops": workload.max_resident_ops,
                    }
                )
            counts.ops += ops
            return payload, ops, None

        return _timed_units(traces, run_one, counts, meter)

    def run_round(self, meter) -> Round:
        return self._soak(self.traces, Counts(), meter)

    def cross_check(self, meter) -> str:
        return self._soak(self.traces[:1], Counts(), meter).digests[0]

    def cleanup(self) -> None:
        for _seed, path in self.traces:
            path.unlink(missing_ok=True)


# ------------------------------------------------------------ service_sweep


class CommitClock:
    """A JobStore clock that also notes when claims start and commits land.

    It returns ``time.time()`` like the default clock, so the store behaves
    exactly as it does without it.  The journal rounds its times to
    milliseconds, too coarse for per-unit latency, so the clock tells claims
    and commits apart by its caller.  Before a claim it lets ``meter`` sample
    the host speed, outside the unit's span.  Only the draining (main)
    thread counts.
    """

    def __init__(self, meter) -> None:
        self._thread = threading.get_ident()
        self.meter = meter
        self.claims: List[float] = []
        self.commits: List[float] = []

    def __call__(self) -> float:
        if threading.get_ident() == self._thread:
            caller = sys._getframe(1).f_code.co_name
            if caller == "claim":
                self.meter.maybe_sample()
                self.claims.append(time.perf_counter())
            elif caller == "journal" and sys._getframe(2).f_code.co_name == "complete":
                self.commits.append(time.perf_counter())
        return time.time()

    def unit_spans(self) -> List[Tuple[float, float]]:
        """Claim-to-commit span of each committed unit (serial drain)."""
        spans = []
        claims = iter(self.claims)
        claim = next(claims, None)
        for commit in self.commits:
            latest = None
            while claim is not None and claim <= commit:
                latest, claim = claim, next(claims, None)
            if latest is not None:
                spans.append((latest, commit))
        return spans


class ServiceSweep(Workload):
    name = "service_sweep"
    why = (
        "Per-unit store cost dominates and grows faster than linearly with the"
        " unit count (every claim lists and sorts the pending directory);"
        " verify_campaign is the control for executor and journal changes."
    )
    unit = "one service unit (a short sweep point), from claim to commit"

    SIM_SEEDS = 15
    PROCESSORS = 4
    ACQUIRES = 10

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        from repro.experiments.parallel import PointSpec
        from repro.experiments.runner import PROTOCOLS, QUICK, LockingWorkloadSpec

        sim_seeds = self.rng.sample(range(1, 1 << 16), self.SIM_SEEDS)
        self.specs = []
        for sim_seed in sim_seeds:
            scale = dataclasses.replace(
                QUICK,
                microbenchmark_processors=self.PROCESSORS,
                acquires_per_processor=self.ACQUIRES,
                seeds=(sim_seed,),
            )
            workload = LockingWorkloadSpec(
                num_locks=scale.num_locks, acquires_per_processor=self.ACQUIRES
            )
            self.specs.extend(
                PointSpec(scale=scale, protocol=protocol, bandwidth=bandwidth, workload=workload)
                for protocol in PROTOCOLS
                for bandwidth in scale.bandwidth_points
            )

    def first_system(self):
        import repro.experiments.service  # noqa: F401 - part of this set-up

        from repro.experiments.runner import point_configs
        from repro.system.multiprocessor import MultiprocessorSystem

        spec = self.specs[0]
        config = point_configs(spec.scale, spec.protocol, spec.bandwidth)[0]
        return MultiprocessorSystem(config, spec.workload(config.random_seed))

    def _serve(self, specs, counts: Counts, meter) -> Round:
        from repro.experiments.jobstore import JobStore
        from repro.experiments.service import ServiceConfig, run_service_sweep

        self.workdir.mkdir(parents=True, exist_ok=True)
        root = tempfile.mkdtemp(prefix="store-", dir=self.workdir)
        clock = CommitClock(meter)
        meter.sample()
        try:
            started = time.perf_counter()
            points, summary = run_service_sweep(
                specs, ServiceConfig(store=JobStore(root, clock=clock)), strict=False
            )
            wall = meter.excluding(started, time.perf_counter())
        finally:
            shutil.rmtree(root, ignore_errors=True)
        meter.sample()
        digests, failures, ops = [], [], 0
        for point in points:
            if point is None:
                digests.append(digest(None))
                failures.append("no result (quarantined or unreadable)")
                continue
            digests.append(digest({"point": _jsonable(point)}))
            failures.append(None)
            ops += sum(r.operations for r in point.results)
        counts.ops += ops
        counts.service_retries += summary.retries
        counts.service_redispatched += summary.redispatched
        return Round(clock.unit_spans(), wall, digests, failures, ops, counts)

    def run_round(self, meter) -> Round:
        return self._serve(self.specs, Counts(), meter)

    def cross_check(self, meter) -> str:
        return self._serve(self.specs[:1], Counts(), meter).digests[0]

    def observe_round(self, counts: Counts) -> Counts:
        # The service's workers build their systems out of reach, so the
        # simulated counts come from the same points run in process (the
        # service == serial contract makes them identical).
        observed = Counts(
            service_retries=counts.service_retries,
            service_redispatched=counts.service_redispatched,
        )
        run_sweep_points(self.specs, observed, Speedometer())
        return observed


WORKLOADS: Dict[str, type] = {
    cls.name: cls for cls in (LockingSweep, VerifyCampaign, StreamSoak, ServiceSweep)
}
