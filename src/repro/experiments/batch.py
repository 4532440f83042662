"""Zero-rebuild sweep execution: one constructed system serves many points.

Every figure in the paper is a sweep of independent ``simulate()`` runs, and
profiling the PR 2 executor showed that a QUICK-scale point spends a large,
fixed fraction of its wall time *building* the system — nodes, controllers,
compiled dispatch tables, networks — only to throw it away.  Within one
(protocol, processor count) family those structures are identical across
points; only seeds, bandwidth, adaptive parameters and the workload differ,
all of which the system-wide ``reset`` protocol re-arms in place.

:class:`BatchRunner` exploits that: it keeps one
:class:`~repro.system.multiprocessor.MultiprocessorSystem` per *batch key*
(protocol, processor count), resets it between points, and shares a single
:class:`~repro.sim.arena.SimulationArena` across every run so pooled hot
objects stay warm and the cyclic GC stays out of the event loop.  The contract
— enforced by the reset-equivalence tests — is that a batched sweep produces
:class:`RunResult`\\ s field-for-field identical to the rebuild-per-point path.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from ..common.config import ProtocolName, SystemConfig
from ..sim.arena import SimulationArena
from ..system.multiprocessor import MultiprocessorSystem, RunResult
from .runner import SweepPoint, aggregate_point, point_configs

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .parallel import PointSpec

#: A batch key: sweep points agreeing on these run on the same built system.
BatchKey = Tuple[ProtocolName, int]


def spec_batch_key(spec: "PointSpec") -> BatchKey:
    """The (protocol, processor count) family a sweep point belongs to."""
    return (
        ProtocolName(spec.protocol),
        (
            spec.scale.microbenchmark_processors
            if spec.num_processors is None
            else spec.num_processors
        ),
    )


class BatchRunner:
    """Executes sweep points against pooled, resettable simulation systems.

    One instance owns one arena and at most one live system per batch key;
    it is cheap to create and safe to discard (dropping it releases the
    systems and free lists).  Not thread-safe — each process-pool worker owns
    its own runner (see ``repro.experiments.executor``).
    """

    def __init__(self) -> None:
        self.arena = SimulationArena()
        self._systems: Dict[BatchKey, MultiprocessorSystem] = {}
        self.runs_completed = 0
        self.systems_built = 0

    # ------------------------------------------------------------------ runs

    def acquire(self, config: SystemConfig, workload) -> MultiprocessorSystem:
        """A built system for ``config``, reset and ready to run ``workload``.

        The pooled system for the config's batch key is reset in place when
        one exists; otherwise a fresh system is built (and kept).  Callers
        that drive the system themselves — the verification engine replays
        traces through the cache controllers directly — use this instead of
        :meth:`run_config`.
        """
        key = (ProtocolName(config.protocol), config.num_processors)
        system = self._systems.get(key)
        if system is None:
            system = MultiprocessorSystem(config, workload, arena=self.arena)
            self._systems[key] = system
            self.systems_built += 1
        else:
            system.reset(workload, config)
        return system

    def run_config(self, config: SystemConfig, workload) -> RunResult:
        """Run one (config, workload) pair on the pooled system for its key."""
        system = self.acquire(config, workload)
        self.runs_completed += 1
        return system.run()

    def run_spec(self, spec: "PointSpec") -> SweepPoint:
        """Execute one :class:`PointSpec`, seed-averaged like ``run_point``."""
        configs = point_configs(
            spec.scale,
            spec.protocol,
            spec.bandwidth,
            num_processors=spec.num_processors,
            threshold=spec.threshold,
            broadcast_cost_factor=spec.broadcast_cost_factor,
            cache_capacity_blocks=spec.cache_capacity_blocks,
        )
        results: List[RunResult] = [
            self.run_config(config, spec.workload(config.random_seed))
            for config in configs
        ]
        x = spec.bandwidth if spec.x_value is None else spec.x_value
        return aggregate_point(spec.protocol, x, results)

    # ------------------------------------------------------------- lifecycle

    def drop(self, key: Optional[BatchKey] = None) -> None:
        """Release the system for ``key`` (or all systems) to bound memory."""
        if key is None:
            self._systems.clear()
        else:
            self._systems.pop(key, None)

    @property
    def live_systems(self) -> int:
        """Number of constructed systems currently held."""
        return len(self._systems)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BatchRunner(systems={len(self._systems)}, "
            f"runs={self.runs_completed}, built={self.systems_built})"
        )
