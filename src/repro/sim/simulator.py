"""Top-level simulation facade tying the scheduler and statistics together."""

from __future__ import annotations

from typing import List, Optional

from ..common.stats import StatsRegistry
from ..errors import SimulationError
from .scheduler import Scheduler, active_scheduler_class


class Simulator:
    """Owns the scheduler and statistics registry for one simulation run."""

    def __init__(self) -> None:
        # Backend resolved at construction time (not import time) so an
        # in-process backend switch — the parametrized test fixture, the
        # interleaved benchmark A/B — affects the next system built.
        self.scheduler: Scheduler = active_scheduler_class()()
        self.stats = StatsRegistry()
        self._finished = False

    @property
    def now(self) -> int:
        """Current simulation time in cycles."""
        return self.scheduler.now

    def run(
        self,
        until: Optional[int] = None,
        max_events: Optional[int] = None,
        stop_flag: Optional[List[bool]] = None,
    ) -> int:
        """Run the simulation; see :meth:`Scheduler.run` for the stop rules."""
        if self._finished:
            raise SimulationError("simulator has already been finished")
        return self.scheduler.run(
            until=until, max_events=max_events, stop_flag=stop_flag
        )

    def run_until_quiescent(self, max_events: int = 10_000_000) -> int:
        """Run until no events remain, guarding against runaway simulations."""
        fired = self.run(max_events=max_events)
        if self.scheduler.pending and fired >= max_events:
            raise SimulationError(
                f"simulation did not quiesce within {max_events} events; "
                "a protocol livelock or an unbounded workload is likely"
            )
        return fired

    def finish(self) -> None:
        """Discard pending events and mark the run as complete."""
        self.scheduler.drain()
        self._finished = True

    def reset(self) -> None:
        """Re-arm for another run: time zero, empty queue, statistics reset.

        Statistics registered at system construction are zeroed *in place*
        (prebound handles stay valid); statistics created lazily during the
        previous run are dropped entirely, so a reset simulator reports
        exactly the same statistic set a freshly built one would.
        """
        self.scheduler.reset()
        self.stats.reset()
        self._finished = False
