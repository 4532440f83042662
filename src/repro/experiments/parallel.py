"""Parallel sweep front end with an on-disk result cache.

Every figure in the paper's evaluation is an embarrassingly parallel sweep of
independent ``simulate()`` runs — (protocol, x-value, seed) points that share
nothing *semantically* but share almost everything *structurally*:

* :class:`PointSpec` is a picklable description of one sweep point (the same
  arguments :func:`repro.experiments.runner.run_point` takes),
* :func:`run_sweep` executes a list of specs — serially, or across
  ``workers`` processes — returning :class:`SweepPoint` results in input
  order, optionally memoised in an on-disk JSON cache keyed by a hash of the
  full configuration,
* :func:`sweep_curves` groups flat results back into the per-protocol curve
  dictionaries the figure drivers consume.

Execution goes through :func:`repro.experiments.executor.execute`, the one
executor sweeps share with verification campaigns: specs are chunked by their
batch key — (protocol, processor count) — and each chunk runs on a
:class:`~repro.experiments.batch.BatchRunner` that keeps one constructed
system per key, resets it between points, and pools hot allocations in a
shared :class:`~repro.sim.arena.SimulationArena`.  Completed points stream
into the cache as they finish rather than at sweep end.

Determinism: each point is seeded from its own spec (``scale.seeds``), never
from worker identity, scheduling order, or the reset history of the system it
runs on — a reset system is contractually indistinguishable from a fresh one
(see the reset-equivalence tests), so ``run_sweep(workers=1)``,
``run_sweep(workers=N)`` and the rebuild-per-point ``PointSpec.run`` produce
identical results point for point.

Sweeps run serially when the requested worker count is ``<= 1``, for specs
that are not picklable (e.g. an ad-hoc workload closure), and when the
platform refuses to start a process pool (restricted sandboxes).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

logger = logging.getLogger(__name__)

from .. import _core
from ..common.config import ProtocolName
from ..system.multiprocessor import RunResult
from .batch import spec_batch_key
from .executor import (  # the worker and timeout settings are re-exported
    TASK_TIMEOUT_ENV,
    WORKERS_ENV,
    available_workers,
    execute,
    resolve_task_timeout,
    resolve_workers,
)
from .runner import ExperimentScale, SweepPoint, run_point

#: Bump when the simulation core changes in a way that invalidates cached
#: sweep results.
CACHE_VERSION = 1

#: Environment variable consulted when ``cache_dir`` is not given explicitly:
#: point it at a directory and every sweep (including the PAPER-scale figure
#: drivers) memoises its points there, so an interrupted reproduction resumes
#: from the completed points instead of recomputing them.
CACHE_ENV = "REPRO_SWEEP_CACHE"


def default_cache_dir() -> Optional[str]:
    """Cache directory to use by default: $REPRO_SWEEP_CACHE, or None."""
    env = os.environ.get(CACHE_ENV)
    return env if env else None


@dataclass(frozen=True)
class PointSpec:
    """One sweep point: everything :func:`run_point` needs, picklable."""

    scale: ExperimentScale
    protocol: ProtocolName
    bandwidth: float
    workload: object  # a workload spec callable (seed -> Workload)
    x_value: Optional[float] = None
    num_processors: Optional[int] = None
    threshold: float = 0.75
    broadcast_cost_factor: float = 1.0
    cache_capacity_blocks: Optional[int] = None

    def run(self) -> SweepPoint:
        """Execute this point (in whatever process we happen to be in)."""
        return run_point(
            self.scale,
            self.protocol,
            self.bandwidth,
            self.workload,
            x_value=self.x_value,
            num_processors=self.num_processors,
            threshold=self.threshold,
            broadcast_cost_factor=self.broadcast_cost_factor,
            cache_capacity_blocks=self.cache_capacity_blocks,
        )

    # ------------------------------------------------------------- caching

    def is_portable(self) -> bool:
        """True when the spec can be shipped to a worker and cached on disk."""
        return hasattr(self.workload, "cache_token")

    def cache_key(self) -> str:
        """Stable hash of the full point configuration."""
        scale = dataclasses.asdict(self.scale)
        scale["seeds"] = list(self.scale.seeds)
        payload = {
            "version": CACHE_VERSION,
            # The two backends are contractually bit-identical (golden-trace
            # tests), but a cached point must still say which core computed
            # it: a benchmark or bisection that pins $REPRO_BACKEND must
            # never be served results the other backend produced.
            "backend": _core.active_backend(),
            "scale": scale,
            "protocol": str(self.protocol),
            "bandwidth": self.bandwidth,
            "workload": self.workload.cache_token(),
            "x_value": self.x_value,
            "num_processors": self.num_processors,
            "threshold": self.threshold,
            "broadcast_cost_factor": self.broadcast_cost_factor,
            "cache_capacity_blocks": self.cache_capacity_blocks,
        }
        blob = json.dumps(payload, sort_keys=True, default=str)
        return hashlib.sha256(blob.encode()).hexdigest()


# ------------------------------------------------------------- serialisation


_POINT_FIELDS = tuple(f.name for f in dataclasses.fields(SweepPoint))
_RESULT_FIELDS = tuple(f.name for f in dataclasses.fields(RunResult))


def _result_to_json(result: RunResult) -> Dict:
    data = {name: getattr(result, name) for name in _RESULT_FIELDS}
    data["protocol"] = str(result.protocol)
    data["stats"] = dict(result.stats)  # flat: every stat is a number
    return data


def _point_to_json(point: SweepPoint) -> Dict:
    """A point as plain JSON data, equal to its ``dataclasses.asdict`` form.

    Built field by field with a flat copy of ``stats``, not by ``asdict``'s
    recursive deep copy: every service unit's commit serialises a point.
    """
    data = {name: getattr(point, name) for name in _POINT_FIELDS}
    data["protocol"] = str(point.protocol)
    data["results"] = [_result_to_json(result) for result in point.results]
    return data


def _point_from_json(data: Dict) -> SweepPoint:
    results = [
        RunResult(**{**r, "protocol": ProtocolName(r["protocol"])})
        for r in data["results"]
    ]
    return SweepPoint(
        protocol=ProtocolName(data["protocol"]),
        x=data["x"],
        performance=data["performance"],
        performance_per_processor=data["performance_per_processor"],
        mean_miss_latency=data["mean_miss_latency"],
        link_utilization=data["link_utilization"],
        broadcast_fraction=data["broadcast_fraction"],
        retries=data["retries"],
        results=results,
    )


class SweepCache:
    """On-disk JSON store of completed sweep points, keyed by config hash."""

    def __init__(self, directory: Path) -> None:
        self.directory = Path(directory).expanduser()
        self.directory.mkdir(parents=True, exist_ok=True)

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.json"

    def load(self, key: str) -> Optional[SweepPoint]:
        path = self._path(key)
        if not path.exists():
            return None
        try:
            return _point_from_json(json.loads(path.read_text()))
        except (json.JSONDecodeError, KeyError, TypeError, ValueError):
            # Truncated or garbled entry (interrupted write from a pre-atomic
            # cache, disk trouble, stray edits): quarantine it for inspection
            # instead of raising mid-sweep, and recompute the point.
            quarantined = Path(str(path) + ".corrupt")
            try:
                os.replace(path, quarantined)
                logger.warning(
                    "quarantined corrupt sweep-cache entry %s -> %s; "
                    "recomputing the point",
                    path.name,
                    quarantined.name,
                )
            except OSError:  # pragma: no cover - lost a race; entry is gone
                path.unlink(missing_ok=True)
            return None

    def store(self, key: str, point: SweepPoint) -> None:
        """Atomically persist one completed point.

        The JSON is written to a uniquely named temp file in the cache
        directory and ``os.replace``-d into place, so an interrupted (or
        concurrent) PAPER-scale run can never leave a torn or half-written
        cache entry — the entry either exists complete or not at all.
        """
        # "backend" is envelope metadata for humans inspecting a cache
        # directory; _point_from_json reads explicit keys, so loads ignore it
        # (the cache *key* already encodes the backend).
        payload = json.dumps(
            {"backend": _core.active_backend(), **_point_to_json(point)}
        )
        fd, tmp_name = tempfile.mkstemp(
            dir=self.directory, prefix=f".{key[:16]}-", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(payload)
            os.replace(tmp_name, self._path(key))
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:  # pragma: no cover - best-effort cleanup
                pass
            raise


def _run_batched(spec: PointSpec, runner) -> SweepPoint:
    """Executor entry point: one point on a pooled, resettable system."""
    return runner.run_spec(spec)


def run_sweep(
    specs: Sequence[PointSpec],
    workers: Optional[int] = None,
    cache_dir: Union[os.PathLike, str, bool, None] = None,
    service=None,
    task_timeout: Union[float, bool, None] = None,
) -> List[SweepPoint]:
    """Run every spec and return results in input order.

    ``workers`` > 1 fans the uncached points across a process pool; ``None``
    or 1 runs serially (``0`` means "auto": $REPRO_SWEEP_WORKERS or the CPU
    count; negative raises).  ``cache_dir`` enables the on-disk result cache,
    so repeated figure runs skip completed points; when it is not given, the
    $REPRO_SWEEP_CACHE environment variable supplies the default, so
    interrupted PAPER-scale sweeps resume automatically — pass
    ``cache_dir=False`` to disable caching outright, env var included
    (benchmarks that *time* sweeps must actually run them).  Completed
    points are persisted as they finish, not at sweep end.

    Points execute on pooled, resettable systems — one construction per
    (protocol, processor count) per worker; results are identical to the
    rebuild-per-point :meth:`PointSpec.run`.

    ``service`` routes the sweep through the fault-tolerant campaign service
    instead of the ad-hoc pool: pass a store directory, a
    :class:`~repro.experiments.jobstore.JobStore`, or a
    :class:`~repro.experiments.service.ServiceConfig`.  Points become durable
    leased work units — worker death, retries, resume and poison quarantine
    all apply — and ``workers`` counts pull-worker processes (``None``/1
    drains in-process).  Results are field-identical to the serial path.

    ``task_timeout`` (seconds; default $REPRO_TASK_TIMEOUT) bounds each pool
    task's wall clock: a hung task is cancelled, logged, and retried
    serially rather than stalling the whole sweep.
    """
    workers = resolve_workers(workers)
    timeout = resolve_task_timeout(task_timeout)

    if cache_dir is None or cache_dir is True:
        # True is the symmetric spelling of "use the default cache" (False
        # disables it); both resolve through $REPRO_SWEEP_CACHE.
        cache_dir = default_cache_dir()
    elif cache_dir is False:
        cache_dir = None
    cache = SweepCache(Path(cache_dir)) if cache_dir is not None else None
    results: List[Optional[SweepPoint]] = [None] * len(specs)
    portable: List[int] = []
    adhoc: List[int] = []

    for index, spec in enumerate(specs):
        if not spec.is_portable():
            adhoc.append(index)
            continue
        cached = cache.load(spec.cache_key()) if cache is not None else None
        if cached is None:
            portable.append(index)
        else:
            results[index] = cached

    def finish(index: int, point: SweepPoint) -> None:
        """Record one computed point and stream it into the cache."""
        results[index] = point
        if cache is not None and specs[index].is_portable():
            cache.store(specs[index].cache_key(), point)

    if service is not None and portable:
        # The durable-store path: portable points become leased work units;
        # ad-hoc (unpicklable) specs keep the in-process serial path below.
        from .service import run_service_sweep

        points, _summary = run_service_sweep(
            [specs[i] for i in portable],
            service,
            workers=None if workers <= 1 else workers,
        )
        for index, point in zip(portable, points):
            finish(index, point)
        portable = []

    def compute(indices: List[int], count: int) -> None:
        execute(
            [specs[i] for i in indices],
            _run_batched,
            spec_batch_key,
            workers=count,
            timeout=timeout,
            on_result=lambda position, point: finish(indices[position], point),
        )

    compute(portable, workers)
    compute(adhoc, 1)  # ad-hoc specs cannot be shipped to a worker
    return results  # type: ignore[return-value]


def sweep_curves(
    specs: Sequence[PointSpec],
    points: Sequence[SweepPoint],
    protocols: Sequence[ProtocolName],
) -> Dict[ProtocolName, List[SweepPoint]]:
    """Group flat (spec, point) pairs into per-protocol curves, input-ordered."""
    curves: Dict[ProtocolName, List[SweepPoint]] = {p: [] for p in protocols}
    for spec, point in zip(specs, points):
        curves[spec.protocol].append(point)
    return curves
