"""One executor for independent work: sweep points and verification tasks.

Every figure in the paper is a sweep of independent runs, and every
verification campaign is a list of independent tasks.  Both run through
:func:`execute`:

* items are grouped by a caller-supplied key — the system shape they run on —
  and sliced into roughly ``total / workers``-sized chunks, so the worker
  that runs a chunk builds (or reuses) one system per key while every worker
  stays busy even when one key dominates;
* each chunk runs on its worker process's :class:`BatchRunner`, which lives
  as long as the process, so chunks arriving later reset systems built by
  earlier ones instead of rebuilding them;
* a pool task that outlives the per-task timeout is cancelled (abandoned if
  already running), logged, and retried serially;
* when the platform refuses to start a pool (restricted sandboxes) or a
  payload does not pickle, the results already done are kept and the rest
  finish serially on one :class:`BatchRunner` — results are identical
  either way.

Worker counts and timeouts are validated where they enter: a negative
``workers``, a ``$REPRO_SWEEP_WORKERS`` that is not a positive integer and a
``$REPRO_TASK_TIMEOUT`` that does not parse raise
:exc:`~repro.errors.ConfigurationError` instead of degrading silently.
"""

from __future__ import annotations

import logging
import os
import pickle
import time
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple

from ..errors import ConfigurationError
from .batch import BatchRunner

logger = logging.getLogger(__name__)

#: Environment variable consulted when ``workers=0`` ("auto") is given.
WORKERS_ENV = "REPRO_SWEEP_WORKERS"

#: Environment variable supplying the default per-task wall-clock timeout (in
#: seconds) for the pool path.  A pool task that exceeds it is cancelled
#: (abandoned if already running), logged, and retried serially, so one hung
#: item degrades to a slow item instead of stalling the whole run.
TASK_TIMEOUT_ENV = "REPRO_TASK_TIMEOUT"

#: Exceptions that demote a process-pool attempt to the serial fallback path:
#: restricted sandboxes (no semaphores / fork), missing multiprocessing
#: support, and payloads that turn out not to pickle.
POOL_FALLBACK_ERRORS = (
    OSError,
    ImportError,
    RuntimeError,
    pickle.PicklingError,
    AttributeError,
    TypeError,
)


def available_workers() -> int:
    """Worker count for "auto": $REPRO_SWEEP_WORKERS or the CPU count."""
    env = os.environ.get(WORKERS_ENV)
    if not env:
        return os.cpu_count() or 1
    try:
        value = int(env)
    except ValueError:
        value = 0
    if value < 1:
        raise ConfigurationError(
            f"${WORKERS_ENV} must be a positive integer (got {env!r})"
        )
    return value


def resolve_workers(workers: Optional[int]) -> int:
    """``None`` -> 1 (serial), ``0`` -> auto, negative -> error."""
    if workers is None:
        return 1
    if workers < 0:
        raise ConfigurationError(
            f"workers must be >= 0 (0 = auto), got {workers}"
        )
    return workers or available_workers()


def resolve_task_timeout(task_timeout) -> Optional[float]:
    """Resolve an explicit ``task_timeout`` argument against the env default.

    ``None`` defers to $REPRO_TASK_TIMEOUT (unset or ``0``: no timeout);
    ``False`` (or 0) disables the timeout outright, env var included —
    mirroring ``cache_dir``'s ``None``/``False`` convention.
    """
    if task_timeout is None:
        env = os.environ.get(TASK_TIMEOUT_ENV)
        if not env:
            return None
        try:
            value = float(env)
        except ValueError:
            raise ConfigurationError(
                f"${TASK_TIMEOUT_ENV} must be a number of seconds (0 disables "
                f"the timeout), got {env!r}"
            ) from None
        return value if value > 0 else None
    return float(task_timeout) if task_timeout else None


def drain_futures(
    futures: Dict, on_result: Callable, timeout: Optional[float], poll: float = 0.25
) -> List:
    """Collect pool futures, enforcing a per-task wall-clock deadline.

    ``futures`` maps Future -> payload; ``on_result(payload, future)`` is
    called for each completion (exceptions from ``future.result()``
    propagate to the caller's fallback handling).  Returns the payloads of
    futures that exceeded ``timeout`` — cancelled if still queued, abandoned
    if running — which the caller retries serially.  With ``timeout=None``
    this is plain ``as_completed`` collection.
    """
    from concurrent.futures import as_completed, wait as futures_wait

    if timeout is None:
        for future in as_completed(futures):
            on_result(futures[future], future)
        return []
    deadlines = {future: time.monotonic() + timeout for future in futures}
    pending = set(futures)
    timed_out: List = []
    while pending:
        done, pending = futures_wait(pending, timeout=poll)
        for future in done:
            on_result(futures[future], future)
        now = time.monotonic()
        expired = {future for future in pending if now >= deadlines[future]}
        for future in expired:
            future.cancel()
            timed_out.append(futures[future])
        pending -= expired
    return timed_out


def shutdown_pool(pool, abandoned: bool) -> None:
    """Dispose of a process pool, harshly if hung tasks were abandoned.

    The normal path waits for workers like the context manager would.  After
    a task timeout the pool may hold a wedged worker forever, so the
    abandoned path skips the wait, cancels queued work, and terminates the
    worker processes — leaking nothing into interpreter shutdown.
    """
    if not abandoned:
        pool.shutdown(wait=True)
        return
    # Kill the workers *before* shutdown() discards the process table: the
    # executor's management thread then observes the dead sentinels, marks
    # the pool broken, and exits — otherwise the interpreter's atexit hook
    # would join it forever behind the wedged task.
    for process in list((getattr(pool, "_processes", None) or {}).values()):
        try:
            process.terminate()
        except (OSError, AttributeError):  # pragma: no cover - racing exit
            pass
    pool.shutdown(wait=False, cancel_futures=True)


#: Per-process batch runner: worker processes live for the whole pool, so one
#: runner per process lets late-arriving chunks reuse systems (and warm object
#: pools) built by earlier chunks with the same key.
_PROCESS_RUNNER: Optional[BatchRunner] = None


def _run_chunk(run_one: Callable, items: Sequence) -> List:
    """Pool entry point: run one chunk on this process's runner.

    The arena's GC guard is held across the whole chunk, so the collector
    stays out of resets and result aggregation too, not just the event loops.
    """
    global _PROCESS_RUNNER
    if _PROCESS_RUNNER is None:
        _PROCESS_RUNNER = BatchRunner()
    with _PROCESS_RUNNER.arena.runtime():
        return [run_one(item, _PROCESS_RUNNER) for item in items]


def _start_pool(max_workers: int):
    """The pool constructor, imported lazily: a platform without
    multiprocessing support raises ImportError here, inside the fallback."""
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(max_workers=max_workers)


def chunk_indices(
    items: Sequence, key: Callable[[object], Hashable], workers: int
) -> List[List[int]]:
    """Group item indices by ``key``, then slice each group for load balance."""
    by_key: Dict[Hashable, List[int]] = {}
    for index, item in enumerate(items):
        by_key.setdefault(key(item), []).append(index)
    size = max(1, -(-len(items) // max(1, workers)))
    return [
        group[start : start + size]
        for group in by_key.values()
        for start in range(0, len(group), size)
    ]


def execute(
    items: Sequence,
    run_one: Callable,
    key: Callable[[object], Hashable],
    workers: int = 1,
    timeout: Optional[float] = None,
    on_result: Optional[Callable[[int, object], None]] = None,
) -> Tuple[List, int]:
    """Run ``run_one(item, runner)`` for every item; results in input order.

    ``workers`` > 1 runs chunks (see :func:`chunk_indices`) on a process
    pool, so ``run_one`` and the items must pickle; ``timeout`` bounds each
    pool task's wall clock.  ``on_result(index, result)`` is called as each
    result arrives — sweeps stream points into their cache with it.  Returns
    ``(results, workers actually used)``: 1 when the run was serial or the
    pool could not start.
    """
    results: List = [None] * len(items)
    done = [False] * len(items)

    def finish(index: int, result) -> None:
        results[index] = result
        done[index] = True
        if on_result is not None:
            on_result(index, result)

    used = 1
    if workers > 1 and len(items) > 1:
        try:
            max_workers = min(workers, len(items))
            pool = _start_pool(max_workers)
            abandoned = False
            try:
                futures = {
                    pool.submit(_run_chunk, run_one, [items[i] for i in chunk]): chunk
                    for chunk in chunk_indices(items, key, max_workers)
                }

                def collect(chunk: List[int], future) -> None:
                    for index, result in zip(chunk, future.result()):
                        finish(index, result)

                timed_out = drain_futures(futures, collect, timeout)
                if timed_out:
                    abandoned = True
                    logger.warning(
                        "%d item(s) exceeded the %.1fs task timeout; "
                        "abandoning their pool tasks and retrying serially",
                        sum(len(chunk) for chunk in timed_out),
                        timeout,
                    )
            finally:
                shutdown_pool(pool, abandoned)
            used = max_workers
        except POOL_FALLBACK_ERRORS:
            # Restricted environments and payloads that turn out not to
            # pickle fall back to the serial loop below, keeping what the
            # pool completed.  A genuine simulation error re-raises from the
            # serial run, so catching broadly here cannot mask it.
            pass

    if not all(done):
        runner = BatchRunner()
        with runner.arena.runtime():
            for index, item in enumerate(items):
                if not done[index]:
                    finish(index, run_one(item, runner))
    return results, used
