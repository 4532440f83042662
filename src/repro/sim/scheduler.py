"""The event queue at the heart of the discrete-event simulator.

This is the repository's hottest loop: a full figure reproduction fires
hundreds of millions of events through it.  The design choices are therefore
throughput-driven:

* the queue is a *bucket queue*: a dict mapping each distinct timestamp to a
  FIFO list of entries, plus a small heap of the distinct timestamps
  themselves.  Protocol traffic is bursty — a broadcast fans out to every
  node at the same cycle — so the multiprocessor workloads average ~5 events
  per distinct time, and a push is usually a C-level ``dict.get`` +
  ``list.append`` instead of a heap sift;
* entries are plain tuples — ``(time, sequence, event)`` for cancellable
  events, ``(time, sequence, callback, label[, arg])`` for the fast paths —
  appended in schedule order, which *is* ``sequence`` order, so FIFO draining
  reproduces the classic ``(time, sequence)`` heap order exactly;
* cancellation is *lazy*: cancelled events stay queued (cheap ``O(1)``
  cancel) and are skipped when their bucket drains, with a periodic
  compaction pass when cancelled entries dominate;
* :meth:`run` inlines the drain fast path — no per-event method calls beyond
  the event callback itself, and the clock and bound checks are paid once per
  *bucket* rather than once per event.

``pending`` counts only *live* (non-cancelled) events, and ``run(until=...)``
stops the clock at ``until`` without firing or leaking any later event,
cancelled heads included.

The network fast paths (see :mod:`repro.interconnect.ordered_network` /
``unordered_network``) push entries directly into ``_buckets``/``_times``;
both containers are therefore cleared *in place* on :meth:`drain`/:meth:`reset`
so compiled closures holding references stay valid across system resets.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop as _heappop, heappush as _heappush
from typing import Any, Callable, Dict, List, Optional

from .. import _core
from ..errors import SimulationError
from .event import Event

#: Compaction threshold: rebuild the buckets once this many cancelled events
#: are queued *and* they outnumber the live ones.
_COMPACT_MIN_CANCELLED = 64

#: Sentinel bound for `run`'s until/max_events checks: larger than any event
#: time or counter, so "no bound" needs no per-event None test.
_NO_BOUND = float("inf")

_new_event = object.__new__


class Scheduler:
    """A time-ordered bucket queue of simulation events."""

    __slots__ = (
        "_buckets",
        "_times",
        "now",
        "_sequence",
        "_fired",
        "_cancelled",
        "_compact_watermark",
        "_active_time",
        "on_fire",
        "_recent",
        "arena",
    )

    def __init__(self) -> None:
        #: time -> FIFO list of entries scheduled for that cycle.
        self._buckets: Dict[int, list] = {}
        #: Min-heap of bucket timestamps.  May contain stale times whose
        #: bucket was exhausted or compacted away; the drain loops skip those.
        self._times: List[int] = []
        #: Current simulation time in cycles.  A plain attribute (not a
        #: property): it is read on every schedule call and in most event
        #: callbacks, where a Python-level descriptor call is measurable.
        self.now = 0
        self._sequence = 0
        self._fired = 0
        self._cancelled = 0
        #: Outstanding-cancel count at which the next compaction check runs;
        #: backed off geometrically by _note_cancel (see there).
        self._compact_watermark = _COMPACT_MIN_CANCELLED
        #: Timestamp of the bucket currently being drained by run()/step();
        #: compaction skips it (the drain loop holds a live index into it).
        self._active_time: Optional[int] = None
        #: Optional per-fired-event hook ``(time, label) -> None`` used by the
        #: golden-trace tests and ad-hoc tracing; ``None`` costs one branch.
        self.on_fire: Optional[Callable[[int, str], None]] = None
        #: The recent-event ring armed by :meth:`record_recent`, or ``None``.
        self._recent: Optional[deque] = None
        #: Optional :class:`repro.sim.arena.SimulationArena` shared by every
        #: component built on this scheduler.  Controllers and networks consult
        #: it once at construction to prebind their pooled allocation/release
        #: paths; ``None`` means plain allocation everywhere.
        self.arena = None

    # ------------------------------------------------------------- accounting

    @property
    def pending(self) -> int:
        """Number of live (non-cancelled) events still queued."""
        return sum(map(len, self._buckets.values())) - self._cancelled

    @property
    def fired(self) -> int:
        """Number of events executed so far."""
        return self._fired

    # ------------------------------------------------------ recent-event ring

    def record_recent(self, n: int) -> None:
        """Keep the last ``n`` fired ``(time, label)`` pairs; ``0`` stops.

        (Re-)arming starts an empty ring.  Like ``on_fire``, the ring is
        installed by the harness around the scheduler and survives
        :meth:`reset`; a ring first armed by a callback inside :meth:`run`
        starts recording at the next call.
        """
        if n < 0:
            raise ValueError(f"record_recent needs n >= 0, got {n}")
        self._recent = deque(maxlen=n) if n else None

    def recent(self) -> List[tuple]:
        """The recorded ``(time, label)`` pairs, oldest first."""
        return [] if self._recent is None else list(self._recent)

    def _remember(self, time: int, label: str) -> None:
        if self._recent is not None:
            self._recent.append((time, label))

    # -------------------------------------------------------------- scheduling

    def _push(self, time: int, entry: tuple) -> None:
        """Append ``entry`` to the bucket for ``time`` (creating it if new)."""
        buckets = self._buckets
        bucket = buckets.get(time)
        if bucket is None:
            buckets[time] = [entry]
            _heappush(self._times, time)
        else:
            bucket.append(entry)

    def schedule_at(
        self, time: int, callback: Callable[[], Any], label: str = ""
    ) -> Event:
        """Schedule ``callback`` at absolute cycle ``time``."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule event {label!r} at {time} before current "
                f"time {self.now}"
            )
        sequence = self._sequence
        self._sequence = sequence + 1
        # Inlined Event construction (object.__new__ + slot stores) to skip
        # the __init__ call on the hottest allocation in the simulator.
        event = _new_event(Event)
        event.time = time
        event.sequence = sequence
        event.callback = callback
        event.label = label
        event.cancelled = False
        event._scheduler = self
        self._push(time, (time, sequence, event))
        return event

    def schedule_after(
        self, delay: int, callback: Callable[[], Any], label: str = ""
    ) -> Event:
        """Schedule ``callback`` to run ``delay`` cycles from now."""
        if delay < 0:
            raise SimulationError(f"delay must be non-negative, got {delay}")
        return self.schedule_at(self.now + delay, callback, label)

    # ------------------------------------------------------------ fast paths

    def schedule_at_fast(
        self, time: int, callback: Callable[[], Any], label: str = ""
    ) -> None:
        """Schedule a *non-cancellable* callback at absolute cycle ``time``.

        The hot internal call sites (network hops, sequencer steps) never
        cancel their events, so this path appends a bare ``(time, sequence,
        callback, label)`` tuple and skips the :class:`Event` allocation
        entirely.  Use :meth:`schedule_at` when the caller needs the returned
        handle.
        """
        if time < self.now:
            raise SimulationError(
                f"cannot schedule event {label!r} at {time} before current "
                f"time {self.now}"
            )
        sequence = self._sequence
        self._sequence = sequence + 1
        self._push(time, (time, sequence, callback, label))

    def schedule_after_fast(
        self, delay: int, callback: Callable[[], Any], label: str = ""
    ) -> None:
        """Schedule a *non-cancellable* callback ``delay`` cycles from now."""
        if delay < 0:
            raise SimulationError(f"delay must be non-negative, got {delay}")
        time = self.now + delay
        sequence = self._sequence
        self._sequence = sequence + 1
        # _push inlined: this is called between every pair of protocol events.
        buckets = self._buckets
        bucket = buckets.get(time)
        if bucket is None:
            buckets[time] = [(time, sequence, callback, label)]
            _heappush(self._times, time)
        else:
            bucket.append((time, sequence, callback, label))

    def schedule_at_fast1(
        self, time: int, callback: Callable[[Any], Any], arg: Any, label: str = ""
    ) -> None:
        """Fast-path schedule of ``callback(arg)`` at absolute cycle ``time``.

        Carrying the single argument in the queue entry lets hot call sites
        reuse one prebound callable per (node, kind) instead of allocating a
        ``partial`` per event.
        """
        if time < self.now:
            raise SimulationError(
                f"cannot schedule event {label!r} at {time} before current "
                f"time {self.now}"
            )
        sequence = self._sequence
        self._sequence = sequence + 1
        self._push(time, (time, sequence, callback, label, arg))

    def schedule_after_fast1(
        self, delay: int, callback: Callable[[Any], Any], arg: Any, label: str = ""
    ) -> None:
        """Fast-path schedule of ``callback(arg)`` after ``delay`` cycles."""
        if delay < 0:
            raise SimulationError(f"delay must be non-negative, got {delay}")
        time = self.now + delay
        sequence = self._sequence
        self._sequence = sequence + 1
        # _push inlined: the single-argument fast path carries most protocol
        # latency modelling (data responses, markers, forwards, retries).
        buckets = self._buckets
        bucket = buckets.get(time)
        if bucket is None:
            buckets[time] = [(time, sequence, callback, label, arg)]
            _heappush(self._times, time)
        else:
            bucket.append((time, sequence, callback, label, arg))

    # ------------------------------------------------------- lazy cancellation

    def _note_cancel(self) -> None:
        """Called by :meth:`Event.cancel` while the event is still queued.

        Sizing the queue means summing every bucket, so the check runs only
        at a geometrically backed-off watermark: whatever a compaction
        attempt leaves uncollected (cancelled entries in the actively
        draining bucket are skipped), the next attempt waits until the
        outstanding count doubles — keeping ``cancel()`` amortised O(1) even
        for cancel-heavy workloads.
        """
        self._cancelled += 1
        if self._cancelled >= self._compact_watermark:
            total = sum(map(len, self._buckets.values()))
            if self._cancelled * 2 > total:
                self._compact()
            self._compact_watermark = max(
                _COMPACT_MIN_CANCELLED, self._cancelled * 2
            )

    def _compact(self) -> None:
        """Physically drop cancelled entries from every idle bucket.

        The bucket currently being drained (if any) is skipped — the drain
        loop holds a live index into it; its cancelled entries are skipped
        (and accounted) when they surface.  Emptied buckets are deleted; their
        timestamps go stale in the heap and are discarded on pop.
        """
        buckets = self._buckets
        active = self._active_time
        for time in list(buckets):
            if time == active:
                continue
            entries = buckets[time]
            live = [
                entry
                for entry in entries
                if len(entry) != 3 or not entry[2].cancelled
            ]
            dropped = len(entries) - len(live)
            if not dropped:
                continue
            for entry in entries:
                if len(entry) == 3 and entry[2].cancelled:
                    entry[2]._scheduler = None
            self._cancelled -= dropped
            if live:
                entries[:] = live
            else:
                del buckets[time]

    # ---------------------------------------------------------------- running

    def step(self) -> Optional[Event]:
        """Pop and fire the next non-cancelled event; return it (or None).

        Events scheduled through the fast path have no :class:`Event` handle;
        for those, a transient handle is materialised for the return value.
        """
        buckets = self._buckets
        times = self._times
        while times:
            time = times[0]
            bucket = buckets.get(time)
            if not bucket:
                _heappop(times)
                if bucket is not None:
                    del buckets[time]
                continue
            entry = bucket.pop(0)
            if not bucket:
                del buckets[time]
                _heappop(times)
            if len(entry) != 3:
                callback = entry[2]
                self.now = time
                self._active_time = time
                try:
                    if len(entry) == 5:
                        callback(entry[4])
                    else:
                        callback()
                finally:
                    self._active_time = None
                self._fired += 1
                self._remember(time, entry[3])
                if self.on_fire is not None:
                    self.on_fire(time, entry[3])
                return Event(time, entry[1], callback, entry[3])
            event = entry[2]
            event._scheduler = None
            if event.cancelled:
                self._cancelled -= 1
                continue
            self.now = time
            self._active_time = time
            try:
                event.callback()
            finally:
                self._active_time = None
            self._fired += 1
            self._remember(time, event.label)
            if self.on_fire is not None:
                self.on_fire(time, event.label)
            return event
        return None

    def run(
        self,
        until: Optional[int] = None,
        max_events: Optional[int] = None,
        stop_flag: Optional[List[bool]] = None,
    ) -> int:
        """Run events until the queue drains or a stop condition is met.

        ``stop_flag`` is for drivers that *know* when they are done: a
        one-element list whose slot 0 an event callback flips to True; the
        run stops before the next event, with ``now`` left at the last fired
        time.  Checking it costs a C-level subscript per event.  Returns the
        number of events fired by this call.

        The per-event work is a subscript, two bound checks and the
        callback; the clock advances once per *bucket*.  The observers
        (``on_fire`` and the :meth:`record_recent` ring) cost one branch per
        event while neither is installed.  Events at one timestamp fire in
        scheduling order (the bucket is FIFO), exactly as the previous
        ``(time, sequence)`` heap ordered them.
        """
        buckets = self._buckets
        times = self._times
        fired_before = fired = self._fired
        # Normalise the bounds so the checks are single comparisons:
        # float('inf') compares against ints in C.
        until_bound = _NO_BOUND if until is None else until
        limit = _NO_BOUND if max_events is None else fired_before + max_events
        if stop_flag is None:
            stop_flag = [False]
        on_fire = self.on_fire
        observe = on_fire is not None or self._recent is not None
        try:
            while times:
                time = _heappop(times)
                bucket = buckets.get(time)
                if bucket is None:
                    continue  # stale timestamp (bucket compacted/exhausted)
                # Mark the bucket active *before* any user code can run: a
                # fired callback may cancel events, and a cancellation-
                # triggered compaction must not collect the bucket this loop
                # is holding a live alias to (it would double-decrement the
                # cancel accounting when the alias is drained).
                self._active_time = time
                if time > until_bound:
                    _heappush(times, time)
                    self.now = until
                    break
                # Stop *before* advancing the clock into a bucket no event of
                # which will fire: `now` must remain the last fired time when
                # a stop cell or event budget ends the run.
                if fired >= limit or stop_flag[0]:
                    _heappush(times, time)
                    break
                self.now = time
                index = 0
                stopped = False
                try:
                    if len(bucket) == 1 and not observe:
                        # Single fast-entry bucket: the guard above already
                        # proved the stop cell clear and the budget open, so
                        # the one event fires with no further checks.
                        # Directory-protocol traffic is mostly unicast (one
                        # event per cycle), making this the common case there.
                        entry = bucket[0]
                        if len(entry) != 3:
                            # Consumed before firing: a raising callback must
                            # not leave its own entry queued for re-delivery.
                            index = 1
                            if len(entry) == 5:
                                entry[2](entry[4])
                            else:
                                entry[2]()
                            fired += 1
                            if len(bucket) == 1:
                                del buckets[time]
                                continue
                            if not bucket:
                                # A mid-callback drain() emptied the queue.
                                continue
                            # The callback scheduled into this same cycle:
                            # fall through and drain the rest with full checks.
                    # `length` caches len(bucket); the walrus re-check picks up
                    # entries appended by fired callbacks (same-cycle
                    # scheduling) without a len() call per event.
                    length = len(bucket)
                    while index < length or index < (length := len(bucket)):
                        if stop_flag[0]:
                            stopped = True
                            break
                        try:
                            entry = bucket[index]
                        except IndexError:
                            # A mid-callback drain() emptied the bucket while
                            # `length` was still caching its old size (zero
                            # cost when not raised on 3.11+).
                            break
                        size = len(entry)
                        if size == 3:
                            event = entry[2]
                            if event.cancelled:
                                event._scheduler = None
                                self._cancelled -= 1
                                index += 1
                                continue
                        if fired >= limit:
                            stopped = True
                            break
                        index += 1
                        if size == 3:
                            event._scheduler = None
                            event.callback()
                        elif size == 5:
                            entry[2](entry[4])
                        else:
                            entry[2]()
                        fired += 1
                        if observe:
                            label = event.label if size == 3 else entry[3]
                            recent = self._recent
                            if recent is not None:
                                recent.append((time, label))
                            if on_fire is not None:
                                on_fire(time, label)
                except BaseException:
                    # The old heap loop popped each entry before firing,
                    # so a raising callback was exception-safe by
                    # construction.  Restore that here: drop the consumed
                    # prefix (the raising event included) and put the
                    # bucket's timestamp back so the remaining same-cycle
                    # events stay reachable by a later run().
                    if index:
                        del bucket[:index]
                    if buckets.get(time) is bucket:
                        if bucket:
                            _heappush(times, time)
                        else:
                            del buckets[time]
                    raise
                if stopped:
                    if index:
                        del bucket[:index]
                    if bucket:
                        _heappush(times, time)
                    elif buckets.get(time) is bucket:
                        del buckets[time]
                    break
                if buckets.get(time) is bucket:
                    # Identity-guarded: a mid-callback drain() already removed
                    # (or drain + reschedule replaced) this bucket.
                    del buckets[time]
        finally:
            self._fired = fired
            self._active_time = None
        return fired - fired_before

    def drain(self) -> None:
        """Discard all pending events without running them."""
        for bucket in self._buckets.values():
            for entry in bucket:
                if len(entry) == 3 and isinstance(entry[2], Event):
                    entry[2]._scheduler = None
            # Each bucket list is cleared in place as well as the dict: a
            # drain issued from *inside* a fired callback (Simulator.finish
            # mid-run) must stop the loop, which is still indexing into the
            # active bucket's list.
            bucket.clear()
        # In place: compiled network closures hold direct references to both
        # containers, and they must observe the emptied queue.
        self._buckets.clear()
        self._times.clear()
        self._cancelled = 0
        self._compact_watermark = _COMPACT_MIN_CANCELLED

    def reset(self) -> None:
        """Re-arm the scheduler for a fresh run: empty queue, time zero.

        The bucket containers are cleared *in place* (via :meth:`drain`) —
        compiled network closures hold direct aliases to them, and those
        closures survive a system reset.  ``on_fire`` and ``arena`` are
        deliberately preserved: both are installed by the harness around the
        scheduler, not by the run.
        """
        self.drain()
        self.now = 0
        self._sequence = 0
        self._fired = 0


# --------------------------------------------------------- compiled backend
#
# The compiled backend (repro._core._cext) implements only the scheduler's
# hot methods in C, against the *same* observable data layout (`_buckets`
# dict of tuple-entry lists, `_times` heap, integer counters) plus the
# recent-event ring in C arrays.  Everything cold — drain/reset/step/
# compaction — is the pure implementation
# above, reused verbatim as class attributes of a thin Python subclass.  The
# pure class therefore stays the executable specification: any behavioural
# divergence between backends is a bug in the extension.


def _build_compiled_scheduler() -> type:
    """Create the compiled Scheduler class (imports the extension).

    Called lazily by :mod:`repro._core` so that ``REPRO_BACKEND=pure``
    never imports the extension at all; raises ImportError when the
    extension is not built.
    """
    _cext = _core.load_extension()
    _cext._init_classes(Event, SimulationError)

    class CompiledScheduler(_cext.SchedulerBase):
        """Bucket-queue scheduler with the hot methods compiled to C.

        Drop-in replacement for :class:`Scheduler`: identical event
        ordering, identical error messages, identical container layout —
        the network fast paths that push entries straight into
        ``_buckets``/``_times`` work unchanged against it.
        """

        __slots__ = ()

        # Cold paths shared with the pure implementation (plain functions
        # and property descriptors work across classes via attribute access;
        # every attribute they touch exists on the C base as a member).
        pending = Scheduler.pending
        fired = Scheduler.fired
        _compact = Scheduler._compact
        step = Scheduler.step
        drain = Scheduler.drain
        reset = Scheduler.reset

    return CompiledScheduler


_core.provide(pure=Scheduler, compiled_factory=_build_compiled_scheduler)


def active_scheduler_class() -> type:
    """The Scheduler class of the active backend (see :mod:`repro._core`)."""
    return _core.scheduler_class()
