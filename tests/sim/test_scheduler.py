"""Discrete-event scheduler."""

import gc
import sys

import pytest

from repro.errors import SimulationError
from repro.sim.scheduler import Scheduler, active_scheduler_class
from repro.sim.simulator import Simulator


class TestScheduler:
    def test_events_fire_in_time_order(self):
        scheduler = Scheduler()
        fired = []
        scheduler.schedule_at(30, lambda: fired.append("c"))
        scheduler.schedule_at(10, lambda: fired.append("a"))
        scheduler.schedule_at(20, lambda: fired.append("b"))
        scheduler.run()
        assert fired == ["a", "b", "c"]
        assert scheduler.now == 30

    def test_ties_break_by_insertion_order(self):
        scheduler = Scheduler()
        fired = []
        for name in "abcd":
            scheduler.schedule_at(5, lambda n=name: fired.append(n))
        scheduler.run()
        assert fired == ["a", "b", "c", "d"]

    def test_schedule_after_is_relative(self):
        scheduler = Scheduler()
        times = []
        scheduler.schedule_at(10, lambda: scheduler.schedule_after(5, lambda: times.append(scheduler.now)))
        scheduler.run()
        assert times == [15]

    def test_cannot_schedule_in_the_past(self):
        scheduler = Scheduler()
        scheduler.schedule_at(10, lambda: None)
        scheduler.run()
        with pytest.raises(SimulationError):
            scheduler.schedule_at(5, lambda: None)
        with pytest.raises(SimulationError):
            scheduler.schedule_after(-1, lambda: None)

    def test_cancelled_events_are_skipped(self):
        scheduler = Scheduler()
        fired = []
        event = scheduler.schedule_at(10, lambda: fired.append("x"))
        event.cancel()
        scheduler.run()
        assert fired == []

    def test_pending_excludes_cancelled_events(self):
        scheduler = Scheduler()
        events = [scheduler.schedule_at(10 + i, lambda: None) for i in range(4)]
        assert scheduler.pending == 4
        events[0].cancel()
        events[2].cancel()
        assert scheduler.pending == 2
        # Cancelling twice must not double-count.
        events[0].cancel()
        assert scheduler.pending == 2
        scheduler.run()
        assert scheduler.pending == 0
        assert scheduler.fired == 2

    def test_cancel_after_fire_does_not_corrupt_pending(self):
        scheduler = Scheduler()
        event = scheduler.schedule_at(5, lambda: None)
        scheduler.schedule_at(10, lambda: None)
        scheduler.run(until=7)
        event.cancel()  # already fired; must be a no-op
        assert scheduler.pending == 1
        scheduler.run()
        assert scheduler.pending == 0

    def test_drain_resets_cancellation_accounting(self):
        scheduler = Scheduler()
        events = [scheduler.schedule_at(10 + i, lambda: None) for i in range(3)]
        events[1].cancel()
        scheduler.drain()
        assert scheduler.pending == 0
        # Cancelling an event that was drained must not go negative.
        events[2].cancel()
        assert scheduler.pending == 0
        scheduler.schedule_at(50, lambda: None)
        assert scheduler.pending == 1

    def test_run_until_with_cancelled_head(self):
        # A cancelled event at the head of the queue must neither stop the
        # clock early nor let a later event leak past ``until``.
        scheduler = Scheduler()
        fired = []
        stale = scheduler.schedule_at(10, lambda: fired.append("stale"))
        scheduler.schedule_at(20, lambda: fired.append("live"))
        scheduler.schedule_at(90, lambda: fired.append("late"))
        stale.cancel()
        scheduler.run(until=50)
        assert fired == ["live"]
        assert scheduler.now == 50
        assert scheduler.pending == 1

    def test_run_until_cancelled_head_beyond_until(self):
        scheduler = Scheduler()
        fired = []
        stale = scheduler.schedule_at(80, lambda: fired.append("stale"))
        scheduler.schedule_at(90, lambda: fired.append("late"))
        stale.cancel()
        scheduler.run(until=50)
        assert fired == []
        assert scheduler.now == 50
        assert scheduler.pending == 1

    def test_mass_cancellation_triggers_compaction(self):
        scheduler = Scheduler()
        events = [scheduler.schedule_at(100 + i, lambda: None) for i in range(300)]
        survivors = events[::10]
        for index, event in enumerate(events):
            if index % 10:
                event.cancel()
        assert scheduler.pending == len(survivors)
        # Compaction must have physically removed most cancelled entries.
        queued = sum(len(bucket) for bucket in scheduler._buckets.values())
        assert queued < len(events)
        assert scheduler.run() == len(survivors)

    def test_compaction_from_inside_a_callback_is_safe(self):
        # A fired callback that mass-cancels (triggering compaction) must not
        # desynchronise the running loop from the queue: events scheduled
        # after the compaction still fire, nothing fires twice, and the
        # accounting stays exact.
        scheduler = Scheduler()
        fired = []
        victims = []

        def cancel_everything():
            for victim in victims:
                victim.cancel()
            scheduler.schedule_at(500, lambda: fired.append("after-compaction"))

        scheduler.schedule_at(1, cancel_everything)
        victims.extend(
            scheduler.schedule_at(100 + i, lambda i=i: fired.append(i))
            for i in range(200)
        )
        scheduler.schedule_at(400, lambda: fired.append("survivor"))
        scheduler.run()
        assert fired == ["survivor", "after-compaction"]
        assert scheduler.pending == 0
        assert scheduler.fired == 3
        scheduler.run()
        assert fired == ["survivor", "after-compaction"]

    def test_fast_path_interleaves_with_cancellable_events(self):
        scheduler = Scheduler()
        fired = []
        scheduler.schedule_at_fast(10, lambda: fired.append("fast10"))
        scheduler.schedule_at(5, lambda: fired.append("event5"))
        scheduler.schedule_at_fast1(7, fired.append, "fast1-7")
        victim = scheduler.schedule_at(6, lambda: fired.append("cancelled"))
        victim.cancel()
        scheduler.run()
        assert fired == ["event5", "fast1-7", "fast10"]

    def test_drain_from_inside_a_callback_stops_the_run(self):
        # Simulator.finish() (which drains) can be called by a fired event;
        # the loop must stop cleanly: no later event fires — same-cycle
        # events included — and the queue ends empty.
        scheduler = Scheduler()
        fired = []
        scheduler.schedule_at(5, lambda: (fired.append("drainer"), scheduler.drain()))
        scheduler.schedule_at(5, lambda: fired.append("same-cycle"))
        scheduler.schedule_at(9, lambda: fired.append("later"))
        scheduler.run()
        assert fired == ["drainer"]
        assert scheduler.pending == 0
        # The scheduler remains usable afterwards.
        scheduler.schedule_at(20, lambda: fired.append("fresh"))
        scheduler.run()
        assert fired == ["drainer", "fresh"]

    def test_drain_then_reschedule_same_cycle_from_callback(self):
        scheduler = Scheduler()
        fired = []

        def drain_and_rearm():
            scheduler.drain()
            scheduler.schedule_at_fast(scheduler.now, lambda: fired.append("rearmed"))

        scheduler.schedule_at_fast(5, drain_and_rearm)
        scheduler.schedule_at_fast(5, lambda: fired.append("victim"))
        scheduler.schedule_at_fast(9, lambda: fired.append("later"))
        scheduler.run()
        assert fired == ["rearmed"]
        assert scheduler.pending == 0

    def test_raising_callback_keeps_remaining_events_reachable(self):
        # The heap loop popped each entry before firing, so a raising
        # callback was exception-safe; the bucket loop must match: the
        # raising event is consumed, same-cycle survivors still fire on a
        # later run(), and new events at that cycle are not swallowed.
        scheduler = Scheduler()
        fired = []

        def boom():
            raise RuntimeError("boom")

        scheduler.schedule_at_fast(5, lambda: fired.append("first"))
        scheduler.schedule_at_fast(5, boom)
        scheduler.schedule_at_fast(5, lambda: fired.append("survivor"))
        scheduler.schedule_at_fast(9, lambda: fired.append("later"))
        with pytest.raises(RuntimeError):
            scheduler.run()
        assert fired == ["first"]
        assert scheduler.pending == 2
        scheduler.schedule_at_fast(5, lambda: fired.append("rescheduled"))
        scheduler.run()
        assert fired == ["first", "survivor", "rescheduled", "later"]
        assert scheduler.pending == 0

    def test_raising_single_event_is_consumed(self):
        scheduler = Scheduler()

        def boom():
            raise RuntimeError("boom")

        scheduler.schedule_at_fast(5, boom)
        with pytest.raises(RuntimeError):
            scheduler.run()
        assert scheduler.pending == 0
        assert scheduler.run() == 0  # nothing re-fires

    def test_run_until_bound(self):
        scheduler = Scheduler()
        fired = []
        scheduler.schedule_at(10, lambda: fired.append(10))
        scheduler.schedule_at(100, lambda: fired.append(100))
        scheduler.run(until=50)
        assert fired == [10]
        assert scheduler.now == 50
        assert scheduler.pending == 1

    def test_run_max_events(self):
        scheduler = Scheduler()
        for i in range(10):
            scheduler.schedule_at(i, lambda: None)
        assert scheduler.run(max_events=3) == 3
        assert scheduler.fired == 3

    def test_mass_cancel_from_a_firing_callback_keeps_accounting_exact(
        self, backend
    ):
        # A callback that cancels events can trigger compaction while run()
        # holds an alias to the bucket it is draining; compaction must skip
        # that bucket, and the accounting must not double-count the
        # cancellations surfacing in it.
        scheduler = active_scheduler_class()()
        seen = []

        def cancel_everything():
            for event in current + later:
                event.cancel()
            seen.append(
                (
                    len(scheduler._buckets[5]),
                    sum(len(bucket) for bucket in scheduler._buckets.values()),
                )
            )

        current = [scheduler.schedule_at(5, cancel_everything)]
        current += [scheduler.schedule_at(5, lambda: None) for _ in range(9)]
        later = [scheduler.schedule_at(100 + i, lambda: None) for i in range(70)]
        scheduler.run()
        active, queued = seen[0]
        assert active == 10  # the active bucket was not compacted
        assert queued < 80  # ... but the idle ones were
        assert scheduler.pending == 0
        assert scheduler._cancelled == 0
        assert scheduler.fired == 1

    def test_stop_flag_flipped_by_a_firing_callback(self, backend):
        scheduler = active_scheduler_class()()
        seen = []
        stop = [False]

        def note(i):
            seen.append(i)
            if i == 3:
                stop[0] = True

        for i in range(10):
            scheduler.schedule_at_fast1(i, note, i)
        scheduler.schedule_at(3, lambda: seen.append("same-cycle"))
        assert scheduler.run(stop_flag=stop) == 4
        # Stopped before the next event, same-cycle ones included; the clock
        # stays at the last fired time.
        assert seen == [0, 1, 2, 3]
        assert scheduler.now == 3
        assert scheduler.pending == 7
        stop[0] = False
        assert scheduler.run(stop_flag=stop) == 7
        assert seen == [0, 1, 2, 3, "same-cycle", 4, 5, 6, 7, 8, 9]


def _labels(count, tag):
    # Built at run time, so each label is a fresh (non-interned) object whose
    # reference count only this test and the scheduler touch.
    return ["".join(("ring-", tag, "-", str(i))) for i in range(count)]


class TestRecentRing:
    def test_ring_wraps_at_n_oldest_first(self, backend):
        scheduler = active_scheduler_class()()
        scheduler.record_recent(3)
        for time, label in enumerate("abcde", start=1):
            scheduler.schedule_at_fast(time, lambda: None, label)
        scheduler.run()
        assert scheduler.recent() == [(3, "c"), (4, "d"), (5, "e")]

    def test_partial_ring_is_oldest_first(self, backend):
        scheduler = active_scheduler_class()()
        scheduler.record_recent(10)
        scheduler.schedule_at_fast(7, lambda: None, "late")
        scheduler.schedule_at_fast(2, lambda: None, "early")
        scheduler.schedule_at_fast(2, lambda: None, "early-2")
        scheduler.run()
        assert scheduler.recent() == [(2, "early"), (2, "early-2"), (7, "late")]

    def test_zero_turns_the_ring_off(self, backend):
        scheduler = active_scheduler_class()()
        assert scheduler.recent() == []
        scheduler.record_recent(2)
        scheduler.schedule_at_fast(1, lambda: None, "kept")
        scheduler.run()
        assert scheduler.recent() == [(1, "kept")]
        scheduler.record_recent(0)
        assert scheduler.recent() == []
        scheduler.schedule_at_fast(2, lambda: None, "dropped")
        scheduler.run()
        assert scheduler.recent() == []
        with pytest.raises(ValueError):
            scheduler.record_recent(-1)

    def test_rearming_starts_an_empty_ring_and_survives_reset(self, backend):
        scheduler = active_scheduler_class()()
        scheduler.record_recent(4)
        scheduler.schedule_at_fast(1, lambda: None, "old")
        scheduler.run()
        scheduler.record_recent(4)
        assert scheduler.recent() == []
        scheduler.reset()
        scheduler.schedule_at_fast(1, lambda: None, "new")
        scheduler.run()
        assert scheduler.recent() == [(1, "new")]

    def test_event_entries_record_their_label(self, backend):
        scheduler = active_scheduler_class()()
        scheduler.record_recent(8)
        scheduler.schedule_at(4, lambda: None, "event")
        scheduler.schedule_at(5, lambda: None, "cancelled").cancel()
        scheduler.schedule_at_fast1(6, lambda arg: None, None, "fast1")
        scheduler.run()
        assert scheduler.recent() == [(4, "event"), (6, "fast1")]

    def test_step_feeds_the_ring(self, backend):
        scheduler = active_scheduler_class()()
        scheduler.record_recent(8)
        scheduler.schedule_at_fast(1, lambda: None, "fast")
        scheduler.schedule_at(2, lambda: None, "event")
        scheduler.step()
        scheduler.step()
        assert scheduler.recent() == [(1, "fast"), (2, "event")]

    def test_ring_and_on_fire_see_the_same_events(self, backend):
        scheduler = active_scheduler_class()()
        traced = []
        scheduler.on_fire = lambda time, label: traced.append((time, label))
        scheduler.record_recent(3)
        for time in range(6):
            scheduler.schedule_at_fast(time, lambda: None, f"t{time}")
        scheduler.schedule_at(3, lambda: None, "event")
        scheduler.run()
        assert len(traced) == 7
        assert scheduler.recent() == traced[-3:]

    def test_raising_callback_is_not_recorded(self, backend):
        scheduler = active_scheduler_class()()
        scheduler.record_recent(4)

        def boom():
            raise RuntimeError("boom")

        scheduler.schedule_at_fast(1, lambda: None, "fine")
        scheduler.schedule_at_fast(2, boom, "boom")
        with pytest.raises(RuntimeError):
            scheduler.run()
        assert scheduler.recent() == [(1, "fine")]

    def test_labels_are_released(self, backend):
        labels = _labels(6, backend)
        baseline = [sys.getrefcount(label) for label in labels]

        def fill(scheduler):
            for time, label in enumerate(labels):
                if time % 2:
                    scheduler.schedule_at(time + scheduler.now, _noop, label)
                else:
                    scheduler.schedule_at_fast(time + scheduler.now, _noop, label)
            scheduler.run()

        def counts():
            return [sys.getrefcount(label) for label in labels]

        scheduler = active_scheduler_class()()
        scheduler.record_recent(4)
        fill(scheduler)
        assert counts()[2:] == [count + 1 for count in baseline[2:]]
        scheduler.record_recent(0)
        assert counts() == baseline
        scheduler.record_recent(4)
        fill(scheduler)
        scheduler.record_recent(4)  # re-arming releases the old entries
        assert counts() == baseline
        fill(scheduler)
        assert counts() != baseline
        del scheduler
        gc.collect()
        assert counts() == baseline


def _noop():
    pass


class TestSimulator:
    def test_run_until_quiescent(self):
        simulator = Simulator()
        fired = []
        simulator.scheduler.schedule_at(5, lambda: fired.append(1))
        simulator.run_until_quiescent()
        assert fired == [1]

    def test_quiescence_guard_raises(self):
        simulator = Simulator()

        def rearm():
            simulator.scheduler.schedule_after(1, rearm)

        simulator.scheduler.schedule_at(0, rearm)
        with pytest.raises(SimulationError):
            simulator.run_until_quiescent(max_events=100)

    def test_finish_blocks_further_runs(self):
        simulator = Simulator()
        simulator.finish()
        with pytest.raises(SimulationError):
            simulator.run()
