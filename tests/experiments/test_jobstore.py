"""The durable job store: claims, leases, retries, corruption, recovery."""

from __future__ import annotations

import json
import os
import sys
import threading
import time

import pytest

from repro.errors import ConfigurationError, JobStoreError
from repro.experiments.jobstore import (
    DONE,
    FAILED,
    LEASED,
    PENDING,
    QUARANTINED,
    JobStore,
    WorkUnit,
)


class FakeClock:
    """Manually advanced wall clock anchored at real time (mtime-compatible)."""

    def __init__(self) -> None:
        self.now = time.time()

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture()
def clock():
    return FakeClock()


@pytest.fixture()
def store(tmp_path, clock):
    return JobStore(
        tmp_path / "store",
        lease_timeout=10.0,
        max_attempts=3,
        backoff_base=0.5,
        backoff_cap=30.0,
        clock=clock,
    )


def _unit(unit_id: str = "u1", **payload) -> WorkUnit:
    return WorkUnit(unit_id=unit_id, kind="test", description=unit_id,
                    payload=payload or {"n": 1})


def _events(store, name=None):
    events = store.journal_entries()
    if name is None:
        return events
    return [event for event in events if event["event"] == name]


class TestLifecycle:
    def test_enqueue_claim_complete_roundtrip(self, store):
        assert store.enqueue(_unit("a")) == PENDING
        lease = store.claim("w1")
        assert lease is not None and lease.unit.unit_id == "a"
        assert store.find("a") == LEASED
        assert store.complete(lease, {"value": 42})
        assert store.find("a") == DONE
        assert store.load_result("a") == {"value": 42}
        assert [e["event"] for e in _events(store)] == ["enqueue", "claim", "done"]
        assert store.finished(["a"])

    def test_enqueue_known_unit_preserves_state(self, store):
        store.enqueue(_unit("a"))
        lease = store.claim("w1")
        store.complete(lease, {"value": 1})
        # Re-enqueueing the same campaign resumes instead of recomputing.
        assert store.enqueue(_unit("a")) == DONE
        assert len(_events(store, "enqueue")) == 1

    def test_claim_has_exactly_one_winner(self, store):
        store.enqueue(_unit("a"))
        first = store.claim("w1")
        second = store.claim("w2")
        assert first is not None
        assert second is None

    def test_claim_skips_units_in_backoff(self, store, clock):
        store.enqueue(_unit("a"))
        lease = store.claim("w1")
        store.fail(lease, "boom")
        clock.advance(store._backoff(1) + 0.01)
        store.recover()  # moves the due retry back to pending
        claimed = store.claim("w1")
        assert claimed is not None and claimed.unit.attempts == 1

    def test_unknown_unit_raises(self, store):
        with pytest.raises(JobStoreError):
            store.unit("nope")


class TestLeases:
    def test_expired_lease_is_redispatched(self, store, clock):
        store.enqueue(_unit("a"))
        store.claim("w1")
        clock.advance(store.lease_timeout + 1.0)
        recovered = store.recover()
        assert recovered["expired"] == 1
        assert store.find("a") == PENDING
        assert store.unit("a").attempts == 1
        events = [e["event"] for e in _events(store)]
        assert "lease-expired" in events and "requeue" in events

    def test_heartbeat_extends_the_lease(self, store, clock):
        store.enqueue(_unit("a"))
        lease = store.claim("w1")
        clock.advance(store.lease_timeout - 1.0)
        assert store.heartbeat(lease)
        clock.advance(store.lease_timeout - 1.0)
        assert store.recover()["expired"] == 0
        assert store.find("a") == LEASED

    def test_commit_after_lease_loss_is_fenced(self, store, clock):
        store.enqueue(_unit("a"))
        stale = store.claim("w1")
        clock.advance(store.lease_timeout + 1.0)
        store.recover()
        clock.advance(store._backoff(1) + 0.01)  # past the retry backoff
        fresh = store.claim("w2")
        assert fresh is not None
        assert not store.complete(stale, {"value": "stale"})
        assert store.complete(fresh, {"value": "fresh"})
        assert store.load_result("a") == {"value": "fresh"}

    def test_fail_after_lease_loss_is_fenced(self, store, clock):
        store.enqueue(_unit("a"))
        stale = store.claim("w1")
        clock.advance(store.lease_timeout + 1.0)
        store.recover()
        clock.advance(store._backoff(1) + 0.01)  # past the retry backoff
        fresh = store.claim("w2")
        assert fresh is not None
        assert store.fail(stale, "stale failure") == LEASED
        # The new holder's unit was not touched by the stale failure.
        assert store.find("a") == LEASED
        assert store.complete(fresh, {"value": 1})

    def test_expire_worker_redispatches_immediately(self, store):
        store.enqueue(_unit("a"))
        store.claim("w1")
        # No clock advance: the coordinator observed the process die.
        assert store.expire_worker("w1") == 1
        assert store.find("a") == PENDING

    def test_missing_sidecar_gets_mtime_grace(self, store, clock):
        store.enqueue(_unit("a"))
        store.claim("w1")
        store._lease_path("a").unlink()
        assert store.recover()["expired"] == 0  # fresh ticket: grace period
        old = clock() - store.lease_timeout - 1.0
        os.utime(store._ticket(LEASED, "a"), (old, old))
        assert store.recover()["expired"] == 1
        assert store.find("a") == PENDING


class TestRetries:
    def test_backoff_is_exponential_and_capped(self, store):
        assert store._backoff(1) == 0.5
        assert store._backoff(2) == 1.0
        assert store._backoff(3) == 2.0
        assert store._backoff(100) == store.backoff_cap

    def test_failed_unit_waits_out_its_backoff(self, store, clock):
        store.enqueue(_unit("a"))
        store.fail(store.claim("w1"), "boom")
        assert store.find("a") == FAILED
        assert store.recover()["retried"] == 0  # not due yet
        clock.advance(store._backoff(1) + 0.01)
        assert store.recover()["retried"] == 1
        assert store.find("a") == PENDING
        assert store.unit("a").last_error == "boom"

    def test_poison_unit_quarantined_with_artifact(self, store, clock):
        store.enqueue(_unit("a"))
        for attempt in range(store.max_attempts):
            clock.advance(store.backoff_cap + 1.0)
            store.recover()
            lease = store.claim("w1")
            assert lease is not None, f"attempt {attempt} could not claim"
            store.fail(lease, f"boom {attempt}")
        assert store.find("a") == QUARANTINED
        artifact = store.artifacts_dir / "a.poison.json"
        payload = json.loads(artifact.read_text())
        assert payload["format"] == "repro-poison-unit-v1"
        assert "boom" in payload["reason"]
        # Quarantine is terminal but not fatal: the campaign can finish.
        assert store.finished(["a"])

    def test_release_returns_unit_without_burning_an_attempt(self, store):
        store.enqueue(_unit("a"))
        store.release(store.claim("w1"))
        assert store.find("a") == PENDING
        assert store.unit("a").attempts == 0


class TestCorruptResults:
    def test_torn_result_is_quarantined_and_recomputed(self, store):
        store.enqueue(_unit("a"))
        store.complete(store.claim("w1"), {"value": 1}, _corrupt=True)
        assert store.find("a") == DONE
        assert store.load_result("a") is None  # detected on read
        assert (store.root / "results" / "a.json.corrupt").exists()
        assert store.find("a") == PENDING  # requeued for recomputation
        assert store.complete(store.claim("w2"), {"value": 1})
        assert store.load_result("a") == {"value": 1}
        assert len(_events(store, "result-corrupt")) == 1


class TestRecovery:
    def test_dedupe_keeps_the_transition_target(self, store):
        store.enqueue(_unit("a"))
        # Simulate a crash mid-commit: ticket copied to done, source left.
        ticket = store.unit("a").to_jsonable()
        store._write_json(store._ticket(DONE, "a"), ticket)
        assert store._ticket(PENDING, "a").exists()
        store.recover()
        assert store.find("a") == DONE
        assert not store._ticket(PENDING, "a").exists()

    def test_recover_is_idempotent_on_a_quiet_store(self, store):
        store.enqueue(_unit("a"))
        store.complete(store.claim("w1"), {"value": 1})
        before = store.journal_offset()
        assert store.recover() == {"expired": 0, "retried": 0}
        assert store.journal_offset() == before

    def test_fresh_store_reopens_with_state_intact(self, tmp_path, clock):
        first = JobStore(tmp_path / "s", clock=clock)
        first.enqueue(_unit("a"))
        first.complete(first.claim("w1"), {"value": 7})
        first.enqueue(_unit("b"))
        # A brand-new handle (fresh process) sees the same truth.
        second = JobStore(tmp_path / "s", clock=clock)
        assert second.find("a") == DONE
        assert second.find("b") == PENDING
        assert second.load_result("a") == {"value": 7}


class TestSpeculation:
    def test_speculative_copy_is_claimable(self, store):
        store.enqueue(_unit("a"))
        original = store.claim("w1")
        assert store.speculate("a")
        speculative = store.claim("w2")
        assert speculative is not None and speculative.unit.unit_id == "a"
        # The speculative claim re-fenced the lease: the straggler loses.
        assert not store.complete(original, {"value": 1})
        assert store.complete(speculative, {"value": 1})
        assert store.load_result("a") == {"value": 1}

    def test_speculate_refuses_double_dispatch_twice(self, store):
        store.enqueue(_unit("a"))
        store.claim("w1")
        assert store.speculate("a")
        assert not store.speculate("a")  # pending copy already exists

    def test_straggler_that_commits_first_after_recovery_wins(self, store):
        store.enqueue(_unit("a"))
        original = store.claim("w1")
        assert store.speculate("a")
        # The coordinator's next poll: a live lease beside its pending copy
        # is a speculation, not a crash leftover, so both copies survive.
        store.recover()
        assert store._ticket(LEASED, "a").exists()
        assert store.complete(original, {"value": 1})
        assert store.find("a") == DONE
        # The speculative copy is dropped, not re-run.
        assert store.claim("w2") is None
        assert not store._ticket(PENDING, "a").exists()
        assert store.load_result("a") == {"value": 1}
        assert len(_events(store, "claim")) == 1

    def test_expired_straggler_yields_to_its_speculative_copy(self, store, clock):
        store.enqueue(_unit("a"))
        stale = store.claim("w1")
        assert store.speculate("a")
        clock.advance(store.lease_timeout + 1.0)
        assert store.recover()["expired"] == 0  # the copy already re-dispatches
        assert not store._ticket(LEASED, "a").exists()
        fresh = store.claim("w2")
        assert fresh is not None and fresh.unit.attempts == 0
        assert not store.complete(stale, {"value": 1})
        assert store.complete(fresh, {"value": 1})

    def test_dead_straggler_leaves_its_speculative_copy_untouched(self, store):
        store.enqueue(_unit("a"))
        store.claim("w1")
        assert store.speculate("a")
        assert store.expire_worker("w1") == 1
        assert store.find("a") == PENDING
        assert store.unit("a").attempts == 0  # no attempt burned, no backoff
        assert not store._ticket(LEASED, "a").exists()
        assert not _events(store, "lease-expired")
        assert store.claim("w2") is not None


class TestClaimSnapshot:
    def test_unit_from_another_handle_is_claimed_once_the_snapshot_runs_dry(
        self, tmp_path, clock
    ):
        first = JobStore(tmp_path / "s", clock=clock)
        second = JobStore(tmp_path / "s", clock=clock)
        first.enqueue(_unit("b"))
        first.enqueue(_unit("c"))
        assert first.claim("w1").unit.unit_id == "b"  # snapshot now holds c
        second.enqueue(_unit("a"))  # sorts first, but after the listing
        assert first.claim("w1").unit.unit_id == "c"
        assert first.claim("w1").unit.unit_id == "a"  # re-listed when dry
        assert first.claim("w1") is None

    def test_candidate_taken_by_another_handle_is_skipped(self, tmp_path, clock):
        first = JobStore(tmp_path / "s", clock=clock)
        second = JobStore(tmp_path / "s", clock=clock)
        for unit_id in ("a", "b", "c"):
            first.enqueue(_unit(unit_id))
        assert first.claim("w1").unit.unit_id == "a"
        assert second.claim("w2").unit.unit_id == "b"
        assert first.claim("w1").unit.unit_id == "c"
        assert first.claim("w1") is None and second.claim("w2") is None

    def test_unit_in_backoff_is_skipped_then_claimed_when_due(self, store, clock):
        store.enqueue(
            WorkUnit(unit_id="a", kind="test", not_before=clock() + 5.0)
        )
        store.enqueue(_unit("b"))
        assert store.claim("w1").unit.unit_id == "b"
        assert store.claim("w1") is None  # "a" is not due, listed or not
        clock.advance(5.0 + 0.01)
        assert store.claim("w1").unit.unit_id == "a"

    def test_pending_duplicate_of_a_done_unit_is_dropped(self, tmp_path, clock):
        first = JobStore(tmp_path / "s", clock=clock)
        second = JobStore(tmp_path / "s", clock=clock)
        first.enqueue(_unit("a"))
        first.enqueue(_unit("b"))
        first.complete(first.claim("w1"), {"value": "a"})  # snapshot holds b
        done = second.claim("w2")
        assert second.complete(done, {"value": "b"})
        # A crash leftover: b's ticket is back in pending beside its done copy.
        first._write_json(first._ticket(PENDING, "b"), done.unit.to_jsonable())
        assert first.claim("w1") is None
        assert first.find("b") == DONE
        assert not first._ticket(PENDING, "b").exists()
        assert first.load_result("b") == {"value": "b"}
        assert [e["unit"] for e in _events(first, "claim")] == ["a", "b"]


    def test_concurrent_handles_grant_each_unit_exactly_once(self, tmp_path):
        """More claimant threads than cores, each with its own snapshot."""
        root = tmp_path / "s"
        seed = JobStore(root)
        unit_ids = [f"u{index:03d}" for index in range(120)]
        for unit_id in unit_ids:
            seed.enqueue(_unit(unit_id))
        granted, problems = [], []

        def drain(worker_id):
            handle = JobStore(root)
            while True:
                lease = handle.claim(worker_id)
                if lease is None:
                    return
                granted.append(lease.unit.unit_id)
                if not handle.complete(lease, {"value": lease.unit.unit_id}):
                    problems.append(f"{worker_id} fenced on {lease.unit.unit_id}")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=drain, args=(f"w{index}",)) for index in range(6)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert not problems
        assert sorted(granted) == unit_ids
        assert seed.finished(unit_ids)


class TestPerClaimRecovery:
    def test_reclaim_lists_only_leased_and_failed(self, store, clock, monkeypatch):
        store.enqueue(_unit("a"))
        store.claim("w1")
        listed = []
        original = store.ids
        monkeypatch.setattr(
            store, "ids", lambda state: listed.append(state) or original(state)
        )
        clock.advance(store.lease_timeout + 1.0)
        assert store.reclaim() == {"expired": 1, "retried": 0}
        assert listed == [LEASED, FAILED]
        assert store.find("a") == PENDING

    def test_reclaim_settles_duplicates_of_the_ids_it_touches(self, store):
        store.enqueue(_unit("a"))
        store.fail(store.claim("w1"), "boom")
        # A crash mid-commit of a later attempt left a done copy behind.
        store._write_json(store._ticket(DONE, "a"), store.unit("a").to_jsonable())
        store.reclaim()
        assert store.find("a") == DONE
        assert not store._ticket(FAILED, "a").exists()

    def test_reclaim_drops_a_dead_leased_copy_beside_pending(self, store, clock):
        store.enqueue(_unit("a"))
        store.claim("w1")
        # A crash in lease expiry: requeued ticket written, source left.
        store._write_json(store._ticket(PENDING, "a"), store.unit("a").to_jsonable())
        clock.advance(store.lease_timeout + 1.0)
        assert store.reclaim()["expired"] == 0
        assert store.find("a") == PENDING
        assert not store._ticket(LEASED, "a").exists()
        assert not store._lease_path("a").exists()


class TestJournalOffsets:
    def test_entries_after_an_offset_are_the_run_scoped_tail(self, store):
        store.enqueue(_unit("a"))
        offset = store.journal_offset()
        assert offset == store.journal_path.stat().st_size
        store.enqueue(_unit("b"))
        assert [e["unit"] for e in store.journal_entries(offset)] == ["b"]
        assert store.journal_entries(store.journal_offset()) == []

    def test_torn_final_line_is_skipped(self, store):
        store.enqueue(_unit("a"))
        offset = store.journal_offset()
        with open(store.journal_path, "ab") as handle:
            handle.write(b'{"event": "cla')
        assert store.journal_entries(offset) == []
        assert [e["event"] for e in store.journal_entries()] == ["enqueue"]

    def test_missing_journal_reads_empty(self, tmp_path):
        fresh = JobStore(tmp_path / "s")
        assert fresh.journal_offset() == 0
        assert fresh.journal_entries() == []


class TestSettingsValidation:
    @pytest.mark.parametrize(
        "settings",
        [
            {"lease_timeout": float("nan")},
            {"lease_timeout": float("inf")},
            {"lease_timeout": -1},
            {"lease_timeout": 0},
            {"lease_timeout": "30"},
            {"max_attempts": 0},
            {"max_attempts": 2.5},
            {"max_attempts": True},
            {"backoff_base": -1.0},
            {"backoff_base": float("nan")},
            {"backoff_cap": float("inf")},
        ],
    )
    def test_bad_settings_fail_at_construction(self, tmp_path, settings):
        with pytest.raises(ConfigurationError):
            JobStore(tmp_path / "s", **settings)
        assert not (tmp_path / "s").exists()

    def test_edge_settings_are_accepted(self, tmp_path):
        store = JobStore(
            tmp_path / "s", lease_timeout=0.01, max_attempts=1, backoff_base=0.0
        )
        assert store.max_attempts == 1 and store.backoff_base == 0.0
