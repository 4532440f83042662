"""Durable, crash-safe work-unit store for distributed campaigns.

The campaign service (:mod:`repro.experiments.service`) shards sweeps and
verification campaigns into self-describing *work units* persisted in a
:class:`JobStore` — a plain directory, shareable between any number of worker
processes on one filesystem.  The store is the single source of truth for a
campaign's progress: every unit is exactly one JSON *ticket* file living in
the directory named after its state, and every transition is one atomic
filesystem operation, so a crash at any instant leaves the store recoverable:

``pending/``
    claimable tickets.  ``claim()`` is ``os.rename(pending/X, leased/X)`` —
    atomic on POSIX, so exactly one worker wins a unit no matter how many
    race for it.  Each handle claims from a sorted *snapshot* of pending
    ids and re-lists the directory only when the snapshot holds nothing
    claimable, so one claim costs the same whether the queue holds ten
    units or ten thousand; a candidate another claimant took first simply
    fails its read or its rename and is skipped.
``leased/``
    tickets being executed.  A lease sidecar (``leases/X.json``, written with
    ``os.replace``) records the worker, a fencing ``lease_id`` and a wall
    clock deadline; workers renew it by heartbeat.  A crashed or wedged
    worker stops renewing, the deadline passes, and :meth:`recover` moves the
    ticket back to ``pending/`` — worker death is a re-dispatch, not a loss.
``done/``
    completed tickets; the unit's result lives in ``results/X.json``
    (``os.replace``-d into place *before* the ticket moves, so a ``done``
    ticket always has a complete result behind it — or is quarantined for
    recomputation if that result turns out unreadable).
``failed/``
    tickets awaiting their retry backoff (exponential in the attempt count).
``quarantine/``
    poison units that failed ``max_attempts`` times.  A failure artifact is
    recorded under ``artifacts/`` and the campaign *continues* — graceful
    degradation, never a hang.

A crash between a transition's two steps can leave a unit's ticket in two
state directories; the copy in the directory earlier in ``_PRIORITY`` wins.
The full five-directory dedupe runs in :meth:`JobStore.recover` (when a
worker starts and on every coordinator pass).  Between claims a worker runs
:meth:`JobStore.reclaim`, which lists only ``leased/`` and ``failed/`` and
settles duplicates of just the ids it touches; ``claim()`` itself drops a
pending candidate that already has a ``done`` or ``quarantine`` ticket.  A
pending + leased pair whose lease is still live is a *speculation* (see
:meth:`JobStore.speculate`), not a crash leftover, and both copies stay.

An append-only ``journal.jsonl`` records every transition (enqueue, claim,
done, failed, lease-expired, requeue, retry, speculate, quarantine, ...) so
resume semantics are auditable: the chaos tests assert "zero recomputation of
``done`` units" directly from the journal.  Journal offsets are byte
positions, so a run-scoped read parses only what the run appended.

Execution is **at-least-once**: a lease can expire under a worker that is
merely slow, and speculation deliberately double-dispatches stragglers, so
the same unit may run twice.  That is safe here by construction — campaign
units are deterministic (the reset-equivalence and parallel==serial
contracts), so duplicate executions produce identical results and whichever
commit lands first wins; the loser is fenced by its stale ``lease_id`` or by
the ticket having already moved.
"""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
import os
import tempfile
import time
import uuid
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

from ..errors import ConfigurationError, JobStoreError

#: Work-unit states; a ticket is exactly one file in the directory of its state.
PENDING = "pending"
LEASED = "leased"
DONE = "done"
FAILED = "failed"
QUARANTINED = "quarantine"

STATES = (PENDING, LEASED, DONE, FAILED, QUARANTINED)

#: Side directories: lease sidecars and committed results, one file per unit.
LEASES = "leases"
RESULTS = "results"

#: Resolution priority when a crash mid-transition leaves a unit's ticket in
#: two state directories at once (transitions write the target before
#: unlinking the source): the *target* of any legal transition outranks its
#: source, so keeping the highest-priority copy always lands the unit where
#: the interrupted transition was headed.
_PRIORITY = (DONE, QUARANTINED, FAILED, PENDING, LEASED)


def check_store_settings(
    lease_timeout: float,
    max_attempts: int,
    backoff_base: float = 0.5,
    backoff_cap: float = 30.0,
) -> None:
    """Raise :exc:`ConfigurationError` for settings that would wedge a store.

    A NaN or infinite lease deadline never expires (a dead worker's units
    would hang until the coordinator's stall timeout), a non-positive one
    expires every lease at once, fewer than one attempt quarantines units
    unrun, and a negative or non-finite backoff schedules retries in the
    past or never.
    """
    if not (_finite(lease_timeout) and lease_timeout > 0):
        raise ConfigurationError(
            "lease_timeout must be a finite number of seconds > 0, "
            f"got {lease_timeout!r}"
        )
    if (
        isinstance(max_attempts, bool)
        or not isinstance(max_attempts, numbers.Integral)
        or max_attempts < 1
    ):
        raise ConfigurationError(
            f"max_attempts must be an integer >= 1, got {max_attempts!r}"
        )
    for name, value in (("backoff_base", backoff_base), ("backoff_cap", backoff_cap)):
        if not (_finite(value) and value >= 0):
            raise ConfigurationError(
                f"{name} must be a finite number of seconds >= 0, got {value!r}"
            )


def _finite(value) -> bool:
    return (
        isinstance(value, numbers.Real)
        and not isinstance(value, bool)
        and math.isfinite(value)
    )


@dataclass
class WorkUnit:
    """One self-describing unit of campaign work.

    ``unit_id`` is the unit's durable identity — the existing config-hash
    cache key for sweep points, a content hash for verification tasks — so
    re-enqueueing the same campaign into the same store finds its completed
    units instead of recomputing them.  ``payload`` is whatever the executor
    (:func:`repro.experiments.service.execute_unit`) needs, JSON-encodable.
    """

    unit_id: str
    kind: str
    description: str = ""
    payload: Dict = field(default_factory=dict)
    attempts: int = 0
    not_before: float = 0.0
    enqueued_at: float = 0.0
    last_error: Optional[str] = None

    def to_jsonable(self) -> Dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_jsonable(cls, data: Dict) -> "WorkUnit":
        return cls(**data)


@dataclass
class Lease:
    """A claimed unit plus the fencing token proving the claim is still ours."""

    unit: WorkUnit
    lease_id: str
    worker_id: str
    deadline: float


def _unlink(path: str) -> None:
    try:
        os.unlink(path)
    except FileNotFoundError:
        pass


class JobStore:
    """Filesystem-backed durable work queue (see the module docstring).

    All timestamps are wall-clock seconds from ``clock`` (default
    :func:`time.time`); tests inject a fake clock to exercise lease expiry
    and retry backoff without sleeping.
    """

    def __init__(
        self,
        root,
        lease_timeout: float = 30.0,
        max_attempts: int = 3,
        backoff_base: float = 0.5,
        backoff_cap: float = 30.0,
        clock: Callable[[], float] = time.time,
    ) -> None:
        check_store_settings(lease_timeout, max_attempts, backoff_base, backoff_cap)
        self.root = Path(root).expanduser()
        self.lease_timeout = float(lease_timeout)
        self.max_attempts = int(max_attempts)
        self.backoff_base = float(backoff_base)
        self.backoff_cap = float(backoff_cap)
        self.clock = clock
        self._dirs = {
            name: str(self.root / name) for name in (*STATES, LEASES, RESULTS)
        }
        for directory in self._dirs.values():
            os.makedirs(directory, exist_ok=True)
        self.artifacts_dir = self.root / "artifacts"
        self.artifacts_dir.mkdir(exist_ok=True)
        self.journal_path = self.root / "journal.jsonl"
        #: Pending ids this handle has listed but not yet claimed, sorted
        #: descending so the next candidate pops off the end.
        self._snapshot: List[str] = []

    # ------------------------------------------------------------ primitives

    def _path(self, directory: str, unit_id: str) -> str:
        """``<directory>/<unit_id>.json`` as a plain string.

        The store addresses per-unit files by string: CPython's path parsing
        interns every part, so a ``Path`` per file access would churn the
        interpreter's intern table once per unit and grow it over a drain.
        """
        return f"{self._dirs[directory]}{os.sep}{unit_id}.json"

    def _ticket(self, state: str, unit_id: str) -> Path:
        """A ticket as a ``Path``, for inspection outside the store's loops."""
        return Path(self._path(state, unit_id))

    def _lease_path(self, unit_id: str) -> Path:
        return Path(self._path(LEASES, unit_id))

    def result_path(self, unit_id: str) -> Path:
        return Path(self._path(RESULTS, unit_id))

    def _write_json(self, path, payload: Dict) -> None:
        """Atomic write: unique temp file in the same directory + os.replace."""
        fd, tmp_name = tempfile.mkstemp(dir=os.path.dirname(path), prefix=".tmp-")
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(json.dumps(payload, sort_keys=True))
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:  # pragma: no cover - best-effort cleanup
                pass
            raise

    def _read_json(self, path) -> Optional[Dict]:
        try:
            with open(path) as handle:
                return json.loads(handle.read())
        except FileNotFoundError:
            return None
        except (json.JSONDecodeError, ValueError) as error:
            raise JobStoreError(f"unreadable store file {path}: {error}") from error

    def journal(self, event: str, unit_id: str = "", **fields) -> None:
        """Append one transition record; a single O_APPEND write per line."""
        record = {"t": round(self.clock(), 3), "event": event}
        if unit_id:
            record["unit"] = unit_id
        record.update(fields)
        line = (json.dumps(record, sort_keys=True) + "\n").encode()
        fd = os.open(self.journal_path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
        try:
            os.write(fd, line)
        finally:
            os.close(fd)

    def journal_entries(self, offset: int = 0) -> List[Dict]:
        """Parsed journal records appended after ``offset``.

        ``offset`` is opaque: pass 0 or a value :meth:`journal_offset`
        returned.  Only the bytes after it are read and parsed.
        """
        try:
            with open(self.journal_path, "rb") as handle:
                handle.seek(offset)
                tail = handle.read()
        except FileNotFoundError:
            return []
        entries = []
        for line in tail.splitlines():
            try:
                entries.append(json.loads(line))
            except ValueError:  # torn final line after a crash
                continue
        return entries

    def journal_offset(self) -> int:
        """The journal's current end (its size in bytes), for run-scoped reads."""
        try:
            return os.stat(self.journal_path).st_size
        except FileNotFoundError:
            return 0

    # ----------------------------------------------------------------- query

    def find(self, unit_id: str) -> Optional[str]:
        """The state a unit is currently in, or None if unknown."""
        for state in _PRIORITY:
            if os.path.exists(self._path(state, unit_id)):
                return state
        return None

    def ids(self, state: str) -> List[str]:
        """Sorted unit ids currently in ``state``.

        The store's only directory listing: everything that needs to see a
        state directory goes through here.
        """
        try:
            names = os.listdir(self._dirs[state])
        except FileNotFoundError:
            return []
        return sorted(name[:-5] for name in names if name.endswith(".json"))

    def counts(self) -> Dict[str, int]:
        return {state: len(self.ids(state)) for state in STATES}

    def unit(self, unit_id: str) -> WorkUnit:
        """Load a unit's ticket from whatever state it is in."""
        state = self.find(unit_id)
        if state is None:
            raise JobStoreError(f"unknown unit {unit_id!r}")
        data = self._read_json(self._path(state, unit_id))
        if data is None:
            raise JobStoreError(f"unit {unit_id!r} vanished mid-read")
        return WorkUnit.from_jsonable(data)

    # --------------------------------------------------------------- enqueue

    def enqueue(self, unit: WorkUnit) -> str:
        """Add a unit; a unit already known keeps its state (resume!).

        Returns the state the unit is in afterwards: ``done`` means the
        store already has a committed result for this id and nothing will be
        recomputed.
        """
        existing = self.find(unit.unit_id)
        if existing is not None:
            return existing
        ticket = dataclasses.replace(unit, enqueued_at=self.clock())
        self._write_json(self._path(PENDING, unit.unit_id), ticket.to_jsonable())
        self.journal("enqueue", unit.unit_id, kind=unit.kind)
        return PENDING

    # ----------------------------------------------------------------- claim

    def claim(self, worker_id: str) -> Optional[Lease]:
        """Atomically claim one ready pending unit, or None.

        Candidates come from this handle's snapshot of ``pending/``; the
        directory is listed again only when the snapshot yields nothing
        claimable, so None still means "nothing claimable right now".  The
        winning rename is the *only* arbitration: concurrent claimants
        racing for the same ticket all attempt the same rename and exactly
        one succeeds; the rest move on to the next candidate.
        """
        now = self.clock()
        lease = self._claim_from_snapshot(worker_id, now)
        if lease is None:
            self._snapshot = self.ids(PENDING)
            self._snapshot.reverse()
            lease = self._claim_from_snapshot(worker_id, now)
        return lease

    def _claim_from_snapshot(self, worker_id: str, now: float) -> Optional[Lease]:
        snapshot = self._snapshot
        waiting: List[str] = []  # in backoff: stays for a later claim
        try:
            while snapshot:
                unit_id = snapshot.pop()
                source = self._path(PENDING, unit_id)
                data = self._read_json(source)
                if data is None:  # claimed or moved since the listing
                    continue
                if os.path.exists(self._path(DONE, unit_id)) or os.path.exists(
                    self._path(QUARANTINED, unit_id)
                ):
                    # A crash leftover of a settled unit: _PRIORITY drops it.
                    _unlink(source)
                    continue
                unit = WorkUnit.from_jsonable(data)
                if unit.not_before > now:
                    waiting.append(unit_id)
                    continue
                try:
                    os.rename(source, self._path(LEASED, unit_id))
                except FileNotFoundError:
                    continue  # another claimant won this ticket
                return self._grant(unit, worker_id, now)
            return None
        finally:
            snapshot.extend(reversed(waiting))

    def _grant(self, unit: WorkUnit, worker_id: str, now: float) -> Lease:
        """Write the lease sidecar for a ticket this worker just renamed."""
        lease = Lease(
            unit=unit,
            lease_id=uuid.uuid4().hex,
            worker_id=worker_id,
            deadline=now + self.lease_timeout,
        )
        self._write_json(
            self._path(LEASES, unit.unit_id),
            {
                "lease_id": lease.lease_id,
                "worker_id": worker_id,
                "deadline": lease.deadline,
                "claimed_at": now,
            },
        )
        self.journal("claim", unit.unit_id, worker=worker_id, attempt=unit.attempts + 1)
        return lease

    def heartbeat(self, lease: Lease) -> bool:
        """Renew the lease deadline; False means the lease was lost (fenced)."""
        sidecar = self._read_json(self._path(LEASES, lease.unit.unit_id))
        if sidecar is None or sidecar.get("lease_id") != lease.lease_id:
            return False
        lease.deadline = self.clock() + self.lease_timeout
        self._write_json(
            self._path(LEASES, lease.unit.unit_id),
            {**sidecar, "deadline": lease.deadline},
        )
        return True

    def _holds_lease(self, lease: Lease) -> bool:
        sidecar = self._read_json(self._path(LEASES, lease.unit.unit_id))
        return sidecar is not None and sidecar.get("lease_id") == lease.lease_id

    # ---------------------------------------------------------- transitions

    def complete(self, lease: Lease, result: Dict, _corrupt: bool = False) -> bool:
        """Commit a finished unit: result first, then the ticket to ``done``.

        Returns False when the commit was fenced — the lease expired and the
        unit was re-dispatched (or already completed) elsewhere.  Fencing a
        *correct* duplicate result is harmless: units are deterministic, so
        whichever commit landed recorded the same values.

        ``_corrupt`` is the :class:`~repro.experiments.service.FaultPlan`
        chaos hook: it commits a deliberately torn result write so the
        read-side corruption quarantine can be tested end to end.
        """
        unit_id = lease.unit.unit_id
        if not self._holds_lease(lease):
            self.journal("commit-fenced", unit_id, worker=lease.worker_id)
            return False
        if _corrupt:
            # Simulate a torn write: bypass the atomic temp-file protocol.
            with open(self._path(RESULTS, unit_id), "w") as handle:
                handle.write('{"kind": "torn')
        else:
            self._write_json(
                self._path(RESULTS, unit_id),
                {"unit_id": unit_id, "kind": lease.unit.kind, "result": result},
            )
        source = self._path(LEASED, unit_id)
        try:
            os.rename(source, self._path(DONE, unit_id))
        except FileNotFoundError:
            self.journal("commit-fenced", unit_id, worker=lease.worker_id)
            return False
        _unlink(self._path(LEASES, unit_id))
        self.journal("done", unit_id, worker=lease.worker_id)
        return True

    def _backoff(self, attempts: int) -> float:
        return min(self.backoff_cap, self.backoff_base * (2 ** max(0, attempts - 1)))

    def _retire(self, unit: WorkUnit, reason: str, worker: str = "") -> str:
        """Move a unit that just failed an attempt to ``failed`` or quarantine."""
        unit_id = unit.unit_id
        if unit.attempts >= self.max_attempts:
            self._write_json(self._path(QUARANTINED, unit_id), unit.to_jsonable())
            artifact = self.artifacts_dir / f"{unit_id}.poison.json"
            self._write_json(
                artifact,
                {
                    "format": "repro-poison-unit-v1",
                    "unit": unit.to_jsonable(),
                    "reason": reason,
                },
            )
            self.journal(
                "quarantine",
                unit_id,
                attempts=unit.attempts,
                artifact=str(artifact),
                worker=worker,
            )
            return QUARANTINED
        self._write_json(self._path(FAILED, unit_id), unit.to_jsonable())
        self.journal(
            "failed",
            unit_id,
            attempts=unit.attempts,
            retry_at=round(unit.not_before, 3),
            worker=worker,
        )
        return FAILED

    def fail(self, lease: Lease, error: str) -> str:
        """Record a failed attempt; backoff-retry or quarantine after N tries."""
        if not self._holds_lease(lease):
            # The lease expired and the unit was re-dispatched: its fate now
            # belongs to the new holder, not to this stale attempt.
            self.journal("fail-fenced", lease.unit.unit_id, worker=lease.worker_id)
            return self.find(lease.unit.unit_id) or PENDING
        unit = dataclasses.replace(
            lease.unit,
            attempts=lease.unit.attempts + 1,
            last_error=str(error)[-2000:],
        )
        unit.not_before = self.clock() + self._backoff(unit.attempts)
        state = self._retire(unit, unit.last_error, worker=lease.worker_id)
        _unlink(self._path(LEASED, unit.unit_id))
        _unlink(self._path(LEASES, unit.unit_id))
        return state

    def release(self, lease: Lease) -> None:
        """Hand an unfinished unit back (graceful shutdown; no attempt burned)."""
        if not self._holds_lease(lease):
            return
        self._write_json(
            self._path(PENDING, lease.unit.unit_id), lease.unit.to_jsonable()
        )
        _unlink(self._path(LEASED, lease.unit.unit_id))
        _unlink(self._path(LEASES, lease.unit.unit_id))
        self.journal("release", lease.unit.unit_id, worker=lease.worker_id)

    # ---------------------------------------------------------------- results

    def load_result(self, unit_id: str) -> Optional[Dict]:
        """The committed result payload of a ``done`` unit.

        A torn or garbled result file (crash or fault injection mid-write) is
        quarantined to ``<name>.corrupt`` and the unit is re-queued for
        recomputation; the caller sees None now and a fresh result after the
        next drain.
        """
        path = self._path(RESULTS, unit_id)
        try:
            with open(path) as handle:
                envelope = json.loads(handle.read())
            return envelope["result"]
        except FileNotFoundError:
            return None
        except (json.JSONDecodeError, KeyError, TypeError, ValueError):
            corrupt = path + ".corrupt"
            try:
                os.replace(path, corrupt)
            except OSError:  # pragma: no cover - already gone
                corrupt = None
            # One rename, so no claimant ever sees the requeued ticket next
            # to its done copy (which the dedupe rule would keep instead).
            try:
                os.rename(self._path(DONE, unit_id), self._path(PENDING, unit_id))
            except FileNotFoundError:
                pass
            self.journal(
                "result-corrupt",
                unit_id,
                quarantined=corrupt,
            )
            return None

    # --------------------------------------------------------------- recovery

    def _lease_live(self, unit_id: str, now: float) -> bool:
        sidecar = self._read_json(self._path(LEASES, unit_id))
        return sidecar is not None and sidecar.get("deadline", 0.0) >= now

    def _drop_copy(self, unit_id: str, state: str, kept: str, now: float) -> None:
        """Delete a lower-priority duplicate ticket of a unit kept in ``kept``.

        A pending copy beside a leased one whose lease is still live is a
        speculation, not a crash leftover: the straggler keeps its ticket and
        lease so that its commit can still win.
        """
        if state == LEASED and kept == PENDING and self._lease_live(unit_id, now):
            return
        _unlink(self._path(state, unit_id))
        if state == LEASED:
            _unlink(self._path(LEASES, unit_id))

    def _dedupe(self, now: float) -> None:
        """Resolve units left in two state dirs by a crash mid-transition."""
        seen: Dict[str, str] = {}
        for state in _PRIORITY:
            for unit_id in self.ids(state):
                if unit_id in seen:
                    self._drop_copy(unit_id, state, seen[unit_id], now)
                else:
                    seen[unit_id] = state

    def _settle(self, unit_id: str, now: float) -> Optional[str]:
        """The dedupe rule for one unit; returns the state it is kept in."""
        kept = None
        for state in _PRIORITY:
            if not os.path.exists(self._path(state, unit_id)):
                continue
            if kept is None:
                kept = state
            else:
                self._drop_copy(unit_id, state, kept, now)
        return kept

    def _expire(self, unit_id: str, reason: str) -> None:
        """One expired lease: burn an attempt and requeue (or quarantine)."""
        source = self._path(LEASED, unit_id)
        if os.path.exists(self._path(PENDING, unit_id)):
            # A speculative copy already re-dispatches the unit.
            _unlink(source)
            _unlink(self._path(LEASES, unit_id))
            return
        data = self._read_json(source)
        if data is None:
            return
        unit = WorkUnit.from_jsonable(data)
        unit.attempts += 1
        unit.last_error = reason
        unit.not_before = self.clock() + self._backoff(unit.attempts)
        self.journal("lease-expired", unit_id, reason=reason, attempts=unit.attempts)
        if unit.attempts >= self.max_attempts:
            self._retire(unit, reason)
        else:
            self._write_json(self._path(PENDING, unit_id), unit.to_jsonable())
            self.journal("requeue", unit_id, attempts=unit.attempts)
        _unlink(source)
        _unlink(self._path(LEASES, unit_id))

    def recover(self) -> Dict[str, int]:
        """Full recovery: dedupe all five state dirs, then :meth:`reclaim`.

        Any process sharing the store may run recovery — transitions stay
        atomic single-file operations, so concurrent recovery and claiming
        interleave safely (a lost race shows up as FileNotFoundError and is
        skipped).
        """
        self._dedupe(self.clock())
        return self.reclaim()

    def reclaim(self) -> Dict[str, int]:
        """Reclaim expired leases and requeue due retries; safe to call often.

        Lists only ``leased/`` and ``failed/`` and settles duplicates of just
        the ids found there, so its cost follows the in-flight units, not the
        campaign size.  Workers run it before every claim.
        """
        now = self.clock()
        expired = 0
        for unit_id in self.ids(LEASED):
            if self._settle(unit_id, now) != LEASED:
                continue
            sidecar = self._read_json(self._path(LEASES, unit_id))
            if sidecar is None:
                # Claim crashed between rename and sidecar write: give the
                # claimant a full lease from the ticket's mtime before
                # declaring it dead.
                try:
                    age = now - os.stat(self._path(LEASED, unit_id)).st_mtime
                except OSError:
                    continue
                if age < self.lease_timeout:
                    continue
                self._expire(unit_id, "lease sidecar missing")
                expired += 1
            elif sidecar.get("deadline", 0.0) < now:
                self._expire(
                    unit_id,
                    f"lease expired (worker {sidecar.get('worker_id', '?')})",
                )
                expired += 1
        retried = 0
        for unit_id in self.ids(FAILED):
            if self._settle(unit_id, now) != FAILED:
                continue
            source = self._path(FAILED, unit_id)
            data = self._read_json(source)
            if data is None:
                continue
            unit = WorkUnit.from_jsonable(data)
            if unit.not_before > now:
                continue
            self._write_json(self._path(PENDING, unit_id), data)
            _unlink(source)
            self.journal("retry", unit_id, attempts=unit.attempts)
            retried += 1
        return {"expired": expired, "retried": retried}

    def expire_worker(self, worker_id: str) -> int:
        """Force-expire every lease held by ``worker_id`` (observed dead).

        The local coordinator watches its spawned worker processes directly,
        so a worker that died holding leases is re-dispatched immediately
        instead of after the wall-clock lease timeout.
        """
        expired = 0
        for unit_id in self.ids(LEASED):
            sidecar = self._read_json(self._path(LEASES, unit_id))
            if sidecar is not None and sidecar.get("worker_id") == worker_id:
                self._expire(unit_id, f"worker {worker_id} died")
                expired += 1
        return expired

    # ------------------------------------------------------------ speculation

    def speculate(self, unit_id: str) -> bool:
        """Double-dispatch a leased straggler: copy its ticket back to pending.

        The first commit (original or speculative) wins; the loser is fenced.
        While the straggler's lease is live, recovery keeps both copies, and
        once it commits, a claim drops the leftover pending copy.
        Deterministic units make the duplicate execution observationally
        harmless — this trades redundant work for tail latency, exactly the
        HPC-workflow straggler pattern.
        """
        source = self._path(LEASED, unit_id)
        target = self._path(PENDING, unit_id)
        if not os.path.exists(source) or os.path.exists(target):
            return False
        data = self._read_json(source)
        if data is None:
            return False
        unit = WorkUnit.from_jsonable(data)
        unit.not_before = 0.0
        self._write_json(target, unit.to_jsonable())
        self.journal("speculate", unit_id)
        return True

    # ------------------------------------------------------------------ misc

    def finished(self, unit_ids: Optional[List[str]] = None) -> bool:
        """True when every unit has reached ``done`` or ``quarantine``."""
        if unit_ids is not None:
            return all(
                self.find(unit_id) in (DONE, QUARANTINED) for unit_id in unit_ids
            )
        counts = self.counts()
        return not (counts[PENDING] or counts[LEASED] or counts[FAILED])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"JobStore({str(self.root)!r}, {self.counts()})"
