"""Coherence invariants checked over a simulated system's state.

The paper validates its protocols with a stand-alone random tester plus formal
methods.  This module provides the invariant checks the random tester, the
differential verification engine, and the integration tests apply to this
reproduction:

* **Single owner** — for every block, at most one cache is in M or O.
* **Exclusive modified** — if some cache holds a block in M, no other cache
  holds it in S or O.
* **Owner bit consistency** — if no cache owns a block, its home directory
  must say memory is the owner (once the system is quiescent).
* **Data value consistency** — a quiescent block's current value (token) is
  the value written by the most recent store in coherence order; every cache
  holding the block in S/O/M and the memory (when memory owns it) must agree.

Two entry points exist:

* :func:`check_invariants` sweeps every touched block of a (normally
  quiescent) system — the classic end-of-run check;
* :class:`InvariantMonitor` checks invariants *mid-run*, at every transaction
  completion, via the completion hooks of the verification drivers.  The
  block invariants are only *logical-time* invariants here: a writer may
  legally complete while the invalidations its ordered request triggered are
  still queued behind link occupancy (a stale Shared copy with no transaction
  in flight anywhere), and the Directory protocol's upgrade race even leaves
  *two* Modified copies briefly — the losing upgrader re-owns at its marker
  while the winner's stale copy heals only when it services the deferred
  forward.  The monitor therefore treats a settled-check hit as a
  *candidate* and re-checks after a confirmation delay: in-flight traffic
  lands and clears the candidate, while a genuine protocol bug (a copy
  nothing will ever invalidate) persists and is reported.  The quiescent
  end-of-run sweep remains the deterministic backstop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from ..coherence.state import MOSIState
from ..errors import VerificationError
from ..system.multiprocessor import MultiprocessorSystem


@dataclass
class InvariantReport:
    """Outcome of an invariant sweep over one system."""

    blocks_checked: int = 0
    violations: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when no violation was found."""
        return not self.violations

    def raise_on_violation(self) -> None:
        """Raise :class:`VerificationError` if any violation was recorded."""
        if self.violations:
            summary = "; ".join(self.violations[:10])
            raise VerificationError(
                f"{len(self.violations)} coherence invariant violation(s): {summary}"
            )


def _addresses_in_use(system: MultiprocessorSystem) -> Set[int]:
    addresses: Set[int] = set()
    for node in system.nodes:
        for block in node.cache_controller.blocks:
            addresses.add(block.address)
        addresses.update(node.memory_controller.directory.entries().keys())
    return addresses


@dataclass
class BlockView:
    """Stable cache states of one block across every node, for checking."""

    owners: Dict[int, MOSIState]
    holders: Dict[int, MOSIState]
    modified: List[int]


def collect_block_view(system: MultiprocessorSystem, address: int) -> BlockView:
    """Gather every node's stable state for ``address``."""
    owners: Dict[int, MOSIState] = {}
    holders: Dict[int, MOSIState] = {}
    modified: List[int] = []
    for node in system.nodes:
        state = node.cache_controller.state_of(address)
        if state.is_owner:
            owners[node.node_id] = state
        if state.has_valid_data:
            holders[node.node_id] = state
        if state is MOSIState.MODIFIED:
            modified.append(node.node_id)
    return BlockView(owners, holders, modified)


def check_invariants(
    system: MultiprocessorSystem, expect_quiescent: bool = True
) -> InvariantReport:
    """Check the coherence invariants over every block the system has touched."""
    report = InvariantReport()
    for address in sorted(_addresses_in_use(system)):
        report.blocks_checked += 1
        _check_block(system, address, report, expect_quiescent)
    return report


def check_single_owner(
    system: MultiprocessorSystem, address: int
) -> Optional[str]:
    """The single-owner invariant for one block; a violation string or None.

    Note that even this is a *logical-time* invariant: the Directory
    protocol's upgrade race legally leaves two Modified copies for a bounded
    window (see the module docstring), so mid-run callers must treat a hit
    as a candidate to confirm, not an immediate failure.
    """
    view = collect_block_view(system, address)
    if len(view.owners) > 1:
        return f"block 0x{address:x}: multiple cache owners {sorted(view.owners)}"
    return None


def _owner_structure_violations(address: int, view: BlockView) -> List[str]:
    """Single-owner and exclusive-M violations for one block view."""
    violations: List[str] = []
    if len(view.owners) > 1:
        violations.append(
            f"block 0x{address:x}: multiple cache owners {sorted(view.owners)}"
        )
    if view.modified and len(view.holders) > 1:
        violations.append(
            f"block 0x{address:x}: node {view.modified[0]} is Modified but "
            f"{sorted(set(view.holders) - set(view.modified))} also hold copies"
        )
    return violations


def _value_agreement_violations(
    system: MultiprocessorSystem, address: int, view: BlockView, truth: int
) -> List[str]:
    """Sharers disagreeing with the authoritative token ``truth``."""
    violations: List[str] = []
    for node_id, state in view.holders.items():
        token = system.nodes[node_id].cache_controller.blocks.lookup(address).data_token
        if state is MOSIState.SHARED and token != truth:
            violations.append(
                f"block 0x{address:x}: P{node_id} holds stale token {token} "
                f"(owner has {truth})"
            )
    return violations


def _owner_truth(
    system: MultiprocessorSystem, address: int, view: BlockView
) -> Optional[int]:
    """The owning cache's token, or None when no cache owns the block."""
    if not view.owners:
        return None
    owner_id = next(iter(view.owners))
    return system.nodes[owner_id].cache_controller.blocks.lookup(address).data_token


def check_settled_block(
    system: MultiprocessorSystem, address: int
) -> List[str]:
    """Single-owner, exclusive-M and value-agreement checks for one
    transaction-quiet block.

    Callers must ensure no transaction for ``address`` is in flight anywhere
    (see :meth:`InvariantMonitor`); under that guard a violation here is a
    real protocol bug, not a legal transient.
    """
    view = collect_block_view(system, address)
    violations = _owner_structure_violations(address, view)
    truth = _owner_truth(system, address, view)
    if truth is not None:
        violations.extend(
            _value_agreement_violations(system, address, view, truth)
        )
    return violations


def _check_block(
    system: MultiprocessorSystem,
    address: int,
    report: InvariantReport,
    expect_quiescent: bool,
) -> None:
    view = collect_block_view(system, address)
    report.violations.extend(_owner_structure_violations(address, view))

    home = system.nodes[system.config.home_node(address)]
    entry = home.memory_controller.directory.entries().get(address)
    if expect_quiescent and entry is not None:
        if not view.owners and not entry.memory_is_owner and not entry.awaiting_writeback:
            report.violations.append(
                f"block 0x{address:x}: no cache owner but home says "
                f"P{entry.owner} owns it"
            )
        if view.owners and entry.memory_is_owner:
            report.violations.append(
                f"block 0x{address:x}: cache {sorted(view.owners)} owns it but "
                "home says memory is the owner"
            )

    if not expect_quiescent:
        return
    # Data value agreement: the owner's token is the truth (memory's copy
    # when no cache owns the block); sharers must match.
    truth = _owner_truth(system, address, view)
    if truth is None and entry is not None and entry.memory_is_owner:
        truth = entry.data_token
    if truth is not None:
        report.violations.extend(
            _value_agreement_violations(system, address, view, truth)
        )


class InvariantMonitor:
    """Checks coherence invariants at every transaction completion.

    The verification drivers call :meth:`on_complete` from their completion
    callbacks.  The monitor schedules a *settled* check of the completed
    address's block invariants (single owner, exclusive-M, value agreement)
    one cycle later, run only while no transaction for the address is in
    flight on any node.  Because invalidations and handoffs may still be
    queued in the network at that point (legal physical-time transients —
    see the module docstring), a settled-check hit is held as a candidate
    and re-checked after ``confirm_cycles``; only a violation that persists
    across an otherwise-idle window is recorded.  Violations accumulate in
    :attr:`violations` with the cycle at which they were confirmed; a driver
    that passes its run's ``stop_flag`` cell fails fast, since the monitor
    flips the cell with each recorded violation.
    """

    def __init__(
        self,
        system: MultiprocessorSystem,
        max_violations: int = 25,
        confirm_cycles: int = 2_000,
        stop_flag: Optional[List[bool]] = None,
    ) -> None:
        self.system = system
        self.max_violations = max_violations
        self.confirm_cycles = confirm_cycles
        self._stop_flag = stop_flag
        self.violations: List[str] = []
        self.checks_run = 0
        self.settled_checks_run = 0
        self.candidates_seen = 0
        self._scheduler = system.simulator.scheduler
        self._pending_settled: Set[int] = set()
        self._pending_confirm: Dict[int, int] = {}
        self._activity: Dict[int, int] = {}

    # -------------------------------------------------------------- interface

    @property
    def tripped(self) -> bool:
        """True once any invariant violation has been observed."""
        return bool(self.violations)

    def on_complete(self, transaction) -> None:
        """Notify the monitor that ``transaction`` just completed."""
        self.check_address(transaction.address)

    def check_address(self, address: int) -> None:
        """Run the mid-run checks for one block address."""
        if len(self.violations) >= self.max_violations:
            return
        self.checks_run += 1
        self._activity[address] = self._activity.get(address, 0) + 1
        if address not in self._pending_settled:
            self._pending_settled.add(address)
            self._scheduler.schedule_after_fast1(
                1, self._settled_check, address, "invariant-monitor:settle"
            )

    def report(self) -> InvariantReport:
        """The mid-run violations as an :class:`InvariantReport`."""
        report = InvariantReport(blocks_checked=self.checks_run)
        report.violations.extend(self.violations)
        return report

    # --------------------------------------------------------------- internals

    def _record(self, violation: str) -> None:
        self.violations.append(f"cycle {self._scheduler.now}: {violation}")
        if self._stop_flag is not None:
            self._stop_flag[0] = True

    def _in_flight(self, address: int) -> bool:
        for node in self.system.nodes:
            cache = node.cache_controller
            if address in cache.transactions or address in cache.writebacks:
                return True
        return False

    def _settled_check(self, address: int) -> None:
        self._pending_settled.discard(address)
        if len(self.violations) >= self.max_violations:
            return
        if self._in_flight(address):
            return
        self.settled_checks_run += 1
        if not check_settled_block(self.system, address):
            return
        # Candidate: could be a genuine bug or an invalidation still queued
        # in the network.  Re-check after the confirmation delay; only a
        # persisting violation is a finding.
        self.candidates_seen += 1
        if address not in self._pending_confirm:
            self._pending_confirm[address] = self._activity.get(address, 0)
            self._scheduler.schedule_after_fast1(
                self.confirm_cycles,
                self._confirm_check,
                address,
                "invariant-monitor:confirm",
            )

    def _confirm_check(self, address: int) -> None:
        activity_then = self._pending_confirm.pop(address, None)
        if len(self.violations) >= self.max_violations:
            return
        if self._in_flight(address):
            # New traffic took over the block; its completions re-arm the
            # settled check, so the candidate is simply dropped.
            return
        if activity_then != self._activity.get(address, 0):
            # The block saw new completions during the window: whatever we
            # observed belonged to traffic, not to a stuck state.  Those
            # completions scheduled their own settled checks.
            return
        for violation in check_settled_block(self.system, address):
            self._record(violation)


# ---------------------------------------------------------------- hang evidence


def deadlock_dump(
    system: MultiprocessorSystem,
    *,
    completed: int,
    operations: int,
    extra: Optional[Dict] = None,
) -> Dict:
    """JSON-safe snapshot of a stalled system (deadlock/livelock evidence).

    Both the differential watchdog and the campaign service use this to
    persist what the system looked like the moment forward progress stopped,
    so hangs caught in short-lived workers survive as replayable artifacts.
    ``extra`` merges caller-specific context (per-node cursors, recent
    events) into the dump; every value must already be JSON-serialisable.
    """
    dump: Dict = {
        "cycle": system.simulator.scheduler.now,
        "protocol": str(system.config.protocol),
        "operations": operations,
        "completed": completed,
        "outstanding": [repr(t) for t in system.outstanding_transactions()],
        "pending_events": system.simulator.scheduler.pending,
    }
    if extra:
        dump.update(extra)
    return dump
