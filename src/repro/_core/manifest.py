"""The acceleration manifest: which Python each compiled fast path mirrors.

Every C delivery object in :mod:`repro._core` inlines the *semantics* of
specific Python methods instead of calling them.  That is only faithful
while those methods are still the definitions the C code mirrors: a
subclass override or a class-level monkeypatch (bug-injection tests patch
hooks like ``_serve_stable`` to corrupt a protocol on purpose) must keep the
pure Python path, or the compiled path would silently mask the injected bug.

This module states that rule once, as data.  Each :class:`FastPath` row
names one C fast path (or one sub-mode of it) and lists

* ``component`` — the ``backend_info()["components"]`` entry it belongs to;
* ``c_types`` — the extension types it is built from;
* ``serves`` — the *exact* classes it may stand in for (subclasses decline);
* ``inlines`` — the methods it inlines, resolved on each served class;
* ``mirrors`` — methods of other classes it mirrors field for field;
* ``local_hooks`` — names whose presence in an instance ``__dict__`` (a
  hand-patched bound hook) declines it;
* ``selections`` — the ``handler_selections`` keys its decline shows in.

Classes are named by dotted path so this module imports nothing from
``repro``.  :func:`capture` resolves every row and snapshots each method
object once, per row and served class, ready for identity checks; ``repro/__init__`` calls it after importing every module the
table names, so the snapshot precedes any user code that could patch a
class.  The selectors in :mod:`repro.protocols.dispatch` then ask
:func:`serves`, :func:`is_pristine`, :func:`hooked` and :func:`carries`.
"""

from __future__ import annotations

import importlib
from typing import Dict, Iterator, NamedTuple, Optional, Tuple

_SNOOPING = "repro.protocols.snooping.cache_controller.SnoopingCacheController"
_BASH = "repro.protocols.bash.cache_controller.BashCacheController"
_DIRECTORY = "repro.protocols.directory.cache_controller.DirectoryCacheController"
_SNOOPING_MEMORY = (
    "repro.protocols.snooping.memory_controller.SnoopingMemoryController"
)
_BASH_MEMORY = "repro.protocols.bash.memory_controller.BashMemoryController"

#: Data-layer methods several fast paths mirror.
_TRANSACTION = (
    "repro.coherence.transaction.Transaction",
    ("record_marker", "invalidated_after"),
)
_BLOCK = ("repro.coherence.block.CacheBlock", ("invalidate", "become_owner"))
_ARENA_RELEASE = (
    "repro.sim.arena.SimulationArena",
    ("release_transaction", "release_message"),
)
_ARENA_ALLOC = ("repro.sim.arena.SimulationArena", ("message", "transaction"))
_LINK = ("repro.interconnect.link.EndpointLink", ("transmit", "occupancy_cycles"))
_NET_SEND = (
    ("repro.interconnect.ordered_network.TotallyOrderedNetwork", ("send",)),
    (
        "repro.interconnect.unordered_network.UnorderedNetwork",
        ("send", "_compile_injection"),
    ),
)

class FastPath(NamedTuple):
    """One C fast path and the Python it stands in for."""

    name: str
    component: str
    c_types: Tuple[str, ...]
    serves: Tuple[str, ...]
    inlines: Tuple[str, ...]
    mirrors: Tuple[Tuple[str, Tuple[str, ...]], ...] = ()
    local_hooks: Tuple[str, ...] = ()
    selections: Tuple[str, ...] = ()


#: ``SnoopDeliver``/``PutDeliver``: a Snooping/BASH node's ordered entries.
SNOOP_DELIVER = FastPath(
    name="snoop_deliver",
    component="handlers",
    c_types=("SnoopDeliver", "PutDeliver"),
    serves=(_SNOOPING, _BASH),
    inlines=(
        "_snoop_request",
        "_snoop_putm",
        "_handle_own_request",
        "_try_complete_at_marker",
        "_own_request_sufficient",
        "_serve_stable",
    ),
    mirrors=(_TRANSACTION, _BLOCK),
    selections=("{cls}.GETS", "{cls}.GETM", "{cls}.PUTM"),
)

#: ``SnoopDeliver`` home-serve sub-mode (``mem_mode`` 2): the home memory's
#: ordered request handling runs in C; otherwise it stays a Python call.
HOME_SERVE = FastPath(
    name="home_serve",
    component="handlers",
    c_types=("SnoopDeliver",),
    serves=(_SNOOPING_MEMORY, _BASH_MEMORY),
    inlines=("_ordered_request", "_serve_request", "_note_request_observed"),
    mirrors=(
        (
            "repro.coherence.directory.DirectoryEntry",
            ("grant_exclusive", "add_sharer", "is_sufficient"),
        ),
    ),
)

#: ``SnoopDeliver``/``PutDeliver`` home-inline sub-mode: the memoised home
#: test reduced to ``(address // block_bytes) % num_procs == node_id``.
HOME_INLINE = FastPath(
    name="home_inline",
    component="handlers",
    c_types=("SnoopDeliver", "PutDeliver"),
    serves=(_SNOOPING_MEMORY, _BASH_MEMORY),
    inlines=("is_home_for",),
    mirrors=(("repro.common.config.SystemConfig", ("home_node",)),),
)

#: ``DirDeliver``: a Directory node's MARKER and forwarded-request entries.
DIR_DELIVER = FastPath(
    name="dir_deliver",
    component="handlers",
    c_types=("DirDeliver",),
    serves=(_DIRECTORY,),
    inlines=("_handle_marker", "_handle_forward", "_try_complete"),
    mirrors=(_TRANSACTION,),
    selections=("{cls}.MARKER", "{cls}.FWD_GETS", "{cls}.FWD_GETM"),
)

#: ``DataDeliver`` (``directory=0``): the Snooping/BASH DATA response chain,
#: also the ordered entries' upgrade-at-marker completer.
DATA_DELIVER = FastPath(
    name="data_deliver",
    component="handlers",
    c_types=("DataDeliver",),
    serves=(_SNOOPING, _BASH),
    inlines=(
        "_handle_data",
        "_finish_getm",
        "_finish_gets",
        "_service_deferred",
        "_complete",
    ),
    mirrors=(_TRANSACTION, _BLOCK, _ARENA_RELEASE),
    selections=("{cls}.DATA",),
)

#: ``DataDeliver`` (``directory=1``): the Directory DATA response chain, also
#: ``DirDeliver``'s marker-side completer.
DIR_DATA_DELIVER = FastPath(
    name="dir_data_deliver",
    component="handlers",
    c_types=("DataDeliver",),
    serves=(_DIRECTORY,),
    inlines=(
        "_handle_marker",
        "_handle_forward",
        "_try_complete",
        "_handle_data",
        "_finish_gets",
        "_service_deferred",
        "_complete",
    ),
    mirrors=(_TRANSACTION, _BLOCK, _ARENA_RELEASE),
    selections=("{cls}.DATA",),
)

#: ``MemServe``: the Snooping home memory's memory-is-owner DATA reply.
MEM_SERVE = FastPath(
    name="mem_serve",
    component="handlers",
    c_types=("MemServe",),
    serves=(_SNOOPING_MEMORY,),
    inlines=("_send_data",),
    mirrors=(_ARENA_ALLOC,),
    local_hooks=("_send_data",),
)

#: ``SequencerStep``, sequencer side: the per-reference chain.
SEQUENCER_STEP = FastPath(
    name="sequencer_step",
    component="issue_chain",
    c_types=("SequencerStep",),
    serves=("repro.system.sequencer.Sequencer",),
    inlines=(
        "_perform",
        "_fetch_next",
        "_finish_stream",
        "_complete_hit",
        "_complete_miss",
        "_account",
        "_maybe_evict",
        "start",
    ),
    mirrors=(
        (
            "repro.coherence.cache_state.CacheBlockStore",
            ("get", "is_full", "eviction_candidate", "drop"),
        ),
        _TRANSACTION,
        _BLOCK,
        _ARENA_ALLOC,
    ),
    local_hooks=(
        "_perform",
        "_fetch_next",
        "_finish_stream",
        "_complete_hit",
        "_complete_miss",
        "_account",
        "_maybe_evict",
    ),
    selections=("Sequencer{node}.step",),
)

#: ``SequencerStep``, cache side: transaction allocation, MSHR insert,
#: request counters and the protocol ``_send_*`` dispatch (send mode 0).
ISSUE_REQUEST = FastPath(
    name="issue_request",
    component="issue_chain",
    c_types=("SequencerStep",),
    serves=(_SNOOPING, _BASH, _DIRECTORY),
    inlines=("issue_request", "issue_writeback", "has_outstanding"),
    local_hooks=(
        "issue_request",
        "issue_writeback",
        "_send_request",
        "_send_writeback",
    ),
    selections=("Sequencer{node}.step",),
)

#: ``SequencerStep`` send mode 1: Snooping's broadcast send and the ordered
#: network's injection, through prebuilt ``LinkPush`` objects.
ISSUE_BROADCAST = FastPath(
    name="issue_broadcast",
    component="issue_chain",
    c_types=("SequencerStep", "LinkPush"),
    serves=(_SNOOPING,),
    inlines=(
        "_send_request",
        "_send_writeback",
        "_build_request_message",
        "_request_recipients",
        "_writeback_recipients",
    ),
    mirrors=(_LINK, *_NET_SEND),
)

#: ``SequencerStep`` send mode 2: Directory's unicast send, home routing and
#: the unordered network's injection.
ISSUE_UNICAST = FastPath(
    name="issue_unicast",
    component="issue_chain",
    c_types=("SequencerStep", "LinkPush"),
    serves=(_DIRECTORY,),
    inlines=("_send_request", "_send_writeback", "home_of"),
    mirrors=(
        _LINK,
        *_NET_SEND,
        ("repro.common.config.SystemConfig", ("home_node",)),
    ),
    local_hooks=("home_of",),
)

#: ``SampleTick``: one BASH controller's sampling tick.
SAMPLE_TICK = FastPath(
    name="sample_tick",
    component="adaptation",
    c_types=("SampleTick",),
    serves=(_BASH,),
    inlines=("_sample_utilization", "_schedule_sampling"),
    mirrors=(
        (
            "repro.protocols.bash.adaptive.BandwidthAdaptiveMechanism",
            ("observe_window",),
        ),
        ("repro.protocols.bash.adaptive.AdaptiveSample", ("__init__",)),
        ("repro.common.stats.RunningMean", ("record",)),
        ("repro.interconnect.link.EndpointLink", ("busy_time_up_to",)),
    ),
    local_hooks=("_sample_utilization", "_schedule_sampling"),
    selections=("{cls}.SAMPLE",),
)

ROWS: Tuple[FastPath, ...] = (
    SNOOP_DELIVER,
    HOME_SERVE,
    HOME_INLINE,
    DIR_DELIVER,
    DATA_DELIVER,
    DIR_DATA_DELIVER,
    MEM_SERVE,
    SEQUENCER_STEP,
    ISSUE_REQUEST,
    ISSUE_BROADCAST,
    ISSUE_UNICAST,
    SAMPLE_TICK,
)

#: The components, in row order.
COMPONENTS: Tuple[str, ...] = tuple(dict.fromkeys(row.component for row in ROWS))

#: Resolved classes by dotted path.
_classes: Dict[str, type] = {}

#: Per ``(row name, served class)``: the ``(class, method, captured object)``
#: triples its decline rule compares, filled once by :func:`capture`.
_checks: Dict[Tuple[str, type], Tuple[Tuple[type, str, object], ...]] = {}


def resolve(path: str) -> type:
    """The class named by a dotted ``module.Class`` path."""
    cls = _classes.get(path)
    if cls is None:
        module, _, name = path.rpartition(".")
        cls = _classes[path] = getattr(importlib.import_module(module), name)
    return cls


def pairs(row: FastPath, served: Optional[str] = None) -> Iterator[Tuple[str, str]]:
    """Every ``(class path, method)`` the row depends on.

    The inlined methods are resolved on ``served`` only when given (the one
    class a selector is building for), else on every served class.
    """
    for path in (served,) if served is not None else row.serves:
        for name in row.inlines:
            yield path, name
    for path, names in row.mirrors:
        for name in names:
            yield path, name


def capture() -> None:
    """Snapshot every method object the table names, once per process."""
    if _checks:
        return
    captured: Dict[Tuple[str, str], object] = {}
    for row in ROWS:
        for served in row.serves:
            checks = []
            for path, name in pairs(row, served):
                if (path, name) not in captured:
                    captured[path, name] = getattr(resolve(path), name)
                checks.append((resolve(path), name, captured[path, name]))
            _checks[row.name, resolve(served)] = tuple(checks)


def serves(row: FastPath, obj: object) -> bool:
    """True when ``type(obj)`` is exactly one of the row's served classes."""
    return (row.name, type(obj)) in _checks


def is_pristine(row: FastPath, obj: object) -> bool:
    """True when the row serves ``type(obj)`` and nothing it mirrors changed.

    The inlined methods are resolved on ``obj``'s own class, so a patch of a
    BASH-only override declines BASH while Snooping keeps its fast path.
    """
    checks = _checks.get((row.name, type(obj)))
    if checks is None:
        return False
    for cls, name, captured in checks:
        if getattr(cls, name) is not captured:
            return False
    return True


def hooked(row: FastPath, obj: object) -> bool:
    """True when ``obj`` carries an instance-level patch of a row hook."""
    return not vars(obj).keys().isdisjoint(row.local_hooks)


def carries(ext, row: FastPath) -> bool:
    """True when the extension module provides every C type of the row."""
    for name in row.c_types:
        if not hasattr(ext, name):
            return False
    return True


def components(ext) -> Dict[str, bool]:
    """Per component: does the extension carry every row of it?"""
    return {
        component: all(
            carries(ext, row) for row in ROWS if row.component == component
        )
        for component in COMPONENTS
    }
