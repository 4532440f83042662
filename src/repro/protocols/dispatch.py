"""Table-driven message dispatch shared by every protocol controller.

Each controller class declares, per virtual network, which
:class:`~repro.interconnect.message.MessageType` values it handles and which
method implements each one::

    class DirectoryCacheController(CacheControllerBase):
        ORDERED_HANDLERS = {
            MessageType.MARKER: "_handle_marker",
            MessageType.FWD_GETS: "_handle_forward",
            ...
        }

At construction the declarations are *compiled* into tables of bound methods
(:func:`compile_handlers`), so delivering a message is a single dictionary
index — no ``isinstance`` checks, no enum ``if``/``elif`` chains, and no
intermediate ``handle_*`` method between the network and the protocol logic.
:class:`~repro.system.node.Node` merges the two controllers' tables into the
per-node delivery entries the networks index directly.

A message type absent from a controller's table is an *explicit rejection*:
delivery fails loudly through the one shared error path (:func:`reject`),
which every controller and both networks share.  The exhaustiveness test in
``tests/protocols/test_dispatch_engine.py`` walks every controller class and
every message type to pin the handled/rejected split.

The second half of the module selects the compiled fast paths.  When a
controller runs on a compiled scheduler, :func:`compile_ordered_entry`,
:func:`compile_unordered_entry`, :func:`compile_sequencer_step` and
:func:`compile_sample_tick` may return a C object in place of the bound
Python entry.  Which Python each C type mirrors, and so when a selector must
decline, is stated once in :mod:`repro._core.manifest`; the checks here are
only the run-time shapes the table cannot express (prebinds, arena, network
and link types, policy width).  Every decision is recorded in
``repro._core.handler_selections()`` so ``repro backend`` shows what ran
compiled.
"""

from __future__ import annotations

from typing import Callable, Dict, Mapping, NoReturn

import inspect

from .. import _core
from .._core import manifest
from .._core.manifest import (
    DATA_DELIVER,
    DIR_DATA_DELIVER,
    DIR_DELIVER,
    HOME_INLINE,
    HOME_SERVE,
    ISSUE_BROADCAST,
    ISSUE_REQUEST,
    ISSUE_UNICAST,
    MEM_SERVE,
    SAMPLE_TICK,
    SEQUENCER_STEP,
    SNOOP_DELIVER,
)
from ..coherence.transaction import Transaction, _transaction_ids
from ..common.config import SystemConfig
from ..errors import ProtocolError
from ..interconnect.link import EndpointLink
from ..interconnect.message import (
    DestinationUnit,
    Message,
    MessageType,
    _message_ids,
)
from ..interconnect.ordered_network import TotallyOrderedNetwork
from ..interconnect.unordered_network import UnorderedNetwork
from ..sim.arena import SimulationArena

#: A compiled dispatch table: message type -> bound handler.
HandlerTable = Dict[MessageType, Callable[[Message], None]]


#: ``Message.__init__``'s default recipients frozenset — a singleton shared by
#: every message built without an explicit recipient set.  The C message
#: builder receives it via ``_init_issue`` so recycled messages carry the very
#: same object a pure construction would.
_EMPTY_RECIPIENTS = inspect.signature(Message.__init__).parameters[
    "recipients"
].default


def compile_handlers(
    controller: object, spec: Mapping[MessageType, str]
) -> HandlerTable:
    """Bind a declarative ``{message type: method name}`` spec to an instance.

    Raises :class:`ProtocolError` when a declared method does not exist, so a
    typo in a handler declaration fails at construction rather than at the
    first delivery of that message type.
    """
    table: HandlerTable = {}
    for msg_type, method_name in spec.items():
        handler = getattr(controller, method_name, None)
        if handler is None:
            raise ProtocolError(
                f"{type(controller).__name__} declares {msg_type} -> "
                f"{method_name!r} but has no such method"
            )
        table[msg_type] = handler
    return table


def reject(controller: object, network: str, message: Message) -> NoReturn:
    """The one shared error path for messages no handler is registered for."""
    raise ProtocolError(
        f"{type(controller).__name__}({getattr(controller, 'name', '?')}) "
        f"has no handler for {network} {message.msg_type}"
    )


def rejecter(controller: object, network: str) -> Callable[[Message], None]:
    """A delivery entry that rejects every message through :func:`reject`.

    Compiled into a node's dispatch table in place of a missing handler, so
    an unregistered message type fails loudly *when the delivery event fires*
    (the same point in simulated time a handler would have run).
    """

    def reject_delivery(message: Message) -> NoReturn:
        reject(controller, network, message)

    return reject_delivery


# ------------------------------------------------------------ compiled paths


def _accelerator(owner, row):
    """The extension module when ``row`` may run for ``owner``, else None.

    Keyed off the owner's *scheduler instance* (exactly like the
    interconnect's C closures): an owner wired to a compiled scheduler may
    get C objects, one wired to a pure scheduler keeps the reference Python
    entries, so pure and compiled systems interoperate in one process.  The
    extension must also carry the row's C types (an ``.so`` built from an
    older checkout may provide only some of them).
    """
    ext = _core.accelerator_for(getattr(owner, "scheduler", None))
    if ext is None or not manifest.carries(ext, row):
        return None
    return ext


def handler_accelerator(controller, row):
    """:func:`_accelerator` plus the protocol singletons the C side compares."""
    ext = _accelerator(controller, row)
    if ext is not None:
        from ..coherence.state import MEMORY_OWNER, MOSIState  # noqa: PLC0415

        ext._init_protocol(
            MessageType.GETS,
            MessageType.GETM,
            MOSIState.MODIFIED,
            MOSIState.OWNED,
            MOSIState.SHARED,
            MOSIState.INVALID,
            MEMORY_OWNER,
        )
    return ext


def note_selection(controller: object, msg_type: MessageType, status: str) -> None:
    """Record a per-handler compile/decline decision in the backend registry."""
    _core.note_handler_selection(
        f"{type(controller).__name__}.{msg_type.name}", status
    )


# ------------------------------------------------------------ handler layer


def compile_ordered_entry(controller, msg_type, memory_controller, home_filter):
    """A C delivery object for one ordered node entry, or None to decline.

    The decline rule is *per handler*: the controller must be a class the
    row serves exactly, every method the row inlines must be pristine, and
    the dispatch-table entry must still be the default bound method.  The
    C objects prebind reset-stable containers (the transaction dict, the
    block store's raw dict, the node's home memo, the directory's entry
    dict), so they survive system resets; table swaps go through
    ``Node.invalidate_dispatch_cache``, which re-runs this selection.
    """
    if manifest.serves(SNOOP_DELIVER, controller):
        return _snoop_entry(controller, msg_type, memory_controller, home_filter)
    if manifest.serves(DIR_DELIVER, controller):
        return _directory_entry(controller, msg_type, memory_controller)
    return None


def _snoop_entry(controller, msg_type, memory_controller, home_filter):
    """``SnoopDeliver``/``PutDeliver`` for a Snooping or BASH node.

    The memory side compiles only for the stock memory controllers; a
    present-but-custom memory handler stays a Python call behind the C home
    filter, and systems without a home filter decline entirely.
    """
    ext = handler_accelerator(controller, SNOOP_DELIVER)
    if ext is None:
        return None
    if not manifest.is_pristine(SNOOP_DELIVER, controller):
        note_selection(controller, msg_type, "declined")
        return None
    mem_handler = memory_controller.ordered_handlers.get(msg_type)
    if msg_type is MessageType.PUTM:
        if controller.ordered_handlers.get(msg_type) != controller._snoop_putm or (
            mem_handler is not None and home_filter is None
        ):
            note_selection(controller, msg_type, "declined")
            return None
        note_selection(controller, msg_type, "compiled")
        return ext.PutDeliver(
            node_id=controller.node_id,
            cache_putm=controller._snoop_putm,
            home_filter=home_filter,
            is_home_for=memory_controller.is_home_for,
            mem_handler=mem_handler,
            **(_home_inline_args(memory_controller) if mem_handler else {}),
        )
    if msg_type is not MessageType.GETS and msg_type is not MessageType.GETM:
        return None
    if controller.ordered_handlers.get(msg_type) != controller._snoop_request or (
        mem_handler is not None and home_filter is None
    ):
        # A swapped table entry, or no cached home test (the generic
        # deliver-both path is then the only faithful shape).
        note_selection(controller, msg_type, "declined")
        return None
    if mem_handler is None:
        mem_mode = 0
    elif (
        manifest.is_pristine(HOME_SERVE, memory_controller)
        and mem_handler == memory_controller._ordered_request
    ):
        mem_mode = 2
    else:
        # Custom memory controller, swapped table entry, or patched home-serve
        # hooks: the memory side stays the bound table entry the pure path
        # would call, behind the C home filter.
        mem_mode = 1
    from .bash.cache_controller import BashCacheController  # noqa: PLC0415
    from .bash.memory_controller import BashMemoryController  # noqa: PLC0415

    note_selection(controller, msg_type, "compiled")
    home_serve = mem_mode == 2
    directory = memory_controller.directory if home_serve else None
    return ext.SnoopDeliver(
        kind=msg_type,
        node_id=controller.node_id,
        bash=type(controller) is BashCacheController,
        controller=controller,
        transactions=controller.transactions,
        blocks=controller.blocks._blocks,
        blocks_lookup=controller.blocks.lookup,
        handle_other=controller._handle_other_request,
        finish_getm=controller._finish_getm,
        own_sufficient=controller._own_request_sufficient,
        mem_mode=mem_mode,
        mem_bash=home_serve and type(memory_controller) is BashMemoryController,
        home_filter=home_filter,
        is_home_for=memory_controller.is_home_for,
        mem_handler=mem_handler,
        mem_controller=memory_controller if home_serve else None,
        dir_entries=directory._entries if home_serve else None,
        dir_lookup=directory.lookup if home_serve else None,
        completer=_data_deliver(controller),
        mem_serve=_mem_serve(memory_controller, ext) if home_serve else None,
        **(_home_inline_args(memory_controller) if mem_mode else {}),
    )


def _directory_entry(controller, msg_type, memory_controller):
    """``DirDeliver`` for a Directory node's MARKER / forwarded requests.

    The Directory home consumes nothing ordered, so a memory controller that
    *does* register an ordered handler for the type means a customised
    system.  PUT_ACK/PUT_NACK stay pure (rare, and they complete
    writebacks).
    """
    ext = handler_accelerator(controller, DIR_DELIVER)
    if ext is None or memory_controller.ordered_handlers.get(msg_type) is not None:
        return None
    if not manifest.is_pristine(DIR_DELIVER, controller):
        note_selection(controller, msg_type, "declined")
        return None
    if msg_type is MessageType.MARKER:
        expected, forward = controller._handle_marker, 0
    elif msg_type in (MessageType.FWD_GETS, MessageType.FWD_GETM):
        expected, forward = controller._handle_forward, 1
    else:
        return None
    if controller.ordered_handlers.get(msg_type) != expected:
        note_selection(controller, msg_type, "declined")
        return None
    note_selection(controller, msg_type, "compiled")
    return ext.DirDeliver(
        forward=forward,
        node_id=controller.node_id,
        controller=controller,
        transactions=controller.transactions,
        try_complete=controller._try_complete,
        handle_other=controller._handle_other_forward if forward else None,
        completer=_data_deliver(controller),
    )


def compile_unordered_entry(controller, msg_type):
    """A C delivery object for a cache controller's DATA entry, or None.

    The returned object carries ``releases_message=True``, folding the
    unordered network's deliver-and-release arena wrapper into the C call
    (a DATA response is point-to-point: exactly one delivery).
    """
    scheduler = getattr(controller, "scheduler", None)
    if msg_type is not MessageType.DATA or _core.accelerator_for(scheduler) is None:
        return None
    deliver = _data_deliver(controller, releases_message=True)
    note_selection(controller, msg_type, "declined" if deliver is None else "compiled")
    return deliver


def _data_deliver(controller, releases_message=False):
    """A ``DataDeliver`` for this controller, or None on any customisation.

    Shared by the unordered DATA entry and, as the ordered entries'
    ``completer``, the marker-side completion, which runs the same
    ``_complete`` chain.  The stat handles and arena releases are prebound
    bound methods: both survive system resets (``RunningMean.reset``
    re-initialises in place, the arena re-pools through ``__init__``).
    """
    if manifest.serves(DATA_DELIVER, controller):
        row = DATA_DELIVER
    elif manifest.serves(DIR_DATA_DELIVER, controller):
        row = DIR_DATA_DELIVER
    else:
        return None
    ext = handler_accelerator(controller, row)
    if (
        ext is None
        or controller.unordered_handlers.get(MessageType.DATA)
        != controller._handle_data
        or not manifest.is_pristine(row, controller)
    ):
        return None
    directory = row is DIR_DATA_DELIVER
    arena = controller._arena
    message_arena = (
        getattr(controller.scheduler, "arena", None) if releases_message else None
    )
    return ext.DataDeliver(
        directory=int(directory),
        controller=controller,
        transactions=controller.transactions,
        blocks=controller.blocks._blocks,
        blocks_lookup=controller.blocks.lookup,
        scheduler=controller.scheduler,
        fallback=controller._handle_data,
        service_deferred=controller._service_deferred,
        miss_record=controller._miss_latency_mean.record,
        system_record=controller._system_miss_latency.record,
        try_complete=controller._try_complete if directory else None,
        arena_release=arena.release_transaction if arena is not None else None,
        message_release=(
            message_arena.release_message if message_arena is not None else None
        ),
    )


def _home_inline_args(memory_controller):
    """Kwargs compiling the stock block-interleaved home test into C.

    Empty, keeping the memoised ``is_home_for`` fallback, unless the memory
    controller and its config are stock and pristine.
    """
    config = memory_controller.config
    if type(config) is SystemConfig and manifest.is_pristine(
        HOME_INLINE, memory_controller
    ):
        return {
            "home_inline": 1,
            "block_bytes": config.cache_block_bytes,
            "num_procs": config.num_processors,
        }
    return {}


def _mem_serve(memory_controller, ext):
    """A C ``MemServe`` data-serve entry for the home memory, or None.

    Replaces the Python re-entry of the memory-is-owner DATA reply: the C
    object mirrors :meth:`MemoryControllerBase._send_data` (pooled message
    build, the ``data_responses``/``memory_responses`` counts and the
    DRAM-delayed unordered send) while the directory bookkeeping stays in
    the compiled handler.  Only offered for the exact stock memory
    controller shape; any customisation keeps the per-message Python call.
    """
    mem = memory_controller
    if (
        not manifest.carries(ext, MEM_SERVE)
        or not manifest.is_pristine(MEM_SERVE, mem)
        or manifest.hooked(MEM_SERVE, mem)
        or "_unordered_send" not in vars(mem)
        or mem._schedule_after_fast1 != mem.scheduler.schedule_after_fast1
        or not _stock_allocation(mem, ("message", Message))
    ):
        return None
    inject_issue_singletons(ext)
    return ext.MemServe(
        controller=mem,
        scheduler=mem.scheduler,
        src=mem.node_id,
        unordered_send=mem._unordered_send,
        data_label=mem._memory_data_label,
        msg_cls=Message,
        msg_id_next=_message_ids.__next__,
        msg_pool=mem._arena._messages if mem._arena is not None else None,
    )


def _stock_allocation(controller, *kinds) -> bool:
    """True when every ``_new_<kind>`` allocator is one the C side mirrors.

    That is the plain constructor without an arena, or the stock arena's own
    method, whose free list the C side then pops directly.
    """
    arena = controller._arena
    for kind, cls in kinds:
        new = getattr(controller, f"_new_{kind}")
        if arena is None:
            if new is not cls:
                return False
        elif (
            type(arena) is not SimulationArena
            or getattr(new, "__self__", None) is not arena
            or new.__func__ is not getattr(SimulationArena, kind)
        ):
            return False
    return True


# --------------------------------------------------------------- issue chain


def inject_issue_singletons(ext) -> None:
    """Inject the identity-compared singletons into the issue-chain C layer.

    Idempotent; must run before any ``SequencerStep`` or ``MemServe`` object
    is constructed (the C side refuses to build them otherwise, so a missed
    call fails loudly rather than misbehaving).
    """
    from ..coherence.state import MOSIState  # noqa: PLC0415

    ext._init_issue(
        MessageType.GETS,
        MessageType.GETM,
        MessageType.PUTM,
        MessageType.DATA,
        MOSIState.MODIFIED,
        MOSIState.OWNED,
        MOSIState.SHARED,
        MOSIState.INVALID,
        DestinationUnit.CACHE,
        DestinationUnit.MEMORY,
        _EMPTY_RECIPIENTS,
    )


def note_issue_selection(sequencer, status: str) -> None:
    """Record one per-node issue-chain compile/decline decision."""
    _core.note_handler_selection(f"Sequencer{sequencer.node_id}.step", status)


def compile_sequencer_step(sequencer):
    """A C ``SequencerStep`` fusing the per-reference chain, or None.

    The returned object replaces ``Sequencer._perform`` as the scheduled
    delivery entry for one node: block probe, hit test, eviction, the
    GETS/GETM/PUTM issue (transaction allocation, MSHR insert, counters,
    message build and network injection) and the completion/refetch
    bookkeeping all run in C.  It mirrors two objects, the sequencer
    (``SEQUENCER_STEP``) and its cache controller (``ISSUE_REQUEST``); any
    unusual shape of either (subclass, class or instance patch, swapped
    workload entry point, non-stock arena or network) declines to the pure
    path for that node, recorded via :func:`note_issue_selection`.

    Called from ``Sequencer.start`` once per run, so constants baked into the
    C object (capacity, block size, message sizes) are re-derived after every
    reset.
    """
    ext = _accelerator(sequencer, SEQUENCER_STEP)
    if ext is None:
        return None
    inject_issue_singletons(ext)
    from ..workloads.base import Workload  # noqa: PLC0415

    def decline():
        note_issue_selection(sequencer, "declined")
        return None

    cache = sequencer.cache
    workload = sequencer.workload
    if (
        not manifest.is_pristine(SEQUENCER_STEP, sequencer)
        or not manifest.is_pristine(ISSUE_REQUEST, cache)
        or manifest.hooked(SEQUENCER_STEP, sequencer)
        or manifest.hooked(ISSUE_REQUEST, cache)
        or "next_operation" in vars(workload)
        or "on_complete" in vars(workload)
    ):
        return decline()
    scheduler = sequencer.scheduler
    config = sequencer.config
    blocks = cache.blocks
    # The C step reads state through its own prebinds; if the sequencer's
    # prebound fast paths no longer point at the live containers (a test
    # rewired them by hand), the pure methods are the only faithful shape.
    if (
        sequencer._blocks_get != blocks.get
        or sequencer._blocks_is_full != blocks.is_full
        or sequencer._blocks_eviction_candidate != blocks.eviction_candidate
        or sequencer._blocks_drop != blocks.drop
        or sequencer._transactions is not cache.transactions
        or sequencer._writebacks is not cache.writebacks
        or sequencer._next_operation != workload.next_operation
        or sequencer._on_complete != workload.on_complete
        or sequencer._schedule_after_fast1 != scheduler.schedule_after_fast1
        or sequencer._block_bytes != config.cache_block_bytes
    ):
        return decline()
    block_bytes = sequencer._block_bytes
    capacity = blocks.capacity_blocks
    if block_bytes < 1 or capacity < 1:
        return decline()
    # Allocation: either the stock arena's free lists (popped C-side) or the
    # plain constructors; anything else keeps the pure issue path.
    if not _stock_allocation(cache, ("transaction", Transaction), ("message", Message)):
        return decline()
    arena = cache._arena
    # Protocol-specific send inlining: mode 1 (snooping broadcast) or mode 2
    # (directory unicast) when the whole send pipeline is stock, else mode 0
    # (C bookkeeping, bound Python _send_* call: always faithful).
    send = _broadcast_send(cache, ext) or _unicast_send(cache, ext)
    send_mode, extra = send if send is not None else (0, {})
    # The directory controller prebinds its request size at construction;
    # its helper supplies that binding so the compiled build matches it.
    request_bytes = extra.pop("request_bytes", config.request_message_bytes)
    # Workload.on_complete is an empty hook; elide the call when it is
    # untouched so the hot path skips a Python frame per reference.
    on_complete = sequencer._on_complete
    if type(workload).on_complete is Workload.on_complete:
        on_complete = None
    step = ext.SequencerStep(
        sequencer=sequencer,
        scheduler=scheduler,
        cache=cache,
        node_id=sequencer.node_id,
        block_bytes=block_bytes,
        capacity=capacity,
        blocks=blocks._blocks,
        transactions=cache.transactions,
        writebacks=cache.writebacks,
        perform=sequencer._perform,
        finish_stream=sequencer._finish_stream,
        next_operation=sequencer._next_operation,
        schedule_after=sequencer._schedule_after_fast1,
        send_request=cache._send_request,
        send_writeback=cache._send_writeback,
        perform_label=sequencer._perform_label,
        retry_label=sequencer._retry_label,
        ctr_hits=sequencer._ctr_hits,
        ctr_misses=sequencer._ctr_misses,
        sys_operations=sequencer._sys_operations,
        sys_instructions=sequencer._sys_instructions,
        ctr_requests=cache._ctr_requests,
        ctr_requests_gets=cache._ctr_requests_gets,
        ctr_requests_getm=cache._ctr_requests_getm,
        txn_cls=Transaction,
        txn_id_next=_transaction_ids.__next__,
        msg_cls=Message,
        msg_id_next=_message_ids.__next__,
        request_bytes=request_bytes,
        send_mode=send_mode,
        on_complete=on_complete,
        txn_pool=arena._transactions if arena is not None else None,
        msg_pool=arena._messages if arena is not None else None,
        **extra,
    )
    note_issue_selection(sequencer, "compiled")
    return step


def _broadcast_send(cache, ext):
    """``(1, kwargs)`` inlining Snooping's broadcast send into C, or None.

    Mode 1 replicates ``_send_request``/``_send_writeback`` plus
    :meth:`TotallyOrderedNetwork.send` for the exact stock shapes only:
    pristine send pipeline, stock network with unit broadcast cost, the
    full-node recipient set, and a stock endpoint link (whose transmit the
    prebuilt ``LinkPush`` objects inline).  Any other shape returns None and
    the issue chain falls back to send mode 0.
    """
    if not manifest.is_pristine(ISSUE_BROADCAST, cache):
        return None
    net = cache.interconnect.ordered
    send = cache._ordered_send
    if (
        type(net) is not TotallyOrderedNetwork
        or getattr(send, "__self__", None) is not net
        or send.__func__ is not TotallyOrderedNetwork.send
        or net.broadcast_cost_factor != 1.0
        or net._accel is not ext
    ):
        return None
    all_nodes = cache.interconnect.all_nodes
    if type(all_nodes) is not frozenset or all_nodes != net._node_ids:
        return None
    pair = net.links.get(cache.node_id)
    if pair is None or type(pair.outgoing) is not EndpointLink:
        return None
    labels = net._inject_labels
    extra = {
        "all_nodes": all_nodes,
        "net_messages": net._messages_counter,
        "net_broadcasts": net._broadcasts_counter,
    }
    for key, kind in (
        ("push_gets", MessageType.GETS),
        ("push_getm", MessageType.GETM),
        ("push_putm", MessageType.PUTM),
    ):
        label = labels.get(kind)
        if label is None:
            # Fill the network's own memo so pure and compiled sends of this
            # type share the one label object.
            label = labels[kind] = f"ordered-inject:{kind}"
        extra[key] = ext.LinkPush(
            net.scheduler, pair.outgoing, net._enter_switch_callback, label
        )
    return 1, extra


def _unicast_send(cache, ext):
    """``(2, kwargs)`` inlining Directory's unicast send into C, or None.

    Mode 2 replicates ``_send_request``/``_send_writeback`` plus
    :meth:`UnorderedNetwork.send` for the exact stock shapes only: pristine
    send pair, stock unordered network with compiled injection entries, the
    memoised block-interleaved home map, and a stock endpoint link.  Any
    other shape returns None and the issue chain falls back to send mode 0.
    """
    if not manifest.is_pristine(ISSUE_UNICAST, cache) or manifest.hooked(
        ISSUE_UNICAST, cache
    ):
        return None
    net = cache.interconnect.unordered
    send = cache._unordered_send
    if (
        type(net) is not UnorderedNetwork
        or getattr(send, "__self__", None) is not net
        or send.__func__ is not UnorderedNetwork.send
        or net._accel is not ext
        or type(cache.config) is not SystemConfig
    ):
        return None
    pair = net.links.get(cache.node_id)
    if pair is None or type(pair.outgoing) is not EndpointLink:
        return None
    extra = {
        "net_messages": net._messages_counter,
        "ctr_unicast": cache._ctr_unicast_requests,
        "home_memo": cache._home_memo,
        "home_of": cache.home_of,
        "data_bytes": cache.config.data_message_bytes,
        "request_bytes": cache._request_bytes,
    }
    for key, kind in (
        ("push_gets", MessageType.GETS),
        ("push_getm", MessageType.GETM),
        ("push_putm", MessageType.PUTM),
    ):
        entry = net._inject_entries.get(kind)
        if entry is None:
            entry = net._compile_injection(kind)
        inject_label, relay = entry
        extra[key] = ext.LinkPush(net.scheduler, pair.outgoing, relay, inject_label)
    return 2, extra


# ---------------------------------------------------------- adaptive sampling

#: Widest policy counter the compiled tick steps in a C 64-bit integer;
#: wider counters keep the Python tick and its big-int arithmetic.
MAX_COMPILED_POLICY_BITS = 62


def note_sample_selection(status: str) -> None:
    """Record one controller's sampling-tick compile/decline decision."""
    _core.note_handler_selection("BashCacheController.SAMPLE", status)


def compile_sample_tick(controller):
    """A C ``SampleTick`` replacing one BASH controller's sampling tick, or None.

    The returned object is scheduled in place of the bound
    ``_sample_utilization`` and reschedules itself: the window's link
    busy-total query, ``observe_window`` (policy-counter step and the
    appended ``AdaptiveSample``), the three ``RunningMean.record`` updates
    and the reschedule all run in one C call, reading and writing the same
    attributes and slots the pure method does.  Selection follows the
    ``SAMPLE_TICK`` manifest row plus a policy counter of at most
    :data:`MAX_COMPILED_POLICY_BITS` bits; anything else keeps the Python
    tick, recorded via :func:`note_sample_selection`.

    Called by ``_schedule_sampling`` at construction and on every
    ``reset_state``, because ``adaptive.reset()`` replaces the counters and
    history the tick binds.
    """
    ext = _accelerator(controller, SAMPLE_TICK)
    if ext is None:
        return None
    from ..common.counters import UnsignedSaturatingCounter  # noqa: PLC0415
    from ..common.stats import RunningMean  # noqa: PLC0415
    from .bash.adaptive import (  # noqa: PLC0415
        AdaptiveSample,
        BandwidthAdaptiveMechanism,
    )

    scheduler = controller.scheduler
    adaptive = controller.adaptive
    links = (controller._link_pair.incoming, controller._link_pair.outgoing)
    means = (
        controller._mean_link_utilization,
        controller._sys_link_utilization,
        controller._sys_unicast_probability,
    )
    interval = controller._sampling_interval
    # Hand-patched instances, or prebinds re-pointed away from the objects
    # the C tick reads, leave the pure tick as the only faithful shape.
    if (
        not manifest.is_pristine(SAMPLE_TICK, controller)
        or manifest.hooked(SAMPLE_TICK, controller)
        or type(adaptive) is not BandwidthAdaptiveMechanism
        or type(adaptive.policy_counter) is not UnsignedSaturatingCounter
        or any(type(mean) is not RunningMean for mean in means)
        or any(type(link) is not EndpointLink for link in links)
        or adaptive.policy_counter.bits > MAX_COMPILED_POLICY_BITS
        or type(interval) is not int
        or not 0 < interval <= 2**53
        or "observe_window" in vars(adaptive)
        or controller._observe_window != adaptive.observe_window
        or controller._schedule_after_fast != scheduler.schedule_after_fast
    ):
        note_sample_selection("declined")
        return None
    tick = ext.SampleTick(
        scheduler=scheduler,
        state=vars(controller),
        mechanism=vars(adaptive),
        pure_tick=controller._sample_utilization,
        label=controller._sampling_label,
        interval=interval,
        links=links,
        busy_up_to=tuple(link.busy_time_up_to for link in links),
        means=means,
        counter_type=UnsignedSaturatingCounter,
        sample_type=AdaptiveSample,
    )
    note_sample_selection("compiled")
    return tick
