"""One integrated processor/memory node.

The node merges its two controllers' compiled dispatch tables (see
:mod:`repro.protocols.dispatch`) into per-message-type *delivery entries* —
single callables the interconnect indexes and schedules directly, so a fired
delivery event lands in the protocol handler with no intermediate
``deliver_*``/``handle_*`` frames.  :meth:`deliver_ordered` and
:meth:`deliver_unordered` remain as the generic entry points (tests and tools
deliver messages by hand through them); both just index the same compiled
entries.
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple

from ..interconnect.message import DestinationUnit, Message, MessageType
from ..protocols.base import CacheControllerBase, MemoryControllerBase
from ..protocols.dispatch import (
    compile_ordered_entry,
    compile_unordered_entry,
    rejecter,
)
from .sequencer import Sequencer

#: A compiled delivery entry: one callable handling one message type.
DeliveryEntry = Callable[[Message], None]


class Node:
    """A processor core, its cache controller, and its slice of memory.

    The node owns a single endpoint link to the interconnect (modelled in
    :mod:`repro.interconnect.link`); messages delivered over that link are
    dispatched through the compiled entries to the cache controller, the
    memory controller, or both.
    """

    def __init__(
        self,
        node_id: int,
        cache_controller: CacheControllerBase,
        memory_controller: MemoryControllerBase,
        sequencer: Sequencer,
    ) -> None:
        self.node_id = node_id
        self.cache_controller = cache_controller
        self.memory_controller = memory_controller
        self.sequencer = sequencer
        # Memory controllers that declare ``ordered_home_only`` act on ordered
        # deliveries only for their home addresses, so the compiled entry can
        # pre-filter with a cached home test instead of paying a call per
        # delivery.  The getattr default keeps plain test doubles on the
        # unfiltered path.
        self._home_filter = (
            {} if getattr(memory_controller, "ordered_home_only", False) else None
        )
        self._ordered_entries: Dict[MessageType, DeliveryEntry] = {}
        self._unordered_entries: Dict[
            Tuple[DestinationUnit, MessageType], DeliveryEntry
        ] = {}
        #: Callbacks that drop downstream caches of this node's entries.  The
        #: networks append their own cache-clearers here when the node is
        #: registered as a dispatcher, so one invalidation call reaches every
        #: compiled copy of a handler.
        self.dispatch_cache_invalidators: list = []

    # -------------------------------------------------------- compiled entries

    def ordered_entry(self, msg_type: MessageType) -> DeliveryEntry:
        """The compiled delivery entry for one ordered message type.

        Every ordered request reaches both controllers on the node: the cache
        controller snoops it, and the memory controller acts when it is the
        home for the address (and registers a handler for the type at all —
        the Directory home consumes nothing ordered, so its entries collapse
        to the bare cache handler).  Message types neither controller
        registers compile to the shared rejection path, raised when the
        delivery event fires.
        """
        entry = self._ordered_entries.get(msg_type)
        if entry is None:
            entry = self._ordered_entries[msg_type] = self._compile_ordered(msg_type)
        return entry

    def unordered_entry(
        self, dest_unit: DestinationUnit, msg_type: MessageType
    ) -> DeliveryEntry:
        """The compiled delivery entry for one point-to-point message type."""
        key = (dest_unit, msg_type)
        entry = self._unordered_entries.get(key)
        if entry is None:
            if dest_unit is DestinationUnit.CACHE:
                controller = self.cache_controller
                # A compiled backend may offer a C delivery object for this
                # entry (same per-handler decline rule as the ordered path).
                handler = compile_unordered_entry(controller, msg_type)
            else:
                controller = self.memory_controller
                handler = None
            if handler is None:
                handler = controller.unordered_handlers.get(msg_type)
            if handler is None:
                handler = rejecter(controller, "unordered")
            entry = self._unordered_entries[key] = handler
        return entry

    def _compile_ordered(self, msg_type: MessageType) -> DeliveryEntry:
        # A compiled backend may offer a C delivery object for this entry;
        # the selector declines per handler (returning None) whenever the
        # classes or dispatch tables have been customised, and the generic
        # table-driven path below stays authoritative.
        accelerated = compile_ordered_entry(
            self.cache_controller, msg_type, self.memory_controller, self._home_filter
        )
        if accelerated is not None:
            return accelerated
        memory_handler = self.memory_controller.ordered_handlers.get(msg_type)
        cache_handler = self.cache_controller.ordered_handlers.get(msg_type)
        if cache_handler is None:
            cache_handler = rejecter(self.cache_controller, "ordered")
        if memory_handler is None:
            # The memory side ignores this type: deliver to the cache alone.
            return cache_handler
        home_filter = self._home_filter
        if home_filter is None:

            def deliver_both(message: Message) -> None:
                cache_handler(message)
                memory_handler(message)

            return deliver_both

        is_home_for = self.memory_controller.is_home_for

        def deliver_home_filtered(message: Message) -> None:
            cache_handler(message)
            address = message.address
            home = home_filter.get(address)
            if home is None:
                home = home_filter[address] = is_home_for(address)
            if home:
                memory_handler(message)

        return deliver_home_filtered

    # ---------------------------------------------------------- generic path

    def deliver_ordered(self, message: Message) -> None:
        """Dispatch a totally ordered (request network) delivery."""
        self.ordered_entry(message.msg_type)(message)

    def deliver_unordered(self, message: Message) -> None:
        """Dispatch a point-to-point delivery to the targeted controller."""
        self.unordered_entry(message.dest_unit, message.msg_type)(message)

    def invalidate_dispatch_cache(self) -> None:
        """Drop compiled entries (after swapping a handler table in tests).

        Also clears the networks' per-``(type, node)`` delivery caches, which
        hold resolved copies of these entries.
        """
        self._ordered_entries.clear()
        self._unordered_entries.clear()
        for invalidate in self.dispatch_cache_invalidators:
            invalidate()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Node({self.node_id})"
