"""Cache controller for the aggressive MOSI Snooping protocol (Section 3.1).

Requests are broadcast on the totally ordered request network; every cache
(including the requester, whose own request serves as its marker) snoops every
request; the owner — a cache in M or O, or memory — supplies data directly on
the unordered response network.  Because requests are totally ordered there are
no invalidation acknowledgements: a cache makes a strictly local decision on
each snooped request and can infer that every other node decides compatibly.

The same controller is the base class of the BASH cache controller
(:mod:`repro.protocols.bash.cache_controller`), which overrides the request
issue policy (broadcast vs. dualcast) and the sufficiency checks, but reacts to
incoming requests identically — as the paper notes, "BASH processors react
identically to requests, regardless of whether they are unicasts, multicasts,
or broadcasts."
"""

from __future__ import annotations

from ...coherence.block import CacheBlock
from ...coherence.state import MOSIState
from ...coherence.transaction import Transaction
from ...errors import ProtocolError
from ...interconnect.message import DestinationUnit, Message, MessageType
from ..base import CacheControllerBase


class SnoopingCacheController(CacheControllerBase):
    """MOSI snooping cache controller with broadcast-on-miss behaviour."""

    ORDERED_HANDLERS = {
        MessageType.GETS: "_snoop_request",
        MessageType.GETM: "_snoop_request",
        MessageType.PUTM: "_snoop_putm",
    }
    UNORDERED_HANDLERS = {
        MessageType.DATA: "_handle_data",
    }

    # ------------------------------------------------------------- sending

    def _request_recipients(self, transaction: Transaction) -> frozenset:
        """Destination set for a request: Snooping always broadcasts."""
        transaction.was_broadcast = True
        return self.interconnect.all_nodes

    def _writeback_recipients(self, transaction: Transaction) -> frozenset:
        """Destination set for a writeback: Snooping broadcasts these too."""
        return self.interconnect.all_nodes

    def _build_request_message(
        self, transaction: Transaction, kind: MessageType
    ) -> Message:
        return Message(
            msg_type=kind,
            src=self.node_id,
            address=transaction.address,
            size_bytes=self.config.request_message_bytes,
            requester=self.node_id,
            transaction_id=transaction.transaction_id,
            data_token=transaction.store_token,
            issue_time=self.now,
        )

    def _send_request(self, transaction: Transaction) -> None:
        message = self._build_request_message(transaction, transaction.kind)
        recipients = self._request_recipients(transaction)
        if transaction.was_broadcast:
            self.count("broadcast_requests")
        else:
            self.count("unicast_requests")
        self._ordered_send(message, recipients)

    def _send_writeback(self, transaction: Transaction) -> None:
        message = self._build_request_message(transaction, MessageType.PUTM)
        self._ordered_send(message, self._writeback_recipients(transaction))

    # ---------------------------------------------------------- ordered path

    def _snoop_request(self, message: Message) -> None:
        """Snoop one GETS/GETM delivered in the global total order."""
        if message.requester == self.node_id:
            self._handle_own_request(message)
            return
        # Early-out inline: most snoops are for blocks this node neither holds
        # nor has a transaction for, and must not pay another call frame.
        address = message.address
        transaction = self.transactions.get(address)
        block = self.blocks.get(address)
        if block is None and (transaction is None or transaction.completed):
            return
        self._handle_other_request(message)

    def _snoop_putm(self, message: Message) -> None:
        """Snoop a writeback request: only the writer itself reacts."""
        if message.requester == self.node_id:
            self._handle_own_writeback_marker(message)
        # Other caches ignore PUTs; the home memory controller tracks them.

    # Own requests ---------------------------------------------------------

    def _handle_own_request(self, message: Message) -> None:
        transaction = self.transactions.get(message.address)
        if transaction is None or transaction.transaction_id != message.transaction_id:
            self.count("stale_own_requests")
            return
        if message.is_retry:
            transaction.retries_observed += 1
            self.count("retries_observed")
        transaction.record_marker(message.order_seq)
        block = self.blocks.lookup(message.address)
        self._try_complete_at_marker(transaction, block, message)

    def _try_complete_at_marker(
        self, transaction: Transaction, block: CacheBlock, message: Message
    ) -> None:
        """Complete an upgrade immediately at its marker when possible.

        A requester that already owns the block (a GETM issued from O) needs no
        data; it completes as soon as its request is ordered.  Requesters in S
        or I wait for the data response.
        """
        if transaction.kind is MessageType.GETM and block.is_owner:
            if self._own_request_sufficient(transaction, block, message):
                transaction.expects_data = False
                self._finish_getm(transaction, block)

    def _own_request_sufficient(
        self, transaction: Transaction, block: CacheBlock, message: Message
    ) -> bool:
        """Was our own ordered request delivered to every node that must see it?

        Snooping broadcasts everything, so the answer is always yes; BASH
        overrides this with the owner-side sufficiency check of footnote 2.
        """
        return True

    def _handle_own_writeback_marker(self, message: Message) -> None:
        transaction = self.writebacks.get(message.address)
        if transaction is None or transaction.transaction_id != message.transaction_id:
            self.count("stale_own_writebacks")
            return
        transaction.record_marker(message.order_seq)
        block = self.blocks.lookup(message.address)
        home = self.home_of(message.address)
        if block.is_owner:
            self._send_writeback_payload(
                MessageType.WB_DATA,
                home,
                message.address,
                transaction.transaction_id,
                block.data_token,
            )
            block.invalidate()
            self.blocks.drop(message.address)
            self.count("writebacks.data")
        else:
            self._send_writeback_payload(
                MessageType.WB_SQUASH,
                home,
                message.address,
                transaction.transaction_id,
                0,
            )
            self.count("writebacks.squashed")
        self._complete(transaction)

    def _send_writeback_payload(
        self,
        msg_type: MessageType,
        home: int,
        address: int,
        transaction_id: int,
        data_token: int,
    ) -> None:
        size = (
            self.config.data_message_bytes
            if msg_type is MessageType.WB_DATA
            else self.config.request_message_bytes
        )
        message = self._new_message(
            msg_type=msg_type,
            src=self.node_id,
            dest=home,
            dest_unit=DestinationUnit.MEMORY,
            address=address,
            size_bytes=size,
            requester=self.node_id,
            transaction_id=transaction_id,
            data_token=data_token,
            issue_time=self.now,
        )
        self._schedule_after_fast1(
            self._cache_response_latency,
            self._unordered_send,
            message,
            self.full_label(f"writeback-{msg_type}"),
        )

    # Other nodes' requests --------------------------------------------------

    def _handle_other_request(self, message: Message) -> None:
        if message.msg_type is MessageType.PUTM:
            return  # only the writer and the home memory care about a PUT
        address = message.address
        transaction = self.transactions.get(address)
        block = self.blocks.get(address)
        if block is None:
            # No record and no pending transaction for this address: the snoop
            # cannot concern us, so don't materialise an Invalid record (one
            # would be allocated per node per snooped request otherwise).
            # _snoop_request short-circuits this case before calling here, but
            # keep the guard for direct callers.
            if transaction is None or transaction.completed:
                return
            block = self.blocks.lookup(address)
        if transaction is not None and not transaction.completed:
            if (
                transaction.kind is MessageType.GETM
                and transaction.marker_seen
                and not block.is_owner
            ):
                # We are (or may become) the owner at an earlier point in the
                # total order but have not received data yet: defer the request
                # and service it when the data arrives.
                transaction.defer(message)
                self.count("deferred_requests")
                # A deferred GETM also invalidates any shared copy we hold.
                if (
                    message.request_kind is MessageType.GETM
                    and block.state is MOSIState.SHARED
                ):
                    block.invalidate()
                return
            if transaction.kind is MessageType.GETS:
                if message.request_kind is MessageType.GETM:
                    transaction.note_invalidate(message.order_seq)
                if block.state is MOSIState.SHARED:
                    block.invalidate()
                return
        self._serve_stable(block, message)

    def _owner_getm_sufficient(self, block: CacheBlock, message: Message) -> bool:
        """Owner-side sufficiency check for another node's GETM.

        Always true under Snooping; BASH overrides it so that the owner and the
        memory controller reach the same verdict on non-broadcast requests.
        """
        return True

    def _serve_stable(self, block: CacheBlock, message: Message) -> None:
        """React to another node's request according to our stable state."""
        kind = message.request_kind
        requester = message.requester
        if kind is MessageType.GETS:
            if block.is_owner:
                self._send_data(
                    block.address,
                    requester,
                    block.data_token,
                    message.transaction_id,
                )
                block.state = MOSIState.OWNED
                block.tracked_sharers.add(requester)
                self.count("cache_to_cache")
            return
        if kind is MessageType.GETM:
            if block.is_owner:
                if not self._owner_getm_sufficient(block, message):
                    self.count("insufficient_observed")
                    return
                self._send_data(
                    block.address,
                    requester,
                    block.data_token,
                    message.transaction_id,
                )
                block.invalidate()
                self.blocks.drop(block.address)
                self.count("cache_to_cache")
            elif block.state is MOSIState.SHARED:
                block.invalidate()
                self.blocks.drop(block.address)
                self.count("invalidations")
            return
        raise ProtocolError(f"unexpected request kind {kind}")

    # --------------------------------------------------------- unordered path

    def _handle_data(self, message: Message) -> None:
        transaction = self.transactions.get(message.address)
        if (
            transaction is None
            or transaction.completed
            or transaction.transaction_id != message.transaction_id
        ):
            self.count("dropped_data")
            return
        transaction.data_received = True
        transaction.received_token = message.data_token
        block = self.blocks.lookup(message.address)
        if transaction.kind is MessageType.GETM:
            self._finish_getm(transaction, block)
        else:
            self._finish_gets(transaction, block)

    # ------------------------------------------------------------ completion

    def _finish_getm(self, transaction: Transaction, block: CacheBlock) -> None:
        """Install ownership, perform the store, service deferred requests."""
        block.become_owner(transaction.store_token)
        self._service_deferred(transaction, block)
        self._complete(transaction)

    def _finish_gets(self, transaction: Transaction, block: CacheBlock) -> None:
        """Install a shared copy unless a later-ordered store already killed it."""
        block.data_token = transaction.received_token
        if transaction.invalidated_after():
            block.invalidate()
            self.blocks.drop(block.address)
            self.count("load_then_invalidate")
        else:
            block.state = MOSIState.SHARED
        self._complete(transaction)

    def _service_deferred(self, transaction: Transaction, block: CacheBlock) -> None:
        """Serve requests that were ordered after ours while we awaited data."""
        own_seq = transaction.effective_order_seq
        for deferred in transaction.deferred:
            if not block.is_owner:
                break  # ownership has already passed to a later requester
            if own_seq is not None and deferred.order_seq is not None:
                if deferred.order_seq < own_seq:
                    # The deferred request was ordered before our successful
                    # (possibly retried) request; it is some other node's
                    # responsibility.
                    self.count("deferred_dropped")
                    continue
            self._serve_stable(block, deferred)
        transaction.clear_deferred()

