"""Physical channels: partitioned, FIFO, latency-modelled, credit-controlled.

A logical edge expands into one :class:`OutputGate` per sender subtask; the
gate partitions each element (forward/hash/rebalance/broadcast) onto
:class:`PhysicalChannel` objects, one per (sender subtask, receiver subtask)
pair. Channels are FIFO — like the TCP links of real engines — so disorder
only arises from *merging* channels and from event-time skew, never from a
single link reordering. Credit-based flow control (survey §3.3 backpressure)
is per physical channel: senders block when a receiver stops returning
credits, and the stall propagates upstream to the sources.

Delivery is *batched*: elements of one channel with an identical arrival time
coalesce into one list, and lists scheduled back to back for one arrival
time — by any channels of one job — travel as one kernel event, a *flight*
(see :func:`_deliver_flight`). Credits are still accounted per record and
FIFO order is preserved, so batching changes scheduler traffic, not flow
control.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Callable

from repro.core.events import Record, RecordBatch, StreamElement
from repro.core.graph import ChannelSpec, Partitioning
from repro.core.keys import subtask_for_key
from repro.errors import BackpressureError
from repro.sim.kernel import ARGS, FN, IN_QUEUE, NS, TIME, Kernel
from repro.sim.random import SimRandom

if TYPE_CHECKING:  # pragma: no cover
    from repro.chaos.faults import ChannelFaultHook
    from repro.runtime.task import Task


def _deliver_flight(entries: "list[tuple[PhysicalChannel, list[StreamElement], int]]") -> None:
    """One kernel event handing each ``(channel, batch, epoch)`` to its
    receiver, in the order the batches were scheduled. An entry is only ever
    appended while the flight is the kernel's most recently scheduled event,
    so separate events would have held consecutive ``seq`` at this timestamp
    and dispatched in exactly this order."""
    for channel, batch, epoch in entries:
        if epoch != channel.epoch:
            continue  # stale in-flight data from before a connection reset
        if channel._open_batch is batch:
            channel._open_batch = None
        channel.delivered += len(batch)
        deliver = channel.receiver.deliver
        index = channel.receiver_channel_index
        via = channel._credit_via
        for element in batch:
            deliver(index, element, via)


class PhysicalChannel:
    """One FIFO link between a sender subtask and a receiver subtask."""

    def __init__(
        self,
        kernel: Kernel,
        spec: ChannelSpec,
        receiver: "Task",
        receiver_channel_index: int,
        rng: SimRandom,
        sender: "Task | None" = None,
    ) -> None:
        self._kernel = kernel
        #: the kernel's clock: its ``_now`` is the current virtual time at
        #: every moment (the kernel writes it through whenever time moves),
        #: so a send reads the time without a call
        self._clock = kernel.clock
        self.spec = spec
        self.receiver = receiver
        self.receiver_channel_index = receiver_channel_index
        self.sender = sender
        self._rng = rng
        self._last_delivery = 0.0
        self.credits = spec.capacity  # None = unbounded
        self._backlog: deque[StreamElement] = deque()
        self.sent = 0
        self.delivered = 0
        # Hot-path bindings, hoisted once: the zero-jitter path does no
        # per-element attribute chasing or rng dispatch.
        self._latency = spec.latency
        self._jitter = spec.jitter if spec.jitter > 0 else 0.0
        self._random = rng.random
        #: what the receiver is handed as ``via``: this channel when an
        #: element holds a credit to return, None on an unbounded link
        self._credit_via = self if spec.capacity is not None else None
        #: the still-appendable delivery batch (same arrival time), if any
        self._open_batch: list[StreamElement] | None = None
        self._open_batch_arrival = -1.0
        #: connection epoch: global recovery tears the link down and back up,
        #: voiding every element still in flight from the previous epoch —
        #: the simulated equivalent of dropping the old TCP connection.
        self.epoch = 0
        self._fault_hook: "ChannelFaultHook | None" = None
        #: what a sending task calls per element: ``send``, or straight
        #: ``_do_schedule`` on an unbounded link without a fault hook, where
        #: ``send`` would test both and call it (bound by ``fault_hook``)
        self.transmit: Callable[[StreamElement], bool]
        self.fault_hook = None
        #: ``sent - delivered`` when the connection last reset: elements
        #: that were in flight then were voided, never to be delivered
        self._voided = 0

    @property
    def fault_hook(self) -> "ChannelFaultHook | None":
        """Optional chaos hook (see repro.chaos.faults): consulted once per
        send and may drop, delay, duplicate, or hold the element. None on the
        production path. Setting it re-binds :attr:`transmit`."""
        return self._fault_hook

    @fault_hook.setter
    def fault_hook(self, hook: "ChannelFaultHook | None") -> None:
        self._fault_hook = hook
        direct = hook is None and self.credits is None
        self.transmit = self._do_schedule if direct else self.send

    # ------------------------------------------------------------------
    def send(self, element: StreamElement, from_backlog: bool = False) -> bool:
        """Dispatch an element toward the receiver.

        Returns True if it was sent immediately, False if it was parked in
        the sender-side backlog because the channel is out of credits (the
        caller should block until :meth:`is_clear`). ``from_backlog`` marks
        the parked head re-sent by :meth:`return_credit`: it takes the slot
        that was just freed.
        """
        if self.credits is not None and not from_backlog:
            if self.credits <= 0 or self._backlog:
                self._backlog.append(element)
                return False
            self.credits -= 1
        hook = self._fault_hook
        if hook is None:
            self._do_schedule(element)
        else:
            for perturbed, extra_delay in hook.intercept(self, element):
                self._do_schedule(perturbed, extra_delay)
        return True

    def _do_schedule(self, element: StreamElement, extra_delay: float = 0.0) -> bool:
        """Past the fault hook: the one place where arrival time, FIFO clamp
        and same-arrival coalescing are computed. True (sent, as ``send``
        reports it), so it can stand in for ``send`` as :attr:`transmit`."""
        arrival = self._clock._now + self._latency + extra_delay
        if self._jitter:
            # uniform(0, jitter), drawn as Random.uniform computes it
            # (a + (b - a) * random() with a = 0.0): the same bits.
            arrival += self._jitter * self._random()
        # FIFO enforcement: never deliver before what was already scheduled.
        if arrival < self._last_delivery:
            arrival = self._last_delivery
        self._last_delivery = arrival
        self.sent += 1
        # Coalesce same-arrival elements into the open batch: one kernel
        # event amortised over the batch. The batch closes when it fires or
        # a later arrival time starts a new one.
        batch = self._open_batch
        if batch is not None and self._open_batch_arrival == arrival:
            batch.append(element)
            return True
        batch = [element]
        self._open_batch = batch
        self._open_batch_arrival = arrival
        kernel = self._kernel
        last = kernel.last_scheduled
        if (
            last is not None
            and last[FN] is _deliver_flight  # a cancelled event's fn is None
            and last[TIME] == arrival
            and last[IN_QUEUE]  # not yet dispatched, not parked
            # a flight dies with one job (the record behind the kernel's
            # read-only ``current_job`` property, read without the call)
            and last[NS] is kernel._current_job
        ):
            # Nothing was scheduled since: this batch would dispatch right
            # behind the flight's last entry, so it rides along.
            last[ARGS][0].append((self, batch, self.epoch))
        else:
            kernel.call_at(arrival, _deliver_flight, [(self, batch, self.epoch)])
        return True

    def inject_out_of_band(self, element: StreamElement, extra_delay: float = 0.0) -> None:
        """Deliver ``element`` outside the credit/FIFO path — a network-level
        retransmission. Used by chaos duplication so flow-control accounting
        stays conserved (the copy holds no credit and returns none)."""
        arrival = self._kernel.now() + self._latency + extra_delay
        epoch = self.epoch

        def deliver() -> None:
            if epoch == self.epoch:
                self.receiver.deliver(self.receiver_channel_index, element, via=None)

        self._kernel.call_at(arrival, deliver)

    def reset(self) -> None:
        """Tear the connection down and back up (recovery).

        Everything in flight — scheduled batches, the sender backlog — is
        voided, credits return to full capacity, and the FIFO clock rewinds
        so the first post-recovery send is not held behind voided arrivals.
        A sender that is still alive (partial recovery resets only the
        failed region's links) is woken: it may have been blocked on the
        backlog this reset just voided.
        """
        had_backlog = bool(self._backlog)
        self.epoch += 1
        self._backlog.clear()
        self._voided = self.sent - self.delivered
        self.credits = self.spec.capacity
        self._open_batch = None
        self._open_batch_arrival = -1.0
        self._last_delivery = 0.0
        sender = self.sender
        if had_backlog and sender is not None and not sender.dead and not sender.finished:
            sender.output_unblocked()

    # ------------------------------------------------------------------
    def return_credit(self) -> None:
        """Receiver finished one element; free a slot and drain the backlog."""
        if self.credits is None:
            return
        if self._backlog:
            # Slot goes straight to the oldest parked element.
            self.send(self._backlog.popleft(), from_backlog=True)
            if not self._backlog and self.sender is not None:
                self.sender.output_unblocked()
        else:
            self.credits += 1
            if self.spec.capacity is not None and self.credits > self.spec.capacity:
                raise BackpressureError(
                    f"credit overflow: {self.credits} > capacity {self.spec.capacity}"
                )
            if self.sender is not None:
                self.sender.output_unblocked()

    @property
    def pending(self) -> int:
        """Elements still travelling this link: scheduled in the current
        epoch and not yet handed to the receiver, plus the sender-side
        backlog (rescale drain barriers wait for zero)."""
        return self.sent - self.delivered - self._voided + len(self._backlog)

    @property
    def is_clear(self) -> bool:
        """True when the sender may keep producing (no parked elements)."""
        return not self._backlog

    @property
    def backlog_size(self) -> int:
        return len(self._backlog)


class OutputGate:
    """Sender-side fan-out for one logical edge: partitions elements over the
    physical channels; control elements are always broadcast."""

    def __init__(
        self,
        partitioning: Partitioning,
        channels: list[PhysicalChannel],
        max_parallelism: int,
    ) -> None:
        self.partitioning = partitioning
        self.channels = channels
        self._max_parallelism = max_parallelism
        self._round_robin = 0
        #: optional :class:`~repro.load.routing.KeyRouter` consulted instead
        #: of plain key-group routing (installed by live rescaling so hash
        #: routing, migration predicates, and the owner lookup agree); None
        #: on the production path — the cost is one attribute test per emit
        self.router: Any = None

    def emit(self, element: StreamElement) -> bool:
        """Send ``element`` where the partitioning routes it — a record or a
        batch to one channel (a hash-partitioned batch split per owner),
        anything else to every channel — and return False if a channel
        parked it. (A task transmits on a gate's only channel itself.)"""
        channels = self.channels
        partitioning = self.partitioning
        if len(channels) > 1 and partitioning is not Partitioning.BROADCAST:
            is_record = type(element) is Record or isinstance(element, Record)
            if is_record or isinstance(element, RecordBatch):
                if partitioning is Partitioning.HASH:
                    if not is_record:
                        return self._emit_hash_batch(element)
                    router = self.router
                    if router is not None:
                        index = router.owner_index(element.key)
                    else:
                        index = subtask_for_key(element.key, len(channels), self._max_parallelism)
                elif partitioning is Partitioning.REBALANCE:
                    index = self._round_robin % len(channels)
                    self._round_robin += 1
                else:
                    # FORWARD with parallelism > 1 is expanded per-subtask at
                    # plan time, so a gate only ever holds the single
                    # matching channel.
                    index = 0
                return channels[index].transmit(element)
        clear = True
        for channel in channels:
            if not channel.transmit(element):
                clear = False
        return clear

    def _emit_hash_batch(self, batch: RecordBatch) -> bool:
        """Split a batch into per-receiver sub-batches along key ownership.

        Each sub-batch keeps its rows in original order (per-channel FIFO is
        what the scalar path guarantees too); sub-batches go out in receiver
        index order so the shuffle is deterministic.
        """
        n_channels = len(self.channels)
        max_parallelism = self._max_parallelism
        router = self.router
        parts: dict[int, list[int]] = {}
        for i, key in enumerate(batch.iter_keys()):
            if router is not None:
                target = router.owner_index(key)
            else:
                target = subtask_for_key(key, n_channels, max_parallelism)
            rows = parts.get(target)
            if rows is None:
                parts[target] = [i]
            else:
                rows.append(i)
        clear = True
        for target in sorted(parts):
            rows = parts[target]
            sub = batch if len(rows) == len(batch) else batch.select(rows)
            if not self.channels[target].transmit(sub):
                clear = False
        return clear

def outputs_clear(gates: list[OutputGate]) -> bool:
    """True when no channel of any of ``gates`` holds a parked element: the
    sender may keep producing."""
    for gate in gates:
        for channel in gate.channels:
            if channel._backlog:
                return False
    return True


def make_partition_filter(
    partitioning: Partitioning, subtask_index: int, parallelism: int, max_parallelism: int
) -> Callable[[Any], bool]:
    """Predicate: does a key belong to this subtask under this partitioning?
    Used by rescaling/migration to decide which state moves."""
    if partitioning is not Partitioning.HASH:
        return lambda _key: True

    def owns(key: Any) -> bool:
        return subtask_for_key(key, parallelism, max_parallelism) == subtask_index

    return owns
