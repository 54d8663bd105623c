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
from repro.sim.kernel import Kernel
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
        count = len(batch)
        channel._in_flight -= count
        channel.delivered += count
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
        #: optional chaos hook (see repro.chaos.faults): consulted once per
        #: send and may drop, delay, duplicate, or hold the element. None on
        #: the production path — the cost is one attribute test per send.
        self.fault_hook: "ChannelFaultHook | None" = None
        #: elements scheduled but not yet handed to the receiver (current
        #: epoch only) — rescale drain barriers wait on this
        self._in_flight = 0

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
        hook = self.fault_hook
        if hook is None:
            self._do_schedule(element, 0.0)
        else:
            for perturbed, extra_delay in hook.intercept(self, element):
                self._do_schedule(perturbed, extra_delay)
        return True

    def _do_schedule(self, element: StreamElement, extra_delay: float) -> None:
        """Past the fault hook: the one place where arrival time, FIFO clamp
        and same-arrival coalescing are computed."""
        arrival = self._kernel.now() + self._latency + extra_delay
        if self._jitter:
            # uniform(0, jitter), drawn as Random.uniform computes it
            # (a + (b - a) * random() with a = 0.0): the same bits.
            arrival += self._jitter * self._random()
        # FIFO enforcement: never deliver before what was already scheduled.
        if arrival < self._last_delivery:
            arrival = self._last_delivery
        self._last_delivery = arrival
        self.sent += 1
        self._in_flight += 1
        # Coalesce same-arrival elements into the open batch: one kernel
        # event amortised over the batch. The batch closes when it fires or
        # a later arrival time starts a new one.
        batch = self._open_batch
        if batch is not None and self._open_batch_arrival == arrival:
            batch.append(element)
            return
        batch = [element]
        self._open_batch = batch
        self._open_batch_arrival = arrival
        kernel = self._kernel
        last = kernel.last_scheduled
        if (
            last is not None
            and last.fn is _deliver_flight
            and last.time == arrival
            and last.in_queue  # not yet dispatched, not parked
            and not last.cancelled
            and last.job == kernel.current_job  # a flight dies with one job
        ):
            # Nothing was scheduled since: this batch would dispatch right
            # behind the flight's last entry, so it rides along.
            last.args[0].append((self, batch, self.epoch))
        else:
            kernel.call_at(arrival, _deliver_flight, [(self, batch, self.epoch)])

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
        self._in_flight = 0
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
        """Elements still travelling this link: scheduled in-flight plus the
        sender-side backlog (rescale drain barriers wait for zero)."""
        return self._in_flight + len(self._backlog)

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
        #: routing, migration predicates, and reroute closures agree); None
        #: on the production path — the cost is one attribute test per emit
        self.router: Any = None

    def targets_for(self, element: StreamElement) -> list[PhysicalChannel]:
        """Channels this element routes to under the gate's partitioning."""
        channels = self.channels
        if len(channels) == 1 or self.partitioning is Partitioning.BROADCAST:
            return channels
        if isinstance(element, RecordBatch):
            # Batches are data, not control: route like records. Callers use
            # emit(), which splits hash-partitioned batches per target; here
            # the whole batch maps to the round-robin (or first) channel.
            if self.partitioning is Partitioning.REBALANCE:
                index = self._round_robin % len(channels)
                self._round_robin += 1
                return [channels[index]]
            return [channels[0]]
        if not isinstance(element, Record):
            return channels
        if self.partitioning is Partitioning.HASH:
            if self.router is not None:
                index = self.router.owner_index(element.key)
            else:
                index = subtask_for_key(element.key, len(channels), self._max_parallelism)
            return [channels[index]]
        if self.partitioning is Partitioning.REBALANCE:
            index = self._round_robin % len(channels)
            self._round_robin += 1
            return [channels[index]]
        # FORWARD with parallelism > 1 is expanded per-subtask at plan time,
        # so a gate only ever holds the single matching channel.
        return [channels[0]]

    def emit(self, element: StreamElement) -> bool:
        """Send to all chosen channels; False if any channel backlogged."""
        channels = self.channels
        if len(channels) == 1:
            # Every partitioning maps every element to the only channel.
            return channels[0].send(element)
        if isinstance(element, RecordBatch) and self.partitioning is Partitioning.HASH:
            return self._emit_hash_batch(element)
        clear = True
        for channel in self.targets_for(element):
            if not channel.send(element):
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
            if not self.channels[target].send(sub):
                clear = False
        return clear

    @property
    def is_clear(self) -> bool:
        for channel in self.channels:
            if channel._backlog:
                return False
        return True

    def total_backlog(self) -> int:
        """Parked elements across all channels (pressure metric)."""
        return sum(c.backlog_size for c in self.channels)


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
