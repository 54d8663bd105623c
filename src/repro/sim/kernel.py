"""Discrete-event simulation (DES) kernel.

The kernel is the substrate every other subsystem runs on: the physical
runtime schedules record deliveries, timer firings, checkpoint triggers,
failure injections and recovery actions as timestamped events on a single
priority queue. Ties are broken by insertion sequence, which makes every
simulation fully deterministic for a given seed.

Events scheduled for exactly ``now()`` — the dominant case for zero-latency
intra-machine hops — take a heap-free fast path: a FIFO *same-time bucket*
drained before the heap is consulted. The dispatch order is still the exact
global (time, insertion-seq) order, so the bucket is a pure optimisation.

Multi-tenancy (``repro.fabric``) adds three kernel-level mechanisms:

* **Job namespaces** — a tagged event carries its job's namespace record
  (generation, live count, parked list), and dispatch makes that record
  current, so events scheduled while it runs inherit it: one
  ``job_scope(tag)`` around a job's entry point namespaces its entire
  transitive event tree. An untagged event carries None and skips all of it.
* **O(1) bulk teardown** — :meth:`cancel_job` bumps the namespace's
  generation counter instead of touching the heap; an event whose recorded
  generation is stale is dead on arrival. Tearing down a job costs the same
  whether the heap holds a hundred events or a million.
* **Lazy compaction** — cancelled and torn-down events sit in the heap
  until their timestamp would arrive. When the dead fraction crosses a
  threshold, the heap is rebuilt without them in one O(n) pass, so mass
  cancellation (job teardown, timer-cancel storms, checkpoint timeouts)
  cannot permanently inflate dispatch cost.

:meth:`suspend_job`/:meth:`resume_job` additionally let a slot scheduler
preempt a job: a suspended job's events are parked as their dispatch times
arrive and are replayed, in order, when the job is resumed.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from contextlib import contextmanager
from typing import Any, Callable, Iterator

from repro.errors import SimulationError
from repro.sim.clock import VirtualClock


#: An event is one plain list ``[time, seq, fn, args, ns, gen, in_queue]``
#: and the heap holds it directly: ``seq`` is unique, so a comparison settles
#: on the first two items in C. ``fn`` is None once the event is cancelled;
#: ``ns`` is the scheduling job's :class:`_Namespace` (None when untagged) and
#: ``gen`` its generation then; ``in_queue`` is True while the event sits in
#: the heap or the same-time bucket. The ``call_*`` methods return the event,
#: and :meth:`Kernel.cancel` takes it.
TIME, SEQ, FN, ARGS, NS, GEN, IN_QUEUE = range(7)

#: lazy compaction rebuilds the heap once dead events exceed this fraction
#: of the queued ones (and the kernel's ``compact_min_dead`` floor)
COMPACT_THRESHOLD = 0.5


class _Namespace:
    """One job's event namespace; every event the job schedules carries it."""

    __slots__ = ("tag", "gen", "live", "parked")

    def __init__(self, tag: str) -> None:
        self.tag = tag
        #: bumped by cancel_job: an event of an older generation is dead
        self.gen = 0
        #: live (non-dead) events in the heap or the bucket
        self.live = 0
        #: events parked while the job is suspended; None when it is not
        self.parked: list[list] | None = None


class Kernel:
    """Deterministic discrete-event scheduler with a virtual clock.

    Typical usage::

        kernel = Kernel()
        kernel.call_at(1.0, lambda: print("one second in"))
        kernel.run()
    """

    def __init__(
        self,
        clock: VirtualClock | None = None,
        same_time_bucket: bool = True,
        compact_min_dead: int = 256,
    ) -> None:
        self.clock = clock or VirtualClock()
        #: the clock's time, mirrored so the dispatch path reads an attribute
        #: instead of calling ``clock.now()``. Inside ``run()`` the kernel
        #: moves time and writes it through to the clock; outside, the clock
        #: is public and may be advanced directly, so ``now()`` and
        #: ``call_at`` re-read it first
        self._now = self.clock._now
        #: heap of events; they compare by (time, seq) in C
        self._queue: list[list] = []
        #: FIFO bucket for events scheduled at exactly ``now()`` — the
        #: dominant case for zero-latency local hops. Bucket events skip the
        #: heap entirely; dispatch order is still the global (time, seq)
        #: order, so the bucket is observably identical to the heap.
        #: ``same_time_bucket=False`` keeps the heap-only path as the
        #: reference the kernel's differential tests compare against.
        self._soon: deque[list] = deque()
        self._same_time_bucket = same_time_bucket
        self._seq = itertools.count()
        #: the event queued most recently (by ``call_at`` or ``resume_job``):
        #: it holds the newest ``seq``, so whatever is scheduled next for its
        #: time would dispatch right behind it. None once a ``cancel_job`` may
        #: have condemned it. Read-only for callers (see channel flights)
        self.last_scheduled: list | None = None
        self._running = False
        self._stopped = False
        self._dispatched = 0
        # --- job namespaces ------------------------------------------------
        #: job tag → its namespace record, created on first use
        self._namespaces: dict[str, _Namespace] = {}
        #: namespace active during dispatch; events scheduled inherit it
        self._current_job: _Namespace | None = None
        #: per-base-name counters for unique job tags on this kernel
        self._job_tag_counts: dict[str, int] = {}
        # --- lazy compaction ----------------------------------------------
        #: dead (cancelled or stale-generation) events still in queue/bucket
        self._dead_pending = 0
        #: compact when dead events exceed COMPACT_THRESHOLD of the queue
        #: and this absolute floor (avoids thrashing on tiny queues)
        self.compact_min_dead = compact_min_dead
        #: number of compaction passes run (bench/regression visibility)
        self.compactions = 0
        #: number of cancel_job teardowns performed
        self.jobs_cancelled = 0

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def call_at(self, time: float, fn: Callable[..., None], *args: Any) -> list:
        """Schedule ``fn(*args)`` to run at absolute virtual ``time``.

        Passing ``args`` here instead of closing over them saves the caller a
        closure allocation and the dispatch an extra frame per event. Returns
        the event, which :meth:`cancel` takes.
        """
        if not self._running:
            self._now = self.clock._now
        now = self._now
        if time <= now:
            if time < now - 1e-12:
                raise SimulationError(
                    f"cannot schedule event at {time} before now={now}"
                )
            time = now
        ns = self._current_job
        if ns is None:
            event = self.last_scheduled = [time, next(self._seq), fn, args, None, 0, True]
        else:
            ns.live += 1
            event = self.last_scheduled = [time, next(self._seq), fn, args, ns, ns.gen, True]
        if time == now and self._same_time_bucket:
            self._soon.append(event)
        else:
            heapq.heappush(self._queue, event)
        return event

    def call_after(self, delay: float, fn: Callable[..., None], *args: Any) -> list:
        """Schedule ``fn(*args)`` to run ``delay`` virtual seconds from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        return self.call_at(self.now() + delay, fn, *args)

    def call_soon(self, fn: Callable[..., None], *args: Any) -> list:
        """Schedule ``fn(*args)`` at the current time, after queued same-time events."""
        return self.call_at(self.now(), fn, *args)

    def cancel(self, event: list) -> None:
        """Mark ``event`` so dispatch skips it. It counts as dead once, and
        only while it is queued and not already dead (cancelled or torn down)."""
        live = not self._is_dead(event)
        event[FN] = None
        if live and event[IN_QUEUE]:
            self._dead_pending += 1
            ns = event[NS]
            if ns is not None:
                ns.live -= 1
            self._maybe_compact()

    def idle_at_now(self) -> bool:
        """True when nothing else is queued for the current instant.

        A caller about to ``call_soon`` a continuation may then run it inline
        instead: no event could have been dispatched between the two, so the
        dispatch order is the one the hop would have produced. Conservative —
        a cancelled event at the head still counts as queued.
        """
        queue = self._queue
        return not self._soon and (not queue or queue[0][TIME] > self._now)

    # ------------------------------------------------------------------
    # job namespaces
    # ------------------------------------------------------------------
    def _namespace(self, job: str) -> _Namespace:
        ns = self._namespaces.get(job)
        if ns is None:
            ns = self._namespaces[job] = _Namespace(job)
        return ns

    @contextmanager
    def job_scope(self, job: str | None) -> Iterator[None]:
        """Tag every event scheduled inside the block (and, transitively,
        events scheduled while those dispatch) with ``job``."""
        previous = self._current_job
        self._current_job = None if job is None else self._namespace(job)
        try:
            yield
        finally:
            self._current_job = previous

    @property
    def current_job(self) -> str | None:
        """Tag of the currently dispatching event's namespace (None outside)."""
        ns = self._current_job
        return None if ns is None else ns.tag

    def unique_job_tag(self, base: str) -> str:
        """A namespace tag unique on this kernel (``base``, ``base#2``, ...)."""
        count = self._job_tag_counts.get(base, 0)
        self._job_tag_counts[base] = count + 1
        return base if count == 0 else f"{base}#{count + 1}"

    def cancel_job(self, job: str) -> int:
        """Bulk-cancel every event in ``job``'s namespace — O(1) in heap size.

        The namespace's generation counter is bumped; events recorded under
        the old generation die lazily at dispatch (or are swept by the next
        compaction pass). Events the job parks while suspended are dropped
        too. Returns the number of events condemned. The namespace remains
        usable: events scheduled *after* the call get the new generation.
        """
        ns = self._namespace(job)
        self._dead_pending += ns.live
        condemned = ns.live + len(ns.parked or ())
        ns.live, ns.parked = 0, None
        ns.gen += 1
        self.last_scheduled = None
        self.jobs_cancelled += 1
        self._maybe_compact()
        return condemned

    def live_events_of(self, job: str) -> int:
        """Live queued events in ``job``'s namespace (excludes parked)."""
        return self._namespace(job).live

    # ------------------------------------------------------------------
    # suspension (slot scheduling)
    # ------------------------------------------------------------------
    def suspend_job(self, job: str) -> None:
        """Park ``job``'s events instead of dispatching them.

        Events already in the heap stay there; each is parked when its
        dispatch time arrives, preserving (time, seq) order. Idempotent."""
        ns = self._namespace(job)
        if ns.parked is None:
            ns.parked = []

    def resume_job(self, job: str) -> int:
        """Undo :meth:`suspend_job`: replay parked events in park order.

        A parked event whose time has passed fires at ``now()``; future
        timers keep their absolute times. Relative order among the parked
        events is preserved (fresh sequence numbers in park order), so a
        suspended job observes exactly the event order it would have seen
        running uninterrupted — shifted in time, identical in sequence.
        Returns the number of events replayed.
        """
        ns = self._namespace(job)
        parked, ns.parked = ns.parked, None
        if not parked:
            return 0
        now = self.now()
        replayed = 0
        for event in parked:
            if self._is_dead(event):
                continue
            event[TIME] = max(now, event[TIME])
            event[SEQ] = next(self._seq)
            event[IN_QUEUE] = True
            ns.live += 1
            if event[TIME] <= now and self._same_time_bucket:
                self._soon.append(event)
            else:
                heapq.heappush(self._queue, event)
            self.last_scheduled = event
            replayed += 1
        return replayed

    def job_suspended(self, job: str) -> bool:
        """True while ``job`` is suspended."""
        return self._namespace(job).parked is not None

    # ------------------------------------------------------------------
    # dead-event accounting & compaction
    # ------------------------------------------------------------------
    @staticmethod
    def _is_dead(event: list) -> bool:
        if event[FN] is None:
            return True
        ns = event[NS]
        return ns is not None and event[GEN] != ns.gen

    def _maybe_compact(self) -> None:
        if self._dead_pending < self.compact_min_dead:
            return
        total = len(self._queue) + len(self._soon)
        if self._dead_pending <= COMPACT_THRESHOLD * total:
            return
        self._compact()

    def _compact(self) -> None:
        """Rebuild queue structures without dead events (one O(n) pass).

        Mutates in place: ``run()`` holds local references to both
        structures, so rebinding them would silently detach the loop."""
        is_dead = self._is_dead
        self._queue[:] = [event for event in self._queue if not is_dead(event)]
        heapq.heapify(self._queue)
        if any(is_dead(e) for e in self._soon):
            kept = [e for e in self._soon if not is_dead(e)]
            self._soon.clear()
            self._soon.extend(kept)
        self._dead_pending = 0
        self.compactions += 1

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(self, until: float | None = None, max_events: int | None = None) -> float:
        """Dispatch events in timestamp order.

        Args:
            until: stop once the clock would pass this virtual time. Events
                at exactly ``until`` are still dispatched, and a run that
                drains its queue leaves the clock at ``until``.
            max_events: safety valve against runaway feedback loops; a budget
                for *this* call, so a job may be driven by repeated ``run()``s.

        Returns:
            The virtual time at which the simulation quiesced (the last
            dispatch of a drained queue) or stopped.
        """
        if self._running:
            raise SimulationError("kernel is already running (re-entrant run())")
        clock = self.clock
        # The clock is public: pick up an advance made since the last run.
        self._now = clock._now
        self._running = True
        self._stopped = False
        # Events dispatch in their own namespace, not in a job_scope() that
        # happens to surround this call: an untagged event runs untagged.
        # Between dispatches it stays None; the finally restores the scope.
        outer_job = self._current_job
        self._current_job = None
        queue = self._queue
        soon = self._soon
        heappop = heapq.heappop
        horizon = float("inf") if until is None else until
        budget_end = float("inf") if max_events is None else self._dispatched + max_events
        try:
            while queue or soon:
                if self._stopped:
                    break
                if self._dispatched >= budget_end:
                    raise SimulationError(
                        f"exceeded max_events={max_events}; possible livelock"
                    )
                # Bucket events are at the current time; the heap may still
                # hold a same-time event scheduled *earlier* — preserve the
                # global (time, seq) tie-break by comparing heads.
                if soon:
                    event = soon[0]
                    if queue and queue[0] < event:
                        event = heappop(queue)
                    else:
                        soon.popleft()
                else:
                    event = heappop(queue)
                event[IN_QUEUE] = False
                fn = event[FN]
                if fn is None:
                    # cancelled
                    self._dead_pending -= 1
                    continue
                ns = event[NS]
                time = event[TIME]
                if ns is not None:
                    # Only a tagged event pays for namespace bookkeeping.
                    if event[GEN] != ns.gen:
                        self._dead_pending -= 1
                        continue
                    if time <= horizon and ns.parked is not None:
                        # Suspended job: park in arrival order for resume_job.
                        # Only an event that is due: one beyond the horizon
                        # keeps its (time, seq) place in the heap, so a job
                        # resumed before then loses no order.
                        ns.parked.append(event)
                        ns.live -= 1
                        continue
                if time > horizon:
                    # Put it back for a later run() call and advance to the horizon.
                    event[IN_QUEUE] = True
                    heapq.heappush(queue, event)
                    clock.advance_to(horizon)
                    self._now = clock._now
                    break
                if time > self._now:
                    # Heap order makes this monotone by construction, so the
                    # clock is written through without its time-travel check.
                    self._now = clock._now = time
                self._dispatched += 1
                if ns is None:
                    fn(*event[ARGS])
                else:
                    ns.live -= 1
                    self._current_job = ns
                    fn(*event[ARGS])
                    self._current_job = None
            else:
                quiesced = self._now
                if until is not None:
                    clock.advance_to(until)
                    self._now = clock._now
                return quiesced
        finally:
            self._running = False
            self._current_job = outer_job
        return self._now

    def stop(self) -> None:
        """Request the current :meth:`run` to return after the active event."""
        self._stopped = True

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def now(self) -> float:
        """Current virtual time."""
        if not self._running:
            self._now = self.clock._now
        return self._now

    @property
    def pending_events(self) -> int:
        is_dead = self._is_dead
        queued = sum(1 for e in self._queue if not is_dead(e))
        queued += sum(1 for e in self._soon if not is_dead(e))
        parked = (e for ns in self._namespaces.values() for e in ns.parked or ())
        return queued + sum(1 for e in parked if not is_dead(e))

    @property
    def queue_size(self) -> int:
        """Physical queue size including dead-but-unswept events."""
        return len(self._queue) + len(self._soon)

    @property
    def dead_pending(self) -> int:
        """Dead events awaiting lazy removal (dispatch skip or compaction)."""
        return self._dead_pending

    @property
    def dispatched_events(self) -> int:
        return self._dispatched

    def __repr__(self) -> str:
        return (
            f"Kernel(now={self.now():.6f}, pending={self.pending_events}, "
            f"dispatched={self._dispatched})"
        )


class PeriodicTimer:
    """Repeatedly invokes a callback on the kernel until cancelled.

    Used for heartbeats, watermark emission intervals, checkpoint intervals
    and elasticity control loops.
    """

    def __init__(
        self,
        kernel: Kernel,
        interval: float,
        action: Callable[[], None],
        start_delay: float | None = None,
    ) -> None:
        if interval <= 0:
            raise SimulationError(f"periodic interval must be positive, got {interval}")
        self._kernel = kernel
        self._interval = interval
        self._action = action
        self._active = True
        self._event = kernel.call_after(
            interval if start_delay is None else start_delay, self._fire
        )

    def _fire(self) -> None:
        if not self._active:
            return
        self._action()
        if self._active:
            self._event = self._kernel.call_after(self._interval, self._fire)

    def cancel(self) -> None:
        """Stop firing; the in-flight event is skipped."""
        self._active = False
        self._kernel.cancel(self._event)
