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

* **Job namespaces** — every event carries the tag of the job that
  scheduled it. The tag propagates automatically: events scheduled while a
  tagged event is dispatching inherit its tag, so one ``job_scope(tag)``
  around a job's entry point namespaces its entire transitive event tree.
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


class EventHandle:
    """One scheduled callback — and the handle the ``call_*`` methods return.

    The kernel queues it as ``(time, seq, event)``: ``seq`` is unique, so the
    heap orders entries by comparing a float and an int in C and never asks
    this class to compare itself. The event is its own cancel handle, so
    scheduling allocates one object, not an event plus a wrapper.
    """

    __slots__ = ("_kernel", "time", "seq", "fn", "args", "cancelled", "job", "gen", "in_queue")

    def __init__(
        self, kernel: "Kernel", time: float, seq: int, fn: Callable[..., None], args: tuple
    ) -> None:
        self._kernel = kernel
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False
        #: namespace tag of the job that scheduled this event (None = untagged)
        self.job: str | None = None
        #: the job's generation at schedule time; a mismatch with the current
        #: generation means the job was torn down since — the event is dead
        self.gen = 0
        #: True while the event sits in the heap or the same-time bucket (used
        #: for exact dead-event accounting across cancel/teardown/compaction)
        self.in_queue = True

    def cancel(self) -> None:
        """Mark the event so the kernel skips it on dispatch."""
        self._kernel._note_cancel(self)


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
        compact_threshold: float = 0.5,
        compact_min_dead: int = 256,
    ) -> None:
        self.clock = clock or VirtualClock()
        #: the clock's time, mirrored so the dispatch path reads an attribute
        #: instead of calling ``clock.now()``. Inside ``run()`` the kernel
        #: moves time and writes it through to the clock; outside, the clock
        #: is public and may be advanced directly, so ``now()`` and
        #: ``call_at`` re-read it first
        self._now = self.clock.now()
        #: heap of ``(time, seq, event)``; tuples compare in C
        self._queue: list[tuple[float, int, EventHandle]] = []
        #: FIFO bucket for events scheduled at exactly ``now()`` — the
        #: dominant case for zero-latency local hops. Bucket events skip the
        #: heap entirely; dispatch order is still the global (time, seq)
        #: order, so the bucket is observably identical to the heap.
        #: ``same_time_bucket=False`` keeps the heap-only path as the
        #: reference the kernel's differential tests compare against.
        self._soon: deque[EventHandle] = deque()
        self._same_time_bucket = same_time_bucket
        self._seq = itertools.count()
        #: the event queued most recently (by ``call_at`` or ``resume_job``):
        #: it holds the newest ``seq``, so whatever is scheduled next for its
        #: time would dispatch right behind it. None once a ``cancel_job`` may
        #: have condemned it. Read-only for callers (see channel flights)
        self.last_scheduled: EventHandle | None = None
        self._running = False
        self._stopped = False
        self._dispatched = 0
        # --- job namespaces ------------------------------------------------
        #: job tag → current generation; bumped by cancel_job (O(1) teardown)
        self._job_gens: dict[str, int] = {}
        #: job tag → live (non-dead) events currently in queue/bucket
        self._live_by_job: dict[str, int] = {}
        #: namespace active during dispatch; events scheduled inherit it
        self._current_job: str | None = None
        #: job tag → events parked while the job is suspended (slot sched)
        self._parked: dict[str, list[EventHandle]] = {}
        #: per-base-name counters for unique job tags on this kernel
        self._job_tag_counts: dict[str, int] = {}
        # --- lazy compaction ----------------------------------------------
        #: dead (cancelled or stale-generation) events still in queue/bucket
        self._dead_pending = 0
        #: compact when dead events exceed this fraction of the queue ...
        self.compact_threshold = compact_threshold
        #: ... and this absolute floor (avoids thrashing on tiny queues)
        self.compact_min_dead = compact_min_dead
        #: number of compaction passes run (bench/regression visibility)
        self.compactions = 0
        #: number of cancel_job teardowns performed
        self.jobs_cancelled = 0

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def call_at(self, time: float, fn: Callable[..., None], *args: Any) -> EventHandle:
        """Schedule ``fn(*args)`` to run at absolute virtual ``time``.

        Passing ``args`` here instead of closing over them saves the caller a
        closure allocation and the dispatch an extra frame per event.
        """
        if not self._running:
            self._now = self.clock.now()
        now = self._now
        if time <= now:
            if time < now - 1e-12:
                raise SimulationError(
                    f"cannot schedule event at {time} before now={now}"
                )
            time = now
        event = self.last_scheduled = EventHandle(self, time, next(self._seq), fn, args)
        job = self._current_job
        if job is not None:
            # Only a tagged event pays for namespace bookkeeping.
            event.job = job
            event.gen = self._job_gens.get(job, 0)
            self._live_by_job[job] = self._live_by_job.get(job, 0) + 1
        if time == now and self._same_time_bucket:
            self._soon.append(event)
        else:
            heapq.heappush(self._queue, (time, event.seq, event))
        return event

    def call_after(self, delay: float, fn: Callable[..., None], *args: Any) -> EventHandle:
        """Schedule ``fn(*args)`` to run ``delay`` virtual seconds from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        return self.call_at(self.now() + delay, fn, *args)

    def call_soon(self, fn: Callable[..., None], *args: Any) -> EventHandle:
        """Schedule ``fn(*args)`` at the current time, after queued same-time events."""
        return self.call_at(self.now(), fn, *args)

    def idle_at_now(self) -> bool:
        """True when nothing else is queued for the current instant.

        A caller about to ``call_soon`` a continuation may then run it inline
        instead: no event could have been dispatched between the two, so the
        dispatch order is the one the hop would have produced. Conservative —
        a cancelled event at the head still counts as queued.
        """
        queue = self._queue
        return not self._soon and (not queue or queue[0][0] > self._now)

    # ------------------------------------------------------------------
    # job namespaces
    # ------------------------------------------------------------------
    @contextmanager
    def job_scope(self, job: str | None) -> Iterator[None]:
        """Tag every event scheduled inside the block (and, transitively,
        events scheduled while those dispatch) with ``job``."""
        previous = self._current_job
        self._current_job = job
        try:
            yield
        finally:
            self._current_job = previous

    @property
    def current_job(self) -> str | None:
        """Namespace of the currently dispatching event (None outside)."""
        return self._current_job

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
        condemned = self._live_by_job.pop(job, 0)
        self._dead_pending += condemned
        self._job_gens[job] = self._job_gens.get(job, 0) + 1
        parked = self._parked.pop(job, None)
        if parked:
            condemned += len(parked)
        self.last_scheduled = None
        self.jobs_cancelled += 1
        self._maybe_compact()
        return condemned

    def live_events_of(self, job: str) -> int:
        """Live queued events in ``job``'s namespace (excludes parked)."""
        return self._live_by_job.get(job, 0)

    # ------------------------------------------------------------------
    # suspension (slot scheduling)
    # ------------------------------------------------------------------
    def suspend_job(self, job: str) -> None:
        """Park ``job``'s events instead of dispatching them.

        Events already in the heap stay there; each is parked when its
        dispatch time arrives, preserving (time, seq) order. Idempotent."""
        self._parked.setdefault(job, [])

    def resume_job(self, job: str) -> int:
        """Undo :meth:`suspend_job`: replay parked events in park order.

        A parked event whose time has passed fires at ``now()``; future
        timers keep their absolute times. Relative order among the parked
        events is preserved (fresh sequence numbers in park order), so a
        suspended job observes exactly the event order it would have seen
        running uninterrupted — shifted in time, identical in sequence.
        Returns the number of events replayed.
        """
        parked = self._parked.pop(job, None)
        if not parked:
            return 0
        now = self.now()
        replayed = 0
        for event in parked:
            if self._is_dead(event):
                continue
            event.time = max(now, event.time)
            event.seq = next(self._seq)
            event.in_queue = True
            self._live_by_job[job] = self._live_by_job.get(job, 0) + 1
            if event.time <= now and self._same_time_bucket:
                self._soon.append(event)
            else:
                heapq.heappush(self._queue, (event.time, event.seq, event))
            self.last_scheduled = event
            replayed += 1
        return replayed

    def job_suspended(self, job: str) -> bool:
        """True while ``job`` is suspended."""
        return job in self._parked

    # ------------------------------------------------------------------
    # dead-event accounting & compaction
    # ------------------------------------------------------------------
    def _is_dead(self, event: EventHandle) -> bool:
        if event.cancelled:
            return True
        job = event.job
        return job is not None and event.gen != self._job_gens.get(job, 0)

    def _note_cancel(self, event: EventHandle) -> None:
        """Account an individual cancellation exactly once."""
        if event.cancelled:
            return
        if self._is_dead(event):
            # Already condemned by a job teardown; just mark the flag.
            event.cancelled = True
            return
        event.cancelled = True
        if event.in_queue:
            self._dead_pending += 1
            if event.job is not None:
                self._live_by_job[event.job] = self._live_by_job.get(event.job, 1) - 1
            self._maybe_compact()

    def _maybe_compact(self) -> None:
        if self._dead_pending < self.compact_min_dead:
            return
        total = len(self._queue) + len(self._soon)
        if self._dead_pending <= self.compact_threshold * total:
            return
        self._compact()

    def _compact(self) -> None:
        """Rebuild queue structures without dead events (one O(n) pass).

        Mutates in place: ``run()`` holds local references to both
        structures, so rebinding them would silently detach the loop."""
        self._queue[:] = [entry for entry in self._queue if not self._is_dead(entry[2])]
        heapq.heapify(self._queue)
        if any(self._is_dead(e) for e in self._soon):
            kept = [e for e in self._soon if not self._is_dead(e)]
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
                at exactly ``until`` are still dispatched.
            max_events: safety valve against runaway feedback loops; a budget
                for *this* call, so a job may be driven by repeated ``run()``s.

        Returns:
            The virtual time at which the simulation quiesced or stopped.
        """
        if self._running:
            raise SimulationError("kernel is already running (re-entrant run())")
        clock = self.clock
        # The clock is public: pick up an advance made since the last run.
        self._now = clock.now()
        self._running = True
        self._stopped = False
        # Events dispatch in their own namespace, not in a job_scope() that
        # happens to surround this call: an untagged event runs untagged.
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
                    if queue and queue[0][0] <= event.time and queue[0][1] < event.seq:
                        event = heappop(queue)[2]
                    else:
                        soon.popleft()
                else:
                    event = heappop(queue)[2]
                event.in_queue = False
                # _is_dead() unrolled, so an untagged event skips the
                # generation lookup along with the rest of the namespace work.
                if event.cancelled:
                    self._dead_pending -= 1
                    continue
                job = event.job
                time = event.time
                if job is not None:
                    if event.gen != self._job_gens.get(job, 0):
                        self._dead_pending -= 1
                        continue
                    if time <= horizon and job in self._parked:
                        # Suspended job: park in arrival order for resume_job.
                        # Only an event that is due: one beyond the horizon
                        # keeps its (time, seq) place in the heap, so a job
                        # resumed before then loses no order.
                        self._parked[job].append(event)
                        self._live_by_job[job] = self._live_by_job.get(job, 1) - 1
                        continue
                if time > horizon:
                    # Put it back for a later run() call and advance to the horizon.
                    event.in_queue = True
                    heapq.heappush(queue, (time, event.seq, event))
                    clock.advance_to(horizon)
                    self._now = clock.now()
                    break
                if time > self._now:
                    # Heap order makes this monotone by construction, so the
                    # clock is written through without its time-travel check.
                    self._now = clock._now = time
                self._dispatched += 1
                if job is None:
                    event.fn(*event.args)
                    continue
                self._live_by_job[job] = self._live_by_job.get(job, 1) - 1
                previous_job = self._current_job
                self._current_job = job
                try:
                    event.fn(*event.args)
                finally:
                    self._current_job = previous_job
            else:
                if until is not None:
                    clock.advance_to(until)
                    self._now = clock.now()
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
            self._now = self.clock.now()
        return self._now

    @property
    def pending_events(self) -> int:
        queued = sum(1 for entry in self._queue if not self._is_dead(entry[2])) + sum(
            1 for e in self._soon if not self._is_dead(e)
        )
        parked = sum(
            1
            for events in self._parked.values()
            for e in events
            if not self._is_dead(e)
        )
        return queued + parked

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
        self._handle = kernel.call_after(
            interval if start_delay is None else start_delay, self._fire
        )

    def _fire(self) -> None:
        if not self._active:
            return
        self._action()
        if self._active:
            self._handle = self._kernel.call_after(self._interval, self._fire)

    def cancel(self) -> None:
        """Stop firing; the in-flight event is skipped."""
        self._active = False
        self._handle.cancel()

    @property
    def active(self) -> bool:
        return self._active
