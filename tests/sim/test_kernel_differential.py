"""Differential test: the kernel against its semantics written the slow,
obvious way — one sorted list keyed by ``(time, seq)``; no heap, no same-time
bucket, no dead-event accounting, no untagged fast path. ``last_scheduled``
(what a delivery flight may be appended to) is part of the semantics: the
event holding the newest ``seq``, or None after a ``cancel_job``."""

import bisect
import itertools
from contextlib import contextmanager, nullcontext

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sim import Kernel


class _RefEvent:
    def __init__(self, time, seq, fn, args, job, gen):
        self.time, self.seq, self.fn, self.args = time, seq, fn, args
        self.job, self.gen, self.cancelled, self.in_queue = job, gen, False, True

    def cancel(self):
        self.cancelled = True


class ReferenceScheduler:
    def __init__(self):
        self._now, self._seq, self._events = 0.0, itertools.count(), []
        self.current_job, self._gens, self._parked = None, {}, {}
        self.dispatched_events, self.last_scheduled = 0, None

    def now(self):
        return self._now

    def _insert(self, event):
        bisect.insort(self._events, event, key=lambda e: (e.time, e.seq))

    def _dead(self, event):
        return event.cancelled or (
            event.job is not None and event.gen != self._gens.get(event.job, 0)
        )

    def call_at(self, time, fn, *args):
        assert time >= self._now - 1e-12
        job = self.current_job
        gen = self._gens.get(job, 0)
        event = _RefEvent(max(time, self._now), next(self._seq), fn, args, job, gen)
        self._insert(event)
        self.last_scheduled = event
        return event

    def call_after(self, delay, fn, *args):
        return self.call_at(self._now + delay, fn, *args)

    def call_soon(self, fn, *args):
        return self.call_at(self._now, fn, *args)

    @contextmanager
    def job_scope(self, job):
        previous, self.current_job = self.current_job, job
        try:
            yield
        finally:
            self.current_job = previous

    def cancel_job(self, job):
        self._gens[job] = self._gens.get(job, 0) + 1
        self._parked.pop(job, None)
        self.last_scheduled = None

    def suspend_job(self, job):
        self._parked.setdefault(job, [])

    def resume_job(self, job):
        for event in self._parked.pop(job, []):
            if not self._dead(event):
                event.time, event.seq = max(self._now, event.time), next(self._seq)
                event.in_queue = True
                self._insert(event)
                self.last_scheduled = event

    def run(self, until=None):
        while self._events and (until is None or self._events[0].time <= until):
            event = self._events.pop(0)
            event.in_queue = False
            if self._dead(event):
                continue
            if event.job in self._parked:
                self._parked[event.job].append(event)
                continue
            self._now = max(self._now, event.time)
            self.dispatched_events += 1
            with self.job_scope(event.job):
                event.fn(*event.args)
        if until is not None:
            self._now = max(self._now, until)


JOBS = ("a", "b")
#: dyadic, so sums are exact and same-instant ties are the norm
DELAYS = (0.0, 0.0, 0.25, 0.5, 1.0)


def _ops(depth):
    """Lists of ops; a ``sched`` op carries the ops its callback runs."""
    children = _ops(depth - 1) if depth else st.just([])
    sched = st.tuples(
        st.just("sched"),
        st.sampled_from(("at", "after", "soon")),
        st.sampled_from(DELAYS),
        st.sampled_from((None, None) + JOBS),  # None: inherit the dispatching tag
        st.booleans(),  # pass (label, children) as *args, or close over them
        children,
    )
    control = st.one_of(
        st.tuples(st.just("cancel"), st.integers(0, 63)),
        st.tuples(st.sampled_from(("suspend_job", "resume_job", "cancel_job")), st.sampled_from(JOBS)),
    )
    return st.lists(st.one_of(sched, sched, control), max_size=5)


#: a ``run`` step: the horizon, and the job_scope the call is made in
RUNS = st.tuples(
    st.just("run"), st.sampled_from((None, 0.25, 0.75)), st.sampled_from((None, None, "a"))
)
PROGRAMS = st.lists(st.one_of(_ops(2), RUNS), max_size=8)


class Driver:
    """Interprets a program against a scheduler, logging every dispatch."""

    def __init__(self, sched):
        self.sched, self.log, self.handles, self.labels = sched, [], [], itertools.count()
        self.label_of = {}  # id(handle) -> label; the handles list keeps them alive

    def last(self):
        """``last_scheduled`` as a flight would test it: which event, at what
        time, in whose namespace, and whether it can still be appended to."""
        event = self.sched.last_scheduled
        if event is None:
            return None
        return self.label_of[id(event)], event.time, event.job, event.in_queue and not event.cancelled

    def fire(self, label, children):
        self.log.append((label, self.sched.now(), self.sched.current_job, self.last()))
        self.execute(children)

    def execute(self, ops):
        sched = self.sched
        for op in ops:
            if op[0] == "sched":
                _, how, delay, job, use_args, children = op
                label = next(self.labels)
                if use_args:
                    fn, args = self.fire, (label, children)
                else:
                    fn, args = (lambda lb=label, ch=children: self.fire(lb, ch)), ()
                with sched.job_scope(job) if job is not None else nullcontext():
                    if how == "at":
                        handle = sched.call_at(sched.now() + delay, fn, *args)
                    elif how == "after":
                        handle = sched.call_after(delay, fn, *args)
                    else:
                        handle = sched.call_soon(fn, *args)
                self.handles.append(handle)
                self.label_of[id(handle)] = label
            elif op[0] == "cancel":
                if self.handles:
                    self.handles[op[1] % len(self.handles)].cancel()
                self.log.append(("cancel", self.last()))
            else:
                getattr(sched, op[0])(op[1])
                self.log.append((op[0], self.last()))

    def play(self, program):
        sched = self.sched
        for step in program:
            if isinstance(step, tuple):
                _, horizon, scope = step
                with sched.job_scope(scope) if scope is not None else nullcontext():
                    sched.run(until=None if horizon is None else sched.now() + horizon)
                # a run parks what a suspended job has due: in_queue falls
                self.log.append(("ran", sched.now(), sched.dispatched_events, self.last()))
            else:
                self.execute(step)
        # Drain: a callback may suspend a job again, so resume until a round
        # dispatches nothing.
        dispatched = -1
        while dispatched != sched.dispatched_events:
            dispatched = sched.dispatched_events
            for job in JOBS:
                sched.resume_job(job)
            sched.run()
        return self.log, sched.now(), sched.dispatched_events


#: run(until=0.25) meets a suspended job's 0.5 event: it is beyond the
#: horizon, so it stays queued ahead of the later-scheduled 0.5 event
HORIZON_BEFORE_PARKING = [
    [
        ("suspend_job", "b"),
        ("sched", "at", 0.0, None, True, []),
        ("sched", "at", 0.5, "b", True, []),
        ("sched", "at", 0.5, None, True, []),
    ],
    ("run", 0.25, None),
    [("resume_job", "b")],
    ("run", None, None),
]


@settings(max_examples=300, deadline=None)
@given(program=PROGRAMS, bucket=st.booleans())
@example(program=HORIZON_BEFORE_PARKING, bucket=False)
def test_kernel_matches_reference_scheduler(program, bucket):
    kernel = Kernel(same_time_bucket=bucket, compact_min_dead=2)
    assert Driver(kernel).play(program) == Driver(ReferenceScheduler()).play(program)
    assert kernel.now() == kernel.clock.now()
    assert kernel.dead_pending == 0
    assert kernel.pending_events == 0 and kernel.queue_size == 0
