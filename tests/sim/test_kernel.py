"""Tests for the discrete-event kernel: ordering, determinism, timers."""

import pytest

from repro.errors import SimulationError
from repro.sim import Kernel, PeriodicTimer, VirtualClock
from repro.sim.kernel import TIME


class TestKernelOrdering:
    def test_events_dispatch_in_time_order(self):
        kernel = Kernel()
        seen = []
        kernel.call_at(3.0, lambda: seen.append(3))
        kernel.call_at(1.0, lambda: seen.append(1))
        kernel.call_at(2.0, lambda: seen.append(2))
        kernel.run()
        assert seen == [1, 2, 3]

    def test_same_time_events_dispatch_in_insertion_order(self):
        kernel = Kernel()
        seen = []
        for i in range(5):
            kernel.call_at(1.0, lambda i=i: seen.append(i))
        kernel.run()
        assert seen == [0, 1, 2, 3, 4]

    def test_clock_advances_to_event_time(self):
        kernel = Kernel()
        times = []
        kernel.call_at(2.5, lambda: times.append(kernel.now()))
        kernel.run()
        assert times == [2.5]
        assert kernel.now() == 2.5

    def test_events_scheduled_during_run_are_dispatched(self):
        kernel = Kernel()
        seen = []

        def first():
            seen.append("first")
            kernel.call_after(1.0, lambda: seen.append("second"))

        kernel.call_at(1.0, first)
        kernel.run()
        assert seen == ["first", "second"]
        assert kernel.now() == 2.0


class TestKernelLimits:
    def test_run_until_stops_at_horizon(self):
        kernel = Kernel()
        seen = []
        kernel.call_at(1.0, lambda: seen.append(1))
        kernel.call_at(5.0, lambda: seen.append(5))
        kernel.run(until=2.0)
        assert seen == [1]
        assert kernel.now() == 2.0
        kernel.run()
        assert seen == [1, 5]

    def test_event_at_exact_horizon_is_dispatched(self):
        kernel = Kernel()
        seen = []
        kernel.call_at(2.0, lambda: seen.append(2))
        kernel.run(until=2.0)
        assert seen == [2]

    def test_max_events_guards_against_livelock(self):
        kernel = Kernel()

        def loop():
            kernel.call_soon(loop)

        kernel.call_soon(loop)
        with pytest.raises(SimulationError, match="max_events"):
            kernel.run(max_events=100)

    def test_max_events_is_a_budget_per_run_call(self):
        """Repeated run() calls (resume-after-kill drivers) each get the full
        budget; it used to be compared with the lifetime dispatch count."""
        kernel = Kernel()
        for i in range(10):
            kernel.call_at(0.1 * (i + 1), lambda: None)
        kernel.run(until=0.45, max_events=6)
        assert kernel.dispatched_events == 4
        kernel.run(until=2.0, max_events=6)
        assert kernel.dispatched_events == 10

    def test_scheduling_in_the_past_raises(self):
        kernel = Kernel()
        kernel.call_at(5.0, lambda: None)
        kernel.run()
        with pytest.raises(SimulationError, match="cannot schedule"):
            kernel.call_at(1.0, lambda: None)

    def test_negative_delay_raises(self):
        kernel = Kernel()
        with pytest.raises(SimulationError):
            kernel.call_after(-0.5, lambda: None)


class TestCancellation:
    def test_cancelled_events_do_not_fire(self):
        kernel = Kernel()
        seen = []
        event = kernel.call_at(1.0, lambda: seen.append("no"))
        kernel.call_at(2.0, lambda: seen.append("yes"))
        kernel.cancel(event)
        kernel.run()
        assert seen == ["yes"]

    def test_stop_halts_the_loop(self):
        kernel = Kernel()
        seen = []
        kernel.call_at(1.0, lambda: (seen.append(1), kernel.stop()))
        kernel.call_at(2.0, lambda: seen.append(2))
        kernel.run()
        assert seen == [1]
        kernel.run()
        assert seen == [1, 2]


class TestPeriodicTimer:
    def test_fires_at_interval_until_cancelled(self):
        kernel = Kernel()
        ticks = []

        timer = PeriodicTimer(kernel, 1.0, lambda: ticks.append(kernel.now()))
        kernel.call_at(3.5, timer.cancel)
        kernel.run()
        assert ticks == [1.0, 2.0, 3.0]

    def test_start_delay_overrides_first_fire(self):
        kernel = Kernel()
        ticks = []
        timer = PeriodicTimer(kernel, 1.0, lambda: ticks.append(kernel.now()), start_delay=0.25)
        kernel.call_at(2.5, timer.cancel)
        kernel.run()
        assert ticks == [0.25, 1.25, 2.25]

    def test_zero_interval_rejected(self):
        kernel = Kernel()
        with pytest.raises(SimulationError):
            PeriodicTimer(kernel, 0.0, lambda: None)


class TestVirtualClock:
    def test_monotone_advance(self):
        clock = VirtualClock()
        clock.advance_to(1.0)
        clock.advance_to(1.0)
        assert clock.now() == 1.0
        with pytest.raises(SimulationError):
            clock.advance_to(0.5)

    def test_kernel_follows_a_clock_advanced_between_runs(self):
        """The clock is the public time source: the kernel's mirror of it
        must not go stale while no run() is in progress."""
        clock = VirtualClock()
        kernel = Kernel(clock)
        clock.advance_to(5.0)
        assert kernel.now() == 5.0
        times = []
        event = kernel.call_after(1.0, lambda: times.append((kernel.now(), clock.now())))
        assert event[TIME] == 6.0
        clock.advance_to(5.5)
        kernel.call_soon(lambda: times.append((kernel.now(), clock.now())))
        with pytest.raises(SimulationError):
            kernel.call_at(5.0, lambda: None)
        kernel.run()
        assert times == [(5.5, 5.5), (6.0, 6.0)]

    def test_untagged_event_runs_untagged_inside_a_job_scope(self):
        """run() called inside job_scope('a') must not lend the tag to
        events that were scheduled without one."""
        kernel = Kernel()
        seen = []

        def fire():
            seen.append(kernel.current_job)
            kernel.call_soon(lambda: seen.append(kernel.current_job))

        kernel.call_at(1.0, fire)
        with kernel.job_scope("a"):
            kernel.run()
            assert kernel.current_job == "a"
        assert seen == [None, None]
        assert kernel.live_events_of("a") == 0


class TestSameTimeBucket:
    """The heap-free fast path for events scheduled at exactly now()."""

    def test_call_soon_skips_the_heap(self):
        kernel = Kernel()
        kernel.call_soon(lambda: None)
        assert len(kernel._queue) == 0
        assert len(kernel._soon) == 1
        assert kernel.pending_events == 1

    def test_disabled_bucket_uses_the_heap(self):
        kernel = Kernel(same_time_bucket=False)
        kernel.call_soon(lambda: None)
        assert len(kernel._queue) == 1
        assert len(kernel._soon) == 0

    def test_dispatch_order_identical_with_and_without_bucket(self):
        """The bucket must reproduce the exact global (time, seq) order:
        interleave call_at-at-now, call_soon, and future events."""

        def drive(same_time_bucket):
            kernel = Kernel(same_time_bucket=same_time_bucket)
            seen = []

            def at_one():
                seen.append("t1")
                # same-time events created mid-dispatch, interleaved with a
                # heap event at the same time scheduled earlier (below)
                kernel.call_soon(lambda: seen.append("soon-a"))
                kernel.call_at(kernel.now(), lambda: seen.append("at-now"))
                kernel.call_soon(lambda: seen.append("soon-b"))

            kernel.call_at(1.0, at_one)
            kernel.call_at(1.0, lambda: seen.append("t1-later-seq"))
            kernel.call_at(2.0, lambda: seen.append("t2"))
            kernel.call_soon(lambda: seen.append("t0-soon"))
            kernel.run()
            return seen

        assert drive(True) == drive(False)
        assert drive(True) == ["t0-soon", "t1", "t1-later-seq", "soon-a", "at-now", "soon-b", "t2"]

    def test_bucket_event_cancellation(self):
        kernel = Kernel()
        seen = []
        event = kernel.call_soon(lambda: seen.append("cancelled"))
        kernel.call_soon(lambda: seen.append("kept"))
        kernel.cancel(event)
        kernel.run()
        assert seen == ["kept"]
        assert kernel.pending_events == 0

    def test_bucket_drains_before_clock_advances(self):
        kernel = Kernel()
        seen = []
        kernel.call_at(1.0, lambda: kernel.call_soon(lambda: seen.append(kernel.now())))
        kernel.call_at(2.0, lambda: seen.append(kernel.now()))
        kernel.run()
        assert seen == [1.0, 2.0]

    def test_run_until_preserves_pending_bucketless_future_events(self):
        kernel = Kernel()
        seen = []
        kernel.call_soon(lambda: seen.append("now"))
        kernel.call_at(5.0, lambda: seen.append("later"))
        kernel.run(until=1.0)
        assert seen == ["now"]
        assert kernel.now() == 1.0
        kernel.run()
        assert seen == ["now", "later"]

    def test_determinism_across_identical_runs(self):
        def drive():
            kernel = Kernel()
            order = []
            for i in range(50):
                if i % 3 == 0:
                    kernel.call_soon(lambda i=i: order.append(i))
                else:
                    kernel.call_at(float(i % 7), lambda i=i: order.append(i))
            kernel.run()
            return order

        assert drive() == drive()
