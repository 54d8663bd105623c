"""Kernel job namespaces: tagging, O(1) teardown, compaction, suspension."""

import time

from repro.sim import Kernel


class TestJobTagging:
    def test_events_scheduled_in_scope_carry_the_tag(self):
        kernel = Kernel()
        with kernel.job_scope("a"):
            kernel.call_at(1.0, lambda: None)
        assert kernel.live_events_of("a") == 1

    def test_tag_propagates_through_dispatch(self):
        """An event scheduled while a tagged event dispatches inherits the
        tag — one scope around the entry point namespaces the whole tree."""
        kernel = Kernel()
        seen = []

        def chain(depth):
            seen.append(kernel.current_job)
            if depth:
                kernel.call_after(0.1, lambda: chain(depth - 1))

        with kernel.job_scope("job"):
            kernel.call_at(0.0, lambda: chain(3))
        kernel.run()
        assert seen == ["job"] * 4

    def test_scopes_nest_and_restore(self):
        kernel = Kernel()
        with kernel.job_scope("outer"):
            with kernel.job_scope("inner"):
                assert kernel.current_job == "inner"
            assert kernel.current_job == "outer"
        assert kernel.current_job is None

    def test_unique_job_tag_disambiguates(self):
        kernel = Kernel()
        assert kernel.unique_job_tag("j") == "j"
        assert kernel.unique_job_tag("j") == "j#2"
        assert kernel.unique_job_tag("j") == "j#3"
        assert kernel.unique_job_tag("other") == "other"


class TestCancelJob:
    def test_cancel_job_kills_all_namespace_events(self):
        kernel = Kernel()
        ran = []
        with kernel.job_scope("dead"):
            for i in range(10):
                kernel.call_at(1.0 + i, lambda i=i: ran.append(("dead", i)))
        with kernel.job_scope("live"):
            kernel.call_at(5.0, lambda: ran.append("live"))
        assert kernel.cancel_job("dead") == 10
        kernel.run()
        assert ran == ["live"]

    def test_cancel_job_kills_transitive_descendants(self):
        """Events the job would have scheduled later die with it too (the
        generation check covers events scheduled after the bump only if
        re-tagged — descendants of dead events never dispatch at all)."""
        kernel = Kernel()
        ran = []

        def reschedule():
            ran.append(kernel.now())
            kernel.call_after(1.0, reschedule)

        with kernel.job_scope("loop"):
            kernel.call_at(1.0, reschedule)
        kernel.call_at(2.5, lambda: kernel.cancel_job("loop"))
        kernel.run(until=10.0)
        assert ran == [1.0, 2.0]

    def test_namespace_reusable_after_cancel(self):
        kernel = Kernel()
        ran = []
        with kernel.job_scope("j"):
            kernel.call_at(1.0, lambda: ran.append("old"))
        kernel.cancel_job("j")
        with kernel.job_scope("j"):
            kernel.call_at(2.0, lambda: ran.append("new"))
        kernel.run()
        assert ran == ["new"]

    def test_cancel_job_is_o1_in_heap_size(self):
        """Teardown cost must not scale with how many events sit in the
        heap: 50x more events may not cost more than a small constant
        factor (wall-clock measured, generous bound for CI noise)."""

        def teardown_cost(total_events: int) -> float:
            kernel = Kernel(compact_min_dead=1 << 30)  # isolate cancel cost
            per_job = total_events // 100
            for j in range(100):
                with kernel.job_scope(f"job{j}"):
                    for i in range(per_job):
                        kernel.call_at(1.0 + i, lambda: None)
            started = time.perf_counter()
            kernel.cancel_job("job50")
            return time.perf_counter() - started

        small = max(teardown_cost(2_000), 1e-7)
        large = teardown_cost(100_000)
        assert large / small < 50, (small, large)

    def test_pending_events_excludes_dead(self):
        kernel = Kernel()
        with kernel.job_scope("j"):
            kernel.call_at(1.0, lambda: None)
            kernel.call_at(2.0, lambda: None)
        kernel.call_at(3.0, lambda: None)
        assert kernel.pending_events == 3
        kernel.cancel_job("j")
        assert kernel.pending_events == 1
        assert kernel.queue_size == 3  # dead events swept lazily


class TestCompaction:
    def test_mass_cancellation_triggers_compaction(self):
        kernel = Kernel(compact_min_dead=64, compact_threshold=0.5)
        handles = []
        for i in range(200):
            handles.append(kernel.call_at(100.0 + i, lambda: None))
        for handle in handles[:150]:
            handle.cancel()
        assert kernel.compactions >= 1
        # Swept down to the live events plus a sub-threshold dead residue.
        assert kernel.pending_events == 50
        assert kernel.queue_size < 150
        assert kernel.dead_pending < kernel.compact_min_dead

    def test_compaction_below_threshold_is_deferred(self):
        kernel = Kernel(compact_min_dead=64, compact_threshold=0.5)
        handles = [kernel.call_at(100.0 + i, lambda: None) for i in range(200)]
        for handle in handles[:80]:  # 80 dead of 200 = 40% < 50%
            handle.cancel()
        assert kernel.compactions == 0
        assert kernel.dead_pending == 80

    def test_compaction_preserves_dispatch_order(self):
        kernel = Kernel(compact_min_dead=8, compact_threshold=0.1)
        seen = []
        keep = [kernel.call_at(float(i), lambda i=i: seen.append(i)) for i in range(20)]
        doomed = [kernel.call_at(0.5 + i, lambda: seen.append("dead")) for i in range(20)]
        for handle in doomed:
            handle.cancel()
        assert kernel.compactions >= 1
        kernel.run()
        assert seen == list(range(20))

    def test_mass_cancellation_does_not_inflate_dispatch_cost(self):
        """Regression (satellite): cancelled events used to sit in the heap
        until their timestamps arrived, so a timer-cancel storm paid O(dead)
        at every subsequent pop. With threshold compaction, dispatching K
        live events after cancelling N >> K dead ones must not walk the
        dead ones: the kernel sweeps them in one pass instead."""
        kernel = Kernel(compact_min_dead=256, compact_threshold=0.5)
        dead = [kernel.call_at(1e6 + i, lambda: None) for i in range(50_000)]
        live_ran = []
        for i in range(100):
            kernel.call_at(1.0 + i, lambda i=i: live_ran.append(i))
        for handle in dead:
            handle.cancel()
        # The storm crossed the threshold (repeatedly, as the halving queue
        # re-crosses it): the heap ends orders of magnitude smaller than the
        # 50k dead events, so live dispatch never walks them.
        assert kernel.compactions >= 1
        assert kernel.queue_size < 1000
        kernel.run(until=200.0)
        assert live_ran == list(range(100))
        assert kernel.dispatched_events == 100


class TestSuspendResume:
    def test_suspended_job_events_park_instead_of_dispatching(self):
        kernel = Kernel()
        ran = []
        with kernel.job_scope("j"):
            kernel.call_at(1.0, lambda: ran.append("a"))
            kernel.call_at(2.0, lambda: ran.append("b"))
        kernel.suspend_job("j")
        kernel.run()
        assert ran == []
        assert kernel.job_suspended("j")

    def test_resume_replays_in_original_order(self):
        kernel = Kernel()
        ran = []
        with kernel.job_scope("j"):
            for i in range(5):
                kernel.call_at(1.0 + i, lambda i=i: ran.append(i))
        kernel.suspend_job("j")
        kernel.run()  # all five park
        kernel.resume_job("j")
        kernel.run()
        assert ran == [0, 1, 2, 3, 4]

    def test_resume_shifts_past_times_to_now(self):
        kernel = Kernel()
        stamps = []
        with kernel.job_scope("j"):
            kernel.call_at(1.0, lambda: stamps.append(kernel.now()))
            kernel.call_at(50.0, lambda: stamps.append(kernel.now()))
        kernel.suspend_job("j")
        kernel.call_at(10.0, lambda: None)  # drags the clock to 10
        kernel.run()
        kernel.resume_job("j")
        kernel.run()
        # The overdue event fires immediately (at 10); the future timer
        # keeps its absolute time.
        assert stamps == [10.0, 50.0]

    def test_cancel_while_suspended_drops_parked_events(self):
        kernel = Kernel()
        ran = []
        with kernel.job_scope("j"):
            kernel.call_at(1.0, lambda: ran.append("x"))
        kernel.suspend_job("j")
        kernel.run()
        kernel.cancel_job("j")
        kernel.resume_job("j")  # nothing left to replay
        kernel.run()
        assert ran == []

    def test_other_jobs_flow_while_one_is_suspended(self):
        kernel = Kernel()
        ran = []
        with kernel.job_scope("slow"):
            kernel.call_at(1.0, lambda: ran.append("slow"))
        with kernel.job_scope("fast"):
            kernel.call_at(2.0, lambda: ran.append("fast"))
        kernel.suspend_job("slow")
        kernel.run()
        assert ran == ["fast"]
        kernel.resume_job("slow")
        kernel.run()
        assert ran == ["fast", "slow"]

    def test_event_beyond_the_horizon_is_not_parked(self):
        """run(until=h) must leave a suspended job's later event in the heap:
        parked, it is replayed with a fresh seq and fires behind an event
        scheduled after it."""
        kernel = Kernel(same_time_bucket=False)
        log = []
        kernel.suspend_job("b")
        kernel.call_at(0.0, log.append, 0)
        with kernel.job_scope("b"):
            kernel.call_at(0.5, log.append, 1)
        kernel.call_at(0.5, log.append, 2)
        kernel.run(until=0.25)
        kernel.resume_job("b")  # before either 0.5 event is due
        kernel.run()
        assert log == [0, 1, 2]

    def test_individual_cancel_accounting_survives_suspension_cycle(self):
        kernel = Kernel()
        ran = []
        with kernel.job_scope("j"):
            handle = kernel.call_at(1.0, lambda: ran.append("cancelled"))
            kernel.call_at(2.0, lambda: ran.append("kept"))
        handle.cancel()
        kernel.suspend_job("j")
        kernel.run()
        kernel.resume_job("j")
        kernel.run()
        assert ran == ["kept"]
        assert kernel.live_events_of("j") == 0
