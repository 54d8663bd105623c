"""Unit tests for output gates and physical channels."""

from repro.core.events import Record, Watermark
from repro.core.graph import ChannelSpec, Partitioning
from repro.core.keys import subtask_for_key
from repro.runtime.channel import OutputGate, PhysicalChannel, make_partition_filter
from repro.sim import Kernel, SimRandom
from repro.sim.kernel import ARGS, IN_QUEUE


class FakeTask:
    def __init__(self):
        self.received = []
        self.unblocked = 0

    def deliver(self, channel_index, element, via=None):
        self.received.append((channel_index, element))
        if via is not None:
            via.return_credit()

    def output_unblocked(self):
        self.unblocked += 1


def make_channels(kernel, n, capacity=None, latency=1e-4):
    tasks = [FakeTask() for _ in range(n)]
    channels = [
        PhysicalChannel(
            kernel,
            ChannelSpec(latency=latency, capacity=capacity),
            task,
            receiver_channel_index=0,
            rng=SimRandom(0, f"c{i}"),
        )
        for i, task in enumerate(tasks)
    ]
    return tasks, channels


class TestPartitioning:
    def test_hash_routes_by_key_group(self):
        kernel = Kernel()
        tasks, channels = make_channels(kernel, 4)
        gate = OutputGate(Partitioning.HASH, channels)
        for key in ["a", "b", "c", "d", "e"]:
            gate.emit(Record(value=key, key=key))
        kernel.run()
        for index, task in enumerate(tasks):
            for _ch, element in task.received:
                assert subtask_for_key(element.key, 4, 128) == index

    def test_rebalance_round_robins(self):
        kernel = Kernel()
        tasks, channels = make_channels(kernel, 3)
        gate = OutputGate(Partitioning.REBALANCE, channels)
        for i in range(9):
            gate.emit(Record(value=i))
        kernel.run()
        assert [len(t.received) for t in tasks] == [3, 3, 3]

    def test_broadcast_reaches_everyone(self):
        kernel = Kernel()
        tasks, channels = make_channels(kernel, 3)
        gate = OutputGate(Partitioning.BROADCAST, channels)
        gate.emit(Record(value="x"))
        kernel.run()
        assert all(len(t.received) == 1 for t in tasks)

    def test_control_elements_broadcast_regardless_of_partitioning(self):
        kernel = Kernel()
        tasks, channels = make_channels(kernel, 3)
        gate = OutputGate(Partitioning.HASH, channels)
        gate.emit(Watermark(5.0))
        kernel.run()
        assert all(len(t.received) == 1 for t in tasks)


class TestCredits:
    def test_send_blocks_at_capacity(self):
        kernel = Kernel()
        _tasks, channels = make_channels(kernel, 1, capacity=2)
        channel = channels[0]
        assert channel.send(Record(value=1))
        assert channel.send(Record(value=2))
        assert not channel.send(Record(value=3))  # parked
        assert channel.backlog_size == 1
        assert not channel.is_clear
        kernel.run()  # deliveries return credits, draining the backlog
        assert channel.is_clear
        assert channel.backlog_size == 0

    def test_credits_conserved_over_many_sends(self):
        kernel = Kernel()
        tasks, channels = make_channels(kernel, 1, capacity=4)
        channel = channels[0]
        for i in range(50):
            channel.send(Record(value=i))
        kernel.run()
        assert len(tasks[0].received) == 50
        assert channel.credits == 4


class TestFIFO:
    def test_jittered_deliveries_stay_ordered(self):
        kernel = Kernel()
        task = FakeTask()
        channel = PhysicalChannel(
            kernel,
            ChannelSpec(latency=1e-4, jitter=1e-3),  # jitter 10x latency
            task,
            0,
            SimRandom(7, "jitter"),
        )
        for i in range(100):
            channel.send(Record(value=i))
        kernel.run()
        values = [e.value for _c, e in task.received]
        assert values == list(range(100))


class TestPartitionFilter:
    def test_hash_filter_matches_routing(self):
        owns = make_partition_filter(Partitioning.HASH, subtask_index=1, parallelism=3, max_parallelism=128)
        for key in range(50):
            assert owns(key) == (subtask_for_key(key, 3, 128) == 1)

    def test_non_hash_accepts_everything(self):
        owns = make_partition_filter(Partitioning.REBALANCE, 0, 3, 128)
        assert owns("anything")


def flight_lists(kernel):
    """Element values of each list in the flight scheduled last, in order."""
    return [[e.value for e in batch] for _ch, batch, _epoch in kernel.last_scheduled[ARGS][0]]


class TestBatchedDelivery:
    """Same-arrival-time elements of one channel coalesce into one list, with
    no cap; FIFO order and per-record credit accounting are unchanged. How
    many kernel events carry the lists is the flights' business
    (TestDeliveryFlights): consecutive lists share one."""

    def _batched_channel(self, kernel, capacity=None):
        task = FakeTask()
        channel = PhysicalChannel(
            kernel,
            ChannelSpec(latency=1e-4, capacity=capacity),
            task,
            receiver_channel_index=0,
            rng=SimRandom(0, "batch"),
        )
        return task, channel

    def test_same_time_sends_coalesce_into_one_event(self):
        """Coalescing has no cap: a same-arrival burst of any length is one
        list and one event. On a 3-credit link the same burst still charges
        one credit per record, parks the rest, and drains in FIFO order."""
        kernel = Kernel()
        task, channel = self._batched_channel(kernel)
        for i in range(40):
            channel.send(Record(value=i))
        assert kernel.pending_events == 1
        assert flight_lists(kernel) == [list(range(40))]
        before = kernel.dispatched_events
        kernel.run()
        assert kernel.dispatched_events - before == 1
        assert [e.value for _ch, e in task.received] == list(range(40))
        assert channel.sent == channel.delivered == 40

        kernel = Kernel()
        task, channel = self._batched_channel(kernel, capacity=3)
        results = [channel.send(Record(value=i)) for i in range(40)]
        assert results == [True] * 3 + [False] * 37
        assert (channel.credits, channel.backlog_size) == (0, 37)
        assert kernel.pending_events == 1
        assert flight_lists(kernel) == [[0, 1, 2]]
        kernel.run()
        assert [e.value for _ch, e in task.received] == list(range(40))
        assert (channel.credits, channel.backlog_size) == (3, 0)

    def test_distinct_arrival_times_do_not_coalesce(self):
        kernel = Kernel()
        task, channel = self._batched_channel(kernel)
        channel.send(Record(value="a"))
        kernel.run(until=1.0)
        channel.send(Record(value="b"))
        kernel.run()
        assert [e.value for _ch, e in task.received] == ["a", "b"]

    def test_credits_accounted_per_record_not_per_batch(self):
        kernel = Kernel()
        task, channel = self._batched_channel(kernel, capacity=3)
        results = [channel.send(Record(value=i)) for i in range(5)]
        # 3 credits: first three sent, remaining two parked in the backlog
        assert results == [True, True, True, False, False]
        assert channel.backlog_size == 2
        kernel.run()
        # FakeTask returns each credit on delivery, draining the backlog
        assert [e.value for _ch, e in task.received] == [0, 1, 2, 3, 4]
        assert channel.credits == 3

    def test_lists_of_two_channels_keep_their_scheduling_order(self):
        """Coalescing sets the grouping within an instant: a channel's later
        element joins its open list, ahead of another channel's list
        scheduled in between — with or without flights."""
        kernel = Kernel()
        received = []

        class Logging(FakeTask):
            def deliver(self, channel_index, element, via=None):
                received.append(element.value)

        spec = ChannelSpec(latency=1e-4)
        a, b = (PhysicalChannel(kernel, spec, Logging(), 0, SimRandom(0, n)) for n in "ab")
        a.send(Record(value="a1"))
        b.send(Record(value="b1"))
        a.send(Record(value="a2"))
        assert flight_lists(kernel) == [["a1", "a2"], ["b1"]]
        kernel.run()
        assert received == ["a1", "a2", "b1"]

    def test_control_elements_keep_in_band_position(self):
        kernel = Kernel()
        task, channel = self._batched_channel(kernel)
        channel.send(Record(value=1))
        channel.send(Watermark(10.0))
        channel.send(Record(value=2))
        kernel.run()
        kinds = [type(e).__name__ for _ch, e in task.received]
        assert kinds == ["Record", "Watermark", "Record"]


class TestDeliveryFlights:
    """Lists scheduled back to back for one arrival time travel as one kernel
    event; anything scheduled in between, for any time, starts a new one."""

    def _two(self, kernel, latency=1e-4, **spec):
        log = []

        class Logging(FakeTask):
            def __init__(self, name):
                super().__init__()
                self.name = name

            def deliver(self, channel_index, element, via=None):
                log.append((self.name, getattr(element, "value", "wm"), kernel.now()))
                super().deliver(channel_index, element, via)

        channels = [
            PhysicalChannel(
                kernel, ChannelSpec(latency=latency, **spec), Logging(name), 0, SimRandom(0, name)
            )
            for name in "ab"
        ]
        return log, channels

    def test_consecutive_same_arrival_sends_share_one_event(self):
        kernel = Kernel()
        log, (a, b) = self._two(kernel)
        a.send(Record(value=1))
        b.send(Record(value=2))
        a.send(Watermark(3.0))
        kernel.run()
        assert kernel.dispatched_events == 1
        # a's watermark joins a's open list, ahead of b's list
        assert [(n, v) for n, v, _t in log] == [("a", 1), ("a", "wm"), ("b", 2)]

    def test_an_unrelated_event_between_two_sends_splits_the_flight(self):
        """Scheduled for the arrival time it would have sat between the two
        deliveries; scheduled for any other time it still took the ``seq``
        that made them adjacent."""
        for when, order in ((1e-4, "axb"), (5e-5, "xab"), (7.0, "abx")):
            kernel = Kernel()
            log, (a, b) = self._two(kernel)
            a.send(Record(value=1))
            kernel.call_at(when, lambda: log.append(("x", None, kernel.now())))
            b.send(Record(value=2))
            kernel.run()
            assert kernel.dispatched_events == 3
            assert "".join(n for n, _v, _t in log) == order

    def test_a_different_arrival_time_starts_a_new_flight(self):
        kernel = Kernel()
        _log, (a, _b) = self._two(kernel)
        _log, (slow, _b) = self._two(kernel, latency=2e-4)
        a.send(Record(value=1))
        slow.send(Record(value=2))
        kernel.run()
        assert kernel.dispatched_events == 2

    def test_reset_of_one_channel_voids_one_entry(self):
        kernel = Kernel()
        log, (a, b) = self._two(kernel)
        a.send(Record(value=1))
        b.send(Record(value=2))
        a.send(Record(value=3))
        a.reset()
        kernel.run()
        assert kernel.dispatched_events == 1
        assert [(n, v) for n, v, _t in log] == [("b", 2)]
        assert (a.delivered, a.pending, b.delivered, b.pending) == (0, 0, 1, 0)

    def test_a_cancelled_flight_is_not_extended(self):
        kernel = Kernel()
        log, (a, b) = self._two(kernel)
        a.send(Record(value=1))
        kernel.cancel(kernel.last_scheduled)
        b.send(Record(value=2))
        kernel.run()
        assert [(n, v) for n, v, _t in log] == [("b", 2)]

    def test_a_parked_flight_is_not_extended(self):
        """A suspended job's flight is parked when it comes due — before the
        clock moves, so a send made then computes the same arrival. It is a
        new event; the parked one is replayed behind it on resume."""
        kernel = Kernel()
        log, (a, b) = self._two(kernel)
        with kernel.job_scope("job"):
            a.send(Record(value=1))
            kernel.suspend_job("job")
            kernel.run()
            assert kernel.now() == 0.0 and not kernel.last_scheduled[IN_QUEUE]
            b.send(Record(value=2))
        kernel.resume_job("job")
        kernel.run()
        assert [(n, v) for n, v, _t in log] == [("b", 2), ("a", 1)]

    def test_a_flight_belongs_to_one_job(self):
        kernel = Kernel()
        log, (a, b) = self._two(kernel)
        with kernel.job_scope("one"):
            a.send(Record(value=1))
        with kernel.job_scope("two"):
            b.send(Record(value=2))
        assert kernel.live_events_of("one") == kernel.live_events_of("two") == 1
        kernel.cancel_job("one")
        kernel.run()
        assert [(n, v) for n, v, _t in log] == [("b", 2)]

    def test_a_send_after_its_jobs_teardown_is_a_new_event(self):
        """``cancel_job`` condemns the queued flight by generation; a send in
        the same namespace afterwards must not ride in it."""
        kernel = Kernel()
        log, (a, b) = self._two(kernel)
        with kernel.job_scope("job"):
            a.send(Record(value=1))
            kernel.cancel_job("job")
            b.send(Record(value=2))
        kernel.run()
        assert [(n, v) for n, v, _t in log] == [("b", 2)]

    def test_a_fault_hook_delay_lands_in_its_own_flight(self):
        class Delay:
            def intercept(self, channel, element):
                return [(element, 1e-3)]

        kernel = Kernel()
        log, (a, b) = self._two(kernel)
        b.fault_hook = Delay()
        a.send(Record(value=1))
        b.send(Record(value=2))
        a.send(Record(value=3))
        kernel.run()
        # a's second record joins a's open list; b's delayed one is its own
        assert kernel.dispatched_events == 2
        assert [(n, v, round(t, 6)) for n, v, t in log] == [
            ("a", 1, 1e-4),
            ("a", 3, 1e-4),
            ("b", 2, 1.1e-3),
        ]
