"""One kernel event per flush, no mailbox round trip for a ready task, a record
path through a chain (DESIGN, "The dispatch path itself").

The reference for the first is a kernel that never admits to having scheduled
anything, so no delivery flight is ever extended and every list of every
channel travels as its own event, as before flights existed. For the other
two the slow path is still in the code — the mailbox, ``_feed`` — and the
tests hold the fast one to it.
"""

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.datastream import StreamExecutionEnvironment
from repro.core.events import (
    CheckpointBarrier,
    EndOfStream,
    LatencyMarker,
    Record,
    RecordBatch,
    Watermark,
)
from repro.core.graph import ChannelSpec
from repro.core.keys import field_selector
from repro.core.operators.base import Operator
from repro.core.operators.basic import FilterOperator, KeyByOperator, MapOperator
from repro.core.operators.chain import ChainedOperator, _LinkContext
from repro.fabric import FabricConfig, JobFabric
from repro.io import CollectSink, CollectionWorkload, SensorWorkload
from repro.obs.trace import TraceContext
from repro.progress.watermarks import AscendingTimestamps
from repro.runtime.config import EngineConfig
from repro.runtime.task import Task
from repro.sim import Kernel
from repro.state.memory import InMemoryStateBackend
from repro.txn.store import TxnStateStore


class NoFlightKernel(Kernel):
    """Test-only reference: ``last_scheduled`` is always None."""

    last_scheduled = property(lambda self: None, lambda self, event: None)


# ----------------------------------------------------------------------
# (a) flights against the no-flight reference, over random small plans
# ----------------------------------------------------------------------
BRANCH = st.tuples(
    st.sampled_from(("forward", "hash", "broadcast", "rebalance")),
    st.integers(1, 2),  # parallelism behind the edge
    st.integers(1, 3),  # the head filter keeps seq % modulus == 0
)
PLANS = st.fixed_dictionaries(
    {
        "branches": st.lists(BRANCH, min_size=1, max_size=5),
        "chaining": st.booleans(),
        "jitter": st.sampled_from((0.0, 3e-5)),
        "capacity": st.sampled_from((None, 3)),
        "shared_kernel": st.booleans(),  # True: every event is job-tagged
        "rate": st.sampled_from((4000.0, 40000.0)),
        "seed": st.integers(0, 3),
    }
)


def _describe(element):
    return (type(element).__name__, getattr(element, "value", None), getattr(element, "timestamp", None))


def _run_plan(plan, kernel_class):
    env = StreamExecutionEnvironment(
        EngineConfig(
            seed=plan["seed"],
            chaining_enabled=plan["chaining"],
            default_channel_capacity=plan["capacity"],
        )
    )
    source = env.from_workload(
        SensorWorkload(count=40, rate=plan["rate"], key_count=4, seed=plan["seed"]),
        name="src",
        watermarks=AscendingTimestamps(),
    )
    sinks = []
    for index, (kind, parallelism, modulus) in enumerate(plan["branches"]):
        sink = CollectSink(f"out{index}")
        head = source.filter(lambda v, m=modulus: v["seq"] % m == 0, name=f"head{index}")
        if kind == "hash":
            stream = head.key_by(field_selector("sensor"), parallelism=parallelism).aggregate(
                create=lambda: 0, add=lambda acc, _v: acc + 1, name=f"count{index}"
            )
        else:
            if kind != "forward":
                head = getattr(head, kind)()
            stream = head.map(
                lambda v: v["seq"],
                name=f"seq{index}",
                parallelism=1 if kind == "forward" else parallelism,
            )
        stream.sink(sink)
        sinks.append(sink)
    for edge in env.graph.edges:
        edge.channel = ChannelSpec(latency=1e-4, jitter=plan["jitter"])
    if plan["shared_kernel"]:
        engine = env.build(kernel=kernel_class())
    else:
        with mock.patch("repro.runtime.engine.Kernel", kernel_class):
            engine = env.build()
    assert type(engine.kernel) is kernel_class
    kernel, deliveries = engine.kernel, []
    for task in engine.tasks.values():

        def logged(channel_index, element, via=None, task=task, deliver=task.deliver):
            deliveries.append((task.name, channel_index, _describe(element), kernel.now()))
            deliver(channel_index, element, via)

        task.deliver = logged
    env.execute()
    assert engine.job_finished
    return {
        "deliveries": deliveries,
        "sinks": [[(r.value, r.emitted_at) for r in sink.results] for sink in sinks],
        "busy": {name: task.metrics.busy_time for name, task in engine.tasks.items()},
        "clock": kernel.now(),
    }, kernel.dispatched_events


@settings(max_examples=60, deadline=None)
@given(plan=PLANS)
def test_flights_change_nothing_but_the_event_count(plan):
    observed, events = _run_plan(plan, Kernel)
    reference, reference_events = _run_plan(plan, NoFlightKernel)
    assert observed == reference
    assert events <= reference_events


def test_the_reference_kernel_never_extends_a_flight():
    """Non-vacuity of the differential: on a five-way fan-out the two kernels
    dispatch different numbers of events."""
    plan = {
        "branches": [("forward", 1, 1)] * 5,
        "chaining": False,
        "jitter": 0.0,
        "capacity": None,
        "shared_kernel": False,
        "rate": 4000.0,
        "seed": 0,
    }
    _observed, events = _run_plan(plan, Kernel)
    _reference, reference_events = _run_plan(plan, NoFlightKernel)
    # 40 emissions x 4 deliveries saved, and more where flushes coincide
    assert reference_events - events >= 160


# ----------------------------------------------------------------------
# (b) two tenants whose sources emit at the same times: consecutive, same
#     arrival, different jobs
# ----------------------------------------------------------------------
class TestFlightsAndTenants:
    def _fabric(self):
        fabric = JobFabric(FabricConfig(slots=4))
        handles, sinks = [], []
        for name in ("first", "second"):
            env = StreamExecutionEnvironment(EngineConfig(), name=name)
            sink = CollectSink("out")
            workload = CollectionWorkload(list(range(20)), rate=1000.0)
            env.from_workload(workload, name="src").map(lambda v: v, name="same").sink(sink)
            handles.append(fabric.submit(env))
            sinks.append(sink)
        return fabric, handles, sinks

    def test_each_tenants_delivery_is_its_own_flight(self):
        fabric, handles, sinks = self._fabric()
        first, second = (h.engine.job_tag for h in handles)
        kernel = fabric.kernel
        seen = []
        kernel.call_at(0.00115, lambda: seen.append((kernel.live_events_of(first), kernel.live_events_of(second))))
        fabric.run()
        # both maps sent record 0 back to back, with nothing scheduled in
        # between, for arrival 0.00122: one delivery event in each namespace,
        # beside each source's next emission at 0.002
        assert seen == [(2, 2)]
        assert [len(s.results) for s in sinks] == [20, 20]

    def test_tearing_down_the_first_tenant_keeps_the_seconds_records(self):
        fabric, handles, sinks = self._fabric()
        kernel = fabric.kernel
        # between the maps' back-to-back sends of record 4 and their arrival
        # at 0.00522
        kernel.call_at(0.00515, handles[0].engine.fail_job, "induced")
        result = fabric.run()
        assert result.tenant("first").state == "failed"
        assert result.tenant("second").state == "done"
        assert [r.value for r in sinks[1].results] == list(range(20))

    def test_suspending_the_first_tenant_keeps_the_second_on_time(self):
        fabric, handles, sinks = self._fabric()
        kernel, first = fabric.kernel, handles[0].engine.job_tag
        kernel.call_at(0.00515, kernel.suspend_job, first)
        kernel.call_at(0.0105, kernel.resume_job, first)
        result = fabric.run()
        assert result.all_finished
        assert [r.value for r in sinks[0].results] == list(range(20))
        on_time = [r for r in sinks[1].results if r.value == 4][0]
        late = [r for r in sinks[0].results if r.value == 4][0]
        # record 4: emitted at 0.005, two hops and one service later; the
        # first tenant's copy parked in flight and arrives at the resume
        assert on_time.emitted_at == pytest.approx(0.00522)
        assert late.emitted_at == 0.0105


# ----------------------------------------------------------------------
# (c) direct dispatch: an excluded state queues the element
# ----------------------------------------------------------------------
class _Probe(Operator):
    """Records what it is handed; emits it when asked to."""

    def __init__(self, emits=False, txn_gate=None):
        self.seen, self._emits = [], emits
        if txn_gate is not None:
            self.txn_gate = txn_gate

    @property
    def name(self):
        return "probe"

    def process(self, record, ctx):
        self.seen.append(record.value)
        if self._emits:
            ctx.emit(record)


def _task(kernel, operator, inputs=1):
    task = Task(kernel, "probe[0]", operator, InMemoryStateBackend(), processing_cost=1.0)
    for _ in range(inputs):
        task.inputs.register()
    task.start()
    return task


class TestDirectDispatch:
    def test_an_idle_task_serves_the_element_without_queueing_it(self):
        kernel = Kernel()
        task = _task(kernel, _Probe())
        task.deliver(0, Record(value=1))
        assert task.operator.seen == [1] and task.mailbox_size == 0
        assert kernel.queue_size == 0  # nothing to flush: the completion is elided
        assert task._busy and task.metrics.busy_time == 1.0

    def test_now_equal_to_busy_until_is_busy(self):
        kernel = Kernel()
        task = _task(kernel, _Probe())
        seen = []
        task.deliver(0, Record(value=1))  # busy through 1.0, no event
        kernel.call_at(1.0, task.deliver, 0, Record(value=2))
        kernel.call_at(1.0, lambda: seen.append((list(task.operator.seen), task.mailbox_size)))
        kernel.run()
        # at exactly busy_until the element is queued behind the completion
        # scheduled for it then (same time, later seq), not served in place
        assert seen == [([1], 1)]
        assert task.operator.seen == [1, 2] and kernel.now() == 1.0

    def test_an_item_in_service_with_its_event_pending_queues(self):
        kernel = Kernel()
        task = _task(kernel, _Probe(emits=True))
        task.deliver(0, Record(value=1))  # buffered output: completion event at 1.0
        task.deliver(0, Record(value=2))
        assert task.operator.seen == [1] and task.mailbox_size == 1
        kernel.run()
        assert task.operator.seen == [1, 2]

    @staticmethod
    def _held(kernel, hold):
        """A task put into ``hold``, and the store behind a txn hold."""
        store = TxnStateStore("store")
        txn = hold in ("txn_in_flight", "fence_park")
        task = _task(kernel, _Probe(txn_gate=store if txn else None))
        if hold == "_suspended":
            task.suspend()
        elif hold == "txn_in_flight":
            store.bind_task(task)
            store.hold(task.name)
        elif hold == "fence_park":
            sibling = Task(kernel, "probe[1]", _Probe(txn_gate=store), InMemoryStateBackend())
            for owner in (task, sibling):
                store.bind_task(owner)
            # the round waits on the sibling, so the park stays
            store.request_fence(task, CheckpointBarrier(checkpoint_id=7, timestamp=0.0))
        else:
            task._output_blocked = True
        return task, store

    @pytest.mark.parametrize("hold", ["_suspended", "txn_in_flight", "_output_blocked", "fence_park"])
    def test_a_held_task_queues(self, hold):
        kernel = Kernel()
        task, _store = self._held(kernel, hold)
        task.deliver(0, Record(value=1))
        assert task.operator.seen == [] and task.mailbox_size == 1

    @pytest.mark.parametrize("hold", ["txn_in_flight", "fence_park"])
    def test_a_released_store_hold_serves_the_queued_element(self, hold):
        kernel = Kernel()
        task, store = self._held(kernel, hold)
        task.deliver(0, Record(value=1))
        if hold == "txn_in_flight":
            store.release(task.name)
        else:
            store.cancel_fence(task, 7)
        assert task.operator.seen == [1]

    def test_suspend_then_resume_serves_the_queued_element(self):
        kernel = Kernel()
        task = _task(kernel, _Probe())
        task.suspend()
        task.deliver(0, Record(value=1))
        assert task.operator.seen == []
        task.resume_processing()
        assert task.operator.seen == [1]

    def test_a_non_empty_mailbox_is_served_first(self):
        kernel = Kernel()
        task = _task(kernel, _Probe())
        task.suspend()
        task.deliver(0, Record(value=1))
        task._suspended = False  # no wake-up: the mailbox is left non-empty
        task.deliver(0, Record(value=2))
        kernel.run()
        assert task.operator.seen == [1, 2]

    def test_an_alignment_in_progress_buffers_the_blocked_channel(self):
        kernel = Kernel()
        task = _task(kernel, _Probe(), inputs=2)
        task.deliver(0, CheckpointBarrier(checkpoint_id=1, timestamp=0.0))
        assert task.inputs.blocked == {0}
        # long after the barrier's zero-cost service: idle, mailbox empty
        kernel.call_at(5.0, task.deliver, 0, Record(value="behind the barrier"))
        kernel.call_at(5.0, task.deliver, 1, Record(value="ahead of it"))
        kernel.run()
        assert task.operator.seen == ["ahead of it"]
        assert [item.element.value for item in task.inputs.buffer] == ["behind the barrier"]

    def test_a_transactional_task_always_goes_through_the_mailbox(self):
        """Its ``call_soon`` hop when the instant is busy is what keeps the
        lock-wait order (TestDispatchOrder pins the digests)."""
        kernel = Kernel()
        task = _task(kernel, _Probe(txn_gate=TxnStateStore("store")))
        kernel.call_soon(lambda: None)  # something else is queued for now
        task.deliver(0, Record(value=1))
        assert task.operator.seen == [] and task.mailbox_size == 1
        kernel.run()
        assert task.operator.seen == [1]

    def test_a_dead_or_finished_task_serves_nothing(self):
        kernel = Kernel()
        dead, finished = _task(kernel, _Probe()), _task(kernel, _Probe())
        dead.kill()
        finished.deliver(0, EndOfStream())
        kernel.run()
        assert finished.finished
        for task in (dead, finished):
            task.deliver(0, Record(value=1))
            assert task.operator.seen == [] and task.mailbox_size == 0
        assert dead.metrics.dropped == 1

    def test_a_dead_task_counts_lost_records_not_lost_elements(self):
        """``dropped`` feeds "Records dropped", the conservation oracle and
        ``FailoverReport.lost_deliveries``: control elements are not records,
        a batch is all its rows, and every element's credit still returns."""
        task = _task(Kernel(), _Probe())
        task.kill()
        via = mock.Mock()
        task.deliver(0, Watermark(1.0), via)
        task.deliver(0, LatencyMarker(emitted_at=0.0, marker_id=1), via)
        task.deliver(0, Record(value=1), via)
        assert task.metrics.dropped == 1
        task.deliver(0, CheckpointBarrier(checkpoint_id=1, timestamp=0.0), via)
        task.deliver(0, RecordBatch(values=[1, 2, 3]), via)
        task.deliver(0, EndOfStream(), via)
        assert task.metrics.dropped == 4
        assert via.return_credit.call_count == 6


# ----------------------------------------------------------------------
# (d) the chain's record path against _feed
# ----------------------------------------------------------------------
def _chain():
    return ChainedOperator(
        [
            MapOperator(lambda v: v + 1, "inc"),
            KeyByOperator(lambda v: v % 3, "key"),
            _KeyReader(),
            FilterOperator(lambda v: v[0] % 2 == 0, "even"),
        ],
        extra_costs=[0.0, 0.25, 0.5, 2.0],
    )


class _KeyReader(Operator):
    """A keyed member: passes on the key the context holds while it runs."""

    @property
    def name(self):
        return "reader"

    def process(self, record, ctx):
        ctx.emit(record.with_value((record.value, ctx.current_key)))


class _Ctx:
    """What a chain needs from a context when driven without a task."""

    def __init__(self):
        self.current_key_value, self.cost, self.out, self.keys = "unset", 0.0, [], []
        self.traces = []

    @property
    def current_key(self):
        return self.current_key_value

    def add_cost(self, seconds):
        self.cost += seconds

    def emit(self, element):
        self.out.append(element.value)
        self.keys.append(self.current_key_value)
        self.traces.append(element.trace)


class _Spans:
    """Tracer stand-in: the member sub-spans a chain records."""

    def __init__(self):
        self.spans = []

    def record_closed(self, name, trace, parent, now):
        self.spans.append((name, trace))


def _observe(chain, ctx):
    return list(chain.member_records_in), ctx.cost, ctx.out, ctx.keys


class TestChainRecordPath:
    VALUES = [1, 2, 3, 4, 5, 6]

    def test_driven_directly_it_matches_feed(self):
        fast, slow = _chain(), _chain()
        fast_ctx, slow_ctx = _Ctx(), _Ctx()
        fast.open(fast_ctx)
        slow.open(slow_ctx)
        for value in self.VALUES:
            fast.process(Record(value=value, key="head"), fast_ctx)
            slow._feed(0, Record(value=value, key="head"), slow_ctx)
            # the head sets the key too: a chain driven without a task
            # has nobody else to do it
            assert fast_ctx.current_key_value == slow_ctx.current_key_value != "unset"
        assert _observe(fast, fast_ctx) == _observe(slow, slow_ctx)
        assert fast.member_records_in == [6, 6, 6, 6]
        assert fast_ctx.cost == 6 * (0.25 + 0.5 + 2.0)
        # (value, the key the keyed member read); the key left in the context
        assert fast_ctx.out == [(2, 2), (4, 1), (6, 0)] and fast_ctx.keys == [2, 1, 0]

    def test_a_traced_record_takes_feed(self):
        # _feed records a sub-span per member entered; the record path has no
        # span to record. Both hand on the same row, the trace kept.
        chain, ctx = _chain(), _Ctx()
        ctx.tracer, ctx.active_span_id, ctx.processing_time = _Spans(), None, lambda: 0.0
        chain.open(ctx)
        trace = TraceContext(1, 1)
        chain.process(Record(value=1, key="head", trace=trace), ctx)
        assert ctx.tracer.spans == [("inc", trace), ("key", trace), ("reader", trace), ("even", trace)]
        chain.process(Record(value=1, key="head"), ctx)
        assert len(ctx.tracer.spans) == 4
        assert ctx.out == [(2, 2), (2, 2)] and ctx.traces == [trace, None]
        assert chain.member_records_in == [2, 2, 2, 2] and ctx.cost == 2 * (0.25 + 0.5 + 2.0)

    def test_driven_through_a_task_it_charges_what_feed_charges(self):
        def run():
            kernel = Kernel()
            chain = _chain()
            task = Task(kernel, "chain[0]", chain, InMemoryStateBackend(), processing_cost=1.0)
            task.inputs.register()
            task.start()
            for value in self.VALUES:
                kernel.call_at(10.0 * value, task.deliver, 0, Record(value=value))
            kernel.run()
            return task.metrics.busy_time, list(chain.member_records_in), task.ctx.current_key_value

        fast = run()
        # every hop through _feed, as before the record path existed
        with mock.patch.object(
            ChainedOperator, "process", lambda self, r, ctx: (self._bind(ctx), self._feed(0, r, ctx))
        ), mock.patch.object(
            _LinkContext, "emit", lambda self, e: self._chain._feed(self._index + 1, e, self._parent)
        ):
            slow = run()
        assert fast == slow
        assert fast[0] == 6 * (1.0 + 0.25 + 0.5 + 2.0) and fast[1] == [6, 6, 6, 6]
