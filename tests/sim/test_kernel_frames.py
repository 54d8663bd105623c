"""A deterministic guard on the Python frames the kernel spends per event.

Scheduling and dispatching run under ``sys.setprofile``; every Python call
into ``repro/sim`` is counted by function name. Call counts repeat exactly
for a fixed input, so the bounds carry no wall-clock noise: a change that
puts a frame back on the event path (an event object built by a Python
``__init__``, a clock read through ``VirtualClock.now``, a helper around the
namespace bookkeeping) raises a count by a multiple of the event count and
fails here.
"""

from __future__ import annotations

import os
import sys
from collections import Counter

import repro.sim
from repro.core.datastream import StreamExecutionEnvironment
from repro.core.keys import field_selector
from repro.fabric import FabricConfig, JobFabric
from repro.io import CollectSink, SensorWorkload
from repro.runtime.config import EngineConfig
from repro.sim import Kernel

EVENTS = 1000
#: Python calls into repro/sim for the whole two-tenant fabric run below
FABRIC_BOUND = 4_400

_SIM = os.path.dirname(repro.sim.__file__) + os.sep


def sim_calls(body) -> Counter:
    """Run ``body`` under a profiler; calls into repro/sim by function name."""
    calls: Counter = Counter()

    def profile(frame, event, _arg):
        if event == "call" and frame.f_code.co_filename.startswith(_SIM):
            calls[frame.f_code.co_name] += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        body()
    finally:
        sys.setprofile(previous)
    return calls


def test_scheduling_and_running_events_calls_only_call_at_and_run():
    kernel = Kernel()
    seen = []

    def body():
        for i in range(EVENTS):
            # half at now (the same-time bucket), half on the heap
            kernel.call_at(0.0 if i % 2 else i * 1e-3, seen.append, i)
        kernel.run()

    assert sim_calls(body) == Counter(call_at=EVENTS, run=1)
    assert len(seen) == EVENTS and kernel.dispatched_events == EVENTS


def test_tagged_events_add_no_frame_per_event():
    """A job's events carry its namespace record: a tagged dispatch that
    schedules the next event pays no call beyond ``call_at``."""
    kernel = Kernel()
    seen = []

    def step(i):
        seen.append(kernel.current_job)
        if i + 1 < EVENTS:
            kernel.call_at(kernel._now + (i % 2) * 1e-3, step, i + 1)

    def body():
        with kernel.job_scope("job"):
            kernel.call_at(0.0, step, 0)
        kernel.run()

    calls = sim_calls(body)
    # job_scope: its generator is entered and resumed once each, and it
    # creates the namespace record once; current_job is read by the callback
    assert calls == Counter(
        call_at=EVENTS, run=1, job_scope=2, _namespace=1, __init__=1, current_job=EVENTS
    )
    assert seen == ["job"] * EVENTS and kernel.live_events_of("job") == 0


def _tenant(name: str, seed: int) -> StreamExecutionEnvironment:
    env = StreamExecutionEnvironment(EngineConfig(seed=seed), name=name)
    (
        env.from_workload(SensorWorkload(count=200, rate=2000.0, key_count=8, seed=seed))
        .key_by(field_selector("sensor"))
        .aggregate(create=lambda: 0, add=lambda acc, _v: acc + 1, name="count")
        .sink(CollectSink("out"))
    )
    return env


def test_a_contended_two_tenant_fabric_stays_within_the_bound():
    """Two tenants share one slot, so both are preempted and resumed: the
    tagged, parking and replay paths all run."""
    fabric = JobFabric(FabricConfig(slots=1, quantum=0.01))
    fabric.submit(_tenant("a", 0))
    fabric.submit(_tenant("b", 1))
    results = []
    calls = sum(sim_calls(lambda: results.append(fabric.run())).values())
    summary = results[0].summary()
    assert summary["states"] == {"done": 2} and summary["preemptions"] > 0
    assert calls <= FABRIC_BOUND, f"{calls} calls into repro/sim, bound {FABRIC_BOUND}"


def _noop():
    pass


def cancel_job_cost(total_events: int) -> tuple[int, int, int]:
    """Python calls and bytecodes executed by ``cancel_job("job50")`` on a
    kernel holding ``total_events`` events of 100 jobs (compaction off, as
    in the A10 teardown benchmark), and the events it condemned."""
    kernel = Kernel(compact_min_dead=1 << 30)
    for j in range(100):
        with kernel.job_scope(f"job{j}"):
            for i in range(total_events // 100):
                kernel.call_at(1.0 + i, _noop)
    calls = opcodes = 0

    def trace(frame, event, _arg):
        nonlocal calls, opcodes
        if event == "call":
            calls += 1
            frame.f_trace_opcodes = True
        elif event == "opcode":
            opcodes += 1
        return trace

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        condemned = kernel.cancel_job("job50")
    finally:
        sys.settrace(previous)
    return calls, opcodes, condemned


def test_teardown_work_does_not_grow_with_the_heap():
    """The exact twin of A10's wall-clock teardown ratio: cancelling a job
    executes the same calls and bytecodes beside 2 000 queued events as
    beside 100 000 (a heap scan would add bytecodes per event)."""
    small_calls, small_opcodes, small_condemned = cancel_job_cost(2_000)
    large_calls, large_opcodes, large_condemned = cancel_job_cost(100_000)
    assert (small_condemned, large_condemned) == (20, 1_000)
    assert large_calls == small_calls and large_opcodes == small_opcodes, (
        (small_calls, small_opcodes),
        (large_calls, large_opcodes),
    )
