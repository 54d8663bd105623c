"""Dataflow ↔ function-runtime bridges, including the feedback-edge
"actors on streams" architecture."""

import pytest

from repro.chaos import ChaosRunner, feedback_loop
from repro.chaos.schedule import FaultSchedule
from repro.core.datastream import StreamExecutionEnvironment
from repro.errors import CheckpointError, LoopSnapshotError
from repro.functions import (
    Address,
    FunctionIngressOperator,
    StatefulFunctionRuntime,
    feedback_function_pipeline,
    merged_egress,
)
from repro.io import CollectSink, CollectionWorkload
from repro.runtime.config import CheckpointConfig, EngineConfig, GuaranteeLevel
from repro.sim import Kernel


class TestIngressOperator:
    def test_records_routed_into_runtime(self):
        env = StreamExecutionEnvironment(EngineConfig())
        engine_kernel_runtime = {}

        # The function runtime must share the engine's kernel: build the
        # engine first, then construct the runtime on its kernel.
        sink = CollectSink("out")
        operators = []

        def factory():
            op = FunctionIngressOperator(
                lambda: engine_kernel_runtime["runtime"],
                route=lambda v: (Address("counter", v["user"]), v["amount"]),
            )
            operators.append(op)
            return op

        (
            env.from_collection(
                [{"user": "a", "amount": 1}, {"user": "b", "amount": 2}, {"user": "a", "amount": 3}],
                name="events",
            )
            .apply_operator(factory, name="ingress")
            .sink(sink)
        )
        engine = env.build()
        runtime = StatefulFunctionRuntime(engine.kernel)
        runtime.register("counter", lambda ctx, msg: ctx.storage.set(ctx.storage.get(0) + msg))
        engine_kernel_runtime["runtime"] = runtime
        env.execute()
        assert runtime.state_of(Address("counter", "a")) == 4
        assert runtime.state_of(Address("counter", "b")) == 2
        # Records also continued downstream.
        assert len(sink.results) == 3
        assert operators[0].routed == 3


class TestFeedbackPipeline:
    def test_function_sends_loop_through_feedback_edge(self):
        env = StreamExecutionEnvironment(EngineConfig(), name="statefun")

        def greeter(ctx, payload):
            count = ctx.storage_get(0) + 1
            ctx.storage_set(count)
            if count == 1:
                # First greeting triggers a welcome-bonus message to the
                # bonus function — travels the feedback edge.
                ctx.send(Address("bonus", "pool"), {"user": str(ctx.address.id)})
            ctx.send_egress("greetings", f"hello {ctx.address.id} #{count}")

        def bonus(ctx, payload):
            granted = ctx.storage_get([])
            granted = granted + [payload["user"]]
            ctx.storage_set(granted)
            ctx.send_egress("bonuses", payload["user"])

        holder = feedback_function_pipeline(
            env,
            CollectionWorkload([{"user": "u1"}, {"user": "u2"}, {"user": "u1"}]),
            route=lambda v: (Address("greeter", v["user"]), v),
            handlers={"greeter": greeter, "bonus": bonus},
            parallelism=2,
        )
        env.execute(until=30.0)
        greetings = sorted(merged_egress(holder, "greetings"))
        bonuses = sorted(merged_egress(holder, "bonuses"))
        assert greetings == ["hello u1 #1", "hello u1 #2", "hello u2 #1"]
        assert bonuses == ["u1", "u2"]  # one bonus per first greeting

    def test_unknown_function_type_goes_to_dead_letter(self):
        env = StreamExecutionEnvironment(EngineConfig(), name="dead")
        holder = feedback_function_pipeline(
            env,
            CollectionWorkload([{"user": "x"}]),
            route=lambda v: (Address("ghost", v["user"]), v),
            handlers={"noop": lambda ctx, payload: None},
        )
        result = env.execute(until=10.0)
        dead = result.side_output("fn-dispatch", "dead-letter")
        assert len(dead) == 1


def _greeter_loop(config):
    """The feedback-edge function pipeline: a first greeting sends a bonus
    message around the loop."""

    def greeter(ctx, payload):
        ctx.storage_set(ctx.storage_get(0) + 1)
        if ctx.storage_get() == 1:
            ctx.send(Address("bonus", "pool"), payload["user"])

    def bonus(ctx, user):
        ctx.send_egress("bonuses", user)

    env = StreamExecutionEnvironment(config, name="loop")
    holder = feedback_function_pipeline(
        env,
        CollectionWorkload([{"user": "u1"}, {"user": "u2"}, {"user": "u1"}]),
        route=lambda v: (Address("greeter", v["user"]), v),
        handlers={"greeter": greeter, "bonus": bonus},
    )
    return env, holder


class TestLoopSnapshotRefusal:
    """Records in flight around a feedback loop are not snapshotted yet, so
    an exactly-once job with checkpoints over one is refused at build rather
    than accepted and left to lose them on a restore."""

    def test_exactly_once_checkpoints_over_a_feedback_edge_are_refused(self):
        env, _holder = _greeter_loop(
            EngineConfig(guarantee=GuaranteeLevel.EXACTLY_ONCE, checkpoints=CheckpointConfig(interval=0.01))
        )
        with pytest.raises(LoopSnapshotError, match="feedback edge fn-dispatch -> fn-dispatch") as refused:
            env.build()
        assert isinstance(refused.value, CheckpointError)

    @pytest.mark.parametrize(
        "config",
        [
            EngineConfig(guarantee=GuaranteeLevel.EXACTLY_ONCE),
            EngineConfig(guarantee=GuaranteeLevel.AT_LEAST_ONCE, checkpoints=CheckpointConfig(interval=0.01)),
        ],
        ids=["exactly-once-no-checkpoints", "at-least-once-checkpoints"],
    )
    def test_the_loop_still_builds_and_runs_without_the_combination(self, config):
        env, holder = _greeter_loop(config)
        env.execute(until=30.0)
        assert sorted(merged_egress(holder, "bonuses")) == ["u1", "u2"]

    def test_the_chaos_feedback_loop_still_holds(self):
        """The chaos loop scenario (no checkpoints) builds and keeps its
        exactly-once expectation, fault-free and under a seeded schedule."""
        runner = ChaosRunner(feedback_loop(), seed=3)
        for report in (
            runner.run_one(False, schedule=FaultSchedule(seed=3, faults=[])),
            runner.run_one(True, schedule_index=0),
        ):
            assert report.ok and report.finished, report.verdict()
