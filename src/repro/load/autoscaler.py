"""Closed-loop autoscaling: metrics → DS2 model → live migration.

This is the piece that turns the repo's elasticity building blocks into a
*controller* (survey §3.3, Table 1 "Elasticity & Reconfiguration"): a
kernel-timer loop that watches the running job's metrics, asks the DS2 model
(:mod:`repro.load.elasticity`) for target parallelisms, and applies changed
targets through :class:`~repro.load.migration.Rescaler` live rescaling — with
state handed off as incremental base+delta chains when the engine checkpoints
incrementally, so each reconfiguration moves O(dirty) bytes.

On top of the DS2 loop it adds **hot-key-group mitigation**: per-task
key-group histograms (cheap counters in the record hot path, enabled only for
controlled nodes) are diffed every tick, and when a single group dominates
the operator's window the controller *splits that group* across subtasks via
the node's :class:`~repro.load.routing.KeyRouter` instead of uselessly adding
instances that plain key-group routing would leave idle.

Controller telemetry lands in the metric registry under
``{job}/autoscaler/0/*`` (rescale count, hot splits, moved/chain bytes,
cumulative downtime, routing epoch), next to the backpressure and checkpoint
gauges the decisions are made from.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.keys import DEFAULT_MAX_PARALLELISM
from repro.errors import LoadManagementError
from repro.load.elasticity import DS2Controller
from repro.load.migration import Rescaler, RescaleReport, RescaleState
from repro.runtime.engine import Engine
from repro.sim.kernel import PeriodicTimer


@dataclass
class HotSplitAction:
    at: float
    operator: str
    key_group: int
    fanout: int
    share: float


class AutoscaleController:
    """Kernel-timer-driven closed loop around DS2 decisions + live rescaling.

    Args:
        engine: running engine.
        scalable: logical node names the controller may reconfigure, in
            topological order (HASH/REBALANCE stages; sources/sinks fixed).
        interval: decision period in virtual seconds.
        headroom: DS2 safety factor on required rates.
        max_parallelism: per-operator parallelism cap.
        cooldown: minimum virtual time between reconfigurations of the same
            operator (lets the post-rescale window produce honest metrics
            before the next decision).
        hot_group_threshold: share of an operator's window records a single
            key group must exceed to trigger a split (0 disables splitting).
        hot_group_fanout: initial fan-out of a split (doubles, capped at the
            operator's parallelism, if the group stays hot).
        min_window_records: ignore windows with fewer processed records than
            this (idle or draining phases produce junk shares).
        warmup: observe-only period in virtual seconds before the first
            actuation (startup windows produce junk rate estimates).
        scale_down_patience: number of *consecutive* ticks the model must ask
            to shrink an operator before the controller obliges. Scale-ups
            apply immediately (falling behind is the expensive direction);
            shrinking on one noisy window causes up/down hunting.
    """

    def __init__(
        self,
        engine: Engine,
        scalable: list[str],
        interval: float = 0.25,
        headroom: float = 1.2,
        max_parallelism: int = 8,
        cooldown: float = 0.5,
        hot_group_threshold: float = 0.5,
        hot_group_fanout: int = 2,
        min_window_records: int = 20,
        warmup: float = 0.0,
        scale_down_patience: int = 2,
        rescaler: Rescaler | None = None,
    ) -> None:
        if not 0.0 <= hot_group_threshold <= 1.0:
            raise LoadManagementError("hot_group_threshold must be in [0, 1]")
        if hot_group_fanout < 2:
            raise LoadManagementError("hot_group_fanout must be >= 2")
        if scale_down_patience < 1:
            raise LoadManagementError("scale_down_patience must be >= 1")
        self.engine = engine
        self.scalable = scalable
        self.interval = interval
        self.cooldown = cooldown
        self.hot_group_threshold = hot_group_threshold
        self.hot_group_fanout = hot_group_fanout
        self.min_window_records = min_window_records
        self.warmup = warmup
        self.scale_down_patience = scale_down_patience
        self.rescaler = rescaler or Rescaler(engine)
        #: the model is decision-only; *this* controller owns actuation
        self.model = DS2Controller(
            engine,
            scalable,
            interval=interval,
            headroom=headroom,
            max_parallelism=max_parallelism,
            rescaler=self.rescaler,
            auto_apply=False,
        )
        self.rescales = 0
        self.hot_splits = 0
        self.moved_bytes_total = 0
        self.chain_bytes_total = 0
        self.downtime_total = 0.0
        self.actions: list[HotSplitAction] = []
        self._timer: PeriodicTimer | None = None
        self._last_action_at: dict[str, float] = {}
        #: node name -> consecutive ticks the model has asked to scale down
        self._down_streak: dict[str, int] = {}
        #: node name -> cumulative per-group counts at the last tick
        self._last_group_totals: dict[str, dict[int, int]] = {}

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Enable key-group tracking, register gauges, begin the loop."""
        self._enable_tracking()
        self._register_gauges()
        self._timer = PeriodicTimer(self.engine.kernel, self.interval, self.tick)

    def stop(self) -> None:
        """Cancel the controller's periodic tick."""
        if self._timer is not None:
            self._timer.cancel()

    @property
    def reports(self) -> list[RescaleReport]:
        """Every reconfiguration applied (rescales and splits), in order."""
        return self.rescaler.reports

    def _enable_tracking(self) -> None:
        if self.hot_group_threshold <= 0.0 or self.hot_group_threshold > 1.0:
            return
        for name in self.scalable:
            for task in self.engine.plan.subtasks(name):
                task.enable_keygroup_tracking(DEFAULT_MAX_PARALLELISM)

    def _register_gauges(self) -> None:
        registry = self.engine.obs.registry
        prefix = f"{self.engine.graph.name}/autoscaler/0"
        registry.gauge(f"{prefix}/rescales", lambda: self.rescales)
        registry.gauge(f"{prefix}/hot_splits", lambda: self.hot_splits)
        registry.gauge(f"{prefix}/moved_bytes_total", lambda: self.moved_bytes_total)
        registry.gauge(f"{prefix}/chain_bytes_total", lambda: self.chain_bytes_total)
        registry.gauge(f"{prefix}/downtime_total", lambda: self.downtime_total)
        registry.gauge(f"{prefix}/routing_epoch", self._routing_epoch)

    def _routing_epoch(self) -> int:
        state = self.engine.rescale_state
        return 0 if state is None else max((r.epoch for r in state.routers.values()), default=0)

    # ------------------------------------------------------------------
    def tick(self) -> None:
        """One control round: model, actuate changed targets, mitigate skew."""
        engine = self.engine
        if engine.job_finished or engine.job_failed:
            self.stop()
            return
        if engine.restore_pending:
            return  # mid-recovery metrics are garbage; skip the round
        self._enable_tracking()  # idempotent; covers subtasks added by scale-out
        now = engine.kernel.now()
        before = len(self.model.decisions)
        self.model.tick()
        if now < self.warmup:
            return  # observe only: startup windows produce junk rates
        for decision in self.model.decisions[before:]:
            if not decision.changed:
                self._down_streak.pop(decision.operator, None)
                continue
            if not self._actionable(decision.operator, now):
                continue
            if decision.target < len(engine.plan.subtasks(decision.operator)):
                streak = self._down_streak.get(decision.operator, 0) + 1
                self._down_streak[decision.operator] = streak
                if streak < self.scale_down_patience:
                    continue  # one noisy window is not a reason to shrink
            self._down_streak.pop(decision.operator, None)
            report = self.rescaler.rescale(decision.operator, decision.target, mode="live")
            self.rescales += 1
            self._note(report, now)
        if self.hot_group_threshold > 0.0:
            for name in self.scalable:
                self._mitigate_skew(name, now)

    def _actionable(self, name: str, now: float) -> bool:
        last = self._last_action_at.get(name)
        if last is not None and now - last < self.cooldown:
            return False
        return not any(t.dead for t in self.engine.plan.subtasks(name))

    def _note(self, report: RescaleReport, now: float) -> None:
        self.moved_bytes_total += report.moved_bytes
        self.chain_bytes_total += report.chain_bytes
        self.downtime_total += report.downtime
        self._last_action_at[report.node_name] = now

    # ------------------------------------------------------------------
    def _mitigate_skew(self, name: str, now: float) -> None:
        """Split (or widen the split of) a key group that dominated this
        window's records for ``name``."""
        tasks = self.engine.plan.subtasks(name)
        if len(tasks) < 2 or not self._actionable(name, now):
            return
        totals: dict[int, int] = {}
        for task in tasks:
            for group, count in task.keygroup_counts.items():
                totals[group] = totals.get(group, 0) + count
        previous = self._last_group_totals.get(name, {})
        window = {g: c - previous.get(g, 0) for g, c in totals.items()}
        self._last_group_totals[name] = totals
        processed = sum(window.values())
        if processed < self.min_window_records:
            return
        # Deterministic winner: highest count, lowest group id on ties.
        group, count = max(window.items(), key=lambda item: (item[1], -item[0]))
        share = count / processed
        if share < self.hot_group_threshold:
            return
        router = RescaleState.of(self.engine).router(name)
        current = router.split_fanout(group)
        fanout = self.hot_group_fanout if current is None else current * 2
        fanout = min(fanout, len(tasks))
        if current is not None and fanout <= current:
            return  # already spread as wide as the operator goes
        report = self.rescaler.split_key_group(name, group, fanout, mode="live")
        self.hot_splits += 1
        self.actions.append(
            HotSplitAction(at=now, operator=name, key_group=group, fanout=fanout, share=share)
        )
        self._note(report, now)
