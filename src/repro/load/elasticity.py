"""Elasticity: DS2-style scaling decisions (survey §3.3).

The controller follows Kalavri et al.'s "three steps is all you need":

1. instrument *useful time* — records processed per busy second is each
   operator's **true processing rate**;
2. propagate demand through the dataflow — the source rate times the
   per-operator selectivities gives every operator's required rate;
3. set parallelism = ceil(required rate / true rate per instance).

Because the model is computed from first principles rather than probed, a
step change in load converges in one or two reconfigurations, which
experiment E8 measures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import LoadManagementError
from repro.runtime.engine import Engine
from repro.load.migration import Rescaler
from repro.sim.kernel import PeriodicTimer


@dataclass
class ScalingDecision:
    at: float
    operator: str
    current: int
    target: int
    required_rate: float
    true_rate: float

    @property
    def changed(self) -> bool:
        return self.current != self.target


@dataclass
class OperatorModel:
    name: str
    parallelism: int
    true_rate_per_instance: float
    selectivity: float
    observed_input_rate: float


class DS2Controller:
    """Computes and (optionally) applies optimal parallelism for the scalable
    stages of a linear pipeline.

    Args:
        engine: running engine.
        scalable: names of logical nodes the controller may rescale
            (HASH/REBALANCE stages; sources and sinks stay fixed).
        interval: decision period in virtual seconds.
        headroom: safety factor on required rates (DS2 uses a small one to
            absorb estimation error).
        max_parallelism: cap per operator.
    """

    def __init__(
        self,
        engine: Engine,
        scalable: list[str],
        interval: float = 1.0,
        headroom: float = 1.2,
        max_parallelism: int = 32,
        rescaler: Rescaler | None = None,
        auto_apply: bool = True,
    ) -> None:
        if not scalable:
            raise LoadManagementError("DS2 needs at least one scalable operator")
        self.engine = engine
        self.scalable = scalable
        self.interval = interval
        self.headroom = headroom
        self.max_parallelism = max_parallelism
        self.rescaler = rescaler or Rescaler(engine)
        self.auto_apply = auto_apply
        self.decisions: list[ScalingDecision] = []
        self.reconfigurations = 0
        self._timer: PeriodicTimer | None = None
        # node -> (records_in, records_out, busy_time, blocked_time)
        self._last_counts: dict[str, tuple[int, int, float, float]] = {}

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin periodic scaling decisions."""
        self._timer = PeriodicTimer(self.engine.kernel, self.interval, self.tick)

    def stop(self) -> None:
        """Cancel the decision loop."""
        if self._timer is not None:
            self._timer.cancel()

    # ------------------------------------------------------------------
    def _window_metrics(self, node_name: str) -> tuple[float, float, float, float]:
        """(input rate, output rate, busy delta, blocked delta) over the window."""
        tasks = self.engine.tasks_of(node_name)
        records_in = sum(t.metrics.records_in for t in tasks)
        records_out = sum(t.metrics.records_out for t in tasks)
        busy = sum(t.metrics.busy_time for t in tasks)
        blocked = sum(t.metrics.blocked_time for t in tasks)
        # Tasks currently stalled have an open blocked interval; include it.
        now = self.engine.kernel.now()
        for task in tasks:
            since = task.blocked_since
            if since is not None:
                blocked += now - since
        prev = self._last_counts.get(node_name, (0, 0, 0.0, 0.0))
        self._last_counts[node_name] = (records_in, records_out, busy, blocked)
        d_in = records_in - prev[0]
        d_out = records_out - prev[1]
        d_busy = busy - prev[2]
        d_blocked = blocked - prev[3]
        return d_in / self.interval, d_out / self.interval, d_busy, d_blocked

    def build_models(self) -> tuple[float, dict[str, OperatorModel]]:
        """Step 1+2: measure true rates and propagate demand source→sinks.

        Returns (source *true* output rate — observed rate de-biased by the
        time the source spent stalled on backpressure, DS2's useful-time
        correction — and per-scalable-operator models). Assumes the scalable
        operators appear in `scalable` in topological order of a linear
        chain (the standard DS2 setting).
        """
        source_rate = 0.0
        for node in self.engine.graph.sources():
            out_rate, _o, _busy, blocked = self._window_metrics(node.name)
            blocked_fraction = min(1.0, max(0.0, blocked / self.interval))
            # A backpressured source hides the offered rate: de-bias by the
            # stall fraction, but cap the extrapolation at 2x per window so
            # a fully-saturated source probes upward geometrically instead
            # of jumping to an unmeasurable estimate.
            debias = min(2.0, 1.0 / max(1.0 - blocked_fraction, 0.5))
            source_rate += out_rate * debias
        models: dict[str, OperatorModel] = {}
        demand = source_rate
        for name in self.scalable:
            in_rate, out_rate, busy, _blocked = self._window_metrics(name)
            tasks = self.engine.tasks_of(name)
            parallelism = len(tasks)
            processed = in_rate * self.interval
            true_rate = processed / busy if busy > 0 else float("inf")
            selectivity = (out_rate / in_rate) if in_rate > 0 else 1.0
            models[name] = OperatorModel(
                name=name,
                parallelism=parallelism,
                true_rate_per_instance=true_rate,
                selectivity=selectivity,
                observed_input_rate=in_rate,
            )
            demand *= selectivity
        return source_rate, models

    def tick(self) -> None:
        """One decision round: measure, model, and (optionally) rescale."""
        if self.engine.job_finished:
            self.stop()
            return
        source_rate, models = self.build_models()
        demand = source_rate
        now = self.engine.kernel.now()
        for name in self.scalable:
            model = models[name]
            if model.true_rate_per_instance in (0.0, float("inf")) or demand <= 0:
                demand *= model.selectivity
                continue
            required = demand * self.headroom
            target = max(1, min(self.max_parallelism, math.ceil(required / model.true_rate_per_instance)))
            decision = ScalingDecision(
                at=now,
                operator=name,
                current=model.parallelism,
                target=target,
                required_rate=required,
                true_rate=model.true_rate_per_instance,
            )
            self.decisions.append(decision)
            if decision.changed and self.auto_apply:
                self.rescaler.rescale(name, target, mode="live")
                self.reconfigurations += 1
            demand *= model.selectivity
