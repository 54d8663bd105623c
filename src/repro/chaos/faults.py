"""Fault palette: applying a :class:`FaultSchedule` to a built engine.

Channel faults (drop, duplicate, delay, reorder-within-bounds, barrier
loss) install a :class:`ChannelFaultHook` on the targeted
:class:`~repro.runtime.channel.PhysicalChannel`; task faults (fail-stop
kill, stall) ride the engine's kill/suspend primitives. Application is
purely schedule-driven — no randomness — so a schedule replays
byte-identically, and every perturbation keeps the runtime's accounting
honest:

* drops return the consumed flow-control credit (a receiver-side discard,
  not a leak — the credit-conservation oracle checks this);
* duplicates are delivered out-of-band (a network retransmission holds no
  credit);
* reorder only swaps *adjacent records*, never across a watermark, barrier
  or end-of-stream, so control-flow causality is preserved while record
  order within a link is not.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.chaos.schedule import (
    BARRIER_LOSS,
    DELAY,
    DROP,
    DUPLICATE,
    KILL,
    REORDER,
    RESCALE,
    STALL,
    FaultSchedule,
    FaultSpec,
)
from repro.core.events import CheckpointBarrier, Record, RecordBatch, StreamElement
from repro.errors import GraphError, RecoveryError
from repro.fault.injection import FailureEvent, FailureInjector
from repro.load.migration import Rescaler
from repro.runtime.config import GuaranteeLevel
from repro.supervision.supervisor import Supervisor, SupervisorConfig

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.channel import PhysicalChannel
    from repro.runtime.engine import Engine
    from repro.sim.kernel import Kernel


#: element classes the record-perturbing faults apply to — a columnar batch
#: is one transport unit, so it is dropped/duplicated/delayed/reordered
#: wholesale, exactly like the single record it replaces.
_DATA = (Record, RecordBatch)


def _describe(element: StreamElement) -> str:
    """Stable log label for a data element (schedule-replay determinism)."""
    if isinstance(element, RecordBatch):
        return f"batch[{len(element)}]"
    return repr(element.value)


class _ArmedFault:
    """A channel fault with live countdown state."""

    __slots__ = ("spec", "remaining")

    def __init__(self, spec: FaultSpec) -> None:
        self.spec = spec
        self.remaining = 1 if spec.kind == BARRIER_LOSS else max(1, spec.count)


class ChannelFaultHook:
    """Intercepts sends on one physical channel per its armed faults.

    ``intercept`` returns the list of ``(element, extra_delay)`` pairs the
    channel should actually schedule — empty for a drop or a hold.
    """

    def __init__(self, kernel: "Kernel", log: Callable[[str, str], None]) -> None:
        self._kernel = kernel
        self._log = log
        self._faults: list[_ArmedFault] = []
        #: data element (record or batch) held back by an active reorder fault
        self._held: Record | RecordBatch | None = None

    def add(self, spec: FaultSpec) -> None:
        """Arm one fault on this channel."""
        self._faults.append(_ArmedFault(spec))

    # ------------------------------------------------------------------
    def intercept(
        self, channel: "PhysicalChannel", element: StreamElement
    ) -> list[tuple[StreamElement, float]]:
        """Perturb one send: the returned ``(element, extra_delay)`` pairs
        are what the channel actually schedules (empty = drop/hold)."""
        now = self._kernel.now()
        prefix: list[tuple[StreamElement, float]] = []
        if self._held is not None and not isinstance(element, _DATA):
            # Control element: flush the held record first so reordering
            # never crosses watermarks, barriers, or end-of-stream.
            prefix.append((self._held, 0.0))
            self._held = None
        for armed in self._faults:
            spec = armed.spec
            if armed.remaining <= 0 or now < spec.at:
                continue
            if spec.kind == BARRIER_LOSS:
                if not isinstance(element, CheckpointBarrier):
                    continue
                armed.remaining -= 1
                self._log(BARRIER_LOSS, f"checkpoint {element.checkpoint_id}")
                channel.return_credit()
                return prefix
            if not isinstance(element, _DATA):
                continue  # remaining kinds perturb data elements only
            if spec.kind == DROP:
                armed.remaining -= 1
                self._log(DROP, _describe(element))
                channel.return_credit()
                return prefix
            if spec.kind == DUPLICATE:
                armed.remaining -= 1
                self._log(DUPLICATE, _describe(element))
                channel.inject_out_of_band(element)
                return prefix + [(element, 0.0)]
            if spec.kind == DELAY:
                armed.remaining -= 1
                self._log(DELAY, f"{_describe(element)} +{spec.magnitude:.6g}s")
                return prefix + [(element, spec.magnitude)]
            if spec.kind == REORDER:
                if self._held is None:
                    self._held = element
                    self._arm_flush(channel, element, spec.magnitude)
                    return prefix
                held, self._held = self._held, None
                armed.remaining -= 1
                self._log(REORDER, f"{_describe(held)} after {_describe(element)}")
                return prefix + [(element, 0.0), (held, 0.0)]
        return prefix + [(element, 0.0)]

    def _arm_flush(
        self, channel: "PhysicalChannel", element: Record | RecordBatch, bound: float
    ) -> None:
        """Bound the hold-back: if nothing else is sent within ``bound``
        virtual seconds, the held record is released unswapped."""

        def flush() -> None:
            if self._held is element:
                self._held = None
                channel._do_schedule(element, 0.0)

        self._kernel.call_after(max(bound, 1e-6), flush)


def default_recovery(level: GuaranteeLevel) -> Callable[["Engine", FailureEvent], None]:
    """The recovery policy a production job at ``level`` would run."""

    def recover(engine: "Engine", _event: FailureEvent) -> None:
        if engine.job_finished or engine.job_failed:
            return
        if level is GuaranteeLevel.AT_MOST_ONCE:
            engine.recover_without_replay()
        elif engine.latest_checkpoint() is not None:
            engine.recover_from_checkpoint()
        else:
            engine.restart_from_scratch()

    return recover


class ChaosInjector:
    """Applies one :class:`FaultSchedule` to one built engine.

    Two recovery wirings: the default installs a fixed per-guarantee policy
    (``default_recovery``); ``supervised=True`` instead hands detections to
    a :class:`~repro.supervision.supervisor.Supervisor`, which picks the
    recovery scope itself (standby → region → global → job-failed) under a
    restart strategy."""

    def __init__(
        self,
        engine: "Engine",
        schedule: FaultSchedule,
        guarantee: GuaranteeLevel = GuaranteeLevel.EXACTLY_ONCE,
        detection_delay: float = 0.005,
        recovery: Callable[["Engine", FailureEvent], None] | None = None,
        supervised: bool = False,
        supervisor_config: "SupervisorConfig | None" = None,
    ) -> None:
        self.engine = engine
        self.schedule = schedule
        self.injector = FailureInjector(engine, detection_delay=detection_delay)
        self.supervisor: Supervisor | None = None
        self._recovery: Callable[["Engine", FailureEvent], None] | None = None
        if supervised:
            self.supervisor = Supervisor(engine, self.injector, supervisor_config)
        else:
            self._recovery = recovery or default_recovery(guarantee)
            self.injector.on_detection(lambda event: self._recovery(engine, event))
        #: deterministic trace of what was actually injected, in kernel
        #: dispatch order — compared across runs by the determinism tests
        self.log: list[str] = []
        self._hooks: dict[str, ChannelFaultHook] = {}

    # ------------------------------------------------------------------
    def apply(self) -> None:
        """Install channel hooks and schedule every fault on the kernel."""
        channels = {
            f"{ch.sender.name}->{ch.receiver.name}": ch
            for ch in self.engine.plan.channels()
        }
        for spec in self.schedule.faults:
            if spec.kind == KILL:
                self._schedule_kill(spec)
            elif spec.kind == STALL:
                self._schedule_stall(spec)
            elif spec.kind == RESCALE:
                self._schedule_rescale(spec)
            else:
                channel = channels.get(spec.target)
                if channel is None:
                    raise RecoveryError(
                        f"chaos schedule targets unknown channel {spec.target!r}"
                    )
                self._hook_for(spec.target, channel).add(spec)

    def _log_event(self, kind: str, target: str, detail: str) -> None:
        self.log.append(f"t={self.engine.kernel.now():.6f} {kind} {target}: {detail}")

    def _hook_for(self, key: str, channel: "PhysicalChannel") -> ChannelFaultHook:
        hook = self._hooks.get(key)
        if hook is None:
            hook = ChannelFaultHook(
                self.engine.kernel,
                lambda kind, detail, key=key: self._log_event(kind, key, detail),
            )
            self._hooks[key] = hook
            channel.fault_hook = hook
        return hook

    def _schedule_kill(self, spec: FaultSpec) -> None:
        event = self.injector.schedule_kill(spec.target, spec.at)

        def note() -> None:
            self._log_event(KILL, spec.target, "fail-stop")

        # schedule_kill's own closure runs first at spec.at; this trailing
        # event records it in the injector's trace.
        self.engine.kernel.call_at(spec.at, note)
        del event

    def _schedule_rescale(self, spec: FaultSpec) -> None:
        """A live rescale dropped into the fault timeline: ``spec.target`` is
        a logical node name, ``spec.count`` the requested parallelism. The
        injection is skipped — deterministically, as a function of engine
        state at ``spec.at`` — when the job is over, a restore is in flight,
        or any subtask of the node is dead (a production autoscaler would
        equally hold off mid-recovery)."""

        def rescale() -> None:
            engine = self.engine
            if engine.job_finished or engine.job_failed or engine.restore_pending:
                return
            try:
                tasks = engine.plan.subtasks(spec.target)
            except GraphError:
                raise RecoveryError(f"chaos schedule targets unknown node {spec.target!r}")
            if any(t.dead for t in tasks):
                return
            target_p = max(1, spec.count)
            if target_p == len(tasks):
                # Force a real reconfiguration: same-parallelism rescales
                # would be no-ops and waste the scheduled slot.
                target_p += 1
            report = Rescaler(engine).rescale(spec.target, target_p, mode="live")
            self._log_event(
                RESCALE,
                spec.target,
                f"p {report.old_parallelism}->{report.new_parallelism} "
                f"({report.handoff}, {report.moved_entries} entries)",
            )

        self.engine.kernel.call_at(spec.at, rescale)

    def _schedule_stall(self, spec: FaultSpec) -> None:
        def stall() -> None:
            task = self.engine.tasks.get(spec.target)
            if task is None or task.dead or task.finished:
                return
            self._log_event(STALL, spec.target, f"suspend {spec.magnitude:.6g}s")
            task.suspend()
            self.engine.kernel.call_after(spec.magnitude, task.resume_processing)

        self.engine.kernel.call_at(spec.at, stall)
