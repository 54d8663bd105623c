"""Invariant oracles: what must hold under *any* fault schedule.

Oracles are pluggable probes registered on an :class:`OracleSuite`. They
run at kernel time (a periodic probe between events, observing live task
and channel state) and once more after the run, so violations are caught
while the evidence is still in memory — not only by post-hoc auditing.

Built-in oracles:

* :class:`WatermarkMonotonicityOracle` — a task's watermark never moves
  backwards within one incarnation (rewinds are legal only across a kill);
* :class:`CreditConservationOracle` — flow-control credits never leak or
  overflow, and a backlogged channel holds zero credits;
* :class:`CheckpointConsistencyOracle` — completed checkpoints are whole
  (contain a source snapshot), finish after they start, and capture
  non-decreasing source offsets in completion order: every restored state
  is a prefix of the input;
* :class:`DeliveryOracle` — the end-to-end guarantee: the observed output
  multiset matches the expectation floor (losses / duplicates allowed only
  when the configured guarantee or the injected palette permits them), and
  the job actually finished (liveness);
* :class:`MetricInvariantOracle` — the metric registry itself is sound:
  counters and histogram counts are monotone in kernel time, channels never
  report more deliveries than sends, and (on conservative topologies under
  a non-lossy palette) records are conserved source → sink.
* :class:`SerializabilityOracle` — the committed history of a shared
  transactional store is equivalent to a serial execution: commit-order
  replay reproduces every recorded read and the final state, the WW/WR/RW
  conflict graph is acyclic, effects are exactly-once, and a user invariant
  (e.g. balance conservation) holds at every probe instant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Iterable

from repro.chaos.schedule import (
    DROP,
    DUPLICATE,
    DUPLICATING_KINDS,
    KILL,
    LOSSY_KINDS,
    FaultSchedule,
)
from repro.fault.guarantees import audit_delivery
from repro.runtime.config import GuaranteeLevel
from repro.sim.kernel import PeriodicTimer

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.engine import Engine


@dataclass(frozen=True)
class OracleViolation:
    oracle: str
    time: float
    message: str

    def describe(self) -> str:
        """One-line rendering: ``[oracle @ t=...] message``."""
        return f"[{self.oracle} @ t={self.time:.6f}] {self.message}"


class Oracle:
    """Base oracle: override :meth:`probe` and/or :meth:`finish`."""

    name = "oracle"

    def attach(self, engine: "Engine") -> None:
        """Called once before the run starts."""

    def probe(self, engine: "Engine") -> list[OracleViolation]:
        """Called at kernel time, between events, while the job runs."""
        return []

    def finish(self, engine: "Engine") -> list[OracleViolation]:
        """Called after the run quiesces or hits its horizon."""
        return []

    def _violation(self, engine: "Engine", message: str) -> OracleViolation:
        return OracleViolation(self.name, engine.kernel.now(), message)


class WatermarkMonotonicityOracle(Oracle):
    name = "watermark-monotonic"

    def __init__(self) -> None:
        self._seen: dict[str, tuple[int, float]] = {}

    def probe(self, engine: "Engine") -> list[OracleViolation]:
        violations = []
        for name, task in engine.tasks.items():
            watermark = task.current_watermark
            previous = self._seen.get(name)
            if previous is not None:
                incarnation, last = previous
                if incarnation == task.incarnation and watermark < last - 1e-12:
                    violations.append(
                        self._violation(
                            engine,
                            f"{name} watermark regressed {last:.6f} -> "
                            f"{watermark:.6f} within incarnation {incarnation}",
                        )
                    )
            self._seen[name] = (task.incarnation, watermark)
        return violations


class CreditConservationOracle(Oracle):
    name = "credit-conservation"

    def probe(self, engine: "Engine") -> list[OracleViolation]:
        violations = []
        for channel in engine.plan.channels():
            capacity = channel.spec.capacity
            if capacity is None:
                continue
            label = f"{channel.sender.name}->{channel.receiver.name}"
            if channel.credits < 0 or channel.credits > capacity:
                violations.append(
                    self._violation(
                        engine,
                        f"{label} credits={channel.credits} outside [0, {capacity}]",
                    )
                )
            elif channel.backlog_size > 0 and channel.credits > 0:
                violations.append(
                    self._violation(
                        engine,
                        f"{label} holds {channel.credits} credits with a "
                        f"backlog of {channel.backlog_size}",
                    )
                )
        return violations

    def finish(self, engine: "Engine") -> list[OracleViolation]:
        return self.probe(engine)


class CheckpointConsistencyOracle(Oracle):
    name = "checkpoint-consistency"

    def _check(self, engine: "Engine") -> list[OracleViolation]:
        violations = []
        last_offsets: dict[str, int] = {}
        for checkpoint_id in engine.coordinator.completed:
            record = engine.checkpoints.get(checkpoint_id)
            if record is None or record.completed_at is None:
                violations.append(
                    self._violation(
                        engine, f"checkpoint {checkpoint_id} listed complete but has no record"
                    )
                )
                continue
            if record.completed_at < record.triggered_at:
                violations.append(
                    self._violation(
                        engine,
                        f"checkpoint {checkpoint_id} completed at "
                        f"{record.completed_at:.6f} before trigger {record.triggered_at:.6f}",
                    )
                )
            offsets = {
                name: snap.source_offset
                for name, snap in record.snapshots.items()
                if snap.source_offset is not None
            }
            if not offsets:
                violations.append(
                    self._violation(
                        engine, f"checkpoint {checkpoint_id} contains no source snapshot"
                    )
                )
            for name, offset in offsets.items():
                if offset < last_offsets.get(name, 0):
                    violations.append(
                        self._violation(
                            engine,
                            f"checkpoint {checkpoint_id} rewinds {name} offset "
                            f"{last_offsets[name]} -> {offset}: restored state "
                            "would not be a prefix of the input",
                        )
                    )
                last_offsets[name] = offset
        return violations

    def probe(self, engine: "Engine") -> list[OracleViolation]:
        return self._check(engine)

    def finish(self, engine: "Engine") -> list[OracleViolation]:
        return self._check(engine)


@dataclass(frozen=True)
class GuaranteeExpectation:
    """The delivery floor a run must clear."""

    level: GuaranteeLevel
    allow_duplicates: bool
    allow_losses: bool

    @classmethod
    def for_run(
        cls, level: GuaranteeLevel, schedule: FaultSchedule | None = None
    ) -> "GuaranteeExpectation":
        """Expectation from the configured guarantee, relaxed by the faults
        actually injected: channel drops make losses legitimate, injected
        duplicates make duplicates legitimate."""
        allow_duplicates = level is GuaranteeLevel.AT_LEAST_ONCE
        allow_losses = level is GuaranteeLevel.AT_MOST_ONCE
        if schedule is not None:
            kinds = schedule.kinds()
            if kinds & LOSSY_KINDS:
                allow_losses = True
            if kinds & DUPLICATING_KINDS:
                allow_duplicates = True
        return cls(level, allow_duplicates, allow_losses)


class DeliveryOracle(Oracle):
    name = "delivery-guarantee"

    def __init__(
        self,
        expected: Iterable[Any],
        observed: Callable[[], Iterable[Any]],
        expectation: GuaranteeExpectation,
        identity: Callable[[Any], Any] = lambda v: repr(v),
    ) -> None:
        self._expected = list(expected)
        self._observed = observed
        self.expectation = expectation
        self._identity = identity

    def finish(self, engine: "Engine") -> list[OracleViolation]:
        violations = []
        if not engine.job_finished:
            violations.append(
                self._violation(engine, "liveness: job did not finish before the horizon")
            )
        audit = audit_delivery(self._expected, self._observed(), identity=self._identity)
        if audit.losses > 0 and not self.expectation.allow_losses:
            violations.append(
                self._violation(
                    engine,
                    f"{audit.losses} losses under {self.expectation.level.value} "
                    f"(observed {audit.observed}/{audit.expected})",
                )
            )
        if audit.duplicates > 0 and not self.expectation.allow_duplicates:
            violations.append(
                self._violation(
                    engine,
                    f"{audit.duplicates} duplicates under {self.expectation.level.value} "
                    f"(observed {audit.observed}/{audit.expected})",
                )
            )
        return violations


class SupervisedOutcomeOracle(Oracle):
    """End-to-end judge for supervised runs: the job must either *finish*
    with its guarantee upheld and every incident resolved (MTTR recorded),
    or *fail cleanly* under the restart policy — a recorded decision via
    :meth:`Engine.fail_job`, never a silent wedge. Hangs are violations."""

    name = "supervised-outcome"

    def __init__(
        self,
        expected: Iterable[Any],
        observed: Callable[[], Iterable[Any]],
        expectation: GuaranteeExpectation,
        identity: Callable[[Any], Any] = lambda v: repr(v),
    ) -> None:
        self._expected = list(expected)
        self._observed = observed
        self.expectation = expectation
        self._identity = identity

    def finish(self, engine: "Engine") -> list[OracleViolation]:
        violations = []
        recovery = engine.metrics.recovery
        audit = audit_delivery(self._expected, self._observed(), identity=self._identity)
        if engine.job_finished:
            if audit.losses > 0 and not self.expectation.allow_losses:
                violations.append(
                    self._violation(
                        engine,
                        f"{audit.losses} losses under {self.expectation.level.value} "
                        f"(observed {audit.observed}/{audit.expected})",
                    )
                )
            if audit.duplicates > 0 and not self.expectation.allow_duplicates:
                violations.append(
                    self._violation(
                        engine,
                        f"{audit.duplicates} duplicates under "
                        f"{self.expectation.level.value} "
                        f"(observed {audit.observed}/{audit.expected})",
                    )
                )
            for incident in recovery.incidents:
                if incident.resumed_at is None:
                    violations.append(
                        self._violation(
                            engine,
                            f"incident for {incident.task_name!r} "
                            f"(detected t={incident.detected_at:.6f}) never "
                            f"resumed — no MTTR recorded",
                        )
                    )
        elif engine.job_failed:
            if recovery.job_failed_at is None or not engine.failure_reason:
                violations.append(
                    self._violation(
                        engine,
                        "job failed without a recorded policy decision "
                        "(fail_job was bypassed)",
                    )
                )
            # A clean failure may truncate output, but must never publish
            # duplicates the guarantee forbids.
            if audit.duplicates > 0 and not self.expectation.allow_duplicates:
                violations.append(
                    self._violation(
                        engine,
                        f"{audit.duplicates} duplicates published by a job "
                        f"that failed under {self.expectation.level.value}",
                    )
                )
        else:
            violations.append(
                self._violation(
                    engine,
                    "liveness: job neither finished nor failed cleanly "
                    "before the horizon",
                )
            )
        return violations


#: fault kinds that legitimately break source→sink record conservation:
#: kills void in-flight elements without counting them as dropped, drops
#: lose records, duplicates mint extra ones
_NON_CONSERVING_KINDS = frozenset({KILL, DROP, DUPLICATE})


class MetricInvariantOracle(Oracle):
    """The observability layer must itself be trustworthy under chaos.

    Probes assert that every kernel-time instrument is *monotone*: task
    counters and busy time never decrease (``TaskMetrics`` objects survive
    reincarnation, so cumulative totals must only grow), channel
    send/delivery counters only grow with ``delivered <= sent`` (resets
    void in-flight elements but never un-count them), registry
    histogram counts only grow, and no profiler flame path's total
    shrinks.

    At finish, on a 1:1 topology (``conserves_records``) whose schedule
    injected no kill/drop/duplicate, records must be conserved end to end:
    ``sum(source records_out) == sum(sink records_in) + sum(dropped)``.
    """

    name = "metric-invariants"

    #: cumulative TaskMetrics fields that must never decrease
    _TASK_FIELDS = (
        "records_in",
        "records_out",
        "watermarks_in",
        "timers_fired",
        "dropped",
        "failures",
        "busy_time",
    )

    def __init__(
        self,
        schedule: FaultSchedule | None = None,
        conserves_records: bool = False,
    ) -> None:
        self._schedule = schedule
        self._conserves = conserves_records
        self._task_last: dict[tuple[str, str], float] = {}
        self._channel_last: dict[tuple[int, str], int] = {}
        self._hist_last: dict[str, int] = {}
        self._flame_last: dict[str, float] = {}

    # -- probes ---------------------------------------------------------
    def probe(self, engine: "Engine") -> list[OracleViolation]:
        violations = []
        for name, task in engine.tasks.items():
            for field_name in self._TASK_FIELDS:
                value = getattr(task.metrics, field_name)
                key = (name, field_name)
                last = self._task_last.get(key)
                if last is not None and value < last - 1e-12:
                    violations.append(
                        self._violation(
                            engine,
                            f"{name} {field_name} regressed {last} -> {value}",
                        )
                    )
                self._task_last[key] = value
        for channel in engine.plan.channels():
            label = f"{channel.sender.name}->{channel.receiver.name}"
            if channel.delivered > channel.sent:
                violations.append(
                    self._violation(
                        engine,
                        f"{label} delivered {channel.delivered} > sent {channel.sent}",
                    )
                )
            for field_name, value in (
                ("sent", channel.sent),
                ("delivered", channel.delivered),
            ):
                key = (id(channel), field_name)
                last = self._channel_last.get(key)
                if last is not None and value < last:
                    violations.append(
                        self._violation(
                            engine,
                            f"{label} {field_name} regressed {last} -> {value}",
                        )
                    )
                self._channel_last[key] = value
        obs = getattr(engine, "obs", None)
        if obs is not None:
            for path, histogram in obs.registry.histograms():
                last = self._hist_last.get(path)
                if last is not None and histogram.count < last:
                    violations.append(
                        self._violation(
                            engine,
                            f"histogram {path} count regressed {last} -> {histogram.count}",
                        )
                    )
                self._hist_last[path] = histogram.count
            for path, seconds in obs.profiler.flame().items():
                last = self._flame_last.get(path)
                if last is not None and seconds < last:
                    violations.append(
                        self._violation(
                            engine,
                            f"flame path {path} total regressed {last} -> {seconds}",
                        )
                    )
                self._flame_last[path] = seconds
        return violations

    # -- finish ---------------------------------------------------------
    def finish(self, engine: "Engine") -> list[OracleViolation]:
        violations = self.probe(engine)
        if not self._conserves or not engine.job_finished:
            return violations
        if self._schedule is not None and (
            self._schedule.kinds() & _NON_CONSERVING_KINDS
        ):
            return violations
        emitted = dropped = 0
        consumed = 0
        for task in engine.plan.tasks():
            dropped += task.metrics.dropped
            if not task.inputs.count:
                emitted += task.metrics.records_out
            elif not task.output_gates:
                consumed += task.metrics.records_in
        if emitted != consumed + dropped:
            violations.append(
                self._violation(
                    engine,
                    f"record conservation broken: sources emitted {emitted}, "
                    f"sinks consumed {consumed} + {dropped} dropped",
                )
            )
        return violations


class SerializabilityOracle(Oracle):
    """The committed history of a :class:`~repro.txn.store.TxnStateStore`
    must be equivalent to a serial execution, under any fault schedule.

    Three checks at finish (plus the invariant at every probe):

    * **serial replay** — replaying the committed writes in commit order
      must reproduce every transaction's *recorded external reads* (key,
      version, value) and end in exactly the store's committed state. If
      every read matches the commit-order replay, commit order itself is an
      equivalent serial schedule — a direct witness of serializability (and
      of state-level exactly-once across recoveries);
    * **conflict-graph acyclicity** — WW/WR/RW edges derived from per-key
      versions must form a DAG (an independent proof over the same history);
    * **effect uniqueness** — each op id commits at most once, unless the
      schedule injected DUPLICATE faults (then a replayed input record may
      legitimately commit twice, mirroring the delivery relaxation).

    ``invariant(committed_items) -> str | None`` (e.g. balance conservation)
    is evaluated at kernel time against the committed view, so a torn or
    non-atomic commit is caught while it is visible, not just post-hoc.
    """

    name = "serializability"

    def __init__(
        self,
        store: Any,
        invariant: Callable[[dict], str | None] | None = None,
        schedule: FaultSchedule | None = None,
    ) -> None:
        self._store = store
        self._invariant = invariant
        self._schedule = schedule

    # -- probes ---------------------------------------------------------
    def _check_invariant(self, engine: "Engine") -> list[OracleViolation]:
        if self._invariant is None:
            return []
        message = self._invariant(self._store.committed_items())
        if message:
            return [self._violation(engine, f"invariant violated: {message}")]
        return []

    def probe(self, engine: "Engine") -> list[OracleViolation]:
        return self._check_invariant(engine)

    # -- finish ---------------------------------------------------------
    def finish(self, engine: "Engine") -> list[OracleViolation]:
        violations = self._check_invariant(engine)
        history = self._store.history
        allow_duplicates = self._schedule is not None and bool(
            self._schedule.kinds() & DUPLICATING_KINDS
        )
        if not allow_duplicates:
            seen: dict[Any, int] = {}
            for entry in history:
                if entry.op_id in seen:
                    violations.append(
                        self._violation(
                            engine,
                            f"op {entry.op_id!r} committed twice (seq "
                            f"{seen[entry.op_id]} and {entry.seq}) without "
                            "DUPLICATE faults in the schedule",
                        )
                    )
                seen.setdefault(entry.op_id, entry.seq)
        violations.extend(self._check_serial_replay(engine, history))
        cycle = self._conflict_cycle(history)
        if cycle is not None:
            violations.append(
                self._violation(
                    engine,
                    f"conflict graph is cyclic: {' -> '.join(str(s) for s in cycle)}",
                )
            )
        return violations

    def _check_serial_replay(
        self, engine: "Engine", history: list
    ) -> list[OracleViolation]:
        violations = []
        state: dict[Any, tuple[int, Any]] = {}  # key -> (version, value)
        for entry in history:
            for key, version, value in entry.reads:
                current = state.get(key)
                if version == 0:
                    if current is not None:
                        violations.append(
                            self._violation(
                                engine,
                                f"seq {entry.seq} (op {entry.op_id!r}) read "
                                f"{key!r} as uncommitted but serial replay "
                                f"holds version {current[0]}",
                            )
                        )
                elif current is None or current[0] != version or repr(current[1]) != repr(value):
                    violations.append(
                        self._violation(
                            engine,
                            f"seq {entry.seq} (op {entry.op_id!r}) read "
                            f"{key!r}@v{version}={value!r} but serial replay "
                            f"holds {current!r}",
                        )
                    )
            for key, version, value in entry.writes:
                previous = state.get(key, (0, None))[0]
                if version != previous + 1:
                    violations.append(
                        self._violation(
                            engine,
                            f"seq {entry.seq} writes {key!r}@v{version} but "
                            f"serial replay is at v{previous} (version gap)",
                        )
                    )
                state[key] = (version, value)
        final = self._store.committed_items()
        replayed = {key: value for key, (_version, value) in state.items()}
        if {repr(k): repr(v) for k, v in final.items()} != {
            repr(k): repr(v) for k, v in replayed.items()
        }:
            missing = set(map(repr, replayed)) ^ set(map(repr, final))
            violations.append(
                self._violation(
                    engine,
                    "committed state diverges from the serial replay of its "
                    f"own history (differing keys: {sorted(missing) or 'values only'})",
                )
            )
        return violations

    def _conflict_cycle(self, history: list) -> list | None:
        """Find a cycle in the WW/WR/RW conflict graph (None if a DAG)."""
        writer: dict[tuple, int] = {}
        readers: dict[tuple, list[int]] = {}
        for entry in history:
            for key, version, _value in entry.writes:
                writer[(key, version)] = entry.seq
            for key, version, _value in entry.reads:
                if version > 0:
                    readers.setdefault((key, version), []).append(entry.seq)
        edges: dict[int, set[int]] = {}

        def add_edge(a: int, b: int) -> None:
            if a != b:
                edges.setdefault(a, set()).add(b)

        for (key, version), seq in writer.items():
            next_writer = writer.get((key, version + 1))
            if next_writer is not None:
                add_edge(seq, next_writer)  # WW
            for reader in readers.get((key, version), ()):  # WR
                add_edge(seq, reader)
        for (key, version), seqs in readers.items():
            next_writer = writer.get((key, version + 1))
            if next_writer is not None:
                for reader in seqs:  # RW
                    add_edge(reader, next_writer)
        # Iterative three-color DFS.
        WHITE, GRAY, BLACK = 0, 1, 2
        color: dict[int, int] = {}
        for start in sorted(edges):
            if color.get(start, WHITE) is not WHITE:
                continue
            stack: list[tuple[int, Any]] = [(start, iter(sorted(edges.get(start, ()))))]
            color[start] = GRAY
            path = [start]
            while stack:
                node, children = stack[-1]
                advanced = False
                for child in children:
                    state_c = color.get(child, WHITE)
                    if state_c is GRAY:
                        return path[path.index(child):] + [child]
                    if state_c is WHITE:
                        color[child] = GRAY
                        path.append(child)
                        stack.append((child, iter(sorted(edges.get(child, ())))))
                        advanced = True
                        break
                if not advanced:
                    color[node] = BLACK
                    path.pop()
                    stack.pop()
        return None


def standard_oracles() -> list[Oracle]:
    """The always-on invariant set (delivery needs scenario wiring)."""
    return [
        WatermarkMonotonicityOracle(),
        CreditConservationOracle(),
        CheckpointConsistencyOracle(),
    ]


class OracleSuite:
    """Registry driving a set of oracles against one engine run."""

    def __init__(self, oracles: Iterable[Oracle], probe_interval: float = 0.01) -> None:
        self.oracles = list(oracles)
        self.probe_interval = probe_interval
        self.violations: list[OracleViolation] = []
        self._timer: PeriodicTimer | None = None

    def install(self, engine: "Engine") -> None:
        """Attach oracles and start the kernel-time probe."""
        for oracle in self.oracles:
            oracle.attach(engine)

        def probe() -> None:
            if engine.job_finished or engine.job_failed:
                if self._timer is not None:
                    self._timer.cancel()
                return
            for oracle in self.oracles:
                self.violations.extend(oracle.probe(engine))

        self._timer = PeriodicTimer(engine.kernel, self.probe_interval, probe)

    def finalize(self, engine: "Engine") -> list[OracleViolation]:
        """Run post-run checks; returns all violations (probe + final)."""
        if self._timer is not None:
            self._timer.cancel()
        for oracle in self.oracles:
            self.violations.extend(oracle.finish(engine))
        return self.violations

    @property
    def ok(self) -> bool:
        return not self.violations

    def verdict(self) -> str:
        """Stable one-line-per-violation summary ("OK" when clean)."""
        if not self.violations:
            return "OK"
        return "\n".join(v.describe() for v in self.violations)
