"""The five benchmark workloads and their in-run correctness checks.

Every workload follows one protocol so the harness can treat them alike:

* ``make_inputs(seed)`` materialises the whole input from the seed into a
  list — the load generator is separate from the system, which only ever
  sees a :class:`ReplayWorkload` over that list;
* ``build(inputs)`` wires the job through the public API and builds the
  engine (``make_inputs`` + ``build`` is what ``setup_s`` times);
* ``run(job)`` is the timed region: it drives the kernel to completion;
* ``observe(job, inputs)`` reads outputs and public counters afterwards,
  checks them against a plain-Python reference computed from the input
  alone, and asserts the workload's precondition (the property that makes
  it worth running — e.g. that preemptions actually happened).

All sources are open loop on the virtual clock: record ``i`` is *due* at
the cumulative sum of the input's inter-arrival gaps whatever the system
does, and a result's latency is its sink emission time minus the due time
of the source record it came from. Without back-pressure, recovery or
preemption that equals ``SinkResult.emitted_at - ingest_time``; with them
it also counts the time a stall made later records late.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import re
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from repro import StreamExecutionEnvironment
from repro.fabric import FabricConfig, JobFabric, sink_digest
from repro.io import CollectSink, SensorWorkload, SourceEvent, TransactionalSink, Workload
from repro.macro import build_macro_job, macro_workload
from repro.progress import BoundedOutOfOrderness
from repro.runtime.config import CheckpointConfig, EngineConfig, GuaranteeLevel
from repro.windows import SlidingEventTimeWindows

# ----------------------------------------------------------------------
# engine profiles
# ----------------------------------------------------------------------
#: profiles are dicts of ``EngineConfig`` field names; a key that is no
#: longer a field is dropped (see :func:`engine_config`), so deleting a mode
#: flag later does not break the benchmark
_SCALAR = {"chaining_enabled": True, "channel_batch_size": 16, "same_time_bucket": True}
PROFILES: dict[str, dict[str, Any]] = {
    #: every execution-mode flag off — the profile goldens are generated from
    "flags_off": {
        "chaining_enabled": False,
        "channel_batch_size": 1,
        "same_time_bucket": False,
        "columnar_enabled": False,
    },
    "scalar": _SCALAR,
    "columnar": {**_SCALAR, "columnar_enabled": True, "columnar_batch_size": 64},
}


#: virtual seconds between checkpoint triggers wherever checkpoints are on
_CHECKPOINT_INTERVAL = 0.05


def engine_config(profile: str, **extra: Any) -> tuple[EngineConfig, dict[str, Any]]:
    """``EngineConfig`` for ``profile`` plus ``extra``; returns it with the
    dict of keys actually applied (unknown field names are dropped)."""
    known = {f.name for f in dataclasses.fields(EngineConfig)}
    applied = {k: v for k, v in {**PROFILES[profile], **extra}.items() if k in known}
    return EngineConfig(**applied), applied


# ----------------------------------------------------------------------
# load generator
# ----------------------------------------------------------------------
class ReplayWorkload(Workload):
    """Replays a materialised event list; replayable by construction, so
    checkpoint recovery can rewind it by offset like any other source."""

    def __init__(self, events: list[SourceEvent]) -> None:
        self._events = events

    def events(self) -> Iterator[SourceEvent]:
        return iter(self._events)

    def __len__(self) -> int:
        return len(self._events)


def due_times(events: list[SourceEvent]) -> list[float]:
    """When each event is due on the open-loop schedule (virtual seconds)."""
    due, now = [], 0.0
    for event in events:
        now += event.inter_arrival
        due.append(now)
    return due


# ----------------------------------------------------------------------
# what one run yields
# ----------------------------------------------------------------------
@dataclass(kw_only=True)
class Checks:
    """Operation accounting: an operation is one expected sink record
    compared with its reference, or one named check."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    def check(self, ok: bool, message: str) -> None:
        """One named check: counts as an attempted operation."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(message)

    def compare(self, sink: str, got: list[Any], want: list[Any]) -> None:
        """Record-by-record comparison of an ordered sink with its reference."""
        bad = sum(1 for g, w in zip(got, want) if g != w) + abs(len(got) - len(want))
        self._count(
            len(want), bad,
            f"{sink}: {bad} of {len(want)} records differ from the reference (got {len(got)})",
        )

    def compare_multiset(self, sink: str, got: list[Any], want: list[Any]) -> None:
        """Order-free comparison; duplicates and omissions both count."""
        got_bag, want_bag = Counter(got), Counter(want)
        bad = sum((got_bag - want_bag).values()) + sum((want_bag - got_bag).values())
        self._count(
            len(want), bad,
            f"{sink}: {bad} records missing, duplicated or wrong against the "
            f"reference multiset of {len(want)}",
        )

    def _count(self, attempted: int, bad: int, message: str) -> None:
        self.attempted += attempted
        if bad:
            self.failed += min(bad, attempted) or 1
            self.problems.append(message)

    def absorb(self, other: "Checks", label: str) -> None:
        """Add another tally to this one."""
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems += [f"{label}: {p}" for p in other.problems]


@dataclass(kw_only=True)
class Observation(Checks):
    """Everything read from one finished run (all of it on the virtual
    clock or a pure count, so it repeats exactly for a fixed input), with
    the tally of its output checks."""

    #: source records offered
    records: int
    #: kernel events dispatched
    events: int
    #: virtual seconds from due time to sink emission, per latency sink
    latencies: dict[str, list[float]]
    #: virtual seconds from a result's event time (window end / match time)
    #: to its emission, per event-time sink
    lags: dict[str, list[float]]
    #: due time of the last source record / time of the last sink emission
    last_due: float
    last_emit: float
    #: per-sink sha256 digests; ``pinned`` names those compared with goldens
    digests: dict[str, str]
    pinned: tuple[str, ...]
    #: per-sink record counts (gated even where the digest only warns)
    counts: dict[str, int]
    #: exact per-layer counters read from public engine surfaces
    counters: dict[str, float] = field(default_factory=dict)
    #: raw host seconds measured inside the system (not exact)
    host: dict[str, float] = field(default_factory=dict)

    def pooled_latencies(self) -> list[float]:
        return sorted(x for values in self.latencies.values() for x in values)

    def exact(self) -> dict[str, Any]:
        """Everything that must be identical between two runs of one input."""
        return {
            "records": self.records,
            "events": self.events,
            "digests": self.digests,
            "counts": self.counts,
            "counters": self.counters,
            "last_emit": self.last_emit,
        }


def percentile(ordered: list[float], p: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    if not ordered:
        raise ValueError("percentile of an empty sample")
    return ordered[min(len(ordered) - 1, max(0, math.ceil(p * len(ordered)) - 1))]


def _sha(rows: list[Any]) -> str:
    hasher = hashlib.sha256()
    for row in rows:
        hasher.update(repr(row).encode())
        hasher.update(b"\n")
    return hasher.hexdigest()


def _rows(results: list[Any]) -> list[tuple]:
    return [(r.value, r.event_time, r.key, r.sign) for r in results]


def _lags(results: list[Any]) -> list[float]:
    return [r.emitted_at - r.event_time for r in results if r.event_time is not None]


def leaf_sums(metrics: dict[str, Any]) -> dict[str, float]:
    """Registry counters aggregated by leaf name (``…/sent`` → ``sent``), so
    renaming or re-nesting tasks does not break the benchmark."""
    sums: dict[str, float] = {}
    for path, value in metrics.items():
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            leaf = path.rsplit("/", 1)[-1]
            sums[leaf] = sums.get(leaf, 0) + value
    return sums


def leaf_values(metrics: dict[str, Any], leaf: str) -> list[Any]:
    return [v for path, v in metrics.items() if path.rsplit("/", 1)[-1] == leaf]


def _histogram_stat(metrics: dict[str, Any], leaf: str, stat: str) -> float:
    """Largest ``stat`` over every histogram named ``leaf`` (0 when none)."""
    values = [
        h[stat] for h in leaf_values(metrics, leaf) if isinstance(h, dict) and h.get("count")
    ]
    return max(values, default=0.0)


_CHAIN_MEMBER = re.compile(r"/chain\d+/")


def common_counters(
    job: "Job", metrics: dict[str, Any], records: int, makespan: float
) -> dict[str, float]:
    """The per-layer counters every workload reports, from the public
    metric registry snapshot and the kernel's public counters."""
    sums = leaf_sums(metrics)
    # task level only: a fused task also counts each chain member's input
    # under ".../chainN/<member>/records_in", which is not a mailbox item
    task_sums = leaf_sums({p: v for p, v in metrics.items() if not _CHAIN_MEMBER.search(p)})
    task_inputs = task_sums.get("records_in", 0) + task_sums.get("watermarks_in", 0)
    busy = [v for v in leaf_values(metrics, "busy_time") if isinstance(v, (int, float))]
    blocked = [v for v in leaf_values(metrics, "blocked_time") if isinstance(v, (int, float))]
    return {
        "sim.events_per_task_input": job.events / task_inputs,
        "sim.compactions": job.kernel.compactions,
        "runtime.channel.sent_per_record": sums.get("sent", 0) / records,
        "runtime.task.inputs_per_record": task_inputs / records,
        "runtime.task.count": len(busy),
        "runtime.task.busy_share_max": max(busy) / makespan,
        "runtime.task.blocked_share_max": max(blocked) / makespan,
        "state.reads_per_record": sums.get("state_reads", 0) / records,
        "state.writes_per_record": sums.get("state_writes", 0) / records,
        "checkpoint.persist_virt_ms_p50": _histogram_stat(metrics, "persist_seconds", "p50") * 1e3,
        "obs.markers_emitted": sums.get("latency_markers_emitted", 0),
        "obs.metrics_registered": len(metrics),
        "txn.commits": sums.get("commits", 0),
        "txn.aborts": sums.get("aborts", 0),
        "txn.retries": sums.get("retries", 0),
        "txn.lock_wait_virt_ms_p99": _histogram_stat(metrics, "lock_wait_seconds", "p99") * 1e3,
    }


def checkpoint_counters(engine: Any) -> dict[str, float]:
    completed = [c for _id, c in sorted(engine.checkpoints.items()) if c.complete]
    total = sum(c.total_bytes() for c in completed)
    return {
        "checkpoint.completed": len(completed),
        "checkpoint.bytes_total": total,
        "checkpoint.bytes_per_checkpoint": total / len(completed) if completed else 0.0,
    }


@dataclass
class Job:
    """Handle over one built, not yet run, job."""

    sinks: dict[str, Any]
    #: the engine profile keys actually applied (see :func:`engine_config`)
    profile: dict[str, Any]
    env: Any = None
    engine: Any = None
    #: False for auxiliary builds (golden generation without faults, ladder
    #: rungs without observability) whose preconditions do not apply
    measured: bool = True
    #: workload-specific handles
    macro: Any = None
    fabric: Any = None
    tenants: list[Any] = field(default_factory=list)
    result: Any = None
    #: (kill time, resume time, bytes the restore pulled) per fired kill
    kills: list[tuple[float, float, int]] = field(default_factory=list)
    #: kernel events the harness itself scheduled (in-run calibration);
    #: subtracted so event counts are those of an uninstrumented run
    harness_events: int = 0

    @property
    def kernel(self) -> Any:
        return self.engine.kernel if self.engine is not None else self.fabric.kernel

    @property
    def events(self) -> int:
        return self.kernel.dispatched_events - self.harness_events


# ----------------------------------------------------------------------
# macro_scalar / macro_columnar
# ----------------------------------------------------------------------
_CATEGORIES = ("grocery", "travel", "electronics", "dining", "fuel")
_REGIONS = ("na", "eu", "apac")
_ACCOUNT_BALANCE = 100


def _q1_reference(value: dict) -> tuple:
    """Plain-Python statement of the Q1 enrichment join (50-row merchant
    dimension keyed by ``card key mod 50``)."""
    merchant = value["key"] % 50
    return (
        value["seq"],
        value["card"],
        value["amount"],
        f"m{merchant}",
        _CATEGORIES[merchant % len(_CATEGORIES)],
        _REGIONS[merchant % len(_REGIONS)],
    )


@dataclass
class MacroInputs:
    seed: int
    events: list[SourceEvent]
    #: due time of each card transaction by its ``seq`` (Q1/Q4/Q5 results
    #: all derive from card transactions and carry the seq)
    txn_due: dict[int, float]
    last_due: float


class MacroWorkload:
    """The five-query macro job (Q1 join, Q2 CEP, Q3 sliding windows, Q4 ML
    scoring, Q5 serializable transfers) on the interleaved 4-generator
    source — ROADMAP's definition of end to end."""

    #: which sink value field names the originating card transaction
    _SEQ_OF: dict[str, Callable[[Any], int]] = {
        "q1": lambda v: v[0],
        "q4": lambda v: v[0],
        "q5": lambda v: int(v[1:]),
    }

    def __init__(self, name: str, profile: str, scale: float) -> None:
        self.name = name
        self.profile = profile
        self.scale = scale
        #: both macro workloads replay identical inputs against one golden
        self.golden_key = "macro"
        self.sizes = {"scale": scale}

    def make_inputs(self, seed: int) -> MacroInputs:
        events = list(macro_workload(seed=seed, scale=self.scale).events())
        due = due_times(events)
        txn_due = {
            e.value["seq"]: t for e, t in zip(events, due) if e.value["kind"] == "txn"
        }
        return MacroInputs(seed, events, txn_due, due[-1])

    def build(self, inputs: MacroInputs, profile: str | None = None, faults: bool = True) -> Any:
        config, applied = engine_config(
            profile or self.profile,
            seed=inputs.seed,
            checkpoints=CheckpointConfig(interval=_CHECKPOINT_INTERVAL),
            latency_marker_period=0.02,
        )
        macro = build_macro_job(
            config, seed=inputs.seed, scale=self.scale, workload=ReplayWorkload(inputs.events)
        )
        return Job(macro.sinks, applied, env=macro.env, engine=macro.env.build(), macro=macro)

    def run(self, job: Any) -> None:
        job.env.execute()

    def observe(self, job: Any, inputs: MacroInputs) -> Observation:
        engine = job.engine
        results = {q: sink.results for q, sink in job.sinks.items()}
        latencies = {
            q: [r.emitted_at - inputs.txn_due[seq_of(r.value)] for r in results[q]]
            for q, seq_of in self._SEQ_OF.items()
        }
        digests = {q: job.macro.digest(q) for q in ("q1", "q2", "q3", "q4")}
        # Q5 commits race on the virtual clock: multiset contract
        digests["q5"] = job.macro.multiset_digest("q5")
        obs = Observation(
            records=len(inputs.events),
            events=job.events,
            latencies=latencies,
            lags={q: _lags(results[q]) for q in ("q2", "q3")},
            last_due=inputs.last_due,
            last_emit=max(r.emitted_at for rs in results.values() for r in rs),
            digests=digests,
            # Q4 hashes NumPy float reprs, which legitimately differ across
            # NumPy builds: its count gates, its digest only warns
            pinned=("q1", "q2", "q3", "q5"),
            counts={q: len(rs) for q, rs in results.items()},
        )
        txns = [e.value for e in inputs.events if e.value["kind"] == "txn"]
        obs.compare("q1", [r.value for r in results["q1"]], [_q1_reference(v) for v in txns])
        obs.compare_multiset(
            "q5", [r.value for r in results["q5"]], [f"t{v['seq']}" for v in txns]
        )
        balances = job.macro.store.committed_items()
        obs.check(
            sum(balances.values()) == _ACCOUNT_BALANCE * len(balances),
            f"q5: balances {sum(balances.values())} not conserved over {len(balances)} accounts",
        )
        metrics = engine.metrics_snapshot()["metrics"]
        obs.counters = {
            **common_counters(job, metrics, obs.records, obs.last_emit),
            **checkpoint_counters(engine),
        }
        obs.check(
            all(obs.counts[q] > 0 for q in ("q1", "q3", "q4", "q5")) and "q2" in obs.counts,
            f"precondition: a macro sink stayed empty: {obs.counts}",
        )
        # at least half of the checkpoints the input's span allows (≥ 10 at
        # the default size)
        floor = int(inputs.last_due / _CHECKPOINT_INTERVAL) // 2
        completed = obs.counters["checkpoint.completed"]
        obs.check(
            completed >= floor, f"precondition: only {completed} checkpoints completed (< {floor})"
        )
        return obs


# ----------------------------------------------------------------------
# state_recover
# ----------------------------------------------------------------------
#: dyadic, so window bounds are exact in binary floating point. With a
#: slide of 0.1 the engine derives one logical window's start along two
#: arithmetic paths (0.2 and 0.20000000000000004) and emits it as two
#: partial results, which no input-derived reference can match.
_WINDOW_SIZE, _WINDOW_SLIDE = 0.25, 0.125


@dataclass
class SensorInputs:
    seed: int
    events: list[SourceEvent]
    due: list[float]

    @property
    def last_due(self) -> float:
        return self.due[-1]


class StateRecoverWorkload:
    """Keyed running aggregate + sliding-window aggregate over 2000 keys,
    exactly-once with incremental checkpoints, one task killed twice and
    the job recovered from its checkpoint chain each time — the only
    workload where ``state`` and ``checkpoint`` do real work and where the
    checkpoint layer is read as well as written."""

    name = golden_key = "state_recover"
    profile = "scalar"
    rate = 4000.0

    def __init__(self, count: int) -> None:
        self.count = count
        self.sizes = {"events": count, "rate": self.rate, "keys": 2000}
        span = count / self.rate
        #: fixed virtual kill times a third and two thirds into the input,
        #: placed 20 ms after a checkpoint trigger (triggers come every 50 ms)
        #: so a kill never races the trigger scheduled for the same instant
        self.kill_times = tuple(
            math.floor(span * third / 3 / _CHECKPOINT_INTERVAL) * _CHECKPOINT_INTERVAL + 0.02
            for third in (1, 2)
        )

    def make_inputs(self, seed: int) -> SensorInputs:
        events = list(
            SensorWorkload(
                count=self.count, rate=self.rate, key_count=2000, disorder=0.005, seed=seed
            ).events()
        )
        return SensorInputs(seed, events, due_times(events))

    def build(self, inputs: SensorInputs, profile: str | None = None, faults: bool = True) -> Any:
        config, applied = engine_config(
            profile or self.profile,
            seed=inputs.seed,
            guarantee=GuaranteeLevel.EXACTLY_ONCE,
            checkpoints=CheckpointConfig(interval=_CHECKPOINT_INTERVAL, incremental=True),
        )
        env = StreamExecutionEnvironment(config, name="state")
        keyed = env.from_workload(
            ReplayWorkload(inputs.events), name="src", watermarks=BoundedOutOfOrderness(0.01)
        ).key_by(lambda v: v["sensor"], name="by-sensor", parallelism=2)
        running, windows = TransactionalSink("running-out"), TransactionalSink("win-out")
        keyed.aggregate(
            create=lambda: (0, 0.0, -1),
            add=lambda acc, v: (acc[0] + 1, acc[1] + v["reading"], v["seq"]),
            name="running",
            parallelism=2,
        ).sink(running, name="running-out", parallelism=1)
        keyed.window(SlidingEventTimeWindows(_WINDOW_SIZE, _WINDOW_SLIDE)).aggregate(
            create=lambda: 0,
            add=lambda acc, _v: acc + 1,
            merge=lambda a, b: a + b,
            name="win",
            parallelism=2,
        ).sink(windows, name="win-out", parallelism=1)
        engine = env.build()
        job = Job(
            {"running": running, "win": windows}, applied, env=env, engine=engine, measured=faults
        )
        if faults:
            for at in self.kill_times:
                engine.kernel.call_at(at, lambda at=at: self._kill(job, at))
        return job

    @staticmethod
    def _kill(job: Any, at: float) -> None:
        engine = job.engine
        engine.kill_task("win[0]")
        restore_bytes = engine.restore_bytes(engine.latest_checkpoint())
        job.kills.append((at, engine.recover_from_checkpoint(), restore_bytes))

    def run(self, job: Any) -> None:
        # A horizon is required when injecting failures (a killed pipeline
        # must not hang the drain); the input spans a few virtual seconds.
        job.env.execute(until=3600.0)

    def observe(self, job: Any, inputs: SensorInputs) -> Observation:
        engine = job.engine
        running, windows = job.sinks["running"].committed, job.sinks["win"].committed
        obs = Observation(
            records=len(inputs.events),
            events=job.events,
            latencies={"running": [r.emitted_at - inputs.due[r.value[2]] for r in running]},
            lags={"win": _lags(windows)},
            last_due=inputs.last_due,
            last_emit=max(r.emitted_at for r in running + windows),
            # two parallel subtasks feed each sink, so arrival order across
            # keys may legitimately differ between a faulted and a fault-free
            # run: digests are over the sorted rows
            digests={
                "running": _sha(sorted(_rows(running), key=repr)),
                "win": _sha(sorted(_rows(windows), key=repr)),
            },
            pinned=("running", "win"),
            counts={"running": len(running), "win": len(windows)},
        )
        # Reference: the fault-free answer computed from the input alone.
        # Exactly-once means the committed output equals it — no record
        # lost, none duplicated — however many times the job was recovered.
        acc: dict[str, tuple[int, float]] = {}
        want_running, want_windows = [], Counter()
        for event in inputs.events:
            value = event.value
            n, total = acc.get(value["sensor"], (0, 0.0))
            acc[value["sensor"]] = (n + 1, total + value["reading"])
            want_running.append((n + 1, total + value["reading"], value["seq"]))
            # watermark slack (10 ms) exceeds the input's disorder (5 ms),
            # so no event is late: each lands in size/slide = 2 windows
            index = math.floor(event.event_time / _WINDOW_SLIDE)
            want_windows[(value["sensor"], index + 1)] += 1
            want_windows[(value["sensor"], index + 2)] += 1
        obs.compare_multiset("running", [r.value for r in running], want_running)
        obs.compare_multiset(
            "win",
            [(r.key, round(r.event_time / _WINDOW_SLIDE), r.value.value) for r in windows],
            [(key, index, n) for (key, index), n in want_windows.items()],
        )
        metrics = engine.metrics_snapshot()["metrics"]
        # the source counts every emission, replays included
        source_emitted = sum(
            v for path, v in metrics.items() if path.endswith("/records_in") and "/src/" in path
        )
        obs.counters = {
            **common_counters(job, metrics, obs.records, obs.last_emit),
            **checkpoint_counters(engine),
            "checkpoint.restore_bytes": sum(k[2] for k in job.kills),
            "checkpoint.records_replayed": source_emitted - obs.records,
            "checkpoint.recovery_virt_ms": (
                sum(resume - at for at, resume, _b in job.kills) / len(job.kills) * 1e3
                if job.kills
                else 0.0
            ),
        }
        if job.measured:
            obs.check(
                len(job.kills) == len(self.kill_times),
                f"precondition: {len(job.kills)} of {len(self.kill_times)} kills fired",
            )
            obs.check(
                obs.counters["checkpoint.restore_bytes"] > 0,
                "precondition: recovery restored no bytes",
            )
        return obs


# ----------------------------------------------------------------------
# fabric_tenants
# ----------------------------------------------------------------------
@dataclass
class TenantInputs:
    seed: int
    tenants: list[SensorInputs]

    @property
    def last_due(self) -> float:
        return max(t.last_due for t in self.tenants)


def _tenant_reference(events: list[SourceEvent]) -> list[tuple[int, int]]:
    counts: dict[str, int] = {}
    want = []
    for event in events:
        sensor = event.value["sensor"]
        counts[sensor] = counts.get(sensor, 0) + 1
        want.append((counts[sensor], event.value["seq"]))
    return want


class FabricTenantsWorkload:
    """Many small tenants on a 4-slot fabric, every 8th with a runtime
    quota it must exceed — the kernel's job-tagged path (``job_scope``,
    generation checks, suspend/park/resume, ``cancel_job``) that a
    single-job workload never enters."""

    name = golden_key = "fabric_tenants"
    profile = "scalar"
    slots, quantum, quota, rate = 4, 0.02, 0.1, 2000.0

    def __init__(self, tenants: int, events_per_tenant: int) -> None:
        self.tenants = tenants
        self.events_per_tenant = events_per_tenant
        self.sizes = {
            "tenants": tenants,
            "events_per_tenant": events_per_tenant,
            "slots": self.slots,
            "quantum": self.quantum,
        }

    def _has_quota(self, index: int) -> bool:
        return index % 8 == 7

    def make_inputs(self, seed: int) -> TenantInputs:
        tenants = []
        for index in range(self.tenants):
            tenant_seed = seed * 1000 + index
            events = list(
                SensorWorkload(
                    count=self.events_per_tenant, rate=self.rate, key_count=4, seed=tenant_seed
                ).events()
            )
            tenants.append(SensorInputs(tenant_seed, events, due_times(events)))
        return TenantInputs(seed, tenants)

    def _tenant_env(self, name: str, inputs: SensorInputs, profile: str) -> tuple[Any, CollectSink]:
        config, _applied = engine_config(profile, seed=inputs.seed)
        env = StreamExecutionEnvironment(config, name=name)
        sink = CollectSink("out")
        (
            env.from_workload(ReplayWorkload(inputs.events), name="src")
            .map(lambda v: (v["sensor"], v["seq"]), name="project")
            .key_by(lambda v: v[0], name="by-sensor", parallelism=1)
            .aggregate(
                create=lambda: (0, -1),
                add=lambda acc, v: (acc[0] + 1, v[1]),
                name="count",
                parallelism=1,
            )
            .sink(sink, name="out", parallelism=1)
        )
        return env, sink

    def build(self, inputs: TenantInputs, profile: str | None = None, faults: bool = True) -> Any:
        fabric = JobFabric(FabricConfig(slots=self.slots, quantum=self.quantum))
        profile = profile or self.profile
        job = Job({}, engine_config(profile)[1], fabric=fabric)
        for index, tenant in enumerate(inputs.tenants):
            env, sink = self._tenant_env(f"t{index}", tenant, profile)
            job.tenants.append(
                fabric.submit(env, runtime_quota=self.quota if self._has_quota(index) else None)
            )
            job.sinks[f"t{index}"] = sink
        return job

    def run(self, job: Any) -> None:
        job.result = job.fabric.run()

    def observe(self, job: Any, inputs: TenantInputs) -> Observation:
        summary = job.result.summary()
        sinks = [job.sinks[f"t{i}"] for i in range(self.tenants)]
        kept = [i for i in range(self.tenants) if not self._has_quota(i)]
        records = self.tenants * self.events_per_tenant
        obs = Observation(
            records=records,
            events=job.events,
            latencies={
                "out": [
                    r.emitted_at - tenant.due[r.value[1]]
                    for sink, tenant in zip(sinks, inputs.tenants)
                    for r in sink.results
                ]
            },
            lags={},
            last_due=inputs.last_due,
            last_emit=max(r.emitted_at for sink in sinks for r in sink.results),
            # a quota tenant's output stops wherever eviction caught it,
            # which depends on the engine profile: only the others are pinned
            digests={"tenants": _sha([sink_digest(sinks[i]) for i in kept])},
            pinned=("tenants",),
            counts={"out": sum(len(sinks[i].results) for i in kept)},
        )
        for index, (sink, tenant, handle) in enumerate(zip(sinks, inputs.tenants, job.tenants)):
            want = _tenant_reference(tenant.events)
            got = [r.value for r in sink.results]
            if self._has_quota(index):
                # evicted mid-run: what it did emit must be a prefix
                obs.compare(f"t{index}", got, want[: len(got)])
                obs.check(handle.state == "failed", f"t{index}: quota tenant ended {handle.state}")
            else:
                obs.compare(f"t{index}", got, want)
                obs.check(handle.state == "done", f"t{index}: tenant ended {handle.state}")
        # Isolation: three sampled tenants digest-equal a solo run.
        for index in (kept[0], kept[len(kept) // 2], kept[-1]):
            env, solo = self._tenant_env(f"solo{index}", inputs.tenants[index], self.profile)
            env.execute()
            obs.check(
                sink_digest(solo) == sink_digest(sinks[index]),
                f"t{index}: output differs from a solo run of the same job",
            )
        metrics = job.fabric.metrics_snapshot()["metrics"]
        teardowns = sorted(job.fabric.teardown_costs().values())
        obs.counters = {
            **common_counters(job, metrics, records, obs.last_emit),
            "fabric.admissions": summary["admissions"],
            "fabric.preemptions": summary["preemptions"],
            "fabric.quota_evictions": summary["quota_evictions"],
        }
        obs.host = {"fabric.teardown_s_p50": teardowns[len(teardowns) // 2]}
        obs.check(summary["preemptions"] > 0, "precondition: no tenant was ever preempted")
        obs.check(summary["quota_evictions"] > 0, "precondition: no quota eviction happened")
        return obs


# ----------------------------------------------------------------------
# forward_obs
# ----------------------------------------------------------------------
#: sustainable-rate ladder (records/s) and its limits (virtual seconds)
LADDER_RATES = (2000.0, 4000.0, 8000.0, 16000.0, 32000.0)
LADDER_EVENTS = 4000
LATENCY_LIMIT = DRAIN_LIMIT = 0.050


class ForwardObsWorkload:
    """The stateless 4-stage forward chain (flat_map → map → filter → map →
    sink) at a sustainable rate with the whole observability stack on: no
    state, checkpoint or txn (the bypass row for those layers) and the only
    place ``obs`` does measurable work."""

    name = golden_key = "forward_obs"
    profile = "scalar"
    rate = 4000.0
    obs_knobs = {
        "latency_marker_period": 0.002,
        "trace_sample_rate": 0.01,
        "profiling_enabled": True,
    }

    def __init__(self, count: int) -> None:
        self.count = count
        self.sizes = {"events": count, "rate": self.rate}

    @staticmethod
    def quantise(r: tuple) -> tuple:
        """The chain's second stage (a method so the non-vacuity self-test
        can substitute a deliberately slow one)."""
        return (r[0], round(r[1], 3))

    def make_inputs(self, seed: int) -> SensorInputs:
        events = list(
            SensorWorkload(count=self.count, rate=self.rate, key_count=16, seed=seed).events()
        )
        return SensorInputs(seed, events, due_times(events))

    def build(
        self,
        inputs: SensorInputs,
        profile: str | None = None,
        faults: bool = True,
        observed: bool = True,
    ) -> Any:
        config, applied = engine_config(
            profile or self.profile, seed=inputs.seed, **(self.obs_knobs if observed else {})
        )
        env = StreamExecutionEnvironment(config, name="forward")
        sink = CollectSink("out")
        (
            env.from_workload(ReplayWorkload(inputs.events), name="src")
            .flat_map(
                lambda v: [(v["seq"], v["reading"]), (v["seq"], v["reading"] * 1.8 + 32)],
                name="expand",
            )
            .map(self.quantise, name="quantise")
            .filter(lambda r: r[1] > -40.0, name="plausible")
            .map(lambda r: ("t", r[0], r[1]), name="tag")
            .sink(sink, name="out", parallelism=1)
        )
        return Job({"out": sink}, applied, env=env, engine=env.build(), measured=observed)

    def run(self, job: Any) -> None:
        job.env.execute()

    def observe(self, job: Any, inputs: SensorInputs) -> Observation:
        engine, results = job.engine, job.sinks["out"].results
        obs = Observation(
            records=len(inputs.events),
            events=job.events,
            latencies={"out": [r.emitted_at - inputs.due[r.value[1]] for r in results]},
            lags={},
            last_due=inputs.last_due,
            last_emit=results[-1].emitted_at,
            digests={"out": _sha(_rows(results))},
            pinned=("out",),
            counts={"out": len(results)},
        )
        want = []
        for event in inputs.events:
            seq, reading = event.value["seq"], event.value["reading"]
            for r in (reading, reading * 1.8 + 32):
                if round(r, 3) > -40.0:
                    want.append(("t", seq, round(r, 3)))
        obs.compare("out", [r.value for r in results], want)
        metrics = engine.metrics_snapshot()["metrics"]
        obs.counters = common_counters(job, metrics, obs.records, obs.last_emit)
        if job.measured:
            markers, floor = obs.counters["obs.markers_emitted"], self.count // 24
            obs.check(markers >= floor, f"precondition: only {markers} latency markers (< {floor})")
            drain = obs.last_emit - obs.last_due
            obs.check(
                drain <= DRAIN_LIMIT, f"precondition: drain {drain * 1e3:.1f} ms over the limit"
            )
        return obs

    def sustainable_rate(self, seed: int) -> tuple[float, list[dict[str, float]]]:
        """Highest ladder rung whose record p99 and drain both stay within
        50 ms, from short untimed runs with observability off."""
        best, rungs = 0.0, []
        for rate in LADDER_RATES:
            events = list(
                SensorWorkload(count=LADDER_EVENTS, rate=rate, key_count=16, seed=seed).events()
            )
            inputs = SensorInputs(seed, events, due_times(events))
            job = self.build(inputs, observed=False)
            self.run(job)
            obs = self.observe(job, inputs)
            p99 = percentile(obs.pooled_latencies(), 0.99)
            drain = obs.last_emit - obs.last_due
            ok = p99 <= LATENCY_LIMIT and drain <= DRAIN_LIMIT and not obs.failed
            rungs.append({"rate": rate, "p99_ms": p99 * 1e3, "drain_ms": drain * 1e3, "ok": ok})
            if ok:
                best = rate
        return best, rungs


# ----------------------------------------------------------------------
# the registry
# ----------------------------------------------------------------------
#: default input sizes; ``--smoke`` divides them by 4
def make_workloads(smoke: bool = False) -> dict[str, Any]:
    """The five workloads, in the order they are run and reported."""
    shrink = 4 if smoke else 1
    workloads = [
        MacroWorkload("macro_scalar", "scalar", 3.0 / shrink),
        MacroWorkload("macro_columnar", "columnar", 3.0 / shrink),
        StateRecoverWorkload(9000 // shrink),
        FabricTenantsWorkload(48 // shrink, 600),
        ForwardObsWorkload(24000 // shrink),
    ]
    return {w.name: w for w in workloads}


WHY = {
    "macro_scalar": "five mixed queries end to end; the framework tax (kernel, run loop, channels) dominates",
    "macro_columnar": "same inputs, batch transport: kernel and channels nearly bypassed, operators and tails dominate",
    "state_recover": "2000-key state, incremental checkpoints, two kills: state and checkpoint layers written and read",
    "fabric_tenants": "many tenants on 4 slots with preemption and quota eviction: the kernel's job-tagged path",
    "forward_obs": "stateless forward chain at a sustainable rate with observability on: bypasses state/checkpoint/txn",
}
