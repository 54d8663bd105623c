"""MacroRunner: sweep the macro suite across engine configurations.

One :meth:`MacroRunner.run` executes the five-query macro job once per
engine configuration and emits a single payload (``BENCH_macro.json``
section) with, per (query, configuration) cell:

* throughput — query input records per host second, plus the
  hardware-independent records per *virtual* second;
* p50/p99 source→sink latency from the in-band latency-marker machinery
  (the markers fan out from the shared source to every query's sink);
* checkpoint bytes attributed to the query's own tasks (node names are
  ``qN-...`` prefixed; the shared source lands in the ``shared`` bucket);
* ordered and multiset sink digests.

Per configuration it also records kernel-event counts, wall/virtual
duration, completed checkpoints, and total snapshot volume. Equivalence is
judged inside the run: every configuration whose spec claims scalar
equivalence must produce byte-identical ordered digests for Q1–Q4 and an
identical Q5 multiset digest; multiset-only configurations (autoscaling,
NO-WAIT locking) must still match every query's multiset digest.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field as dataclass_field
from typing import Any

from repro.macro.queries import QUERIES, MacroJob, build_macro_job
from repro.macro.sources import macro_workload
from repro.runtime.config import CheckpointConfig, EngineConfig

#: which interleaved-source slice each query consumes (click/ride traffic
#: is background load no query reads — it still costs dispatch)
QUERY_KIND: dict[str, str] = {
    "q1": "txn",
    "q2": "txn",
    "q3": "sensor",
    "q4": "txn",
    "q5": "txn",
}


@dataclass
class MacroEngineSpec:
    """One engine configuration cell of the sweep."""

    name: str
    description: str
    #: ordered digests must match the baseline for every ``ordered`` query
    equivalent: bool
    chaining: bool = False
    columnar: bool = False
    incremental: bool = False
    autoscale: bool = False
    txn_locking: str = "ordered"
    extra: dict[str, Any] = dataclass_field(default_factory=dict)

    def engine_config(self, seed: int) -> EngineConfig:
        """Materialise the spec into an `EngineConfig` for this seed."""
        config = EngineConfig(
            seed=seed,
            chaining_enabled=self.chaining,
            columnar_enabled=self.columnar,
            columnar_batch_size=64,
            checkpoints=CheckpointConfig(interval=0.05, incremental=self.incremental),
            latency_marker_period=0.02,
            **self.extra,
        )
        if self.autoscale:
            config.flow_control = True
            config.metrics_interval = 0.02
        return config

    def flags(self) -> dict[str, Any]:
        """Flag dict recorded in the exhibit for this config."""
        return {
            "chaining": self.chaining,
            "columnar": self.columnar,
            "incremental_checkpoints": self.incremental,
            "autoscale": self.autoscale,
            "txn_locking": self.txn_locking,
        }


#: the standing sweep: seed-equivalent baseline, each headline optimisation,
#: the closed autoscaling loop, and the alternative locking discipline
ENGINE_CONFIGS: dict[str, MacroEngineSpec] = {
    spec.name: spec
    for spec in (
        MacroEngineSpec(
            name="seed",
            description="seed-equivalent dispatch: no chaining, full snapshots",
            equivalent=True,
        ),
        MacroEngineSpec(
            name="fastpath",
            description="fast-path dispatch: operator chaining",
            equivalent=True,
            chaining=True,
        ),
        MacroEngineSpec(
            name="columnar",
            description="fast path + record-batch transport and compute",
            equivalent=True,
            chaining=True,
            columnar=True,
        ),
        MacroEngineSpec(
            name="incremental",
            description="fast path + incremental base+delta checkpoints",
            equivalent=True,
            chaining=True,
            incremental=True,
        ),
        MacroEngineSpec(
            name="autoscale",
            description="fast path + closed-loop autoscaling on the Q3 "
            "window stage (flow control + metric sampling on)",
            equivalent=False,
            chaining=True,
            autoscale=True,
        ),
        MacroEngineSpec(
            name="txn-nowait",
            description="fast path + S-Store NO-WAIT locking on the Q5 store",
            equivalent=False,
            chaining=True,
            txn_locking="nowait",
        ),
    )
}


def _query_prefix(task_name: str) -> str:
    """Attribution bucket for a task: its query, else ``shared``."""
    operator = task_name.rsplit("[", 1)[0]
    head = operator.split("-", 1)[0]
    return head if head in QUERIES else "shared"


class MacroRunner:
    """Builds, runs, measures, and judges the macro suite."""

    def __init__(
        self,
        seed: int = 0,
        scale: float = 1.0,
        configs: dict[str, MacroEngineSpec] | None = None,
    ) -> None:
        self.seed = seed
        self.scale = scale
        self.configs = configs or ENGINE_CONFIGS
        self._kind_counts: dict[str, int] | None = None

    def kind_counts(self) -> dict[str, int]:
        """Events per component kind in the composed source (deterministic,
        computed once by replaying the workload)."""
        if self._kind_counts is None:
            counts: dict[str, int] = {}
            for event in macro_workload(seed=self.seed, scale=self.scale).events():
                kind = event.value["kind"]
                counts[kind] = counts.get(kind, 0) + 1
            self._kind_counts = counts
        return self._kind_counts

    # ------------------------------------------------------------------
    def run_config(self, spec: MacroEngineSpec) -> dict[str, Any]:
        """Execute the suite once under ``spec``; returns the config cell."""
        job = build_macro_job(
            spec.engine_config(self.seed),
            seed=self.seed,
            scale=self.scale,
            txn_locking=spec.txn_locking,
        )
        engine = job.env.build()
        controller = None
        if spec.autoscale:
            from repro.load.autoscaler import AutoscaleController

            controller = AutoscaleController(
                engine,
                ["q3-win"],
                interval=0.1,
                max_parallelism=4,
                hot_group_threshold=0.6,
            )
            engine.kernel.call_soon(controller.start)
        started = time.perf_counter()
        job.env.execute()
        wall_seconds = max(time.perf_counter() - started, 1e-9)
        if controller is not None:
            controller.stop()
        return self._measure(spec, job, engine, wall_seconds, controller)

    # ------------------------------------------------------------------
    def _measure(
        self,
        spec: MacroEngineSpec,
        job: MacroJob,
        engine: Any,
        wall_seconds: float,
        controller: Any,
    ) -> dict[str, Any]:
        virtual_seconds = max(engine.kernel.now(), 1e-9)
        completed = [
            record
            for checkpoint_id, record in sorted(engine.checkpoints.items())
            if record.complete
        ]
        checkpoint_bytes: dict[str, int] = {}
        for record in completed:
            for task_name, snapshot in record.snapshots.items():
                bucket = _query_prefix(task_name)
                checkpoint_bytes[bucket] = (
                    checkpoint_bytes.get(bucket, 0) + snapshot.size_bytes()
                )
        e2e = engine.obs.latency.e2e_histograms()

        source_tasks = engine.tasks_of("macro-src")
        source_records = sum(task.metrics.records_out for task in source_tasks)
        kind_counts = self.kind_counts()

        cells: dict[str, Any] = {}
        for query in QUERIES:
            inputs = kind_counts.get(QUERY_KIND[query], 0)
            # Under chaining the terminal task carries the chain head's
            # name, so match the e2e histogram on the query prefix of its
            # destination operator rather than the sink name.
            histogram = next(
                (
                    hist
                    for label, hist in e2e.items()
                    if label.split("->", 1)[1].startswith(f"{query}-")
                ),
                None,
            )
            outputs = len(job.sink_tuples(query))
            cells[query] = {
                "inputs": inputs,
                "outputs": outputs,
                "throughput_records_per_wall_sec": round(inputs / wall_seconds, 1),
                "throughput_records_per_virtual_sec": round(inputs / virtual_seconds, 1),
                "latency_p50": histogram.quantile(0.50) if histogram else None,
                "latency_p99": histogram.quantile(0.99) if histogram else None,
                "latency_samples": histogram.count if histogram else 0,
                "checkpoint_bytes": checkpoint_bytes.get(query, 0),
                "digest": job.digest(query),
                "multiset_digest": job.multiset_digest(query),
            }

        cell: dict[str, Any] = {
            "description": spec.description,
            "flags": spec.flags(),
            "wall_seconds": round(wall_seconds, 4),
            "virtual_seconds": round(virtual_seconds, 6),
            "kernel_events": engine.kernel.dispatched_events,
            "source_records": source_records,
            "checkpoints_completed": len(completed),
            "checkpoint_bytes_total": sum(
                record.total_bytes() for record in completed
            ),
            "checkpoint_bytes_shared": checkpoint_bytes.get("shared", 0),
            "cells": cells,
        }
        if controller is not None:
            cell["autoscaler"] = {
                "rescales": controller.rescales,
                "hot_splits": controller.hot_splits,
                "moved_bytes_total": controller.moved_bytes_total,
            }
        return cell

    # ------------------------------------------------------------------
    def run(self, attempt: Any = None) -> dict[str, Any]:
        """The full sweep plus the equivalence verdicts.

        Args:
            attempt: optional timing discipline — called with a zero-arg
                runner per configuration and must return one config cell
                (the benchmark passes a GC-controlled best-of-N wrapper;
                digests are deterministic across attempts, so re-running
                only tightens the timings).
        """
        configs: dict[str, Any] = {}
        for name, spec in self.configs.items():
            run_one = lambda spec=spec: self.run_config(spec)  # noqa: E731
            configs[name] = attempt(run_one) if attempt is not None else run_one()
        equivalence = self._judge(configs)
        return {
            "benchmark": "macro_suite",
            "seed": self.seed,
            "scale": self.scale,
            "queries": {name: dict(meta) for name, meta in QUERIES.items()},
            "configs": configs,
            "equivalence": equivalence,
        }

    def _judge(self, configs: dict[str, Any]) -> dict[str, Any]:
        """Digest cross-checks; raises nothing — verdicts land in the payload
        and callers (the bench, CI) assert on them."""
        baseline_name = "seed" if "seed" in configs else next(iter(configs))
        baseline = configs[baseline_name]["cells"]
        mismatches: list[str] = []
        for name, payload in configs.items():
            if name == baseline_name:
                continue
            spec = self.configs[name]
            for query, meta in QUERIES.items():
                cell = payload["cells"][query]
                base = baseline[query]
                if spec.equivalent and meta["comparison"] == "ordered":
                    if cell["digest"] != base["digest"]:
                        mismatches.append(f"{name}/{query}: ordered digest diverged")
                elif cell["multiset_digest"] != base["multiset_digest"]:
                    # Multiset contract: same bag of outputs — except Q5
                    # under a different locking discipline, where NO-WAIT
                    # aborts can legitimately change nothing *but* commit
                    # order, so the multiset must still match.
                    mismatches.append(f"{name}/{query}: multiset digest diverged")
        return {
            "baseline": baseline_name,
            "ok": not mismatches,
            "mismatches": mismatches,
        }
