"""Executable Figure 1: the three generations as engine profiles.

Each :class:`GenerationProfile` bundles the era's design decisions into an
engine configuration plus pipeline-building conventions:

* **gen1** ('92–'03, DBs → DSMSs): scale-up (parallelism 1), ordered
  streams via slack buffers, best-effort processing with load shedding,
  synopses/approximate state, CQL-style queries, no fault tolerance;
* **gen2** ('04–'17, scalable data streaming): shared-nothing scale-out,
  out-of-order processing with watermarks, partitioned managed state,
  aligned checkpoints, backpressure;
* **gen3** ('18–, beyond analytics): gen2 plus transactions, exactly-once
  sinks, queryable state, stateful functions, dynamic topologies, elastic
  reconfiguration, hardware-conscious operators.

The F1 benchmark runs one shared analytics workload under all three and
probes each capability, regenerating the figure's structure as a table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.core.datastream import StreamExecutionEnvironment
from repro.core.keys import field_selector
from repro.io.sinks import CollectSink, TransactionalSink
from repro.io.sources import Workload
from repro.progress.slack import SlackReorderOperator
from repro.progress.watermarks import BoundedOutOfOrderness, NoWatermarks
from repro.load.shedding import RandomShedder
from repro.runtime.config import CheckpointConfig, CheckpointMode, EngineConfig, GuaranteeLevel
from repro.windows.assigners import TumblingEventTimeWindows
from repro.windows.triggers import PunctuationTrigger


@dataclass(frozen=True)
class GenerationProfile:
    key: str
    title: str
    era: str
    focus: tuple[str, ...]
    systems: tuple[str, ...]
    capabilities: dict[str, bool] = field(default_factory=dict, hash=False)

    def config(self, seed: int = 0) -> EngineConfig:
        """The engine configuration embodying this era's design choices."""
        if self.key == "gen1":
            return EngineConfig(seed=seed, checkpoints=None,
                                guarantee=GuaranteeLevel.AT_MOST_ONCE)
        if self.key == "gen2":
            return EngineConfig(
                seed=seed,
                default_channel_capacity=64,
                checkpoints=CheckpointConfig(interval=0.5, mode=CheckpointMode.ALIGNED),
                guarantee=GuaranteeLevel.AT_LEAST_ONCE,
            )
        return EngineConfig(
            seed=seed,
            default_channel_capacity=64,
            checkpoints=CheckpointConfig(interval=0.5, mode=CheckpointMode.ALIGNED),
            guarantee=GuaranteeLevel.EXACTLY_ONCE,
        )


CAPABILITIES = [
    "continuous-queries",
    "sliding-windows",
    "cep",
    "load-shedding",
    "scale-out",
    "out-of-order",
    "managed-state",
    "processing-guarantees",
    "backpressure",
    "elasticity",
    "transactions",
    "queryable-state",
    "stateful-functions",
    "dynamic-topologies",
    "state-versioning",
    "hardware-acceleration",
]

GEN1 = GenerationProfile(
    key="gen1",
    title="1st gen: From DBs to DSMSs",
    era="'92-'03",
    focus=("synopses", "continuous queries", "sliding windows", "CEP",
           "best-effort processing", "load shedding"),
    systems=("Tapestry", "TelegraphCQ", "STREAM", "NiagaraCQ", "Aurora/Borealis", "Gigascope"),
    capabilities={c: c in {
        "continuous-queries", "sliding-windows", "cep", "load-shedding",
    } for c in CAPABILITIES},
)

GEN2 = GenerationProfile(
    key="gen2",
    title="2nd gen: Scalable Data Streaming",
    era="'04-'17",
    focus=("out-of-order processing", "state management", "scalability",
           "processing guarantees", "reconfiguration", "stream SQL"),
    systems=("MapReduce", "Spark Streaming", "Storm", "S4", "Naiad", "MillWheel/Dataflow",
             "Flink/Beam", "Samza", "Kafka Streams", "S-Store", "Apex"),
    capabilities={c: c in {
        "continuous-queries", "sliding-windows", "cep", "scale-out", "out-of-order",
        "managed-state", "processing-guarantees", "backpressure", "elasticity",
    } for c in CAPABILITIES},
)

GEN3 = GenerationProfile(
    key="gen3",
    title="3rd gen: Beyond Analytics",
    era="'18-",
    focus=("model serving", "dynamic plans", "cloud apps", "hardware acceleration",
           "microservices", "actors", "transactions"),
    systems=("Ray", "Arcon", "Stateful Functions", "Neptune", "Ambrosia"),
    capabilities={c: c != "load-shedding" for c in CAPABILITIES},
)

GENERATIONS = [GEN1, GEN2, GEN3]


@dataclass
class PipelineArtifacts:
    env: StreamExecutionEnvironment
    sink: Any
    extras: dict[str, Any] = field(default_factory=dict)


def build_analytics_pipeline(
    profile: GenerationProfile, workload: Workload, seed: int = 0
) -> PipelineArtifacts:
    """The shared Figure-1 workload: per-key tumbling window counts over a
    disordered stream, built the way each era would."""
    env = StreamExecutionEnvironment(profile.config(seed), name=f"{profile.key}-analytics")
    extras: dict[str, Any] = {}
    if profile.key == "gen1":
        # Scale-up, ordered ingestion via slack, best-effort shedding,
        # punctuation-driven windows; no watermarks, no checkpoints.
        shedder = RandomShedder(seed=seed, activate_at=128, target_queue=64, pressure_node="slack")
        extras["shedder"] = shedder
        slack = SlackReorderOperator(slack=64)
        extras["slack"] = slack
        sink = CollectSink("gen1-out")
        (
            env.from_workload(workload, name="src", watermarks=NoWatermarks())
            .apply_operator(lambda: shedder, name="shed")
            .apply_operator(lambda: slack, name="slack")
            .key_by(field_selector("key"))
            .window(TumblingEventTimeWindows(0.5), trigger=PunctuationTrigger())
            .count()
            .sink(sink)
        )
        return PipelineArtifacts(env, sink, extras)
    parallelism = 4
    sink: Any
    if profile.key == "gen3":
        sink = TransactionalSink("gen3-out")
    else:
        sink = CollectSink(f"{profile.key}-out")
    (
        env.from_workload(workload, name="src", watermarks=BoundedOutOfOrderness(0.1))
        .key_by(field_selector("key"), parallelism=parallelism)
        .window(TumblingEventTimeWindows(0.5))
        .count(parallelism=parallelism)
        .sink(sink, parallelism=1)
    )
    return PipelineArtifacts(env, sink, extras)


def capability_row(profile: GenerationProfile) -> dict[str, Any]:
    """One printable row of the Figure-1 capability matrix."""
    row: dict[str, Any] = {"generation": profile.title, "era": profile.era}
    for capability in CAPABILITIES:
        row[capability] = "X" if profile.capabilities.get(capability) else ""
    return row
