"""``EngineConfig``: the values that switch a mode on and the values it
refuses; and the pin of every config class's settable values, which the
README knob tables must name."""

import dataclasses
import inspect
import os
import re
import sys

import pytest

from repro.chaos.schedule import PaletteConfig
from repro.core.datastream import StreamExecutionEnvironment
from repro.core.graph import ChannelSpec
from repro.errors import GraphError
from repro.fabric.config import FabricConfig
from repro.io import CollectSink, CollectionWorkload
from repro.runtime.config import CheckpointConfig, EngineConfig
from repro.sim.kernel import Kernel
from repro.supervision.supervisor import SupervisorConfig
from repro.txn.store import TxnConfig

_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
if _ROOT not in sys.path:
    sys.path.insert(0, _ROOT)
from perf.workloads import engine_config  # noqa: E402 - the benchmark's profiles, read only

RECORDS = 256


def _run(config):
    """src → map → sink over ``RECORDS`` records; returns (engine, sink)."""
    env = StreamExecutionEnvironment(config)
    sink = CollectSink("out")
    env.from_workload(CollectionWorkload(list(range(RECORDS)), rate=10000.0), name="src").map(
        lambda v: v + 1, name="inc"
    ).sink(sink)
    engine = env.build()
    env.execute(until=10.0)
    return engine, sink


#: every settable value of the config classes and of the kernel: a new knob
#: edits this pin, and DESIGN.md ("Knobs that stay") names who sets it
KNOBS = {
    EngineConfig: [
        "seed",
        "default_processing_cost",
        "default_channel_capacity",
        "state_backend_factory",
        "checkpoints",
        "guarantee",
        "chaining_enabled",
        "columnar_batch_size",
        "latency_marker_period",
        "trace_sample_rate",
        "profiling_enabled",
    ],
    CheckpointConfig: [
        "interval",
        "mode",
        "write_cost_per_byte",
        "write_base_cost",
        "incremental",
        "max_chain_length",
        "timeout",
    ],
    TxnConfig: ["locking", "max_retries"],
    SupervisorConfig: ["strategy_factory"],
    FabricConfig: ["slots", "quantum", "horizon", "max_events"],
    PaletteConfig: [
        "kinds",
        "min_faults",
        "max_faults",
        "window",
        "max_magnitude",
        "rescale_targets",
        "rescale_max_parallelism",
    ],
    Kernel: ["clock", "same_time_bucket", "compact_min_dead"],
}

#: README knob-table sections, by the class whose settings they list
README_TABLES = {
    "Fast-path dispatch knobs": EngineConfig,
    "Columnar execution knobs": EngineConfig,
    "Observability knobs": EngineConfig,
    "Incremental checkpointing knobs": CheckpointConfig,
    "Transactional state knobs": TxnConfig,
    "Supervised recovery knobs": SupervisorConfig,
    "Multi-tenant fabric knobs": FabricConfig,
}


def _settable(cls) -> list[str]:
    if dataclasses.is_dataclass(cls):
        return [f.name for f in dataclasses.fields(cls)]
    return [name for name in inspect.signature(cls.__init__).parameters if name != "self"]


def test_fields():
    assert {cls: _settable(cls) for cls in KNOBS} == KNOBS


def _readme_rows():
    """(section, knob name) for each row of the README knob tables above; a
    row naming another callable (``submit(env, weight=...)``) is skipped."""
    section = None
    with open(os.path.join(_ROOT, "README.md"), encoding="utf-8") as handle:
        for line in handle:
            if line.startswith("#"):
                section = next((s for s in README_TABLES if s in line), None)
            elif section is not None and line.startswith("| `"):
                owner = README_TABLES[section].__name__
                for token in re.findall(r"`([^`]*)`", line.split("|")[1]):
                    call = re.fullmatch(r"(\w+)\((\w+)=\.\.\.\)", token)
                    if call is not None and call.group(1) == owner:
                        yield section, call.group(2)
                    elif re.fullmatch(r"\w+", token):
                        yield section, token


def test_readme_knob_rows_name_pinned_fields():
    rows = list(_readme_rows())
    assert {section for section, _ in rows} == set(README_TABLES)
    stale = [(s, name) for s, name in rows if name not in KNOBS[README_TABLES[s]]]
    assert not stale


def test_a_capacity_bounds_every_unspecified_channel():
    engine, sink = _run(EngineConfig(default_channel_capacity=2))
    assert "capacity=2" in engine.plan.describe()
    assert sink.values() == list(range(1, RECORDS + 1))


def test_zero_capacity_is_refused():
    with pytest.raises(ValueError, match="default_channel_capacity"):
        EngineConfig(default_channel_capacity=0)


@pytest.mark.parametrize("size", [0, -3])
def test_batch_size_below_one_is_refused(size):
    with pytest.raises(ValueError, match="columnar_batch_size"):
        EngineConfig(columnar_batch_size=size)


def test_edge_capacity_below_one_is_refused_at_build():
    env = StreamExecutionEnvironment(EngineConfig())
    env.from_workload(CollectionWorkload([1, 2, 3]), name="src").sink(CollectSink("out"))
    env.graph.edges[0].channel = ChannelSpec(capacity=0)
    with pytest.raises(GraphError, match="capacity"):
        env.build()


@pytest.mark.parametrize(
    "profile, batching", [("columnar", True), ("scalar", False), ("flags_off", False)]
)
def test_perf_profiles_batch_only_where_a_batch_size_is_set(profile, batching):
    config, _applied = engine_config(profile)
    engine, sink = _run(config)
    assert sink.values() == list(range(1, RECORDS + 1))
    # a per-record source arms one emission event per record; a batching
    # one arms one per batch of 64
    events = engine.kernel.dispatched_events
    assert (events < RECORDS / 4) if batching else (events > RECORDS)
