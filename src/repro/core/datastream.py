"""Fluent pipeline-building API (the gen-2 functional surface, §2.1).

Example::

    env = StreamExecutionEnvironment()
    (env.from_workload(SensorWorkload(1000), watermarks=BoundedOutOfOrderness(0.1))
        .key_by(field_selector("sensor"))
        .window(TumblingEventTimeWindows(1.0))
        .aggregate(create=lambda: 0, add=lambda a, v: a + 1, result=lambda a: a)
        .sink(CollectSink("counts")))
    result = env.execute()
"""

from __future__ import annotations

from typing import Any, Callable, Iterable

from repro.core.graph import ChannelSpec, LogicalNode, Partitioning, StreamGraph
from repro.core.keys import KeySelector
from repro.core.operators.base import Operator
from repro.core.operators.basic import (
    AggregatingOperator,
    FilterOperator,
    FlatMapOperator,
    KeyByOperator,
    MapOperator,
    ProcessOperator,
    ReduceOperator,
    SinkOperator,
    UnionOperator,
)
from repro.io.sinks import CollectSink, Sink
from repro.io.sources import CollectionWorkload, Workload
from repro.progress.watermarks import WatermarkStrategy
from repro.runtime.config import EngineConfig
from repro.runtime.engine import Engine, JobResult


class StreamExecutionEnvironment:
    """Owns the logical graph under construction and executes it."""

    def __init__(self, config: EngineConfig | None = None, name: str = "job") -> None:
        self.config = config or EngineConfig()
        self.graph = StreamGraph(name)
        self.engine: Engine | None = None
        self._name_counts: dict[str, int] = {}

    # ------------------------------------------------------------------
    def unique_name(self, base: str) -> str:
        """Deduplicate node names (``map``, ``map-1``, ...)."""
        count = self._name_counts.get(base, 0)
        self._name_counts[base] = count + 1
        return base if count == 0 else f"{base}-{count}"

    def from_workload(
        self,
        workload: Workload,
        name: str = "source",
        watermarks: WatermarkStrategy | None = None,
        parallelism: int = 1,
        heartbeat_interval: float | None = None,
    ) -> "DataStream":
        """Add a source node driven by ``workload`` with optional watermarks."""
        node = self.graph.add_node(
            self.unique_name(name),
            operator_factory=Operator,
            parallelism=parallelism,
            is_source=True,
            options={
                "workload": workload,
                "watermarks": watermarks,
                "heartbeat_interval": heartbeat_interval,
            },
        )
        return DataStream(self, node)

    def from_collection(
        self,
        values: Iterable[Any],
        name: str = "collection",
        rate: float = 10000.0,
        timestamps: Any = None,
        watermarks: WatermarkStrategy | None = None,
    ) -> "DataStream":
        """Add a finite source over ``values`` with optional timestamps."""
        workload = CollectionWorkload(values, rate=rate, timestamps=timestamps)
        return self.from_workload(workload, name=name, watermarks=watermarks)

    # ------------------------------------------------------------------
    def execute(self, until: float | None = None, max_events: int | None = None) -> JobResult:
        """Build the engine if needed and run until quiescence or ``until``."""
        if self.engine is None:
            self.engine = Engine(self.graph, self.config)
        return self.engine.run(until=until, max_events=max_events)

    def build(self, *, kernel: Any = None, registry: Any = None) -> Engine:
        """Construct (but don't run) the engine — control-plane experiments
        need the handle before time starts. The fabric passes ``kernel``
        and ``registry`` to admit the job onto shared infrastructure."""
        if self.engine is None:
            self.engine = Engine(
                self.graph, self.config, kernel=kernel, registry=registry
            )
        return self.engine


class DataStream:
    """A logical stream: the output of ``node`` inside ``env``."""

    def __init__(
        self,
        env: StreamExecutionEnvironment,
        node: LogicalNode,
        partitioning: Partitioning | None = None,
    ) -> None:
        self.env = env
        self.node = node
        #: partitioning to apply on the NEXT edge (set by key_by / rebalance)
        self._next_partitioning = partitioning

    # ------------------------------------------------------------------
    def _connect(
        self,
        name: str,
        operator_factory: Callable[[], Operator],
        parallelism: int | None = None,
        processing_cost: float | None = None,
        state_backend_factory: Callable[[], Any] | None = None,
        channel: ChannelSpec | None = None,
        partitioning: Partitioning | None = None,
        options: dict[str, Any] | None = None,
    ) -> "DataStream":
        parallelism = parallelism if parallelism is not None else self.node.parallelism
        part = partitioning or self._next_partitioning
        if part is None:
            part = (
                Partitioning.FORWARD
                if parallelism == self.node.parallelism
                else Partitioning.REBALANCE
            )
        new_node = self.env.graph.add_node(
            self.env.unique_name(name),
            operator_factory=operator_factory,
            parallelism=parallelism,
            processing_cost=processing_cost,
            state_backend_factory=state_backend_factory,
            options=options,
        )
        self.env.graph.add_edge(self.node, new_node, partitioning=part, channel=channel)
        return DataStream(self.env, new_node)

    # ------------------------------------------------------------------
    # transformations
    # ------------------------------------------------------------------
    def map(
        self,
        fn: Callable[[Any], Any],
        name: str = "map",
        batch_fn: Callable[[list], list] | None = None,
        **kwargs: Any,
    ) -> "DataStream":
        """Transform each value with ``fn``.

        ``batch_fn(values) -> values`` vectorizes the columnar path; it must
        produce exactly ``[fn(v) for v in values]``.
        """
        return self._connect(name, lambda: MapOperator(fn, name, batch_fn=batch_fn), **kwargs)

    def filter(
        self,
        predicate: Callable[[Any], bool],
        name: str = "filter",
        batch_predicate: Callable[[list], Any] | None = None,
        **kwargs: Any,
    ) -> "DataStream":
        """Keep values satisfying ``predicate``.

        ``batch_predicate(values) -> mask`` vectorizes the columnar path; it
        must keep exactly the rows ``predicate`` keeps, and may raise to fall
        back to the scalar predicate.
        """
        return self._connect(
            name, lambda: FilterOperator(predicate, name, batch_predicate=batch_predicate), **kwargs
        )

    def flat_map(self, fn: Callable[[Any], Iterable[Any]], name: str = "flat_map", **kwargs: Any) -> "DataStream":
        """Expand each value into zero or more values."""
        return self._connect(name, lambda: FlatMapOperator(fn, name), **kwargs)

    def process(
        self,
        fn: Callable[..., None],
        on_timer: Callable[..., None] | None = None,
        name: str = "process",
        **kwargs: Any,
    ) -> "DataStream":
        """Attach a low-level (record, ctx) handler with state/timer access."""
        return self._connect(name, lambda: ProcessOperator(fn, on_timer, name), **kwargs)

    def apply_operator(self, operator_factory: Callable[[], Operator], name: str = "op", **kwargs: Any) -> "DataStream":
        """Attach a custom operator (window, CEP, OOO buffer, ...)."""
        return self._connect(name, operator_factory, **kwargs)

    def transact(
        self,
        body: Callable[[Any, Any], Any],
        keys_fn: Callable[[Any], Any] | None = None,
        store: Any = None,
        name: str = "transact",
        parallelism: int | None = None,
        op_id_fn: Callable[[Any], Any] | None = None,
        txn_config: Any = None,
        partitions: int | None = None,
        **kwargs: Any,
    ) -> "DataStream":
        """Run each record as one ACID transaction over shared state.

        ``body(handle, value)`` reads/writes a :class:`~repro.txn.store.
        TxnStateStore` shared by all subtasks of this node, atomically and
        serializably; ``keys_fn(value) -> (read_keys, write_keys)`` declares
        the key set (required for ordered locking). Pass ``store`` to share
        an existing store or keep a handle; otherwise one is created with
        ``partitions`` (default: the node's parallelism) and ``txn_config``.
        The node is excluded from operator chaining — the runtime drives
        its barrier fence and deferred commits directly.
        """
        from repro.txn.operator import TransactOperator
        from repro.txn.store import TxnConfig, TxnStateStore

        parallelism = parallelism if parallelism is not None else self.node.parallelism
        if store is None:
            store = TxnStateStore(
                self.env.unique_name(f"{name}-store"),
                partitions=partitions if partitions is not None else max(1, parallelism),
                config=txn_config or TxnConfig(),
            )
        options = dict(kwargs.pop("options", None) or {})
        options["no_chain"] = True
        stream = self._connect(
            name,
            lambda: TransactOperator(store, body, keys_fn, op_id_fn, name),
            parallelism=parallelism,
            options=options,
            **kwargs,
        )
        stream.txn_store = store
        return stream

    def key_by(self, selector: KeySelector, name: str = "key_by", parallelism: int | None = None) -> "KeyedStream":
        """Partition the stream by ``selector``; downstream edges use HASH routing."""
        stream = self._connect(
            name,
            lambda: KeyByOperator(selector, name),
            parallelism=parallelism if parallelism is not None else self.node.parallelism,
            processing_cost=0.0,
        )
        return KeyedStream(stream.env, stream.node)

    def rebalance(self) -> "DataStream":
        """Route the next edge round-robin across subtasks."""
        return DataStream(self.env, self.node, partitioning=Partitioning.REBALANCE)

    def broadcast(self) -> "DataStream":
        """Route the next edge to every downstream subtask."""
        return DataStream(self.env, self.node, partitioning=Partitioning.BROADCAST)

    def union(self, *others: "DataStream", name: str = "union", parallelism: int | None = None) -> "DataStream":
        """Merge this stream with ``others`` into one stream."""
        parallelism = parallelism if parallelism is not None else self.node.parallelism
        node = self.env.graph.add_node(
            self.env.unique_name(name), UnionOperator, parallelism=parallelism, processing_cost=0.0
        )
        for stream in (self, *others):
            part = (
                Partitioning.FORWARD
                if stream.node.parallelism == parallelism
                else Partitioning.REBALANCE
            )
            self.env.graph.add_edge(stream.node, node, partitioning=part)
        return DataStream(self.env, node)

    def sink(self, sink: Sink | None = None, name: str = "sink", **kwargs: Any) -> Sink:
        """Terminate the stream into ``sink`` (a CollectSink by default); returns the sink."""
        if sink is None:
            sink = CollectSink(self.env.unique_name(name))
        self._connect(getattr(sink, "name", name), lambda: SinkOperator(sink, name), **kwargs)
        return sink

    def collect(self, name: str = "collect") -> CollectSink:
        """Shortcut: attach and return a CollectSink."""
        sink = CollectSink(self.env.unique_name(name))
        self.sink(sink)
        return sink


class KeyedStream(DataStream):
    """A stream partitioned by key; next edge uses HASH partitioning."""

    def __init__(self, env: StreamExecutionEnvironment, node: LogicalNode) -> None:
        super().__init__(env, node, partitioning=Partitioning.HASH)

    def _connect(self, *args: Any, **kwargs: Any) -> DataStream:
        kwargs.setdefault("partitioning", Partitioning.HASH)
        return super()._connect(*args, **kwargs)

    def reduce(self, fn: Callable[[Any, Any], Any], name: str = "reduce", **kwargs: Any) -> DataStream:
        """Keyed rolling reduce: emits the running aggregate per key."""
        return self._connect(name, lambda: ReduceOperator(fn, name), **kwargs)

    def aggregate(
        self,
        create: Callable[[], Any],
        add: Callable[[Any, Any], Any],
        result: Callable[[Any], Any] = lambda acc: acc,
        name: str = "aggregate",
        **kwargs: Any,
    ) -> DataStream:
        """Keyed incremental aggregate with (create, add, result) and optional session ``merge``."""
        return self._connect(name, lambda: AggregatingOperator(create, add, result, name), **kwargs)

    def window(self, assigner: Any, trigger: Any = None, evictor: Any = None, allowed_lateness: float = 0.0) -> "WindowedStream":
        """Assign elements to windows; returns a :class:`WindowedStream`."""
        from repro.windows.stream import WindowedStream  # local import: layer cycle

        return WindowedStream(self, assigner, trigger, evictor, allowed_lateness)

    def pattern(self, pattern: Any, name: str = "cep", **kwargs: Any) -> DataStream:
        """Apply a CEP pattern (survey CEP era) on this keyed stream."""
        from repro.cep.operator import CEPOperator  # local import: layer cycle

        return self._connect(name, lambda: CEPOperator(pattern, name=name), **kwargs)
