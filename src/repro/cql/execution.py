"""Continuous query execution.

Two execution paths, mirroring the survey's framing:

* :class:`ContinuousQuery` — the first-generation DSMS interpreter:
  instant-by-instant evaluation with exact CQL semantics;
* :func:`compile_to_dataflow` — the third-generation bridge: a supported
  CQL subset (single stream, RANGE/SLIDE window, GROUP BY + aggregates)
  compiles onto the modern dataflow runtime (experiment E19's "one SQL to
  rule them all" claim).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.cql.ast import Aggregate, Query, StreamOp, WindowKind
from repro.cql.parser import parse_query
from repro.cql.relations import WindowRelation, bag_diff, evaluate, instant_result
from repro.errors import CQLSemanticError


@dataclass(frozen=True)
class OutputTuple:
    timestamp: float
    value: dict
    kind: str = "insert"  # insert | delete (DSTREAM)


class ContinuousQuery:
    """Interprets a CQL query over timestamped input streams.

    Usage::

        q = ContinuousQuery("SELECT ISTREAM * FROM bids RANGE 60 WHERE price > 10")
        out = q.run({"bids": [(0.0, {"price": 12}), (1.0, {"price": 5})]})
    """

    def __init__(self, text: str) -> None:
        self.text = text
        self.query: Query = parse_query(text)
        bindings = [item.binding for item in self.query.sources]
        if len(set(bindings)) != len(bindings):
            raise CQLSemanticError(f"duplicate FROM bindings in {text!r}")

    def run(self, streams: dict[str, list[tuple[float, dict]]]) -> list[OutputTuple]:
        """Evaluate over finite inputs; returns the output stream."""
        for item in self.query.sources:
            if item.stream not in streams:
                raise CQLSemanticError(f"no input provided for stream {item.stream!r}")
        windows = {item.binding: WindowRelation(item.window) for item in self.query.sources}
        # Interleave all inputs by timestamp (stable by stream order).
        arrivals: list[tuple[float, str, dict]] = []
        for item in self.query.sources:
            for timestamp, value in streams[item.stream]:
                arrivals.append((timestamp, item.binding, value))
        arrivals.sort(key=lambda a: a[0])

        outputs: list[OutputTuple] = []
        previous: list[dict] = []
        index = 0
        while index < len(arrivals):
            timestamp = arrivals[index][0]
            while index < len(arrivals) and arrivals[index][0] == timestamp:
                _t, binding, value = arrivals[index]
                windows[binding].insert(timestamp, value)
                index += 1
            relations = {
                binding: window.contents_at(timestamp) for binding, window in windows.items()
            }
            current = instant_result(self.query, relations)
            outputs.extend(self._stream_result(timestamp, current, previous))
            previous = current
        return outputs

    def _stream_result(
        self, timestamp: float, current: list[dict], previous: list[dict]
    ) -> list[OutputTuple]:
        op = self.query.stream_op
        if op is StreamOp.ISTREAM:
            return [OutputTuple(timestamp, t) for t in bag_diff(current, previous)]
        if op is StreamOp.DSTREAM:
            return [
                OutputTuple(timestamp, t, kind="delete") for t in bag_diff(previous, current)
            ]
        # RSTREAM and bare relations both emit the full instantaneous result.
        return [OutputTuple(timestamp, t) for t in current]


# --------------------------------------------------------------------------
# dataflow bridge
# --------------------------------------------------------------------------
def compile_to_dataflow(
    text: str,
    env: Any,
    workload: Any,
    watermarks: Any = None,
    parallelism: int = 1,
) -> Any:
    """Compile a supported CQL query onto the DataStream runtime.

    Supported shape: single stream, ``RANGE w SLIDE s`` (or RANGE w,
    slide defaults to w → tumbling), optional WHERE, GROUP BY one column
    with aggregate select items. Returns the resulting DataStream.
    """
    from repro.core.keys import field_selector
    from repro.windows.assigners import SlidingEventTimeWindows, TumblingEventTimeWindows
    from repro.windows.operator import ProcessWindowFunction, WindowOperator

    query = parse_query(text)
    if len(query.sources) != 1:
        raise CQLSemanticError("dataflow bridge supports exactly one input stream")
    source_item = query.sources[0]
    if source_item.window.kind is not WindowKind.RANGE:
        raise CQLSemanticError("dataflow bridge requires a RANGE window")
    if not query.group_by or len(query.group_by) != 1:
        raise CQLSemanticError("dataflow bridge requires GROUP BY one column")

    size = float(source_item.window.size)
    slide = source_item.window.slide or size
    assigner = (
        TumblingEventTimeWindows(size)
        if slide == size
        else SlidingEventTimeWindows(size, slide)
    )
    stream = env.from_workload(workload, name=source_item.stream, watermarks=watermarks)
    binding = source_item.binding
    if query.where is not None:
        where = query.where
        stream = stream.filter(lambda v: bool(evaluate(where, {binding: v})), name="cql-where")
    group_col = query.group_by[0]
    keyed = stream.key_by(field_selector(group_col.name), name="cql-group", parallelism=parallelism)

    select = query.select

    def window_fn(key: Any, window: Any, values: list[Any]) -> dict:
        rows = [{binding: v} for v in values]
        sample = rows[0]
        out: dict = {}
        for index, item in enumerate(select):
            from repro.cql.relations import _eval_select_with_aggregates

            out[item.output_name(index)] = _eval_select_with_aggregates(item.expr, rows, sample)
        return out

    return keyed._connect(
        "cql-window",
        lambda: WindowOperator(assigner, ProcessWindowFunction(window_fn), name="cql-window"),
        parallelism=parallelism,
    )


def explain(text: str) -> str:
    """Human-readable plan summary for a CQL query (docs/tests)."""
    query = parse_query(text)
    lines = [f"StreamOp: {query.stream_op.name}"]
    for item in query.sources:
        window = item.window
        desc = window.kind.name
        if window.size is not None:
            desc += f"({window.size}"
            desc += f", slide={window.slide})" if window.slide else ")"
        lines.append(f"From: {item.stream} [{desc}] as {item.binding}")
    if query.where is not None:
        lines.append("Where: yes")
    if query.group_by:
        lines.append("GroupBy: " + ", ".join(c.display for c in query.group_by))
    lines.append(f"Aggregate: {query.is_aggregate}")
    return "\n".join(lines)
