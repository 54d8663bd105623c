"""Snapshot and restore, one operator or backend at a time: feed a prefix,
snapshot, restore into a fresh instance, feed the suffix, and the output
(main and side) equals an uninterrupted run's. Covers the recovery code no
engine run restores: the K-slack buffer, both punctuation operators, the
graph operator, the accelerator's micro-batch, and the external backend
(a fresh client of the same store, and a store loaded from an in-memory
snapshot)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import pytest

from helpers import StubContext

from repro.core.events import Punctuation, Record, Watermark
from repro.core.operators.base import Operator, OperatorContext
from repro.graphs.operator import GraphStreamOperator
from repro.graphs.paths import IncrementalSSSP
from repro.hardware.accel import AcceleratorModel, MicroBatchAcceleratedOperator
from repro.progress.ooo import KSlackBufferOperator
from repro.progress.punctuations import PunctuationFilter, PunctuationInjector
from repro.state import InMemoryStateBackend, ValueStateDescriptor
from repro.state.external import ExternalStateBackend, RemoteStore


class KeyedCount(Operator):
    """Counts records per key in keyed state and emits the running count."""

    COUNT = ValueStateDescriptor("count", default=0)

    def process(self, record: Record, ctx: OperatorContext) -> None:
        state = ctx.state(self.COUNT)
        state.update(state.value() + 1)
        ctx.emit(record.with_value((record.key, state.value())))


@dataclass
class Case:
    operator: Callable[[], Operator]
    elements: list
    #: backend of the uninterrupted run and of the first half
    backend: Callable[[], Any] = InMemoryStateBackend
    #: the fresh backend the second half restores into, given the first
    restored: Callable[[Any], Any] = lambda _first: InMemoryStateBackend()


def _records(values, times=None, key=None):
    times = times if times is not None else range(len(values))
    return [Record(value=v, event_time=float(t), key=key) for v, t in zip(values, times)]


def _keyed(pairs):
    return [Record(value=i, event_time=float(i), key=k) for i, k in enumerate(pairs)]


def _edges(pairs):
    return _records([{"u": u, "v": v, "weight": w} for u, v, w in pairs])


CASES = {
    # equal event times on both sides of the cut: release order is arrival order
    "k-slack": Case(
        lambda: KSlackBufferOperator(initial_k=0.0),
        _records(range(14), [1, 4, 2, 2, 6, 4, 4, 3, 8, 6, 6, 9, 7, 11]),
    ),
    "punctuation-injector": Case(
        lambda: PunctuationInjector(every_n=3, disorder_bound=1.0),
        _records(range(11), [0, 2, 1, 3, 5, 4, 6, 8, 7, 9, 10]),
    ),
    "punctuation-filter": Case(
        PunctuationFilter,
        [
            *_records(range(3), [1, 2, 3]),
            Punctuation(attribute="event_time", bound=2.0),
            *_records(range(3, 6), [2, 4, 1]),
            Punctuation(attribute="event_time", bound=5.0),
            *_records(range(6, 9), [5, 7, 3]),
        ],
    ),
    "graph": Case(
        lambda: GraphStreamOperator(IncrementalSSSP(0), lambda algo, _ev: algo.distance(4)),
        _edges([(0, 1, 1.0), (1, 2, 2.0), (2, 4, 1.0), (0, 3, 5.0), (3, 4, 0.5), (0, 2, 1.0)]),
    ),
    "micro-batch": Case(
        lambda: MicroBatchAcceleratedOperator(lambda values: [sum(values)], 3, AcceleratorModel()),
        [*_records(range(5)), Watermark(4.5), *_records(range(5, 12), range(5, 12))],
    ),
    "external-backend": Case(
        KeyedCount,
        _keyed("abacbbcaab"),
        backend=lambda: ExternalStateBackend(RemoteStore()),
        # the store outlives the task: a fresh client of the same store
        restored=lambda first: ExternalStateBackend(first._store),
    ),
    "external-from-in-memory": Case(
        KeyedCount,
        _keyed("abacbbcaab"),
        restored=lambda _first: ExternalStateBackend(RemoteStore()),
    ),
}


def _feed(operator: Operator, ctx: StubContext, elements: list) -> None:
    for element in elements:
        if isinstance(element, Record):
            ctx.current_key_value = element.key
            operator.process(element, ctx)
        elif isinstance(element, Watermark):
            operator.on_watermark(element, ctx)
        else:
            operator.on_punctuation(element, ctx)


def _uninterrupted(case: Case) -> StubContext:
    ctx = StubContext(case.backend())
    operator = case.operator()
    operator.open(ctx)
    _feed(operator, ctx, case.elements)
    operator.flush(ctx)
    return ctx


def _resumed(case: Case, cut: int) -> StubContext:
    ctx = StubContext(case.backend())
    operator = case.operator()
    operator.open(ctx)
    _feed(operator, ctx, case.elements[:cut])
    operator_state, keyed_state = operator.snapshot_state(), ctx.backend.snapshot()

    # the restored half writes on after what the first half emitted
    resumed = StubContext(case.restored(ctx.backend))
    resumed.emitted, resumed.side = ctx.emitted, ctx.side
    fresh = case.operator()
    fresh.open(resumed)
    resumed.backend.restore(keyed_state)
    fresh.restore_state(operator_state)
    _feed(fresh, resumed, case.elements[cut:])
    fresh.flush(resumed)
    return resumed


@pytest.mark.parametrize("name", sorted(CASES))
def test_restore_continues_an_uninterrupted_run(name):
    case = CASES[name]
    expected = _uninterrupted(case)
    assert expected.emitted
    for cut in range(1, len(case.elements)):
        got = _resumed(case, cut)
        assert (got.emitted, got.side) == (expected.emitted, expected.side), cut
