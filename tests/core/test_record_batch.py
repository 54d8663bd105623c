"""RecordBatch: the columnar transport unit, and the batch operator paths.

Two contracts under test: a batch is observably equivalent to the list of
records it carries (explode/rebuild round-trips), and every operator's
``process_batch`` — vectorized or the default scalar fallback — emits
exactly what per-record ``process`` calls would."""

from helpers import StubContext
from hypothesis import given
from hypothesis import strategies as st

from repro.core.events import Record, RecordBatch, Watermark
from repro.core.operators.base import Operator
from repro.core.operators.basic import (
    AggregatingOperator,
    FilterOperator,
    FlatMapOperator,
    KeyByOperator,
    MapOperator,
    ReduceOperator,
)


def make_batch():
    return RecordBatch(
        values=[10, 11, 12, 13],
        event_times=[0.1, 0.2, 0.3, 0.4],
        keys=["a", "b", "a", "b"],
    )


class TestRecordBatchStructure:
    def test_round_trips_through_records(self):
        batch = make_batch()
        rebuilt = RecordBatch.from_records(list(batch.records()))
        assert list(rebuilt.records()) == list(batch.records())
        assert len(rebuilt) == 4

    @given(
        st.lists(
            st.builds(
                Record,
                st.integers(),
                st.none() | st.floats(allow_nan=False),
                st.none() | st.integers(),
                st.sampled_from([1, -1]),
                st.none() | st.floats(allow_nan=False),
            ),
            max_size=6,
        )
    )
    def test_explode_is_the_inverse_of_rebuild(self, rows):
        batch = RecordBatch.from_records(rows)
        exploded = list(batch.records())
        assert exploded == rows
        assert all(type(r) is Record and r.trace is None for r in exploded)
        assert [batch.record_at(i) for i in range(len(batch))] == rows

    def test_from_records_normalises_trivial_columns(self):
        records = [Record(value=i) for i in range(3)]
        batch = RecordBatch.from_records(records)
        assert batch.event_times is None
        assert batch.keys is None
        assert batch.signs is None
        assert [r.value for r in batch.records()] == [0, 1, 2]
        assert all(r.sign == 1 and r.key is None for r in batch.records())

    def test_record_at_preserves_all_fields(self):
        batch = make_batch()
        record = batch.record_at(2)
        assert (record.value, record.event_time, record.key) == (12, 0.3, "a")
        assert record.sign == 1

    def test_select_and_mask(self):
        batch = make_batch()
        picked = batch.select([0, 3])
        assert [r.value for r in picked.records()] == [10, 13]
        assert [r.key for r in picked.records()] == ["a", "b"]
        masked = batch.select_mask([True, False, True, False])
        assert [r.value for r in masked.records()] == [10, 12]

    def test_with_values_and_keys(self):
        batch = make_batch()
        doubled = batch.with_values([v * 2 for v in batch.values])
        assert [r.value for r in doubled.records()] == [20, 22, 24, 26]
        assert [r.event_time for r in doubled.records()] == [0.1, 0.2, 0.3, 0.4]
        rekeyed = batch.with_keys([0, 1, 0, 1])
        assert [r.key for r in rekeyed.records()] == [0, 1, 0, 1]

    def test_replicate_expands_rows(self):
        batch = make_batch()
        out = batch.replicate([0, 0, 2], ["x", "y", "z"])
        assert [r.value for r in out.records()] == ["x", "y", "z"]
        assert [r.event_time for r in out.records()] == [0.1, 0.1, 0.3]
        assert [r.key for r in out.records()] == ["a", "a", "a"]


def scalar_reference(operator_factory, elements):
    """Feed elements one record at a time; return emitted elements.

    Mirrors the runtime contract: the current key is bound to each
    record's key before ``process`` runs."""
    op = operator_factory()
    ctx = StubContext()
    for element in elements:
        if isinstance(element, Record):
            ctx.current_key_value = element.key
        op.on_element(element, ctx)
    return ctx.emitted


def batched_run(operator_factory, batch):
    op = operator_factory()
    ctx = StubContext()
    op.on_element(batch, ctx)
    return ctx.emitted


def exploded(emitted):
    out = []
    for element in emitted:
        if isinstance(element, RecordBatch):
            out.extend(element.records())
        else:
            out.append(element)
    return out


class TestOperatorBatchPaths:
    def test_map_vectorized_matches_scalar(self):
        batch = make_batch()
        fast = batched_run(
            lambda: MapOperator(lambda v: v + 1, "m", batch_fn=lambda vs: [v + 1 for v in vs]),
            batch,
        )
        slow = scalar_reference(lambda: MapOperator(lambda v: v + 1, "m"), batch.records())
        assert exploded(fast) == slow

    def test_filter_vectorized_matches_scalar(self):
        batch = make_batch()
        fast = batched_run(
            lambda: FilterOperator(
                lambda v: v % 2 == 0, "f", batch_predicate=lambda vs: [v % 2 == 0 for v in vs]
            ),
            batch,
        )
        slow = scalar_reference(lambda: FilterOperator(lambda v: v % 2 == 0, "f"), batch.records())
        assert exploded(fast) == slow

    def test_filter_falls_back_when_batch_predicate_raises(self):
        batch = make_batch()

        def broken(_values):
            raise TypeError("not vectorizable after all")

        fast = batched_run(
            lambda: FilterOperator(lambda v: v > 10, "f", batch_predicate=broken), batch
        )
        slow = scalar_reference(lambda: FilterOperator(lambda v: v > 10, "f"), batch.records())
        assert exploded(fast) == slow

    def test_flat_map_replicates_origin_metadata(self):
        batch = make_batch()
        factory = lambda: FlatMapOperator(lambda v: [v, -v], "fm")
        assert exploded(batched_run(factory, batch)) == scalar_reference(
            factory, batch.records()
        )

    def test_key_by_assigns_keys_columnwise(self):
        batch = make_batch()
        factory = lambda: KeyByOperator(lambda v: v % 2, "k")
        assert exploded(batched_run(factory, batch)) == scalar_reference(
            factory, batch.records()
        )

    def test_reduce_folds_groups_in_row_order(self):
        batch = make_batch()
        factory = lambda: ReduceOperator(lambda a, b: a + b, "r")
        assert exploded(batched_run(factory, batch)) == scalar_reference(
            factory, batch.records()
        )

    def test_aggregate_folds_groups_in_row_order(self):
        batch = make_batch()
        factory = lambda: AggregatingOperator(
            lambda: 0, lambda acc, v: acc + v, lambda acc: acc, "agg"
        )
        assert exploded(batched_run(factory, batch)) == scalar_reference(
            factory, batch.records()
        )


class _SplitOperator(Operator):
    """Scalar-only operator: emits the record, and a marker record for odd
    values — exercises the default fallback's explode/rebuild logic."""

    def process(self, record, ctx):
        ctx.emit(record)
        if record.value % 2:
            ctx.emit(Record(value=("odd", record.value), event_time=record.event_time))


class TestScalarFallback:
    def test_default_process_batch_matches_scalar(self):
        batch = make_batch()
        assert exploded(batched_run(_SplitOperator, batch)) == scalar_reference(
            _SplitOperator, batch.records()
        )

    def test_fallback_rebatches_runs_not_singletons(self):
        emitted = batched_run(_SplitOperator, make_batch())
        # Consecutive records coalesce back into batches; a single record
        # between control elements stays scalar.
        assert any(isinstance(e, RecordBatch) for e in emitted)

    def test_fallback_keys_are_visible_to_scalar_process(self):
        seen = []

        class KeyProbe(Operator):
            def process(self, record, ctx):
                seen.append(ctx.current_key_value)

        batched_run(KeyProbe, make_batch())
        assert seen == ["a", "b", "a", "b"]

    def test_batches_never_carry_control_elements(self):
        # Watermarks go through on_watermark, untouched by batching.
        op = _SplitOperator()
        ctx = StubContext()
        op.on_element(make_batch(), ctx)
        op.on_element(Watermark(0.5), ctx)
        assert isinstance(ctx.emitted[-1], Watermark)
