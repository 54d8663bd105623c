"""Tests for the stream element data model."""

import pickle
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.events import (
    CheckpointBarrier,
    EndOfStream,
    Heartbeat,
    Punctuation,
    Record,
    StreamElement,
    Watermark,
    record,
)

FIELDS = ("value", "event_time", "key", "sign", "ingest_time", "trace")
_times = st.none() | st.floats(allow_nan=False)
_keys = st.none() | st.integers() | st.text(max_size=4)
records = st.builds(
    Record,
    st.integers() | st.text(max_size=4) | st.tuples(st.integers(), st.text(max_size=4)),
    _times,
    _keys,
    st.sampled_from([1, -1]),
    _times,
    st.none() | st.tuples(st.integers(), st.integers()),
)


class TestRecord:
    def test_with_value_preserves_metadata(self):
        r = Record(value=1, event_time=2.0, key="k", ingest_time=0.5)
        r2 = r.with_value(10)
        assert r2.value == 10
        assert r2.event_time == 2.0
        assert r2.key == "k"
        assert r2.ingest_time == 0.5

    def test_with_key_and_event_time(self):
        r = record(5)
        assert r.with_key("a").key == "a"
        assert r.with_event_time(3.0).event_time == 3.0

    def test_retraction_flips_sign(self):
        r = record(5)
        retraction = r.as_retraction()
        assert retraction.sign == -1
        assert retraction.is_retraction
        assert retraction.as_retraction().sign == 1

    def test_is_record_flag(self):
        assert record(1).is_record
        assert not Watermark(1.0).is_record
        assert not EndOfStream().is_record


class TestRecordContract:
    """The row contract of DESIGN.md's "Data model" section."""

    def test_is_a_stream_element_with_the_documented_defaults(self):
        r = Record(7)
        assert isinstance(r, StreamElement)
        assert [getattr(r, f) for f in FIELDS] == [7, None, None, 1, None, None]

    @given(records)
    def test_keyword_and_positional_construction_agree(self, r):
        fields = [getattr(r, f) for f in FIELDS]
        for built in (Record(*fields), Record(**dict(zip(FIELDS, fields)))):
            assert built == r and built.trace == r.trace

    @pytest.mark.parametrize("name", FIELDS + ("extra",))
    def test_every_field_is_read_only(self, name):
        r = Record(1, 2.0, "k", 1, 0.5)
        with pytest.raises(AttributeError):
            setattr(r, name, 9)
        with pytest.raises(AttributeError):
            delattr(r, name)
        assert r == Record(1, 2.0, "k", 1, 0.5)

    def test_one_allocation_no_instance_dict(self):
        r = Record({"a": 1}, 2.0, "k", 1, 0.5, trace=object())
        assert not hasattr(r, "__dict__")
        assert sys.getsizeof(r) <= 96

    @given(records, st.integers())
    def test_equality_hash_and_repr_ignore_trace(self, r, trace):
        traced = r.with_trace(trace)
        assert traced == r and not traced != r
        assert hash(traced) == hash(r)
        assert repr(traced) == repr(r)
        assert len({r, traced}) == 1

    @given(records)
    def test_repr_is_the_field_listing_digests_are_built_from(self, r):
        # perf's and the macro suite's digests hash repr() of sink rows, so
        # a record nested in a value must keep printing exactly like this.
        assert repr(r) == (
            f"Record(value={r.value!r}, event_time={r.event_time!r}, key={r.key!r}, "
            f"sign={r.sign!r}, ingest_time={r.ingest_time!r})"
        )

    @given(records)
    def test_never_equal_to_a_plain_tuple_of_its_fields(self, r):
        plain = tuple(r)
        assert len(plain) == 6
        assert not r == plain and not plain == r
        assert r != plain and plain != r
        assert plain not in [r] and r not in [plain]

    def test_differs_when_any_compared_field_differs(self):
        base = Record(1, 2.0, "k", 1, 0.5)
        for changed in (
            base.with_value(2),
            base.with_event_time(3.0),
            base.with_key("j"),
            base.as_retraction(),
            Record(1, 2.0, "k", 1, 0.6),
        ):
            assert changed != base and not changed == base

    def test_the_tuple_surface_that_comes_with_the_representation(self):
        """Pinned, not promised: what a row answers to because it *is* a
        tuple. Nothing in src/ sorts, unpacks or length-tests an element
        (DESIGN.md lists the audited sites); the copy API is ``with_*``."""
        low, high = Record(1, 5.0), Record(2, 0.0)
        assert isinstance(low, tuple) and len(low) == 6
        assert list(low) == [1, 5.0, None, 1, None, None]
        assert sorted([high, low]) == [low, high]  # field order, value first
        assert low[:5] == (1, 5.0, None, 1, None) and type(low[:5]) is tuple

    @given(records)
    def test_pickle_round_trip_at_every_protocol(self, r):
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(r, protocol))
            assert type(back) is Record
            assert back == r and back.trace == r.trace

    @given(records)
    def test_each_copy_helper_changes_exactly_one_field(self, r):
        before = tuple(r)
        marker = object()
        copies = {
            "value": r.with_value(marker),
            "key": r.with_key(marker),
            "event_time": r.with_event_time(marker),
            "trace": r.with_trace(marker),
            "sign": r.as_retraction(),
        }
        for changed, copy in copies.items():
            assert type(copy) is Record and copy is not r
            for name in FIELDS:
                if name != changed:
                    assert getattr(copy, name) is getattr(r, name)
            assert getattr(copy, changed) == (-r.sign if changed == "sign" else marker)
        assert tuple(r) == before


class TestWatermark:
    def test_ordering(self):
        assert Watermark(1.0) < Watermark(2.0)
        assert not Watermark(2.0) < Watermark(1.0)

    def test_equality(self):
        assert Watermark(1.5) == Watermark(1.5)


class TestPunctuation:
    def test_matches_dict_attribute(self):
        p = Punctuation(attribute="ts", bound=10)
        assert p.matches({"ts": 5})
        assert p.matches({"ts": 10})
        assert not p.matches({"ts": 11})

    def test_matches_object_attribute(self):
        class Event:
            ts = 3

        p = Punctuation(attribute="ts", bound=5)
        assert p.matches(Event())

    def test_missing_attribute_does_not_match(self):
        p = Punctuation(attribute="ts", bound=5)
        assert not p.matches({"other": 1})

    def test_custom_predicate_wins(self):
        p = Punctuation(attribute="ts", bound=0, predicate=lambda v: v["x"] == 1)
        assert p.matches({"x": 1, "ts": 99})


class TestControlElements:
    def test_barrier_fields(self):
        b = CheckpointBarrier(checkpoint_id=3, timestamp=1.0)
        assert b.checkpoint_id == 3

    def test_heartbeat_fields(self):
        h = Heartbeat(source_id="s", timestamp=2.0)
        assert h.source_id == "s"
        assert h.timestamp == 2.0
