"""Tests for serialization."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.events import Record
from repro.core.serde import JsonSerde, PickleSerde
from repro.errors import SerializationError

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(),
    lambda children: st.lists(children) | st.dictionaries(st.text(), children),
    max_leaves=10,
)


class TestPickleSerde:
    @given(json_values)
    def test_roundtrip(self, value):
        serde = PickleSerde()
        assert serde.deserialize(serde.serialize(value)) == value

    def test_copy_is_deep(self):
        serde = PickleSerde()
        original = {"a": [1, 2]}
        copy = serde.copy(original)
        copy["a"].append(3)
        assert original == {"a": [1, 2]}

    def test_unpicklable_raises_framework_error(self):
        serde = PickleSerde()
        with pytest.raises(SerializationError):
            serde.serialize(lambda x: x)

    def test_bad_bytes_raise(self):
        with pytest.raises(SerializationError):
            PickleSerde().deserialize(b"not-a-pickle")

    def test_size_of_is_positive(self):
        assert PickleSerde().size_of({"k": 1}) > 0


class TestJsonSerde:
    @given(json_values)
    def test_roundtrip(self, value):
        serde = JsonSerde()
        assert serde.deserialize(serde.serialize(value)) == value

    def test_non_json_value_raises(self):
        with pytest.raises(SerializationError):
            JsonSerde().serialize({"x": object()})

    def test_bad_bytes_raise(self):
        with pytest.raises(SerializationError):
            JsonSerde().deserialize(b"{nope")

    def test_output_is_canonical(self):
        serde = JsonSerde()
        assert serde.serialize({"b": 1, "a": 2}) == serde.serialize({"a": 2, "b": 1})


class TestRowsAndSerdes:
    """Tuple-leak audit: what a serde sees when handed a tuple-backed row.
    No operator stores rows in state (tests/macro pins that), so these pin
    the surface a user's own state could reach."""

    def test_json_serde_encodes_a_row_as_a_plain_array(self):
        # json has no hook for tuple subclasses: a row goes out as an array
        # and comes back as a list (before, a row was a SerializationError).
        serde = JsonSerde()
        data = serde.serialize(Record("v", 1.0, "k"))
        assert data == b'["v",1.0,"k",1,null,null]'
        assert serde.deserialize(data) == ["v", 1.0, "k", 1, None, None]

    def test_pickle_serde_copies_a_row_as_a_row(self):
        serde = PickleSerde()
        row = Record({"a": [1]}, 1.0, "k", -1, 0.5, trace=("t", 1))
        copy = serde.copy(row)
        assert type(copy) is Record and copy == row and copy.trace == row.trace
        assert copy.value is not row.value
