"""Window assigner tests, including brute-force property checks."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GraphError
from repro.windows import (
    EventTimeSessionWindows,
    GlobalWindows,
    SlidingEventTimeWindows,
    TumblingEventTimeWindows,
)
from repro.windows.assigners import MEMO_SLIDES
from repro.windows.core import GLOBAL_WINDOW, TimeWindow


class TestTumbling:
    def test_basic_assignment(self):
        assigner = TumblingEventTimeWindows(10.0)
        assert assigner.assign(None, 3.0) == [TimeWindow(0.0, 10.0)]
        assert assigner.assign(None, 10.0) == [TimeWindow(10.0, 20.0)]

    def test_offset_shifts_boundaries(self):
        assigner = TumblingEventTimeWindows(10.0, offset=3.0)
        assert assigner.assign(None, 3.0) == [TimeWindow(3.0, 13.0)]
        assert assigner.assign(None, 2.9) == [TimeWindow(-7.0, 3.0)]

    def test_invalid_size_rejected(self):
        with pytest.raises(GraphError):
            TumblingEventTimeWindows(0.0)

    @given(st.floats(min_value=0, max_value=1e6, allow_nan=False))
    def test_element_always_inside_its_window(self, t):
        assigner = TumblingEventTimeWindows(7.5)
        [window] = assigner.assign(None, t)
        assert window.contains(t)


class TestSliding:
    def test_element_lands_in_size_over_slide_windows(self):
        assigner = SlidingEventTimeWindows(10.0, 2.0)
        windows = assigner.assign(None, 11.0)
        assert len(windows) == 5
        for window in windows:
            assert window.contains(11.0)

    def test_slide_larger_than_size_rejected(self):
        with pytest.raises(GraphError):
            SlidingEventTimeWindows(1.0, 2.0)

    @given(st.floats(min_value=0, max_value=1e4, allow_nan=False))
    def test_matches_brute_force_enumeration(self, t):
        size, slide = 8.0, 2.0
        assigner = SlidingEventTimeWindows(size, slide)
        got = sorted(assigner.assign(None, t))
        expected = []
        start = 0.0
        while start <= t:
            if start <= t < start + size:
                expected.append(TimeWindow(start, start + size))
            start += slide
        # brute force above misses windows starting before 0 for small t
        start = -size
        while start < 0:
            if start <= t < start + size and TimeWindow(start, start + size) not in expected:
                expected.append(TimeWindow(start, start + size))
            start += slide
        assert got == sorted(expected)


def _loop_sliding(size, slide, offset, t):
    """The sliding assigner before it reused windows: every record's
    windows built by the loop, as (start, end) pairs."""
    offset = offset % slide
    bounds = []
    start = math.floor((t - offset) / slide) * slide + offset
    while start > t - size:
        bounds.append((start, start + size))
        start -= slide
    return bounds


def _exactly(windows, bounds):
    """Bit for bit: every start and end by ``float.hex``, and the repr."""
    got = [(w.start.hex(), w.end.hex()) for w in windows]
    assert got == [(start.hex(), end.hex()) for start, end in bounds]
    assert repr(windows) == repr([TimeWindow(start, end) for start, end in bounds])


#: (size, slide): non-dyadic pairs (whose starts and window counts depend
#: on float rounding) and dyadic ones among random ones
SHAPES = st.one_of(
    st.sampled_from([(0.2, 0.1), (0.3, 0.1), (0.04, 0.02), (0.25, 0.125), (10.0, 2.0), (0.7, 0.3)]),
    st.floats(min_value=1e-3, max_value=10.0).flatmap(
        lambda slide: st.tuples(st.floats(min_value=slide, max_value=slide * 6), st.just(slide))
    ),
)

#: event times as (slide index, ulps from that slide's boundary, fraction of
#: a slide): on a boundary, a few ulps either side of it, or inside
NUDGES = st.tuples(
    st.integers(min_value=-40, max_value=400),
    st.integers(min_value=-3, max_value=3),
    st.sampled_from([0.0, 0.0, 0.25, 0.5, 0.999]),
)


def _event_times(slide, offset, nudges):
    times = []
    for index, ulps, fraction in nudges:
        t = index * slide + offset + fraction * slide
        for _ in range(abs(ulps)):
            t = math.nextafter(t, math.inf if ulps > 0 else -math.inf)
        times.append(t)
    return times


class TestReuseIsExact:
    """The sliding assigner hands back the windows it built for a slide; a
    reused list must be exactly the one the loop would build."""

    @settings(max_examples=300, deadline=None)
    @given(SHAPES, st.floats(min_value=0.0, max_value=50.0), st.lists(NUDGES, min_size=1, max_size=40))
    def test_sliding_matches_the_loop(self, shape, offset, nudges):
        size, slide = shape
        assigner = SlidingEventTimeWindows(size, slide, offset=offset)
        for t in _event_times(slide, offset % slide, nudges):
            _exactly(assigner.assign(None, t), _loop_sliding(size, slide, offset, t))

    def test_one_slide_shares_one_list_and_the_memo_stays_bounded(self):
        assigner = SlidingEventTimeWindows(0.25, 0.125)
        first = assigner.assign(None, 1.01)
        assert assigner.assign(None, 1.1) is first
        for index in range(3 * MEMO_SLIDES):
            assigner.assign(None, index * 0.125)
            assert len(assigner._memo) <= MEMO_SLIDES
        # a slide whose list was dropped is built again, equal
        again = assigner.assign(None, 1.01)
        assert again is not first and again == first


class TestSessions:
    def test_each_element_opens_gap_window(self):
        assigner = EventTimeSessionWindows(5.0)
        assert assigner.assign(None, 2.0) == [TimeWindow(2.0, 7.0)]
        assert assigner.is_merging

    def test_invalid_gap_rejected(self):
        with pytest.raises(GraphError):
            EventTimeSessionWindows(-1.0)


class TestGlobal:
    def test_single_window(self):
        assigner = GlobalWindows()
        assert assigner.assign(None, 1.0) == [GLOBAL_WINDOW]
        assert assigner.assign(None, 99.0) == [GLOBAL_WINDOW]


class TestTimeWindow:
    def test_intersects_and_cover(self):
        a = TimeWindow(0, 10)
        b = TimeWindow(5, 15)
        c = TimeWindow(10, 20)
        assert a.intersects(b)
        assert not a.intersects(c)  # half-open
        assert a.cover(b) == TimeWindow(0, 15)

    def test_contains_half_open(self):
        w = TimeWindow(0, 10)
        assert w.contains(0)
        assert not w.contains(10)
