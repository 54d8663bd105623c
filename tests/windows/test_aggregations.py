"""Sliding aggregation algorithms: correctness equivalence and cost shape."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.windows.aggregations import (
    COUNT,
    MAX,
    MIN,
    SUM,
    AggregateOp,
    NaiveSlidingAggregator,
    PaneSlidingAggregator,
    TwoStacksSlidingAggregator,
    run_slider,
)

event_lists = st.lists(
    st.floats(min_value=0.001, max_value=0.8, allow_nan=False), min_size=0, max_size=120
).map(
    # gaps -> (monotone timestamps, value derived from ts for variety)
    lambda gaps: [
        (sum(gaps[: i + 1]), round(sum(gaps[: i + 1]) * 13) % 17 - 5) for i in range(len(gaps))
    ]
)


@settings(max_examples=60, deadline=None)
@given(events=event_lists, op=st.sampled_from([SUM, COUNT, MAX, MIN]))
# an event just below a pane boundary belongs to the pane it is in
@example(
    events=[(0.5, 1), (0.8333333333333333, 6), (1.1666666666666665, 10), (1.4999999999999998, -3)],
    op=SUM,
)
def test_all_three_engines_agree(events, op):
    """Property: panes and two-stacks equal the naive refold for every
    associative operator and event sequence."""
    size, slide = 2.0, 0.5
    naive = run_slider(NaiveSlidingAggregator(size, slide, op), events)
    panes = run_slider(PaneSlidingAggregator(size, slide, op), events)
    stacks = run_slider(TwoStacksSlidingAggregator(size, slide, op), events)
    assert naive == panes == stacks


class TestKnownValues:
    def test_sum_over_simple_stream(self):
        events = [(0.1, 1.0), (0.6, 2.0), (1.1, 4.0), (1.6, 8.0)]
        results = run_slider(NaiveSlidingAggregator(1.0, 0.5, SUM), events)
        assert results[0] == (0.5, 1.0)  # [âˆ'0.5, 0.5): first element only
        assert results[1] == (1.0, 3.0)  # [0, 1): 1+2
        assert results[2] == (1.5, 6.0)  # [0.5, 1.5): 2+4

    def test_count_window_totals(self):
        events = [(0.1 * i, 1) for i in range(1, 21)]
        results = run_slider(PaneSlidingAggregator(1.0, 0.5, COUNT), events)
        # Steady state: each full window holds 10 elements.
        steady = [v for _t, v in results[2:-2]]
        assert all(v == 10 for v in steady)


class TestCostSeparation:
    def test_panes_do_fewer_combines_than_naive_at_high_ratio(self):
        events = [(0.01 * i, 1.0) for i in range(1, 2000)]
        size, slide = 2.0, 0.1  # ratio 20
        naive = NaiveSlidingAggregator(size, slide, SUM)
        panes = PaneSlidingAggregator(size, slide, SUM)
        run_slider(naive, events)
        run_slider(panes, events)
        assert panes.operations < naive.operations / 3

    def test_two_stacks_is_linear_in_events(self):
        events = [(0.01 * i, 1.0) for i in range(1, 2000)]
        stacks = TwoStacksSlidingAggregator(16.0, 0.05, SUM)
        run_slider(stacks, events)
        # Amortized O(1) per insert/evict + one per query.
        queries = int(events[-1][0] / 0.05) + 2
        assert stacks.operations <= 3 * len(events) + 2 * queries


class TestValidation:
    def test_slide_exceeding_size_rejected(self):
        with pytest.raises(ValueError):
            NaiveSlidingAggregator(1.0, 2.0, SUM)

    def test_panes_require_divisible_slide(self):
        with pytest.raises(ValueError):
            PaneSlidingAggregator(1.0, 0.3, SUM)

    def test_non_commutative_op_works_in_two_stacks(self):
        concat = AggregateOp(lambda a, b: a + b, "", lift=str)
        events = [(0.1, 1), (0.2, 2), (0.3, 3)]
        naive = run_slider(NaiveSlidingAggregator(1.0, 0.5, concat), events)
        stacks = run_slider(TwoStacksSlidingAggregator(1.0, 0.5, concat), events)
        assert naive == stacks
