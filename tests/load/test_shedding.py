"""Load shedding policies and quality accounting."""

import pytest
from helpers import StubContext

from repro.errors import LoadManagementError
from repro.load.shedding import (
    RandomShedder,
    SemanticShedder,
    WindowAwareShedder,
    relative_error,
)


class PressuredContext(StubContext):
    """Stub context reporting a fake mailbox length."""

    def __init__(self, queue_length: int) -> None:
        super().__init__()
        self.queue_length = queue_length

    @property
    def task(self):
        outer = self

        class _T:
            state_backend = self.backend
            mailbox_size = outer.queue_length

            class metrics:
                dropped = 0

        return _T()


class TestActivation:
    def test_no_drops_below_threshold(self):
        shedder = RandomShedder(activate_at=10, target_queue=5)
        ctx = PressuredContext(queue_length=3)
        for i in range(100):
            ctx.feed(shedder, i)
        assert shedder.dropped == 0

    def test_drops_under_pressure(self):
        shedder = RandomShedder(activate_at=10, target_queue=5, seed=1)
        ctx = PressuredContext(queue_length=60)
        for i in range(500):
            ctx.feed(shedder, i)
        assert shedder.dropped > 0
        assert 0 < shedder.drop_rate < 1

    def test_drop_probability_grows_with_excess(self):
        shedder = RandomShedder(activate_at=10, target_queue=5)
        assert shedder.drop_probability(10) == 0.0
        assert shedder.drop_probability(20) < shedder.drop_probability(100)
        assert shedder.drop_probability(100000) <= 0.95

    def test_invalid_thresholds_rejected(self):
        with pytest.raises(LoadManagementError):
            RandomShedder(activate_at=5, target_queue=10)


class TestSemantic:
    def test_low_utility_dropped_first(self):
        shedder = SemanticShedder(
            utility=lambda v: 1.0 if v["important"] else 0.0,
            activate_at=1,
            target_queue=1,
        )
        ctx = PressuredContext(queue_length=50)
        for i in range(50):
            ctx.feed(shedder, {"important": i % 2 == 0})
        kept = [r.value for r in ctx.records()]
        assert all(v["important"] for v in kept)
        assert shedder.dropped == 25


class TestWindowAware:
    def test_per_window_loss_is_bounded(self):
        shedder = WindowAwareShedder(
            window_size=1.0, max_loss_fraction=0.3, activate_at=1, target_queue=1, seed=3
        )
        ctx = PressuredContext(queue_length=100000)  # max pressure
        per_window = 50
        for w in range(4):
            for i in range(per_window):
                ctx.feed(shedder, {"i": i}, event_time=w + i / per_window)
        kept_per_window: dict[int, int] = {}
        for record in ctx.records():
            window = int(record.event_time)
            kept_per_window[window] = kept_per_window.get(window, 0) + 1
        for window, kept in kept_per_window.items():
            lost = per_window - kept
            assert lost <= per_window * 0.3 + 1


class TestQualityMetric:
    def test_relative_error_zero_for_exact(self):
        exact = {"a": 10.0, "b": 5.0}
        assert relative_error(exact, dict(exact)) == 0.0

    def test_missing_windows_count_fully(self):
        assert relative_error({"a": 10.0}, {}) == 1.0

    def test_partial_error(self):
        error = relative_error({"a": 10.0, "b": 10.0}, {"a": 9.0, "b": 10.0})
        assert abs(error - 0.05) < 1e-9
