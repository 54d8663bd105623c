"""Retry policy and scripted outages (the sink commit retry's parts)."""

from __future__ import annotations

import pytest

from repro.errors import TransientFault
from repro.supervision.retry import RetryPolicy, ScriptedOutage


class TestRetryPolicy:
    def test_delays_grow_and_cap(self):
        policy = RetryPolicy(max_attempts=5, base_delay=1e-3, multiplier=2.0, max_delay=3e-3)
        assert policy.delay_for(1) == pytest.approx(1e-3)
        assert policy.delay_for(2) == pytest.approx(2e-3)
        assert policy.delay_for(3) == pytest.approx(3e-3)  # capped
        assert policy.delay_for(4) == pytest.approx(3e-3)
        assert policy.delay_for(5) is None  # attempts exhausted

    def test_timeout_budget_ends_retries_early(self):
        policy = RetryPolicy(max_attempts=10, base_delay=1e-3, multiplier=2.0, timeout=2.5e-3)
        assert policy.delay_for(1, elapsed=0.0) == pytest.approx(1e-3)
        # Second backoff (2ms) would push cumulative past the 2.5ms budget.
        assert policy.delay_for(2, elapsed=1e-3) is None


class TestScriptedOutage:
    def test_count_based_failures_decrement(self):
        outage = ScriptedOutage(fail_next=2)
        assert outage.should_fail() and outage.should_fail()
        assert not outage.should_fail()
        assert outage.faults_injected == 2

    def test_time_based_failures_end_at_until(self):
        clock = {"now": 0.0}
        outage = ScriptedOutage(until=0.5, now=lambda: clock["now"])
        assert outage.should_fail()
        clock["now"] = 0.6
        assert not outage.should_fail()

    def test_hook_raises_transient_fault(self):
        hook = ScriptedOutage(fail_next=1).as_hook()
        with pytest.raises(TransientFault):
            hook(1)
        hook(1)  # outage consumed: the second call passes

