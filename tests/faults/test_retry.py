"""RetryPolicy: delay schedule, ceiling, construction validation."""

import pytest

from repro.errors import DesignError
from repro.faults.retry import DEFAULT_RETRY_POLICY, RetryPolicy


class TestSchedule:
    def test_default_schedule_is_exponential(self):
        policy = DEFAULT_RETRY_POLICY
        assert [policy.backoff_for(a) for a in range(1, 4)] == \
            [4.0, 8.0, 16.0]

    def test_default_cap_never_binds(self):
        # The ceiling exists for long custom sequences; the stock
        # policy's raw schedule stays below it, so seeded runs from
        # before the cap existed replay bit-identically.
        policy = DEFAULT_RETRY_POLICY
        for attempt in range(1, policy.max_attempts):
            raw = policy.backoff_units * \
                policy.backoff_multiplier ** (attempt - 1)
            assert raw < policy.max_backoff_units
            assert policy.backoff_for(attempt) == raw

    def test_ceiling_caps_exponential_growth(self):
        policy = RetryPolicy(max_attempts=10, backoff_units=1.0,
                             backoff_multiplier=3.0,
                             max_backoff_units=20.0)
        schedule = [policy.backoff_for(a) for a in range(1, 10)]
        assert schedule[:3] == [1.0, 3.0, 9.0]
        assert all(units == 20.0 for units in schedule[3:])
        assert max(schedule) <= policy.max_backoff_units

    def test_attempt_zero_charges_nothing(self):
        assert DEFAULT_RETRY_POLICY.backoff_for(0) == 0.0


class TestValidation:
    def test_zero_attempts_raise(self):
        with pytest.raises(DesignError):
            RetryPolicy(max_attempts=0)

    def test_negative_backoff_raises(self):
        with pytest.raises(DesignError):
            RetryPolicy(backoff_units=-1.0)

    def test_shrinking_multiplier_raises(self):
        with pytest.raises(DesignError):
            RetryPolicy(backoff_multiplier=0.5)

    def test_negative_ceiling_raises(self):
        with pytest.raises(DesignError):
            RetryPolicy(max_backoff_units=-4.0)

    def test_zero_backoff_is_allowed(self):
        policy = RetryPolicy(backoff_units=0.0)
        assert policy.backoff_for(3) == 0.0
