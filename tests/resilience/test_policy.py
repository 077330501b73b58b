"""Tests for the timeout policy and deadline arithmetic."""

import pytest

from repro.resilience import Deadline, TimeoutPolicy


class TestDeadline:
    def test_unbounded_never_expires(self):
        deadline = Deadline.unbounded()
        assert not deadline.expired
        assert deadline.remaining() is None
        assert deadline.tightest(5.0) == 5.0
        assert deadline.tightest(None) is None

    def test_zero_budget_expires_immediately(self):
        assert Deadline.after(0.0).expired

    def test_remaining_is_nonnegative(self):
        assert Deadline.after(0.0).remaining() == 0.0
        assert Deadline.after(60.0).remaining() > 0.0

    def test_earliest_picks_the_tightest(self):
        tight = Deadline.after(0.0)
        loose = Deadline.after(60.0)
        assert Deadline.earliest(loose, tight, None).expired
        assert not Deadline.earliest(loose, None).expired
        assert not Deadline.earliest(None, None).expired

    def test_tightest_combines_with_static_budget(self):
        deadline = Deadline.after(60.0)
        assert deadline.tightest(1.0) == pytest.approx(1.0)
        assert deadline.tightest(None) == pytest.approx(60.0, abs=0.5)


class TestTimeoutPolicy:
    def test_defaults_match_legacy_behaviour(self):
        policy = TimeoutPolicy()
        assert policy.execution_seconds == 120.0
        assert policy.per_query_seconds is None
        assert policy.campaign_seconds is None
