"""Tests for the policy grammar (rate schedules, scopes, rules)."""

from __future__ import annotations

import math

import pytest

from repro.errors import PolicyError
from repro.core.policies import (
    ConstantRate,
    PolicyRule,
    RuleScope,
    SteppedRate,
)


class TestConstantRate:
    def test_constant(self):
        sched = ConstantRate(5.0)
        assert sched.rate_at(0.0) == 5.0
        assert sched.rate_at(1e9) == 5.0

    def test_invalid(self):
        with pytest.raises(PolicyError):
            ConstantRate(0.0)


class TestSteppedRate:
    def test_lookup(self):
        sched = SteppedRate([(0.0, 10.0), (60.0, 20.0), (120.0, 5.0)])
        assert sched.rate_at(0.0) == 10.0
        assert sched.rate_at(59.9) == 10.0
        assert sched.rate_at(60.0) == 20.0
        assert sched.rate_at(1e6) == 5.0

    def test_every_constructor(self):
        """The paper's 'changes every 6 minutes' administrator pattern."""
        sched = SteppedRate.every(360.0, [10e3, 50e3, 20e3])
        assert sched.steps == ((0.0, 10e3), (360.0, 50e3), (720.0, 20e3))
        assert sched.rate_at(400.0) == 50e3

    def test_must_start_at_zero(self):
        with pytest.raises(PolicyError):
            SteppedRate([(5.0, 1.0)])

    def test_times_strictly_increase(self):
        with pytest.raises(PolicyError):
            SteppedRate([(0.0, 1.0), (10.0, 2.0), (10.0, 3.0)])

    def test_rates_positive(self):
        with pytest.raises(PolicyError):
            SteppedRate([(0.0, 0.0)])

    def test_empty(self):
        with pytest.raises(PolicyError):
            SteppedRate([])

    def test_negative_time_query(self):
        sched = SteppedRate([(0.0, 1.0)])
        with pytest.raises(PolicyError):
            sched.rate_at(-1.0)

    def test_infinite_step_allowed(self):
        sched = SteppedRate([(0.0, math.inf), (10.0, 5.0)])
        assert sched.rate_at(5.0) == math.inf


class TestRuleScope:
    def test_specific_job(self):
        scope = RuleScope(channel_id="metadata", job_id="job1")
        assert scope.applies_to_job("job1")
        assert not scope.applies_to_job("job2")

    def test_cluster_wide(self):
        scope = RuleScope(channel_id="metadata")
        assert scope.applies_to_job("anything")

    def test_needs_channel(self):
        with pytest.raises(PolicyError):
            RuleScope(channel_id="")


class TestPolicyRule:
    def test_rate_at_delegates(self):
        rule = PolicyRule(
            name="r", scope=RuleScope("c"), schedule=ConstantRate(7.0)
        )
        assert rule.rate_at(123.0) == 7.0

    def test_needs_name(self):
        with pytest.raises(PolicyError):
            PolicyRule(name="", scope=RuleScope("c"), schedule=ConstantRate(1.0))

    def test_burst_positive(self):
        with pytest.raises(PolicyError):
            PolicyRule(
                name="r", scope=RuleScope("c"), schedule=ConstantRate(1.0), burst=0.0
            )
