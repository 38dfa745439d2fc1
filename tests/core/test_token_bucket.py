"""Tests for the token bucket, including hypothesis invariants."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.core.token_bucket import UNLIMITED, TokenBucket


def empty(rate, capacity):
    """A bucket drained at ``now=0``: a new one starts full."""
    tb = TokenBucket(rate=rate, capacity=capacity)
    tb.consume_available(capacity, 0.0)
    return tb


class TestConstruction:
    def test_defaults_full_bucket(self):
        tb = TokenBucket(rate=10.0)
        assert tb.tokens(0.0) == 10.0
        assert tb.capacity == 10.0

    def test_custom_capacity_and_initial(self):
        tb = TokenBucket(rate=10.0, capacity=3.0)
        assert tb.tokens(0.0) == 3.0  # starts full at its own capacity
        assert tb.capacity == 3.0

    @pytest.mark.parametrize("rate", [0.0, -1.0])
    def test_invalid_rate(self, rate):
        with pytest.raises(ConfigError):
            TokenBucket(rate=rate)

    def test_invalid_capacity(self):
        with pytest.raises(ConfigError):
            TokenBucket(rate=1.0, capacity=0.0)

    def test_unlimited(self):
        tb = TokenBucket(rate=UNLIMITED)
        assert tb.unlimited
        assert tb.try_consume(1e12, now=0.0)


class TestRefill:
    def test_linear_refill(self):
        tb = empty(5.0, 100.0)
        assert tb.tokens(2.0) == 10.0
        assert tb.tokens(4.0) == 20.0

    def test_capped_at_capacity(self):
        tb = empty(5.0, 10.0)
        assert tb.tokens(100.0) == 10.0

    def test_clock_backwards_rejected(self):
        tb = TokenBucket(rate=1.0)
        tb.refill(5.0)
        with pytest.raises(ConfigError):
            tb.refill(4.0)


class TestConsume:
    def test_all_or_nothing(self):
        tb = TokenBucket(rate=1.0, capacity=5.0)
        assert tb.try_consume(5.0, 0.0)
        assert not tb.try_consume(0.5, 0.0)
        assert tb.try_consume(1.0, 1.0)

    def test_consume_available_partial(self):
        tb = TokenBucket(rate=1.0, capacity=5.0)
        tb.try_consume(3.0, 0.0)
        assert tb.consume_available(10.0, 0.0) == 2.0
        assert tb.consume_available(10.0, 0.0) == 0.0

    def test_negative_rejected(self):
        tb = TokenBucket(rate=1.0)
        with pytest.raises(ConfigError):
            tb.try_consume(-1.0, 0.0)
        with pytest.raises(ConfigError):
            tb.consume_available(-1.0, 0.0)

    def test_long_run_rate_bounded(self):
        """Over T seconds, grants never exceed capacity + rate*T."""
        tb = TokenBucket(rate=10.0, capacity=10.0)
        granted = 0.0
        for t in range(100):
            granted += tb.consume_available(1000.0, float(t))
        assert granted <= 10.0 + 10.0 * 99 + 1e-9


class TestTimeUntil:
    def test_zero_when_available(self):
        tb = TokenBucket(rate=1.0, capacity=5.0)
        assert tb.time_until(3.0, 0.0) == 0.0

    def test_exact_wait(self):
        tb = empty(2.0, 10.0)
        assert tb.time_until(4.0, 0.0) == pytest.approx(2.0)

    def test_beyond_capacity_still_finite(self):
        tb = empty(2.0, 4.0)
        assert tb.time_until(8.0, 0.0) == pytest.approx(4.0)

    def test_wait_then_consume_succeeds(self):
        tb = empty(3.0, 9.0)
        wait = tb.time_until(6.0, 0.0)
        assert tb.try_consume(6.0, wait)


class TestSetRate:
    def test_refills_at_old_rate_first(self):
        tb = empty(10.0, 100.0)
        tb.set_rate(1.0, now=5.0, capacity=100.0)
        # 5 s at the old 10/s rate accrued before the change.
        assert tb.tokens(5.0) == pytest.approx(50.0)

    def test_clamps_to_new_capacity(self):
        tb = TokenBucket(rate=10.0, capacity=100.0)
        tb.set_rate(1.0, now=0.0)  # default capacity = new rate = 1
        assert tb.tokens(0.0) == pytest.approx(1.0)

    def test_invalid_new_rate(self):
        tb = TokenBucket(rate=1.0)
        with pytest.raises(ConfigError):
            tb.set_rate(0.0, now=0.0)

    def test_to_unlimited_and_back(self):
        tb = TokenBucket(rate=1.0)
        tb.set_rate(UNLIMITED, now=0.0)
        assert tb.try_consume(1e9, 0.0)
        tb.set_rate(5.0, now=1.0)
        assert not tb.try_consume(10.0, 1.0)


# -- hypothesis invariants ------------------------------------------------------

rates = st.floats(min_value=0.01, max_value=1e6)
amounts = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)
deltas = st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=40)


@settings(max_examples=200, deadline=None)
@given(rate=rates, requests=st.lists(amounts, min_size=1, max_size=40))
def test_balance_never_negative_nor_above_capacity(rate, requests):
    tb = TokenBucket(rate=rate)
    now = 0.0
    for req in requests:
        now += 0.1
        tb.consume_available(req, now)
        balance = tb.tokens(now)
        assert -1e-6 <= balance <= tb.capacity + 1e-6


@settings(max_examples=200, deadline=None)
@given(rate=rates, steps=deltas)
def test_grants_bounded_by_refill(rate, steps):
    """Total grants over any run never exceed initial + rate * elapsed."""
    tb = TokenBucket(rate=rate)
    now = 0.0
    granted = 0.0
    initial = tb.tokens(0.0)
    for dt in steps:
        now += dt
        granted += tb.consume_available(rate * 10, now)
    assert granted <= initial + rate * now + 1e-6 * max(1.0, granted)


@settings(max_examples=200, deadline=None)
@given(rate=rates, want=st.floats(min_value=0.01, max_value=1e5))
def test_time_until_is_exact(rate, want):
    tb = empty(rate, max(rate, want))
    wait = tb.time_until(want, 0.0)
    assert tb.try_consume(want, wait)
    # One epsilon earlier must fail (when the wait was positive).
    tb2 = empty(rate, max(rate, want))
    wait2 = tb2.time_until(want, 0.0)
    if wait2 > 1e-6:
        assert not tb2.try_consume(want, wait2 * 0.99)


@settings(max_examples=100, deadline=None)
@given(
    rate=rates,
    new_rate=rates,
    switch=st.floats(min_value=0.0, max_value=50.0),
)
def test_set_rate_never_mints_tokens_beyond_capacity(rate, new_rate, switch):
    tb = TokenBucket(rate=rate)
    tb.set_rate(new_rate, now=switch)
    assert tb.tokens(switch) <= tb.capacity + 1e-9


class TestRefund:
    def test_refund_restores_balance(self):
        tb = TokenBucket(rate=10.0, capacity=10.0)
        tb.consume_available(6.0, now=0.0)
        tb.refund(2.0)
        assert tb.tokens(0.0) == pytest.approx(6.0)

    def test_refund_clamps_to_capacity(self):
        tb = TokenBucket(rate=10.0, capacity=10.0)
        tb.refund(5.0)
        assert tb.tokens(0.0) == 10.0

    def test_refund_on_unlimited_bucket_is_noop(self):
        tb = TokenBucket(rate=UNLIMITED)
        tb.refill(0.0)
        tb.refund(3.0)
        assert math.isinf(tb.tokens(0.0))

    def test_negative_refund_rejected(self):
        tb = TokenBucket(rate=10.0)
        with pytest.raises(ConfigError, match="refund"):
            tb.refund(-1.0)


@settings(max_examples=100, deadline=None)
@given(
    rate=rates,
    consume=st.floats(min_value=0.0, max_value=100.0),
    refund=st.floats(min_value=0.0, max_value=100.0),
)
def test_refund_never_exceeds_capacity(rate, consume, refund):
    tb = TokenBucket(rate=rate)
    tb.consume_available(consume, now=0.0)
    tb.refund(refund)
    assert 0.0 <= tb.tokens(0.0) <= tb.capacity + 1e-9
