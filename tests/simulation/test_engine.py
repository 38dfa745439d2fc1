"""Tests for the discrete-event engine."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.simulation.engine import Environment, Event, Timeout


class TestEvent:
    def test_starts_pending(self, env):
        evt = env.event()
        assert not evt.triggered
        assert not evt.processed

    def test_succeed_carries_value(self, env):
        evt = env.event()
        evt.succeed(42)
        assert evt.triggered
        assert evt.value == 42

    def test_double_succeed_rejected(self, env):
        evt = env.event()
        evt.succeed()
        with pytest.raises(SimulationError):
            evt.succeed()

    def test_fail_requires_exception(self, env):
        evt = env.event()
        with pytest.raises(SimulationError):
            evt.fail("not an exception")  # type: ignore[arg-type]

    def test_fail_then_succeed_rejected(self, env):
        evt = env.event()
        evt.fail(ValueError("boom"))
        with pytest.raises(SimulationError):
            evt.succeed()

    def test_unwaited_failed_event_raises_at_step(self, env):
        evt = env.event()
        evt.fail(ValueError("boom"))
        with pytest.raises(ValueError, match="boom"):
            env.run()

    def test_callbacks_run_at_processing(self, env):
        evt = env.event()
        seen = []
        evt.callbacks.append(lambda e: seen.append(e.value))
        evt.succeed("payload")
        assert seen == []  # not yet processed
        env.run()
        assert seen == ["payload"]


class TestTimeout:
    def test_advances_clock(self, env):
        env.timeout(5.0)
        env.run()
        assert env.now == 5.0

    def test_negative_delay_rejected(self, env):
        with pytest.raises(SimulationError):
            env.timeout(-1.0)

    def test_zero_delay_fires_now(self, env):
        fired = []
        t = env.timeout(0.0, value="x")
        t.callbacks.append(lambda e: fired.append(env.now))
        env.run()
        assert fired == [0.0]

    def test_ordering_is_fifo_at_same_time(self, env):
        order = []
        for i in range(5):
            t = env.timeout(1.0)
            t.callbacks.append(lambda e, i=i: order.append(i))
        env.run()
        assert order == [0, 1, 2, 3, 4]


class TestProcess:
    def test_simple_sequence(self, env):
        log = []

        def proc():
            log.append(env.now)
            yield env.timeout(2.0)
            log.append(env.now)
            yield env.timeout(3.0)
            log.append(env.now)

        env.process(proc())
        env.run()
        assert log == [0.0, 2.0, 5.0]

    def test_return_value_becomes_event_value(self, env):
        def child():
            yield env.timeout(1.0)
            return "result"

        def parent():
            value = yield env.process(child())
            assert value == "result"
            return "done"

        p = env.process(parent())
        env.run()
        assert p.value == "done"

    def test_yield_non_event_rejected(self, env):
        def bad():
            yield 42

        env.process(bad())
        with pytest.raises(SimulationError, match="must yield events"):
            env.run()

    def test_non_generator_rejected(self, env):
        with pytest.raises(SimulationError):
            env.process(lambda: None)  # type: ignore[arg-type]

    def test_wait_on_external_event(self, env):
        evt = env.event()
        got = []

        def waiter():
            value = yield evt
            got.append((env.now, value))

        env.process(waiter())
        env.call_at(4.0, lambda: evt.succeed("ping"))
        env.run()
        assert got == [(4.0, "ping")]

    def test_wait_on_already_processed_event(self, env):
        evt = env.event()
        evt.succeed("early")
        env.run()  # processes evt
        got = []

        def late_waiter():
            value = yield evt
            got.append(value)

        env.process(late_waiter())
        env.run()
        assert got == ["early"]

    def test_exception_propagates_into_process(self, env):
        evt = env.event()
        caught = []

        def waiter():
            try:
                yield evt
            except ValueError as exc:
                caught.append(str(exc))

        env.process(waiter())
        env.call_at(1.0, lambda: evt.fail(ValueError("expected")))
        env.run()
        assert caught == ["expected"]

    def test_is_alive_lifecycle(self, env):
        def proc():
            yield env.timeout(5.0)

        p = env.process(proc())
        assert p.is_alive
        env.run()
        assert not p.is_alive


class TestEnvironment:
    def test_run_until_advances_exactly(self, env):
        env.timeout(3.0)
        env.run(until=10.0)
        assert env.now == 10.0

    def test_run_until_past_rejected(self, env):
        env.timeout(3.0)
        env.run(until=5.0)
        with pytest.raises(SimulationError):
            env.run(until=4.0)

    def test_run_until_does_not_process_later_events(self, env):
        fired = []
        t = env.timeout(10.0)
        t.callbacks.append(lambda e: fired.append(env.now))
        env.run(until=5.0)
        assert fired == []
        env.run(until=15.0)
        assert fired == [10.0]

    def test_call_at_past_rejected(self, env):
        env.timeout(5.0)
        env.run()
        with pytest.raises(SimulationError):
            env.call_at(1.0, lambda: None)

    def test_determinism(self):
        """Two identical simulations produce identical event orders."""

        def build():
            env = Environment()
            log = []

            def proc(name, delay):
                for _ in range(3):
                    yield env.timeout(delay)
                    log.append((env.now, name))

            for i, d in enumerate([1.0, 1.0, 2.0]):
                env.process(proc(f"p{i}", d))
            env.run(until=10.0)
            return log

        assert build() == build()


@settings(max_examples=50, deadline=None)
@given(
    delays=st.lists(
        st.floats(min_value=0.0, max_value=10.0), min_size=1, max_size=30
    )
)
def test_timeout_completion_order_matches_time(delays):
    """Timeouts always fire in non-decreasing time order, ties FIFO."""
    env = Environment()
    fired = []
    for i, delay in enumerate(delays):
        t = env.timeout(delay)
        t.callbacks.append(lambda e, i=i, d=delay: fired.append((d, i)))
    env.run()
    times = [d for d, _ in fired]
    assert times == sorted(times)
    # FIFO among equal delays.
    for d in set(times):
        ids = [i for dd, i in fired if dd == d]
        assert ids == sorted(ids)
