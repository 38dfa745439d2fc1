"""Within-instant ordering contracts of the fast-path engine.

The engine schedules process boots, resumes on already-processed events
and deferred ticks as bare ``(fn, arg)`` heap entries instead
of event objects.  These tests pin the observable semantics that fast
path must preserve: where in an instant each kind of entry fires, and
what a process sees when the event it yields has already been processed.
"""

from __future__ import annotations

import pytest

from repro.simulation.engine import Environment
from repro.simulation.ticker import Ticker


class TestYieldProcessedEvent:
    def test_resumes_same_instant_after_pending_events(self, env):
        evt = env.event()
        evt.succeed("payload")
        env.run()
        assert evt.processed

        order = []

        def waiter():
            value = yield evt
            order.append(("waiter", value, env.now))

        def bystander():
            order.append(("bystander", env.now))
            yield env.timeout(0.0)

        env.process(waiter())
        env.process(bystander())
        env.run()
        # The waiter does not resume synchronously at the yield: it is
        # rescheduled into the current instant, behind work already booked.
        assert order == [("bystander", 0.0), ("waiter", "payload", 0.0)]

    def test_processed_failed_event_throws_into_late_waiter(self, env):
        evt = env.event()
        caught = []

        def first():
            try:
                yield evt
            except ValueError as exc:
                caught.append(("first", str(exc)))

        def second():
            yield env.timeout(1.0)
            try:
                yield evt  # long since processed; still delivers the error
            except ValueError as exc:
                caught.append(("second", str(exc), env.now))

        env.process(first())
        env.process(second())
        evt.fail(ValueError("boom"))
        env.run()
        assert caught == [("first", "boom"), ("second", "boom", 1.0)]


class TestDeferPhaseOrdering:
    def test_ticker_phases_order_every_instant(self, env):
        order = []
        Ticker(env, 10.0, lambda now: order.append(("producer", now)))
        Ticker(env, 10.0, lambda now: order.append(("drain", now)), defer=1)
        Ticker(env, 10.0, lambda now: order.append(("control", now)), defer=2)
        env.run(until=10.0)
        assert order == [
            ("producer", 0.0),
            ("drain", 0.0),
            ("control", 0.0),
            ("producer", 10.0),
            ("drain", 10.0),
            ("control", 10.0),
        ]

