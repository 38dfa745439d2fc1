"""Single layers driven directly, outside any workload.

Each drive does a fixed amount of logical work through one layer's public
API and reports its rate or per-call cost at reference speed.  They tell
a reviewer what a layer costs on its own; the spans say what it cost
inside the workload.
"""

from __future__ import annotations

from typing import Any, Callable, List, Sequence

from padllbench import stats
from padllbench.calibrate import Meter

__all__ = [
    "per_call_us",
    "engine_events_per_s",
    "classifier_decisions_per_s",
    "token_bucket_ops_per_s",
]


def per_call_us(meter: Meter, fn: Callable[[], Any], calls: int, rounds: int = 5) -> float:
    """Median over ``rounds`` of the cost of one ``fn()``, in microseconds."""

    def loop() -> None:
        for _ in range(calls):
            fn()

    return stats.median([meter.run(loop).norm_s / calls * 1e6 for _ in range(rounds)])


def engine_events_per_s(meter: Meter, duration: float) -> float:
    """Ticker / timeout / already-fired-event mix, the shapes the
    experiments put on the heap (tickers dominate)."""
    from repro.simulation.engine import Environment
    from repro.simulation.ticker import Ticker

    env = Environment()
    done = [0]

    def on_tick(_now: float) -> None:
        done[0] += 1

    for i in range(32):
        Ticker(env, 1.0, on_tick, name=f"plain{i}")
    for i in range(32):
        Ticker(env, 1.0, on_tick, name=f"deferred{i}", defer=1 + i % 3)

    def sleeper():
        while True:
            yield env.timeout(1.0)
            done[0] += 1

    def hopper():
        while True:
            fired = env.event()
            fired.succeed()
            yield env.timeout(1.0)
            yield fired
            done[0] += 2

    for _ in range(4):
        env.process(sleeper())
    for _ in range(2):
        env.process(hopper())
    timed = meter.run(env.run, until=duration)
    return done[0] / timed.norm_s


def classifier_decisions_per_s(
    meter: Meter, classifier: Any, requests: Sequence[Any], decisions: int
) -> float:
    """``Classifier.classify`` over the request keys a workload produces."""
    classify = classifier.classify
    n = len(requests)

    def loop() -> None:
        for i in range(decisions):
            classify(requests[i % n])

    return decisions / meter.run(loop).norm_s


def token_bucket_ops_per_s(meter: Meter, ops: int) -> float:
    from repro.core.token_bucket import TokenBucket

    bucket = TokenBucket(rate=1e6, now=0.0)
    consume = bucket.consume_available
    times: List[float] = [i * 1e-4 for i in range(ops)]

    def loop() -> None:
        for now in times:
            consume(50.0, now)

    return ops / meter.run(loop).norm_s
