"""Latency QoS: rate caps bound metadata request latency (extension).

The paper evaluates throughput control; operators ultimately care about
*latency* -- an unresponsive MDS is one whose request latency exploded.
This experiment uses the per-request (discrete-event) MDS to measure what
the fluid model can only infer from queue depth:

* **uncontrolled** -- two aggressive clients drive the MDS past capacity;
  the queue (and thus every request's latency) grows without bound, and a
  *light* client suffers the same tail latency as the aggressors;
* **padll** -- a stage in front of each aggressive client caps aggregate
  admission below MDS capacity; queueing stays bounded and the light
  client's p99 latency drops by orders of magnitude.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping

import numpy as np

from repro.core.channel import Channel
from repro.errors import ConfigError
from repro.pfs.discrete import DiscreteMDS, DiscreteMDSConfig
from repro.simulation.engine import Environment
from repro.simulation.ticker import Ticker

__all__ = ["LatencyResult", "run_latency_qos", "main"]

MDS_CAPACITY = 4_000.0  # cost units/s; getattr => 4000 ops/s
N_AGGRESSORS = 2
AGGRESSOR_RATE = 3_000.0  # ops/s offered per aggressor (1.5x overload total)
LIGHT_RATE = 50.0  # the innocent client's modest op rate


@dataclass(frozen=True, slots=True)
class LatencyResult:
    """Latency statistics of one run."""

    controlled: bool
    #: client name -> sorted completion latencies (seconds).
    latencies: Mapping[str, np.ndarray]
    mds_served: int

    def percentile(self, client: str, q: float) -> float:
        lat = self.latencies[client]
        if lat.size == 0:
            return float("inf")
        return float(np.percentile(lat, q))

    def mean(self, client: str) -> float:
        lat = self.latencies[client]
        return float(lat.mean()) if lat.size else float("inf")


def _client_process(env, mds, name, rate, sink, stop_at, channel=None):
    """Open-loop arrivals; optionally admitted through a PADLL channel."""
    interval = 1.0 / rate
    counter = {"i": 0}

    def issue(path: str) -> None:
        proc = mds.submit("getattr", path)

        def done(event) -> None:
            if event.ok:
                sink(event.value)

        assert proc.callbacks is not None
        proc.callbacks.append(done)

    def arrivals():
        while env.now < stop_at:
            counter["i"] += 1
            path = f"/{name}/f{counter['i']}"
            if channel is None:
                issue(path)
            else:
                from repro.core.requests import OperationType, Request

                channel.enqueue(
                    Request(OperationType.STAT, path=path), env.now
                )
            yield env.timeout(interval)

    env.process(arrivals(), name=f"client-{name}")


def run_latency_qos(
    controlled: bool,
    duration: float = 60.0,
    cap_fraction: float = 0.8,
) -> LatencyResult:
    """Run the three-client latency scenario.

    ``cap_fraction`` sizes the per-aggressor admission rate so that total
    admitted load (aggressors + light client) stays below MDS capacity.
    """
    if not 0 < cap_fraction <= 1:
        raise ConfigError(f"cap fraction must be in (0, 1], got {cap_fraction}")
    env = Environment()
    mds = DiscreteMDS(
        env, DiscreteMDSConfig(capacity=MDS_CAPACITY, n_threads=8)
    )
    latencies: Dict[str, List[float]] = {"light": []}
    channels: Dict[str, Channel] = {}

    for i in range(N_AGGRESSORS):
        name = f"aggr{i}"
        latencies[name] = []
        channel = None
        if controlled:
            per_aggr = (MDS_CAPACITY * cap_fraction - LIGHT_RATE) / N_AGGRESSORS
            # Whole-request grants: each release issues one getattr, so a
            # split head would reach the MDS twice.
            channel = Channel(
                name, rate=per_aggr, burst=per_aggr * 0.5, integral=True
            )
            channels[name] = channel
        _client_process(
            env, mds, name, AGGRESSOR_RATE,
            latencies[name].append, duration, channel,
        )
    _client_process(env, mds, "light", LIGHT_RATE, latencies["light"].append, duration)

    if controlled:
        # The stage's drain loop: admit queued aggressor requests at the
        # provisioned rate, issuing each to the MDS on release.
        def drain(now: float) -> None:
            for name, channel in channels.items():
                def release(request, name=name):
                    # End-to-end latency = time queued in the stage +
                    # time at the MDS; hiding the stage wait would make
                    # the aggressors look better than they are.
                    queued = env.now - request.submitted_at
                    proc = mds.submit("getattr", request.path)

                    def done(event, name=name, queued=queued):
                        if event.ok:
                            latencies[name].append(queued + event.value)

                    assert proc.callbacks is not None
                    proc.callbacks.append(done)

                channel.drain(now, sink=release)

        Ticker(env, 0.1, drain, defer=1)

    env.run(until=duration * 1.05)
    return LatencyResult(
        controlled=controlled,
        latencies={k: np.sort(np.array(v)) for k, v in latencies.items()},
        mds_served=mds.total_served(),
    )


def main() -> None:
    for controlled in (False, True):
        result = run_latency_qos(controlled)
        label = "padll-capped" if controlled else "uncontrolled"
        print(f"--- {label} ---")
        for client in sorted(result.latencies):
            print(
                f"  {client:<7} n={result.latencies[client].size:<6} "
                f"mean {result.mean(client) * 1e3:9.2f} ms   "
                f"p99 {result.percentile(client, 99) * 1e3:9.2f} ms"
            )
        print(f"  MDS served {result.mds_served} requests")


if __name__ == "__main__":
    main()
