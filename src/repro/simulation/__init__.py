"""Discrete-event simulation substrate.

A small, dependency-free engine in the style of SimPy: an
:class:`~repro.simulation.engine.Environment` owns a simulated clock and an
event heap; *processes* are Python generators that ``yield`` events
(:class:`~repro.simulation.engine.Timeout`, bare
:class:`~repro.simulation.engine.Event`, or another process) and are resumed
when those events fire.

The engine serves two styles of modelling used throughout the reproduction:

* **per-request** events for correctness-critical paths (MDS queueing,
  RPC exchanges), and
* **fluid per-tick batches** for the paper's experiment scale (10^5-10^6
  metadata ops/s), where token-bucket arithmetic over a tick is closed-form
  and simulating individual operations would be pointless work.

Beyond one core, :mod:`repro.simulation.sharded` partitions a cluster
into blocks of closed-form fluid racks, run in-process behind a
deterministic epoch barrier -- the path to 10^4 stages / 10^6 simulated
clients with bit-identical fixed-seed results at any shard count.
"""

from repro.simulation.engine import AllOf, Environment, Event, Process, Timeout
from repro.simulation.resources import Resource
from repro.simulation.rng import SeedSequence, make_rng
from repro.simulation.ticker import Ticker

__all__ = [
    "AllOf",
    "Environment",
    "Event",
    "Process",
    "Resource",
    "SeedSequence",
    "Ticker",
    "Timeout",
    "make_rng",
]
