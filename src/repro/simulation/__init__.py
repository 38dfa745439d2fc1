"""Discrete-event simulation substrate.

A small, dependency-free engine in the style of SimPy: an
:class:`~repro.simulation.engine.Environment` owns a simulated clock and an
event heap.  Every world is tick-driven: a
:class:`~repro.simulation.ticker.Ticker` (or ``Environment.call_at``)
fires a callback that moves one tick's work as a fluid batch -- at the
paper's scale (10^5-10^6 metadata ops/s) token-bucket and MDS arithmetic
over a tick is closed-form, so simulating individual operations would be
pointless work.  The only per-request events are the control fabric's
deferred RPC replies (:class:`~repro.simulation.engine.Event`).

Beyond one core, :mod:`repro.simulation.sharded` partitions a cluster
into blocks of closed-form fluid racks, run in-process behind a
deterministic epoch barrier -- the path to 10^4 stages / 10^6 simulated
clients with bit-identical fixed-seed results at any shard count.
"""

from repro import lazy_exports

_EXPORTS = {
    "Environment": "repro.simulation.engine",
    "Event": "repro.simulation.engine",
    "Process": "repro.simulation.engine",
    "SeedSequence": "repro.simulation.rng",
    "Ticker": "repro.simulation.ticker",
    "Timeout": "repro.simulation.engine",
    "make_rng": "repro.simulation.rng",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
