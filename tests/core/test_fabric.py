"""FaultyFabric: deterministic loss, latency, jitter, and partitions."""

from __future__ import annotations

import pytest

from repro.errors import ConfigError, RPCError, StageNotRegistered
from repro.core.fabric import FaultyFabric, LinkProfile
from repro.core.rpc import CollectStats, EnforceRate, Ping
from repro.simulation.engine import Environment


def echo(message):
    return message


class TestLinkProfile:
    def test_validation(self):
        # A bad profile is a configuration mistake, not a transport failure.
        with pytest.raises(ConfigError):
            LinkProfile(latency=-1.0)
        with pytest.raises(ConfigError):
            LinkProfile(jitter=-0.1)
        with pytest.raises(ConfigError):
            LinkProfile(loss=1.5)
        assert LinkProfile().faultless
        assert not LinkProfile(loss=0.1).faultless


class TestSyncMode:
    def test_dispatches_synchronously(self):
        fabric = FaultyFabric()
        fabric.bind("a", lambda m: "pong")
        assert fabric.call("a", Ping()) == "pong"
        assert fabric.calls == 1

    def test_unknown_address(self):
        fabric = FaultyFabric()
        with pytest.raises(StageNotRegistered):
            fabric.call("ghost", Ping())

    def test_duplicate_bind_rejected(self):
        fabric = FaultyFabric()
        fabric.bind("a", echo)
        with pytest.raises(RPCError):
            fabric.bind("a", echo)

    def test_loss_raises_rpc_error(self):
        fabric = FaultyFabric(link=LinkProfile(loss=1.0), seed=7)
        fabric.bind("a", echo)
        with pytest.raises(RPCError):
            fabric.call("a", Ping())
        assert fabric.dropped == 1
        assert fabric.lost == 1

    def test_loss_is_seed_deterministic(self):
        def run(seed):
            fabric = FaultyFabric(link=LinkProfile(loss=0.5), seed=seed)
            fabric.bind("a", echo)
            outcomes = []
            for _ in range(50):
                try:
                    fabric.call("a", Ping())
                    outcomes.append(True)
                except RPCError:
                    outcomes.append(False)
            return outcomes

        assert run(3) == run(3)
        assert run(3) != run(4)

    def test_call_async_requires_engine(self):
        fabric = FaultyFabric()
        fabric.bind("a", echo)
        with pytest.raises(ConfigError):
            fabric.call_async("a", Ping())

    def test_partition_requires_engine(self):
        with pytest.raises(ConfigError):
            FaultyFabric().partition(0.0, 5.0)


class TestSyncDropChecks:
    """A synchronous call runs the drop checks only when something could
    drop it; every source of drops drops exactly as it did when every
    call ran them (outcome strings recorded then, seed 3)."""

    @staticmethod
    def outcomes(fabric, n=12):
        """'1' per delivered / '0' per dropped call, to "a" and "b" in
        turn; then the call and drop counts."""
        fabric.bind("a", echo)
        fabric.bind("b", echo)
        delivered = []
        for _ in range(n):
            for address in ("a", "b"):
                try:
                    fabric.call(address, Ping())
                    delivered.append("1")
                except RPCError:
                    delivered.append("0")
        return "".join(delivered), fabric.calls, fabric.dropped

    def test_loss(self):
        fabric = FaultyFabric(link=LinkProfile(loss=0.5), seed=3)
        assert self.outcomes(fabric) == ("001100001001011101100100", 24, 14)

    def test_per_address_link(self):
        fabric = FaultyFabric(seed=3)
        fabric.set_link("b", LinkProfile(loss=0.5))
        assert self.outcomes(fabric) == ("101011111010101011101011", 24, 8)

    def test_drop_fn(self):
        fabric = FaultyFabric(drop_fn=lambda address, message: address == "b")
        assert self.outcomes(fabric) == ("10" * 12, 24, 12)

    def test_partition(self):
        fabric = FaultyFabric(clock=lambda: 1.0)
        fabric.partition(0.0, 5.0, addresses=["a"])
        assert self.outcomes(fabric) == ("01" * 12, 24, 12)
        assert fabric.partitioned == 12

    def test_nothing_to_drop_draws_nothing(self):
        fabric = FaultyFabric(seed=3)
        state = fabric._rng.bit_generator.state
        assert self.outcomes(fabric) == ("1" * 24, 24, 0)
        assert fabric._rng.bit_generator.state == state


class TestAsyncReplies:
    def test_reply_traverses_both_legs(self, env):
        fabric = FaultyFabric(env=env, link=LinkProfile(latency=2.0))
        fabric.bind("a", lambda m: "stats")
        got = []
        event = fabric.call_async("a", CollectStats(now=0.0))
        event.callbacks.append(lambda e: got.append((env.now, e.value)))
        env.run(until=10.0)
        assert got == [(4.0, "stats")]

    def test_jitter_is_seeded(self):
        def arrival(seed):
            env = Environment()
            fabric = FaultyFabric(
                env=env, link=LinkProfile(latency=1.0, jitter=0.5), seed=seed
            )
            fabric.bind("a", echo)
            times = []
            event = fabric.call_async("a", Ping())
            event.callbacks.append(lambda e: times.append(env.now))
            env.run(until=10.0)
            return times

        assert arrival(11) == arrival(11)
        assert arrival(11) != arrival(12)
        assert 2.0 <= arrival(11)[0] < 3.0  # two legs of [1.0, 1.5)

    def test_lost_request_never_fires(self, env):
        fabric = FaultyFabric(env=env, link=LinkProfile(loss=1.0))
        fabric.bind("a", lambda m: "stats")
        fired = []
        event = fabric.call_async("a", CollectStats(now=0.0))
        event.callbacks.append(lambda e: fired.append(e))
        env.run(until=100.0)
        assert fired == []
        assert fabric.dropped == 1

    def test_handler_error_fails_event_with_rpc_error(self, env):
        def boom(message):
            raise RuntimeError("internal")

        fabric = FaultyFabric(env=env, link=LinkProfile(latency=1.0))
        fabric.bind("a", boom)
        failures = []
        event = fabric.call_async("a", Ping())
        event.callbacks.append(lambda e: failures.append(e.value))
        env.run(until=10.0)
        assert len(failures) == 1
        assert isinstance(failures[0], RPCError)
        assert "internal" in str(failures[0])


class TestDeferredCall:
    def test_enforce_applies_at_arrival_with_now_rewrite(self, env):
        seen = []
        fabric = FaultyFabric(env=env, link=LinkProfile(latency=3.0))
        fabric.bind("a", lambda m: seen.append((env.now, m.now)))
        env.call_at(1.0, lambda: fabric.call("a", EnforceRate("c", 5.0, now=1.0)))
        env.run(until=10.0)
        assert seen == [(4.0, 4.0)]  # delivered at 4.0, now rewritten

    def test_loss_drops_silently(self, env):
        seen = []
        fabric = FaultyFabric(env=env, link=LinkProfile(latency=1.0, loss=1.0))
        fabric.bind("a", lambda m: seen.append(m))
        fabric.call("a", EnforceRate("c", 5.0, now=0.0))
        env.run(until=10.0)
        assert seen == []
        assert fabric.dropped == 1

    def test_deregistered_in_flight_swallowed(self, env):
        seen = []
        fabric = FaultyFabric(env=env, link=LinkProfile(latency=2.0))
        fabric.bind("a", lambda m: seen.append(m))
        fabric.call("a", EnforceRate("c", 5.0, now=0.0))
        fabric.unbind("a")
        env.run(until=10.0)
        assert seen == []


class TestPartitions:
    def test_partition_window_then_heal(self, env):
        seen = []
        fabric = FaultyFabric(env=env, link=LinkProfile(latency=0.5))
        fabric.bind("a", lambda m: seen.append(env.now))
        fabric.partition(2.0, 5.0, addresses=["a"])
        for t in (0.0, 3.0, 6.0):
            env.call_at(t, lambda: fabric.call("a", EnforceRate("c", 1.0, now=0.0)))
        env.run(until=10.0)
        # The 3.0 send falls inside the partition and vanishes.
        assert seen == [0.5, 6.5]
        assert fabric.partitioned == 1

    def test_partition_scopes_to_addresses(self, env):
        seen = []
        fabric = FaultyFabric(env=env, link=LinkProfile(latency=0.5))
        fabric.bind("a", lambda m: seen.append("a"))
        fabric.bind("b", lambda m: seen.append("b"))
        fabric.partition(0.0, 10.0, addresses=["a"])
        fabric.call("a", EnforceRate("c", 1.0, now=0.0))
        fabric.call("b", EnforceRate("c", 1.0, now=0.0))
        env.run(until=20.0)
        assert seen == ["b"]

    def test_global_partition(self, env):
        fabric = FaultyFabric(env=env, link=LinkProfile(latency=0.5))
        fabric.bind("a", echo)
        fabric.partition(0.0, 4.0)
        fired = []
        event = fabric.call_async("a", Ping())
        event.callbacks.append(lambda e: fired.append(e))
        env.run(until=10.0)
        assert fired == []

    def test_bad_window_rejected(self, env):
        fabric = FaultyFabric(env=env)
        with pytest.raises(ConfigError):
            fabric.partition(5.0, 5.0)


class TestPerLinkOverrides:
    def test_set_link_overrides_default(self, env):
        fabric = FaultyFabric(env=env, link=LinkProfile(latency=1.0))
        fabric.set_link("slow", LinkProfile(latency=10.0))
        fabric.bind("fast", echo)
        fabric.bind("slow", echo)
        arrivals = {}
        for addr in ("fast", "slow"):
            evt = fabric.call_async(addr, Ping())
            evt.callbacks.append(
                lambda e, a=addr: arrivals.setdefault(a, env.now)
            )
        env.run(until=50.0)
        assert arrivals == {"fast": 2.0, "slow": 20.0}
