"""The drain tick's memoised delivery against per-grant routing, over
generated queues.

``ReplayWorld._drain_stages`` drains every stage of a job through
``DataPlaneStage.drain_collect`` into one list, then delivers it with
the routing resolved once per kind and reused while the record does not
change.  For any queue contents (mixed kinds, counts, submission times,
records shared by stages and repeated within a queue), any rates, any
drain instants and with the MDS up or down, it must leave every
channel, bucket, MDS queue, failure tally and delivery window exactly
as draining each stage and routing its grants one by one, before the
next stage drains, does.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.requests import MDS_KIND_BY_OP, OperationType, batch_request
from repro.experiments.harness import ReplayWorld
from tests.experiments.test_bit_identity import drain_each_stage, drain_state, started_world

#: MDS kinds, a data kind and a client-local op.
OPS = (
    OperationType.OPEN,
    OperationType.STAT,
    OperationType.MKDIR,
    OperationType.CLOSE,
    OperationType.READ,
    OperationType.LSEEK,
)

#: (op, count, submitted_at, sampled) -- a record may be submitted after
#: the instant it is drained at (its wait clamps to 0).
RECORDS = st.tuples(
    st.sampled_from(OPS),
    st.floats(0.01, 400.0),
    st.floats(0.0, 30.0),
    st.booleans(),
)
RATES = st.one_of(st.none(), st.floats(0.5, 2_000.0))


@st.composite
def drains(draw):
    n_stages = draw(st.integers(1, 3))
    channel_mode = draw(st.sampled_from(["per-class", "per-op"]))
    n_channels = 1 if channel_mode == "per-class" else 4
    rates = draw(st.lists(RATES, min_size=n_stages * n_channels, max_size=n_stages * n_channels))
    ticks = sorted(draw(st.lists(st.floats(0.0, 30.0), min_size=1, max_size=3)))
    # Per tick: (records per channel index, shared by every stage; repeats).
    queued = [
        (
            draw(st.lists(st.lists(RECORDS, max_size=5), min_size=n_channels, max_size=n_channels)),
            draw(st.integers(1, 3)),
        )
        for _ in ticks
    ]
    mds_down = draw(st.booleans())
    return n_stages, channel_mode, rates, ticks, queued, mds_down


def _enqueue(channel, records) -> None:
    """``Channel.enqueue`` without re-stamping ``submitted_at``."""
    for record in records:
        channel._queue.append(record)
        channel._backlog += record.count
        channel.window_enqueued += record.count


def _run(drain, case) -> str:
    n_stages, channel_mode, rates, ticks, queued, mds_down = case
    world, runtime = started_world(n_stages, channel_mode)
    channels = [channel for stage in runtime.stages for channel in stage._channel_list]
    for channel, rate in zip(channels, rates):
        if rate is not None:
            channel.set_rate(rate, 0.0)
    if mds_down:
        world.cluster.mds_servers[0].fail(0.0)
    for now, (per_channel, repeats) in zip(ticks, queued):
        for index, rows in enumerate(per_channel):
            records = [
                batch_request(
                    op, "/pfs/job0/f", "job0", count, submitted_at=at,
                    kind_hint=MDS_KIND_BY_OP[op], trace=f"ctx{i}" if sampled else None,
                )
                for i, (op, count, at, sampled) in enumerate(rows)
            ]
            for stage in runtime.stages:
                _enqueue(stage._channel_list[index], records * repeats)
        drain(world, runtime, now)
    return drain_state(world, runtime)


class TestMemoisedDelivery:
    @settings(max_examples=200, deadline=None)
    @given(drains())
    def test_equals_per_grant_routing(self, case):
        assert _run(ReplayWorld._drain_stages, case) == _run(drain_each_stage, case)
