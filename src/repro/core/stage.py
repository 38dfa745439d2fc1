"""Data-plane stage: the per-node interception point.

A stage sits between one application instance and the file-system client.
Every intercepted POSIX request is classified; matched requests are held
to the rate the control plane provisioned for their enforcement channel;
unmatched requests pass straight through.

The control plane speaks one small contract to every stage -- create or
remove a channel, install or remove a rule, enforce a rate, collect the
window statistics, survive controller silence.  :class:`StageCore` is the
stage side of that contract; it is clock-agnostic (callers provide
``now``) and lock-free.  Two stages are built on it:

* :class:`DataPlaneStage` (here) queues matched requests in
  :class:`~repro.core.channel.Channel` objects and releases them on
  :meth:`~DataPlaneStage.drain`, on whatever clock the caller supplies
  (simulated seconds in the experiments);
* :class:`~repro.interpose.live_stage.LiveStage` blocks the calling
  application thread on a wall-clock bucket instead of queueing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Any, Callable, Dict, List, Mapping, NamedTuple, Optional, Sequence

from repro.errors import ConfigError
from repro.core.channel import Channel
from repro.core.differentiation import Classifier, ClassifierRule, Decision
from repro.core.requests import Request
from repro.core.token_bucket import UNLIMITED

__all__ = [
    "StageIdentity",
    "OrphanPolicy",
    "ChannelSnapshot",
    "StageStats",
    "StageCore",
    "DataPlaneStage",
]


@dataclass(frozen=True, slots=True)
class OrphanPolicy:
    """What a stage does when the control plane goes silent.

    A real LD_PRELOAD stage keeps serving requests when its controller is
    partitioned away; it must decide what rate to run at.  A stage enters
    the *orphaned* state after ``orphan_after`` loop intervals of the
    plane that enforces it pass without any enforcement message, then
    follows ``mode``:

    * ``"hold"`` -- keep the last enforced rates (optimistic: assume the
      allocation is still roughly right);
    * ``"decay"`` -- halve every channel's rate each ``half_life``
      seconds of silence, converging to ``floor`` (pessimistic: back off
      so an unsupervised stage cannot keep harming the MDS).

    The first enforcement message to arrive re-adopts the stage and
    restores normal operation.  The interval is not part of the policy:
    whoever builds the stage hands it the enforcing plane's
    ``loop_interval`` together with the policy
    (:meth:`StageCore.set_orphan_policy`), so the two cannot disagree.
    """

    orphan_after: int = 3
    mode: str = "hold"
    floor: float = 1.0
    half_life: float = 10.0

    def __post_init__(self) -> None:
        if self.orphan_after < 1:
            raise ConfigError(
                f"orphan_after must be >= 1, got {self.orphan_after}"
            )
        if self.mode not in ("hold", "decay"):
            raise ConfigError(f"mode must be 'hold' or 'decay', got {self.mode!r}")
        if self.floor <= 0:
            raise ConfigError(f"floor must be positive, got {self.floor}")
        if self.half_life <= 0:
            raise ConfigError(
                f"half_life must be positive, got {self.half_life}"
            )

    def silence_threshold(self, loop_interval: float) -> float:
        """Seconds of enforcement silence before a stage is orphaned,
        under a plane whose loop period is ``loop_interval``."""
        return self.orphan_after * loop_interval


@dataclass(frozen=True, slots=True)
class StageIdentity:
    """What a stage reports to the control plane when it registers.

    The control plane groups stages sharing a ``job_id`` and orchestrates
    them as a single job (paper section III-B).
    """

    stage_id: str
    job_id: str
    hostname: str = "localhost"
    pid: int = 0
    user: str = ""

    def __post_init__(self) -> None:
        if not self.stage_id:
            raise ConfigError("stage needs an id")
        if not self.job_id:
            raise ConfigError(f"stage {self.stage_id!r} needs a job id")


#: ``tuple.__new__``: builds a named tuple from its fields in C, without
#: the Python-level constructor frame a collect would pay per record.
_new_record = tuple.__new__


class ChannelSnapshot(NamedTuple):
    """One channel's collection window: what it granted and was offered,
    what is still queued, and the rate it ran at.  A stage's local folds
    the channel id, the offered ops and the backlog into its job's demand
    (:class:`~repro.core.hierarchy.LocalController`); the granted ops and
    the rate stay for the wire record's readers outside the loop.

    A :class:`~typing.NamedTuple`, like every record a control tick
    builds per stage: a stage builds one per channel per collect, and a
    positional named tuple costs a fraction of a frozen dataclass
    ``__init__`` (``tests/core/test_control_cost.py`` pins that none is
    left on the tick).
    """

    channel_id: str
    granted_ops: float
    enqueued_ops: float
    backlog: float
    rate_limit: float


class StageStats(NamedTuple):
    """One stage's report to the control plane's feedback loop (a
    :class:`~typing.NamedTuple`, for the reason :class:`ChannelSnapshot`
    gives).  The plane keys replies by endpoint, so the record names
    only the job its window counts toward."""

    job_id: str
    window: float
    channels: tuple[ChannelSnapshot, ...]


class StageCore:
    """Everything the control plane touches on a stage, written once.

    Identity, classifier, the channel table, rule install/removal, the
    controller-silence state machine and the collect window.  A concrete
    stage adds a channel kind (:meth:`_make_channel`) and a data path.
    The core reads no clock and takes no lock: every method that needs
    the time is handed ``now``, and a stage whose data path runs on
    other threads serialises its calls into the core itself.

    A channel kind provides ``channel_id``, ``rate``, ``backlog``,
    ``set_rate(rate, now, burst)`` and
    ``collect() -> (granted, enqueued, backlog)``.
    """

    def __init__(
        self, identity: StageIdentity, classifier: Classifier, now: float
    ) -> None:
        self.identity = identity
        self.classifier = classifier
        #: Controller-silence survival policy (None = hold rates forever,
        #: implicitly, with no orphaned state to report) and the silence,
        #: in seconds, after which it orphans the stage.
        self._orphan_policy: Optional[OrphanPolicy] = None
        self._silence_threshold = math.inf
        self._last_enforced: Optional[float] = None
        self._orphan_since: Optional[float] = None
        self._orphan_rates: Dict[str, float] = {}
        self.orphan_transitions = 0
        self._channels: Dict[str, Any] = {}
        #: Channels in creation order; the per-tick walks iterate this
        #: list instead of rebuilding a dict view.
        self._channel_list: List[Any] = []
        #: Zero-copy read view handed out by the ``channels`` property.
        self._channels_view: Mapping[str, Any] = MappingProxyType(self._channels)
        self._passthrough_total = 0.0
        #: The first collect window opens when the stage starts.
        self._last_collect = now
        self._telemetry = None

    # -- channel management (control-plane driven) ---------------------------
    @property
    def channels(self) -> Mapping[str, Any]:
        """Read-only live view of the channel table (no copy per access)."""
        return self._channels_view

    def _make_channel(
        self, channel_id: str, rate: float, burst: Optional[float], now: float
    ):
        raise NotImplementedError

    def create_channel(
        self,
        channel_id: str,
        rate: float = UNLIMITED,
        burst: Optional[float] = None,
        *,
        now: float = 0.0,
    ):
        """Create an enforcement channel (error if the id exists)."""
        if channel_id in self._channels:
            raise ConfigError(f"channel {channel_id!r} already exists")
        channel = self._make_channel(channel_id, rate, burst, now)
        self._channels[channel_id] = channel
        self._channel_list.append(channel)
        return channel

    def remove_channel(self, channel_id: str) -> None:
        """Remove a channel; refuses while requests are still queued or
        an installed rule still routes to it."""
        channel = self._channel(channel_id)
        if channel.backlog > 0:
            raise ConfigError(
                f"channel {channel_id!r} still holds {channel.backlog} queued ops"
            )
        routed = [
            rule.name for rule in self.classifier.rules
            if rule.channel_id == channel_id
        ]
        if routed:
            raise ConfigError(
                f"channel {channel_id!r} is still the target of rule(s) "
                f"{', '.join(map(repr, routed))}"
            )
        del self._channels[channel_id]
        self._channel_list.remove(channel)

    def channel_rate(self, channel_id: str) -> float:
        return self._channel(channel_id).rate

    def add_classifier_rule(self, rule: ClassifierRule) -> None:
        """Install a differentiation rule; its channel must already exist."""
        if rule.channel_id not in self._channels:
            raise ConfigError(
                f"rule {rule.name!r} targets unknown channel {rule.channel_id!r}"
            )
        self.classifier.add_rule(rule)

    def remove_classifier_rule(self, name: str) -> None:
        self.classifier.remove_rule(name)

    def _channel(self, channel_id: str):
        try:
            return self._channels[channel_id]
        except KeyError:
            raise ConfigError(f"no channel {channel_id!r} in stage "
                              f"{self.identity.stage_id!r}") from None

    def _enforce_rate(
        self, channel_id: str, rate: float, now: float, burst: Optional[float]
    ) -> None:
        """Apply a control-plane rate rule; any such message (re-)adopts."""
        try:
            channel = self._channels[channel_id]
        except KeyError:
            channel = self._channel(channel_id)  # raises the ConfigError
        channel.set_rate(rate, now, burst)
        if self._orphan_policy is not None:
            self._note_enforcement(now)

    # -- orphan policy ---------------------------------------------------------
    def set_orphan_policy(
        self, policy: Optional[OrphanPolicy], loop_interval: Optional[float] = None
    ) -> None:
        """Install (or clear, with None) the controller-silence survival
        policy.  ``loop_interval`` is the period of the plane that
        enforces this stage: the stage orphans after
        ``policy.orphan_after`` of them pass without enforcement."""
        if policy is None:
            self._silence_threshold = math.inf
        elif loop_interval is None or loop_interval <= 0:
            raise ConfigError(
                "an orphan policy needs the enforcing plane's loop interval, "
                f"got {loop_interval!r}"
            )
        else:
            self._silence_threshold = policy.silence_threshold(loop_interval)
        self._orphan_policy = policy
        self._orphan_since = None
        self._orphan_rates = {}

    @property
    def orphaned(self) -> bool:
        return self._orphan_since is not None

    def _note_enforcement(self, now: float) -> None:
        """An enforcement message arrived: the stage is (re-)adopted."""
        self._last_enforced = now
        if self._orphan_since is not None:
            self._orphan_since = None
            self._orphan_rates = {}
            if self._telemetry is not None:
                self._telemetry.events.emit(
                    "stage.adopted",
                    now,
                    stage=self.identity.stage_id,
                    job=self.identity.job_id,
                )

    def _orphan_check(self, now: float) -> None:
        """Enter/advance the orphaned state (called from the data path)."""
        policy = self._orphan_policy
        last = self._last_enforced
        if last is None:
            return  # never adopted by a controller; nothing to miss
        if self._orphan_since is None:
            if now - last < self._silence_threshold:
                return
            self._orphan_since = now
            self._orphan_rates = {
                channel.channel_id: channel.rate
                for channel in self._channel_list
            }
            self.orphan_transitions += 1
            if self._telemetry is not None:
                self._telemetry.events.emit(
                    "stage.orphaned",
                    now,
                    stage=self.identity.stage_id,
                    job=self.identity.job_id,
                    mode=policy.mode,
                    floor=policy.floor,
                )
        if policy.mode == "decay":
            # Halve toward the safe floor each half-life of silence.
            factor = 2.0 ** (-(now - self._orphan_since) / policy.half_life)
            floor = policy.floor
            for channel in self._channel_list:
                base = self._orphan_rates.get(channel.channel_id, channel.rate)
                target = base * factor
                if target < floor:
                    target = floor
                channel.set_rate(target, now)

    # -- monitoring -------------------------------------------------------------
    def backlog(self, channel_id: Optional[str] = None) -> float:
        if channel_id is not None:
            return self._channel(channel_id).backlog
        return sum(c.backlog for c in self._channel_list)

    @property
    def passthrough_total(self) -> float:
        return self._passthrough_total

    def _collect_window(self, now: float) -> StageStats:
        """Export and reset window statistics (control-plane heartbeat)."""
        window = now - self._last_collect
        snapshots = []
        for channel in self._channel_list:
            granted, enqueued, backlog = channel.collect()
            snapshots.append(
                _new_record(
                    ChannelSnapshot,
                    (channel.channel_id, granted, enqueued, backlog, channel.rate),
                )
            )
        self._last_collect = now
        return _new_record(
            StageStats, (self.identity.job_id, window, tuple(snapshots))
        )


class DataPlaneStage(StageCore):
    """One PADLL stage: the core + queueing channels + a downstream sink.

    ``pfs_mounts`` enables mount-point differentiation (non-PFS paths pass
    through untouched).  ``now`` is when the stage starts: its first
    collect window opens then.
    """

    def __init__(
        self,
        identity: StageIdentity,
        sink: Callable[[Request], None],
        pfs_mounts: Optional[Sequence[str]] = None,
        telemetry=None,
        *,
        now: float = 0.0,
    ) -> None:
        super().__init__(identity, Classifier(pfs_mounts=pfs_mounts), now)
        self._sink = sink
        self._m_enforced = None
        self._m_passthrough = None
        if telemetry is not None:
            self.attach_telemetry(telemetry)

    def attach_telemetry(self, telemetry) -> None:
        """Wire this stage (and its channels) into a telemetry spine.

        Handle creation happens once here so the per-request cost of an
        enabled metric is one counter add; with telemetry detached
        (``None``) the data path only ever pays an ``is None`` check.
        """
        self._telemetry = telemetry
        if telemetry is None:
            self._m_enforced = None
            self._m_passthrough = None
            return
        registry = telemetry.registry
        stage_id = self.identity.stage_id
        self._m_enforced = registry.counter(
            "padll_stage_enforced_ops_total", stage=stage_id
        )
        self._m_passthrough = registry.counter(
            "padll_stage_passthrough_ops_total", stage=stage_id
        )
        for channel in self._channel_list:
            channel.attach_telemetry(telemetry, stage_id)

    def _make_channel(
        self, channel_id: str, rate: float, burst: Optional[float], now: float
    ) -> Channel:
        channel = Channel(channel_id, rate, burst, now=now)
        if self._telemetry is not None:
            channel.attach_telemetry(self._telemetry, self.identity.stage_id)
        return channel

    def set_channel_rate(
        self, channel_id: str, rate: float, now: float, burst: Optional[float] = None
    ) -> None:
        """Apply a control-plane rate rule to one channel."""
        self._enforce_rate(channel_id, rate, now, burst)

    # -- data path -------------------------------------------------------------
    def submit(self, request: Request, now: float) -> Decision:
        """Intercept one request: classify, then enqueue or pass through."""
        request.job_id = request.job_id or self.identity.job_id
        decision = self.classifier.classify(request)
        telemetry = self._telemetry
        if decision.enforced:
            assert decision.channel_id is not None
            if telemetry is not None:
                self._m_enforced.inc(request.count)
                tracer = telemetry.tracer
                if tracer is not None:
                    ctx = tracer.sample()
                    if ctx is not None:
                        request.trace = ctx
                        tracer.emit_point(
                            ctx, "stage.submit", now,
                            op=request.op.value,
                            channel=decision.channel_id,
                            count=request.count,
                        )
            self._channel(decision.channel_id).enqueue(request, now)
        else:
            if telemetry is not None:
                self._m_passthrough.inc(request.count)
            self._passthrough_total += request.count
            self._sink(request)
        return decision

    def drain(self, now: float) -> float:
        """Release throttled work downstream; return total ops granted.

        Channels are drained in creation order; a round-robin refinement
        is unnecessary because per-channel buckets already bound each
        channel's share.  The grants reach the sink in grant order once
        every channel has drained (:meth:`drain_collect`): releasing a
        grant has no effect on channel state, so this equals per-grant
        delivery.
        """
        grants: List[Request] = []
        total = self.drain_collect(now, grants)
        sink = self._sink
        for request in grants:
            sink(request)
        return total

    def drain_collect(self, now: float, grants: List[Request]) -> float:
        """:meth:`drain`, but append granted records to ``grants`` instead
        of invoking the sink per grant.

        A caller that delivers the collected records afterwards (in list
        order) observes exactly the per-grant sink semantics -- while
        paying one C-level ``list.append`` per grant instead of a Python
        sink call chain.  The replay world's drain tick drains every
        stage this way (``ReplayWorld._drain_stages``).
        """
        if self._orphan_policy is not None:
            self._orphan_check(now)
        total = 0.0
        telemetry = self._telemetry
        append = grants.append
        for channel in self._channel_list:
            total += channel.drain(now, append, telemetry)
        return total

    def collect(self, now: float) -> StageStats:
        """Export and reset window statistics (control-plane heartbeat)."""
        stats = self._collect_window(now)
        telemetry = self._telemetry
        if telemetry is not None:
            # Control-plane frequency (~1 Hz): registry interning here is
            # cheaper than carrying per-channel gauge handles on the stage.
            registry = telemetry.registry
            stage_id = self.identity.stage_id
            for snapshot in stats.channels:
                registry.gauge(
                    "padll_channel_backlog_ops",
                    stage=stage_id, channel=snapshot.channel_id,
                ).set(snapshot.backlog)
        return stats
