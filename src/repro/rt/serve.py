"""The one bound server of the Cristian exchange, riding a synced node.

The paper's Sec 4 application: lightweight clients do not join the
history/AGDP protocol at all - they probe a synced node and receive the
node's *optimal external bounds*, paying one message round trip instead
of a protocol membership.  A :class:`ServeNode` rides on an existing
:class:`~repro.rt.node.Node`: it registers its own transport endpoint,
answers request frames with answer frames carrying the node's
:meth:`~repro.rt.node.Node.estimate_at_now` interval, and keeps **zero
per-client state** - correlation is the client's nonce, so millions of
clients cost the server only the traffic they generate.

The exchange is spoken over two frame pairs, selected by class
attributes and nothing else: ``probe``/``reply`` on
``serve_endpoint(proc)`` (this class, the serving tier) and
``dreq``/``deleg`` on ``deleg_endpoint(proc)``
(:class:`~repro.rt.strata.delegation.DelegationServer`, which only adds
the ``hops``/``stratum`` it stamps on every answer).  Decode, screening,
admission, the queue worker and the answer arithmetic exist once.

A serving tier is deployable only if it stays *sound under stress*.
Three robustness mechanisms are built in:

* **Admission control + load shedding.**  A token bucket (``bucket_rate``
  sustained queries/s, ``bucket_burst`` burst) gates probes into a
  bounded request queue (``queue_limit``).  Over-rate or over-queue
  probes receive an explicit ``shed`` frame with a ``retry_after`` hint
  instead of silence - the client can distinguish an overloaded server
  (back off as told) from a dead one (fail over).  Shedding is computed
  on the fast path, before any estimator work.
* **Sound degraded responses.**  When the node's estimator state is
  stale (no event for more than ``stale_after`` local seconds) or its
  estimator has quarantined constraints (:attr:`EfficientCSA.degraded`),
  the reply is *widened* by an extra drift allowance of
  ``rho * (now - last_event)`` on both sides - ``rho`` being the serving
  clock's worst advertised deviation (or the configured override) - and
  flagged ``degraded``.  Widening a sound interval is always sound
  (Theorem 2.1: dropping information only loosens bounds), so a stressed
  server *degrades loudly instead of lying*; it never sheds precision
  silently and never fabricates tightness.
* **Never answer unbacked.**  With no finite two-sided estimate yet
  (fresh node, pre-convergence, post-eviction isolation) the server
  sheds with reason ``unsynced`` - an infinite bound is not a reply.

All serve traffic shares the node's transport, so
:class:`~repro.rt.transport.FaultMiddleware` fault plans (burst loss,
duplication, partitions) apply to the serve path exactly as to gossip,
and a crashed node's serve endpoint goes down with it.

Time hygiene: every rate/age computation reads the shared
:class:`~repro.rt.clock.TimeBase` (monotonic) and the node's
:class:`~repro.rt.clock.ClockSource`; wall-clock time is never consulted,
so a host wall-clock step cannot open the bucket or mask staleness.
"""

from __future__ import annotations

import asyncio
from collections import deque
from dataclasses import dataclass, field, fields
from typing import Callable, Deque, Dict, Optional, Tuple

from ..core.errors import SimulationError
from ..core.events import ProcessorId
from ..core.intervals import ClockBound
from .node import Node
from .transport import Transport
from .wire import (
    WIRE_VERSION_BINARY,
    Frame,
    decode_frame,
    encode_frame,
    reply_frame,
    shed_frame,
)

__all__ = [
    "SERVE_SUFFIX",
    "serve_endpoint",
    "serve_owner",
    "TokenBucket",
    "ServeConfig",
    "CounterStats",
    "ServeStats",
    "BoundSource",
    "ServeNode",
]

#: appended to a node's processor id to name its serving endpoint
SERVE_SUFFIX = "!serve"


def serve_endpoint(proc: ProcessorId) -> ProcessorId:
    """The transport endpoint name of ``proc``'s serving tier."""
    return f"{proc}{SERVE_SUFFIX}"


def serve_owner(endpoint: ProcessorId) -> Optional[ProcessorId]:
    """The node behind a serving endpoint name, or ``None`` if not one."""
    if endpoint.endswith(SERVE_SUFFIX) and len(endpoint) > len(SERVE_SUFFIX):
        return endpoint[: -len(SERVE_SUFFIX)]
    return None


class TokenBucket:
    """A deterministic token bucket over an externally supplied clock.

    ``rate`` tokens/s refill up to ``burst``; :meth:`try_take` consumes
    one token if available.  The caller supplies every ``now`` reading
    (the shared monotonic time base), so the bucket itself never touches
    a clock - which keeps it testable with fake time and immune to
    wall-clock steps.
    """

    def __init__(self, rate: float, burst: float):
        if rate <= 0 or burst <= 0:
            raise SimulationError(
                f"token bucket needs positive rate/burst, got {rate}/{burst}"
            )
        self.rate = rate
        self.burst = burst
        self._tokens = burst
        self._last: Optional[float] = None

    def _refill(self, now: float) -> None:
        if self._last is not None and now > self._last:
            self._tokens = min(self.burst, self._tokens + (now - self._last) * self.rate)
        self._last = now if self._last is None else max(self._last, now)

    def try_take(self, now: float) -> bool:
        """Consume one token at time ``now`` if the bucket allows it."""
        self._refill(now)
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return True
        return False

    def retry_after(self, now: float) -> float:
        """Seconds from ``now`` until one whole token will be available."""
        self._refill(now)
        deficit = 1.0 - self._tokens
        return 0.0 if deficit <= 0 else deficit / self.rate


@dataclass(frozen=True)
class ServeConfig:
    """Tunables of one serving endpoint."""

    #: sustained admitted probes per second
    bucket_rate: float = 500.0
    #: instantaneous burst the bucket absorbs
    bucket_burst: float = 50.0
    #: probes queued awaiting service before shedding with reason ``queue``
    queue_limit: int = 64
    #: per-request service delay (seconds); models downstream work
    service_time: float = 0.0
    #: estimator state older than this (local s) answers as degraded
    stale_after: float = 1.0
    #: drift allowance per stale local second; None -> the serving
    #: clock's advertised worst deviation (``DriftSpec.max_deviation``)
    degraded_rho: Optional[float] = None
    #: shed retry hint while the estimator has no finite estimate
    unsynced_retry_after: float = 0.5

    def __post_init__(self):
        if self.bucket_rate <= 0 or self.bucket_burst <= 0:
            raise SimulationError("bucket rate and burst must be positive")
        if self.queue_limit < 1:
            raise SimulationError(f"queue limit must be >= 1, got {self.queue_limit}")
        if self.service_time < 0 or self.stale_after < 0:
            raise SimulationError("service_time and stale_after must be non-negative")
        if self.degraded_rho is not None and self.degraded_rho < 0:
            raise SimulationError(f"degraded_rho must be >= 0, got {self.degraded_rho}")
        if self.unsynced_retry_after < 0:
            raise SimulationError("unsynced_retry_after must be non-negative")


@dataclass
class CounterStats:
    """Live counters that archive themselves from their dataclass fields."""

    def to_dict(self) -> Dict:
        doc = {}
        for spec in fields(self):
            value = getattr(self, spec.name)
            doc[spec.name] = dict(sorted(value.items())) if isinstance(value, dict) else value
        return doc

    @classmethod
    def from_dict(cls, data: Dict):
        """Rebuild from an archived row.

        Derived keys are ignored; missing counters keep their defaults.
        """
        names = {spec.name for spec in fields(cls)}
        return cls(**{key: value for key, value in data.items() if key in names})


@dataclass
class ServeStats(CounterStats):
    """Live counters of one serving endpoint (shapes the run document)."""

    #: well-formed requests (``probe`` or ``dreq``) addressed to this endpoint
    probes: int = 0
    replies: int = 0
    degraded_replies: int = 0
    #: shed verdicts by reason (``overload``/``queue``/``unsynced``)
    shed: Dict[str, int] = field(default_factory=dict)
    decode_errors: int = 0
    rejected_frames: int = 0
    #: probes silently dropped because the backing node was down
    dropped_down: int = 0
    max_queue_depth: int = 0
    #: answers that raised inside the queue worker (counted, worker survives)
    worker_errors: int = 0

    @property
    def shed_total(self) -> int:
        return sum(self.shed.values())

    def shed_rate(self) -> float:
        """Fraction of well-formed probes answered with a shed."""
        return self.shed_total / self.probes if self.probes else 0.0

    def to_dict(self) -> Dict:
        return {
            **super().to_dict(),
            "shed_total": self.shed_total,
            "shed_rate": self.shed_rate(),
        }


#: a bound source answers ``(bound, degraded, age)`` or None when unsynced
BoundSource = Callable[[], Optional[Tuple[ClockBound, bool, float]]]


#: what a bound source that has nothing fresh stands for
_UNSYNCED = (ClockBound.unbounded(), False, 0.0)


class ServeNode:
    """One serving endpoint riding on a synced :class:`Node`.

    Lifecycle mirrors the node daemon: :meth:`start` registers the
    endpoint and spawns the queue worker, :meth:`stop` tears both down.
    The synchronous core (:meth:`handle_probe_bytes`) is separated from
    the asyncio shell so the admission/bound/encode hot path can be unit
    tested and benchmarked without an event loop.
    """

    #: the frame pair spoken: the request type screened for, the answer
    #: constructor, and the endpoint naming rule
    request_type = "probe"
    answer_frame = staticmethod(reply_frame)
    endpoint_of = staticmethod(serve_endpoint)

    def __init__(
        self,
        node: Node,
        transport: Optional[Transport] = None,
        config: Optional[ServeConfig] = None,
        bound_source: Optional[BoundSource] = None,
    ):
        self.node = node
        self.transport = transport if transport is not None else node.transport
        self.config = config if config is not None else ServeConfig()
        #: optional override answering ``(bound, degraded, age)`` or None
        #: in place of the node's own estimator - e.g. a stratum border's
        #: :meth:`~repro.rt.strata.delegation.AnchorLink.composed_now`,
        #: so a downstream tier's serving endpoint hands clients
        #: federation-level source-time bounds instead of tier-local ones
        self.bound_source = bound_source
        self.endpoint = self.endpoint_of(node.proc)
        self.bucket = TokenBucket(self.config.bucket_rate, self.config.bucket_burst)
        self.stats = ServeStats()
        #: admitted probes with the codec each arrived in (echoed back)
        self._queue: Deque[Tuple[Frame, str]] = deque()
        self._wakeup: Optional[asyncio.Event] = None
        self._worker: Optional[asyncio.Task] = None
        self._running = False

    @property
    def running(self) -> bool:
        return self._running

    # -- lifecycle ---------------------------------------------------------------

    async def start(self) -> None:
        if self._running:
            return
        self._running = True
        self._wakeup = asyncio.Event()
        self.transport.register(self.endpoint, self._on_datagram)
        ensure = getattr(self.transport, "ensure_endpoint", None)
        if ensure is not None:
            await ensure(self.endpoint)
        self._worker = asyncio.get_running_loop().create_task(self._serve_loop())

    async def stop(self) -> None:
        """Fail-stop with the node: drop the endpoint, abandon the queue."""
        self._running = False
        self.transport.unregister(self.endpoint)
        if self._worker is not None:
            self._worker.cancel()
            # a worker that already finished (however it ended) is as
            # stopped as a cancelled one: collect it, never re-raise it
            await asyncio.gather(self._worker, return_exceptions=True)
            self._worker = None
        # queued probes die with the server: their clients' timeouts and
        # failover machinery are exactly the recovery path for that
        self._queue.clear()

    # -- receive path ------------------------------------------------------------

    def _on_datagram(self, data: bytes) -> None:
        decoded = self._decode_probe(data)
        if decoded is None:
            return
        frame, codec = decoded
        if not self.node.running or not self._running:
            # the backing node is crashed: a dead server answers nothing
            self.stats.dropped_down += 1
            return
        shed = self._admit(frame, self.node.time_base.elapsed(), codec)
        if shed is not None:
            self.transport.send(self.endpoint, frame.src, shed)
            return
        self._queue.append((frame, codec))
        self.stats.max_queue_depth = max(self.stats.max_queue_depth, len(self._queue))
        if self._wakeup is not None:
            self._wakeup.set()

    async def _serve_loop(self) -> None:
        config = self.config
        while self._running:
            if not self._queue:
                self._wakeup.clear()
                await self._wakeup.wait()
                continue
            frame, codec = self._queue.popleft()
            if config.service_time > 0:
                await asyncio.sleep(config.service_time)
            if not self._running or not self.node.running:
                self.stats.dropped_down += 1
                continue
            try:
                answer = self._answer(frame, codec)
            except Exception:
                # an estimator error, a raising bound_source, a frame
                # constructor refusing its input: this request goes
                # unanswered (its client times out), the next is served
                self.stats.worker_errors += 1
                continue
            self.transport.send(self.endpoint, frame.src, answer)

    # -- synchronous core (fast path; also the benchmark surface) ----------------

    def _decode_probe(self, data: bytes) -> Optional[Tuple[Frame, str]]:
        """Untrusted bytes -> ``(probe, codec)``, or ``None`` (counted).

        The codec is whatever the probe arrived in; the serving tier is
        stateless per client, so the reply (or shed) simply echoes it.
        """
        result = decode_frame(data)
        if result.error is not None:
            self.stats.decode_errors += 1
            return None
        frame = result.frame
        if frame.type != self.request_type or frame.dst != self.endpoint:
            # an endpoint speaks its own frame pair (plus shed) only;
            # anything else addressed here is a stray or hostile frame
            self.stats.rejected_frames += 1
            return None
        self.stats.probes += 1
        codec = "binary" if result.version == WIRE_VERSION_BINARY else "json"
        return frame, codec

    def _shed_bytes(
        self, frame: Frame, retry_after: float, reason: str, codec: str = "json"
    ) -> bytes:
        self.stats.shed[reason] = self.stats.shed.get(reason, 0) + 1
        return encode_frame(
            shed_frame(
                self.endpoint,
                frame.src,
                frame.nonce,
                retry_after=retry_after,
                reason=reason,
            ),
            codec,
        )

    def _admit(self, frame: Frame, now: float, codec: str = "json") -> Optional[bytes]:
        """Admission verdict: ``None`` to serve, else the shed frame bytes."""
        if not self.bucket.try_take(now):
            return self._shed_bytes(
                frame, self.bucket.retry_after(now), "overload", codec
            )
        if len(self._queue) >= self.config.queue_limit:
            # the queue's worth of work plus one bucket interval is an
            # honest drain estimate under the admitted rate
            hint = self.config.queue_limit / self.config.bucket_rate
            return self._shed_bytes(frame, hint, "queue", codec)
        return None

    def _answer(self, frame: Frame, codec: str = "json") -> bytes:
        """The reply (or unsynced shed) for one admitted probe.

        The bound is computed *here*, strictly between the probe's arrival
        and the reply's emission, which is what makes the client's
        Cristian widening sound: the interval held at an instant inside
        the client's own probe->reply window.
        """
        if self.bound_source is not None:
            bound, degraded, age = self.bound_source() or _UNSYNCED
        else:
            rt, bound = self.node.estimate_at_now()
            estimator = self.node.estimator
            last = estimator.last_local_event
            lt = self.node.clock.lt_at(rt)
            age = max(0.0, lt - last.lt) if last is not None else 0.0
            quarantined = bool(getattr(estimator, "degraded", False))
            degraded = quarantined or age > self.config.stale_after
            if degraded:
                rho = self.config.degraded_rho
                if rho is None:
                    rho = self.node.clock.advertised.max_deviation
                bound = bound.widen(rho * age, rho * age)
        if not bound.is_bounded:
            return self._shed_bytes(
                frame, self.config.unsynced_retry_after, "unsynced", codec
            )
        if degraded:
            self.stats.degraded_replies += 1
        self.stats.replies += 1
        return encode_frame(
            self.answer_frame(
                self.endpoint,
                frame.src,
                frame.nonce,
                bound,
                degraded=degraded,
                age=age,
            ),
            codec,
        )

    def handle_probe_bytes(self, data: bytes) -> Optional[bytes]:
        """Decode + admit + answer one probe synchronously (no queue).

        The benchmarkable hot path: exactly the per-probe work of the
        asyncio shell minus the queue hop.  Returns the reply/shed bytes,
        or ``None`` for undecodable or non-probe input.
        """
        decoded = self._decode_probe(data)
        if decoded is None:
            return None
        frame, codec = decoded
        shed = self._admit(frame, self.node.time_base.elapsed(), codec)
        if shed is not None:
            return shed
        return self._answer(frame, codec)
