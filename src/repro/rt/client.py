"""The one bound client of the Cristian exchange: probe, back off, fail over.

A :class:`ServeClient` is the lightweight counterpart of a
:class:`~repro.rt.serve.ServeNode`: it holds no protocol state, just a
hardware clock and a priority list of serving endpoints.  Like the
server it speaks either frame pair - ``probe``/``reply`` here,
``dreq``/``deleg`` in :class:`~repro.rt.strata.delegation.AnchorLink`,
which selects the pair by class attribute and adds only what a stratum
border needs on top (expiry, the election view of a rotation).  Its
loop is one Cristian round trip per ``sync_interval``:

* **Sound bound adoption.**  A probe leaves at client local time ``lt0``
  and its reply arrives at ``lt1`` carrying the server's interval
  ``[L, U]``, computed at some instant strictly inside the probe->reply
  window.  The source clock runs at real time, so at ``lt1`` the source
  value is at most ``U + beta * (lt1 - lt0)`` (``beta`` from the client
  clock's own advertised drift: the real window is at most
  ``beta * rtt`` long) and at least ``L``.  The client accepts
  ``[L, U + beta * rtt]`` anchored at ``lt1`` and advances it through
  its own drift spec afterwards - every step widens or drift-advances a
  sound interval, so every accepted bound contains the true source time.
* **Re-sync interval from ``eps_max / rho``** (the `cs171pa1` policy):
  between syncs the client's worst error growth is its drift ``rho``
  per local second, so holding a target error ``eps_max`` needs a probe
  every ``eps_max / rho`` seconds; a safety factor of two absorbs
  network delay, giving ``interval = eps_max / (2 rho)`` (clamped; a
  fixed cadence is ``min_interval == max_interval``).
* **Backoff and shed handling.**  Timeouts back off exponentially with
  seeded jitter; an explicit ``shed`` honors the server's
  ``retry_after`` hint (never retrying earlier than told).  Sheds prove
  the server is *alive*, so they reset the failure streak without
  counting as sync progress.
* **Accrual-style failover.**  The client keeps an EWMA of observed
  reply intervals; its health score grows with consecutive timeouts and
  with silence relative to that learned cadence (a simplified
  phi-accrual detector).  Past ``failover_threshold`` - or after a long
  unbroken shed streak - the client rotates to the next server in its
  list and starts fresh (the strata layer calls this *re-election*).

Clock hygiene: every interval - RTT, backoff, health, staleness - is
measured on the monotonic :class:`~repro.rt.clock.TimeBase` +
:class:`~repro.rt.clock.ClockSource` path.  ``time.time()`` is never
consulted, so a wall-clock step can neither wedge the retry loop nor
corrupt an accepted bound.
"""

from __future__ import annotations

import asyncio
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..core.errors import SimulationError
from ..core.events import ProcessorId
from ..core.intervals import ClockBound
from .clock import ClockSource, MonotonicClockSource, TimeBase
from .serve import CounterStats
from .transport import Transport
from .wire import WIRE_CODECS, Frame, decode_frame, encode_frame, probe_frame

__all__ = [
    "AccrualHealth",
    "AcceptedSample",
    "ClientConfig",
    "ClientStats",
    "ServeClient",
]


class AccrualHealth:
    """A simplified phi-accrual failure detector over client local time.

    Tracks an EWMA of the intervals between successful replies; the
    score at ``now`` is the consecutive-failure count plus how many
    learned intervals of silence have passed beyond the first.  Scores
    are unitless and monotone in suspicion, like phi - a threshold of
    ``k`` roughly means "k timeouts, or silence k+1 times the learned
    cadence".
    """

    def __init__(self, *, alpha: float = 0.3, min_interval: float = 0.05):
        self.alpha = alpha
        self.min_interval = min_interval
        self.mean_interval: Optional[float] = None
        self.last_reply: Optional[float] = None
        self.failures = 0

    def on_reply(self, now: float) -> None:
        if self.last_reply is not None:
            observed = max(now - self.last_reply, 0.0)
            if self.mean_interval is None:
                self.mean_interval = observed
            else:
                self.mean_interval += self.alpha * (observed - self.mean_interval)
        self.last_reply = now
        self.failures = 0

    def on_alive(self) -> None:
        """Liveness without progress (a shed): clear the failure streak."""
        self.failures = 0

    def on_failure(self) -> None:
        self.failures += 1

    def score(self, now: float) -> float:
        value = float(self.failures)
        if self.last_reply is not None:
            cadence = max(self.mean_interval or self.min_interval, self.min_interval)
            value += max(0.0, (now - self.last_reply) / cadence - 1.0)
        return value

    def reset(self) -> None:
        self.mean_interval = None
        self.last_reply = None
        self.failures = 0


@dataclass(frozen=True)
class AcceptedSample:
    """One accepted reply, widened to its acceptance instant.

    ``rt`` is the shared time base reading at acceptance - which *is*
    the true source time in an in-process deployment - so ``sound``
    is directly checkable: the accepted interval must contain it.
    """

    rt: float
    server: ProcessorId
    bound: ClockBound
    rtt_lt: float
    degraded: bool

    @property
    def sound(self) -> bool:
        return self.bound.contains(self.rt, tolerance=1e-9)

    @property
    def error_bound(self) -> float:
        """Worst-case error of the interval midpoint (the half width)."""
        return 0.5 * self.bound.width


@dataclass(frozen=True)
class ClientConfig:
    """Static configuration of one serving-tier client."""

    name: ProcessorId
    #: serving endpoints in priority order; index 0 is the primary
    servers: Tuple[ProcessorId, ...]
    #: target worst-case error between syncs (drives the probe cadence)
    eps_max: float = 0.05
    #: drift rate for the eps_max/rho derivation; None -> the client
    #: clock's advertised worst deviation
    rho: Optional[float] = None
    min_interval: float = 0.02
    max_interval: float = 1.0
    probe_timeout: float = 0.25
    backoff_base: float = 0.05
    backoff_cap: float = 2.0
    #: accrual score at which the client rotates servers
    failover_threshold: float = 3.0
    #: consecutive sheds after which an overloaded server is abandoned
    shed_failover_streak: int = 8
    seed: int = 0
    #: wire codec for probes; the server echoes it in replies and sheds
    codec: str = "binary"

    def __post_init__(self):
        if self.codec not in WIRE_CODECS:
            raise SimulationError(f"unknown wire codec {self.codec!r}")
        if not self.servers:
            raise SimulationError("a client needs at least one server")
        if len(set(self.servers)) != len(self.servers):
            raise SimulationError("duplicate servers in the failover list")
        if self.eps_max <= 0:
            raise SimulationError(f"eps_max must be positive, got {self.eps_max}")
        if self.rho is not None and self.rho < 0:
            raise SimulationError(f"rho must be non-negative, got {self.rho}")
        if not (0 < self.min_interval <= self.max_interval):
            raise SimulationError("need 0 < min_interval <= max_interval")
        if self.probe_timeout <= 0:
            raise SimulationError("probe_timeout must be positive")
        if self.backoff_base <= 0 or self.backoff_cap < self.backoff_base:
            raise SimulationError("need 0 < backoff_base <= backoff_cap")
        if self.failover_threshold <= 0:
            raise SimulationError("failover_threshold must be positive")
        if self.shed_failover_streak < 1:
            raise SimulationError("shed_failover_streak must be >= 1")

    def sync_interval(self, advertised_rho: float) -> float:
        """The `cs171pa1` cadence: ``eps_max / (2 rho)``, clamped.

        A drift-free client (``rho == 0``) would never *need* to re-sync
        for drift alone; it still probes at ``max_interval`` so failures
        are detected.
        """
        rho = self.rho if self.rho is not None else advertised_rho
        if rho <= 0:
            return self.max_interval
        return min(max(self.eps_max / (2.0 * rho), self.min_interval), self.max_interval)


@dataclass
class ClientStats(CounterStats):
    """Live counters of one client."""

    #: requests sent (``probe`` or ``dreq``)
    probes: int = 0
    replies: int = 0
    accepted: int = 0
    degraded_accepted: int = 0
    sheds: int = 0
    shed_reasons: Dict[str, int] = field(default_factory=dict)
    timeouts: int = 0
    #: rotations to the next server (anchor re-elections, on a border)
    failovers: int = 0
    #: reads refused because the accepted bound had aged past ``max_age``
    stale_refusals: int = 0
    #: replies with unknown/expired nonces or from the wrong server
    unmatched: int = 0
    decode_errors: int = 0

    @property
    def adopted(self) -> int:
        """The strata name for ``accepted``: a border *adopts* a bound."""
        return self.accepted


class ServeClient:
    """One lightweight client: clock + failover list + probe loop."""

    #: the frame pair spoken: the request constructor, the answer type
    request_frame = staticmethod(probe_frame)
    answer_type = "reply"

    def __init__(
        self,
        config: ClientConfig,
        transport: Transport,
        time_base: TimeBase,
        clock: Optional[ClockSource] = None,
    ):
        self.config = config
        self.name = config.name
        self.transport = transport
        self.time_base = time_base
        self.clock = clock if clock is not None else MonotonicClockSource()
        self.stats = ClientStats()
        self.health = AccrualHealth()
        self.samples: List[AcceptedSample] = []
        #: (rt, from_server, to_server) per failover, in order
        self.failover_events: List[Tuple[float, ProcessorId, ProcessorId]] = []
        #: latest acceptance: anchor local time, the sample, the answer frame
        self._current: Optional[Tuple[float, AcceptedSample, Frame]] = None
        self._server_index = 0
        self._nonce = 0
        self._shed_streak = 0
        #: nonce -> (send lt, server probed, reply future)
        self._pending: Dict[int, Tuple[float, ProcessorId, asyncio.Future]] = {}
        self._rng = random.Random(config.seed)
        self._task: Optional[asyncio.Task] = None
        self._running = False

    # -- clock reads -------------------------------------------------------------

    def _now(self) -> Tuple[float, float]:
        """One atomic (rt, lt) pair off the shared monotonic time base."""
        rt = self.time_base.elapsed()
        return rt, self.clock.lt_at(rt)

    @property
    def server(self) -> ProcessorId:
        """The serving endpoint currently probed."""
        return self.config.servers[self._server_index]

    # -- lifecycle ---------------------------------------------------------------

    async def start(self) -> None:
        if self._running:
            return
        self._running = True
        self.transport.register(self.name, self._on_datagram)
        ensure = getattr(self.transport, "ensure_endpoint", None)
        if ensure is not None:
            await ensure(self.name)
        self._task = asyncio.get_running_loop().create_task(self._probe_loop())

    async def stop(self) -> None:
        self._running = False
        self.transport.unregister(self.name)
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task
            except asyncio.CancelledError:
                pass
            self._task = None
        for _lt0, _server, future in self._pending.values():
            if not future.done():
                future.cancel()
        self._pending.clear()

    @property
    def running(self) -> bool:
        return self._running

    # -- receive path ------------------------------------------------------------

    def _on_datagram(self, data: bytes) -> None:
        result = decode_frame(data)
        if result.error is not None:
            self.stats.decode_errors += 1
            return
        frame = result.frame
        if frame.type not in (self.answer_type, "shed") or frame.dst != self.name:
            self.stats.unmatched += 1
            return
        entry = self._pending.get(frame.nonce)
        if entry is None or entry[1] != frame.src:
            # expired nonce (timeout already charged), duplicate echo, or
            # a reply claiming to come from a server this probe never
            # targeted: at-most-once, first answer wins
            self.stats.unmatched += 1
            return
        _lt0, _server, future = self._pending.pop(frame.nonce)
        if not future.done():
            future.set_result(frame)

    # -- probe loop --------------------------------------------------------------

    async def _probe_loop(self) -> None:
        while self._running:
            delay = await self._probe_once()
            await asyncio.sleep(delay)

    async def _probe_once(self) -> float:
        """One round trip; returns the local-time delay before the next."""
        _rt0, lt0 = self._now()
        nonce = self._nonce
        self._nonce += 1
        server = self.server
        future = asyncio.get_running_loop().create_future()
        self._pending[nonce] = (lt0, server, future)
        self.stats.probes += 1
        self.transport.send(
            self.name,
            server,
            encode_frame(self.request_frame(self.name, server, nonce), self.config.codec),
        )
        try:
            frame = await asyncio.wait_for(future, timeout=self.config.probe_timeout)
        except asyncio.TimeoutError:
            self._pending.pop(nonce, None)
            return self._on_timeout()
        except asyncio.CancelledError:
            self._pending.pop(nonce, None)
            raise
        if frame.type == "shed":
            return self._on_shed(frame)
        return self._adopt(frame, lt0)

    def _on_timeout(self) -> float:
        self.stats.timeouts += 1
        self._shed_streak = 0
        self.health.on_failure()
        self._maybe_failover()
        return self._backoff()

    def _on_shed(self, frame: Frame) -> float:
        self.stats.sheds += 1
        reason = frame.reason or "overload"
        self.stats.shed_reasons[reason] = self.stats.shed_reasons.get(reason, 0) + 1
        # a shed is liveness evidence: the server answered, it just said no
        self.health.on_alive()
        self._shed_streak += 1
        if self._shed_streak >= self.config.shed_failover_streak and len(self.config.servers) > 1:
            self._failover()
            return self.config.min_interval
        # never retry earlier than told; jittered so a shed storm does not
        # resynchronize the swarm into the next storm
        return max(frame.retry_after or 0.0, self._backoff(extra_attempts=self._shed_streak))

    def _adopt(self, frame: Frame, lt0: float) -> float:
        rt1, lt1 = self._now()
        self.stats.replies += 1
        rtt_lt = max(0.0, lt1 - lt0)
        # the server's interval held at an instant inside [lt0, lt1]; the
        # source runs at real time, and at most beta * rtt real seconds
        # passed since, so only the upper endpoint needs the allowance
        beta = self.clock.advertised.beta
        accepted = ClockBound(frame.bound.lower, frame.bound.upper + beta * rtt_lt)
        sample = AcceptedSample(
            rt=rt1,
            server=frame.src,
            bound=accepted,
            rtt_lt=rtt_lt,
            degraded=frame.degraded,
        )
        self.samples.append(sample)
        self.stats.accepted += 1
        if frame.degraded:
            self.stats.degraded_accepted += 1
        self._current = (lt1, sample, frame)
        self.health.on_reply(lt1)
        self._shed_streak = 0
        return self.config.sync_interval(self.clock.advertised.max_deviation)

    # -- failover and backoff ------------------------------------------------------

    def _maybe_failover(self) -> None:
        if len(self.config.servers) < 2:
            return
        _rt, lt = self._now()
        if self.health.score(lt) >= self.config.failover_threshold:
            self._failover()

    def _failover(self) -> None:
        rt, _lt = self._now()
        previous = self.server
        self._server_index = (self._server_index + 1) % len(self.config.servers)
        self.stats.failovers += 1
        self.failover_events.append((rt, previous, self.server))
        self.health.reset()
        self._shed_streak = 0

    def _backoff(self, *, extra_attempts: int = 0) -> float:
        """Exponential backoff with jitter, in client local seconds."""
        attempts = max(self.health.failures, extra_attempts, 1)
        raw = min(self.config.backoff_cap, self.config.backoff_base * 2.0 ** (attempts - 1))
        return raw * (0.5 + 0.5 * self._rng.random())

    # -- introspection -----------------------------------------------------------

    def current_bound(self) -> Optional[Tuple[float, ClockBound]]:
        """The latest accepted bound advanced to now: ``(rt, bound)``.

        Advancing through the client's own drift spec keeps it sound at
        the returned time-base instant; ``None`` before the first accept.
        """
        if self._current is None:
            return None
        rt, lt = self._now()
        anchor_lt, sample, _frame = self._current
        return rt, sample.bound.advance(max(0.0, lt - anchor_lt), self.clock.advertised)

    def unsound_samples(self) -> List[AcceptedSample]:
        return [sample for sample in self.samples if not sample.sound]
