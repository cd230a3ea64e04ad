"""Async datagram transports for the real-time runtime.

A :class:`Transport` moves opaque byte frames between named endpoints
with datagram semantics: fire-and-forget, unordered, unreliable.  That
is exactly the service model the estimators were built for
(:class:`~repro.core.csa.EfficientCSA` in unreliable mode tolerates
loss, reordering, and duplication), so nothing above this layer needs to
know which implementation is underneath:

* :class:`LoopbackTransport` - in-process delivery on the running asyncio
  loop, with optional seeded delay jitter.  Deterministic enough for
  tests, fast enough for thousand-message soaks.
* :class:`FaultMiddleware` - wraps any transport and applies a
  :class:`~repro.sim.faults.FaultPlan` to live traffic, reusing the
  simulator's :class:`~repro.sim.faults.ActiveFaults` verdicts
  (crash windows, partitions, bursts, duplication with echo delay,
  delay excursions) keyed by the shared :class:`~repro.rt.clock.TimeBase`
  elapsed time.  One fault vocabulary, two execution engines; a plan
  holding an injection that acts above the transport is refused.
* :class:`UDPTransport` - one datagram socket per registered endpoint;
  real kernel-level UDP on localhost or a LAN.

Handlers are synchronous callables ``(data: bytes) -> None`` invoked on
the event loop; exceptions raised by a handler are swallowed after being
counted, because a transport must never die from one bad frame.
"""

from __future__ import annotations

import asyncio
import random
import socket
from typing import Callable, Dict, Iterable, Optional, Set, Tuple

from ..core.errors import SimulationError
from ..core.events import ProcessorId, link_id
from ..sim.faults import (
    ByzantineProcessor,
    DriftExcursion,
    FaultPlan,
    LateJoin,
    StateCorruption,
)
from .clock import TimeBase

__all__ = [
    "Transport",
    "LoopbackTransport",
    "FaultMiddleware",
    "UDPTransport",
]

Handler = Callable[[bytes], None]


class Transport:
    """Named-endpoint datagram service; subclass per medium."""

    def __init__(self):
        self._handlers: Dict[ProcessorId, Handler] = {}
        #: frames a handler raised on (the frame is consumed, the loop lives)
        self.handler_errors = 0

    async def start(self) -> None:
        """Bring the medium up; registration may happen before or after."""

    async def stop(self) -> None:
        """Tear the medium down; pending deliveries may be dropped."""

    def register(self, name: ProcessorId, handler: Handler) -> None:
        """Attach ``handler`` as the receiver for endpoint ``name``."""
        self._handlers[name] = handler

    def unregister(self, name: ProcessorId) -> None:
        """Detach the endpoint; frames addressed to it are dropped."""
        self._handlers.pop(name, None)

    def send(self, src: ProcessorId, dest: ProcessorId, data: bytes) -> None:
        """Fire-and-forget: queue ``data`` for ``dest``. Never raises."""
        raise NotImplementedError

    def _dispatch(self, dest: ProcessorId, data: bytes) -> None:
        handler = self._handlers.get(dest)
        if handler is None:
            return  # endpoint gone (crashed/unregistered): datagram lost
        try:
            handler(data)
        except Exception:
            self.handler_errors += 1


class LoopbackTransport(Transport):
    """In-process delivery on the current event loop.

    With ``delay == jitter == 0`` frames are delivered via
    ``call_soon`` - ordered per sender, near-instant.  A positive delay
    or seeded jitter schedules each frame independently, which (like real
    networks) can reorder.
    """

    def __init__(self, *, delay: float = 0.0, jitter: float = 0.0, seed: int = 0):
        super().__init__()
        if delay < 0 or jitter < 0:
            raise SimulationError("loopback delay/jitter must be non-negative")
        self.delay = delay
        self.jitter = jitter
        self._rng = random.Random(seed)
        self._running = False

    async def start(self) -> None:
        self._running = True

    async def stop(self) -> None:
        self._running = False

    def send(self, src: ProcessorId, dest: ProcessorId, data: bytes) -> None:
        if not self._running:
            return
        loop = asyncio.get_running_loop()
        lag = self.delay + (self._rng.uniform(0.0, self.jitter) if self.jitter else 0.0)
        if lag <= 0:
            loop.call_soon(self._dispatch, dest, data)
        else:
            loop.call_later(lag, self._dispatch, dest, data)


class _FaultTopology:
    """The duck-typed ``network`` object :meth:`FaultPlan.bind` validates against."""

    def __init__(
        self,
        procs: Iterable[ProcessorId],
        links: Iterable[Tuple[ProcessorId, ProcessorId]],
        source: ProcessorId,
    ):
        self.processors: Set[ProcessorId] = set(procs)
        self.links = {link_id(u, v) for u, v in links}
        self.source = source


#: injections that act on something above the transport, and why the
#: live runtime refuses them rather than run the plan without them
_ABOVE_THE_TRANSPORT = {
    DriftExcursion: "clocks live above the transport; use a drifting ClockSource",
    ByzantineProcessor: "lies rewrite payloads before encoding; the live node has no liar",
    StateCorruption: "it scrambles estimator state, which the transport never sees",
    LateJoin: "live joins go through ClusterConfig.joins",
}


class FaultMiddleware(Transport):
    """Apply a simulator :class:`FaultPlan` to a live transport.

    Every :meth:`send` consults the plan's :class:`ActiveFaults` at the
    current :class:`TimeBase` reading, in the same order the simulation
    engine does: sender crashed -> silently suppressed; receiver crashed
    or partition/burst verdict -> dropped in transit; otherwise delivered,
    possibly duplicated (the echo trails by a seeded fraction of the echo
    delay) and/or held back by an in-window delay excursion.

    Loss injected here is *real* loss to the protocol stack above: the
    sender's ack timer fires, retransmission kicks in, and the estimator
    sees ``on_loss_detected`` - the PR 1 machinery exercised end-to-end
    over an actual transport.

    A plan holding an injection in :data:`_ABOVE_THE_TRANSPORT` raises
    :class:`~repro.core.errors.SimulationError`: a live run that silently
    dropped a liar or a corruption would pass for an adversarial one.
    """

    def __init__(
        self,
        inner: Transport,
        plan: FaultPlan,
        time_base: TimeBase,
        *,
        procs: Iterable[ProcessorId],
        links: Iterable[Tuple[ProcessorId, ProcessorId]],
        source: ProcessorId,
    ):
        super().__init__()
        for injection in plan.injections:
            why = _ABOVE_THE_TRANSPORT.get(type(injection))
            if why is not None:
                raise SimulationError(
                    f"FaultMiddleware cannot apply {type(injection).__name__}: {why}"
                )
        self.inner = inner
        self.active = plan.bind(_FaultTopology(procs, links, source))
        self.time_base = time_base
        #: middleware verdict counters, mirroring ActiveFaults.injected
        self.dropped = 0
        self.duplicated = 0
        self.delayed = 0

    async def start(self) -> None:
        await self.inner.start()

    async def stop(self) -> None:
        await self.inner.stop()

    def register(self, name: ProcessorId, handler: Handler) -> None:
        self.inner.register(name, handler)

    def unregister(self, name: ProcessorId) -> None:
        self.inner.unregister(name)

    def send(self, src: ProcessorId, dest: ProcessorId, data: bytes) -> None:
        rt = self.time_base.elapsed()
        if self.active.crashed(src, rt):
            self.dropped += 1
            return  # a crashed sender emits nothing
        if self.active.crashed(dest, rt) or self.active.drop_in_transit(src, dest, rt):
            self.dropped += 1
            return
        extra = self.active.delay_excursion(src, dest, rt)
        if extra is not None:
            self.delayed += 1
            self._later(extra, src, dest, data)
        else:
            self.inner.send(src, dest, data)
        if self.active.duplicated(src, dest, rt):
            self.duplicated += 1
            self._later(self.active.echo_delay(max(extra or 0.0, 0.05)), src, dest, data)

    def _later(self, lag: float, src: ProcessorId, dest: ProcessorId, data: bytes) -> None:
        asyncio.get_running_loop().call_later(
            max(lag, 0.0), self.inner.send, src, dest, data
        )


#: datagrams one read wakeup may dispatch before yielding to the event
#: loop: large enough to drain a closed-loop client's burst in one turn,
#: small enough that a flooded endpoint cannot starve the others
DRAIN_BUDGET = 32

#: receive buffer: no UDP datagram is larger
_MAX_DATAGRAM = 65536


class UDPTransport(Transport):
    """One UDP socket per endpoint, addressed through a shared name map.

    ``addresses`` maps endpoint names to ``(host, port)``.  Port 0 is
    resolved at :meth:`start` time and written back into the (shared)
    mapping, so co-located nodes discover each other's ephemeral ports
    without extra plumbing; split-host deployments pass fixed ports.

    The transport owns its sockets: each is non-blocking and watched with
    ``loop.add_reader``; a read wakeup drains the socket - ``recvfrom``
    until it would block, at most :data:`DRAIN_BUDGET` datagrams - so a
    burst costs one event-loop turn instead of one per datagram.  Sending
    is one ``sendto``; a full send buffer loses the datagram like any
    other socket error (counted in :attr:`socket_errors`).
    """

    def __init__(self, addresses: Dict[ProcessorId, Tuple[str, int]]):
        super().__init__()
        self.addresses = addresses
        self._socks: Dict[ProcessorId, socket.socket] = {}
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self.socket_errors = 0
        self._started = False

    async def start(self) -> None:
        self._started = True
        for name in list(self._handlers):
            await self._open(name)

    async def stop(self) -> None:
        self._started = False
        for name in list(self._socks):
            self._close(name)

    def register(self, name: ProcessorId, handler: Handler) -> None:
        if name not in self.addresses:
            raise SimulationError(f"no address configured for endpoint {name!r}")
        super().register(name, handler)

    def unregister(self, name: ProcessorId) -> None:
        super().unregister(name)
        self._close(name)

    async def ensure_endpoint(self, name: ProcessorId) -> None:
        """Open (or reopen, after unregister) the socket for ``name``."""
        if self._started and name in self._handlers and name not in self._socks:
            await self._open(name)

    async def _open(self, name: ProcessorId) -> None:
        host, port = self.addresses[name]
        self._loop = asyncio.get_running_loop()
        try:
            # a numeric host (every in-repo deployment) needs no lookup
            found = socket.getaddrinfo(
                host, port, type=socket.SOCK_DGRAM, flags=socket.AI_NUMERICHOST
            )
        except socket.gaierror:
            # a hostname resolves off the loop thread: a DNS lookup must
            # not stall the co-located endpoints
            found = await self._loop.getaddrinfo(host, port, type=socket.SOCK_DGRAM)
            if not self._started or name not in self._handlers or name in self._socks:
                return  # stopped, unregistered or opened meanwhile
        family, kind, proto, _, addr = found[0]
        sock = socket.socket(family, kind, proto)
        try:
            sock.setblocking(False)
            sock.bind(addr)
        except OSError:
            sock.close()
            raise
        self.addresses[name] = (host, sock.getsockname()[1])
        self._socks[name] = sock
        self._loop.add_reader(sock.fileno(), self._drain, name, sock)

    def _close(self, name: ProcessorId) -> None:
        sock = self._socks.pop(name, None)
        if sock is not None:
            self._loop.remove_reader(sock.fileno())
            sock.close()

    def _drain(self, name: ProcessorId, sock: socket.socket) -> None:
        for _ in range(DRAIN_BUDGET):
            try:
                data, _addr = sock.recvfrom(_MAX_DATAGRAM)
            except BlockingIOError:
                return  # empty: the next datagram wakes the reader again
            except OSError:
                self.socket_errors += 1
                return
            self._dispatch(name, data)
            if self._socks.get(name) is not sock:
                return  # the handler closed (or reopened) this endpoint
        # budget spent with datagrams left: the socket stays readable, so
        # the loop calls back after every other ready endpoint had its turn

    def send(self, src: ProcessorId, dest: ProcessorId, data: bytes) -> None:
        sock = self._socks.get(src)
        addr = self.addresses.get(dest)
        if sock is None or addr is None:
            return  # sender not up (or peer unknown): datagram lost
        try:
            sock.sendto(data, addr)
        except OSError:
            self.socket_errors += 1
