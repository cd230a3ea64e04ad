"""The asyncio node daemon: one live processor running an estimator.

A :class:`Node` is the runtime counterpart of one simulated processor.
It owns an :class:`~repro.core.csa_base.Estimator` (by default a
hardened, unreliable-mode :class:`~repro.core.csa.EfficientCSA`), reads
its hardware clock through a :class:`~repro.rt.clock.ClockSource`, and
drives the estimator's passive event hooks from real traffic on a
:class:`~repro.rt.transport.Transport`:

* a gossip loop emits one ``sync`` frame per neighbor every
  ``gossip_period`` seconds (jittered), calling ``on_send`` and wiring
  the returned :class:`~repro.core.history.HistoryPayload` onto the wire;
* received ``sync`` frames become receive events (``on_receive``) and are
  acknowledged; duplicates are discarded *before* the estimator but
  re-acked, giving the at-most-once delivery the event model assumes;
* ``ack`` frames confirm delivery (``on_delivery_confirmed``), cancelling
  the per-message loss timer; a timer that fires first signals
  ``on_loss_detected`` and retransmits as a *fresh* send while the
  :class:`~repro.sim.faults.RetransmitPolicy` allows - the same Sec 3.3
  recovery loop PR 1 built for the simulator, now against real timers;
* undecodable or malformed bytes never reach the estimator: they are
  counted, and when the claimed sender is a known neighbor the anomaly is
  fed to :meth:`~repro.core.csa.EfficientCSA.report_anomaly`, so
  wire-level garbage lands in the same suspicion ledger as sim-path
  tampering;
* a node configured with a ``sponsor`` asks that neighbor for a
  bootstrap while its estimator is still fresh: ``join`` frames repeat
  every gossip period until a boot-carrying ``sync`` lands, the sponsor
  snapshots *after* the answering send event (Lemma 3.1), and
  :meth:`~repro.core.csa.EfficientCSA.bootstrap_from` enforces
  at-most-once adoption - so joins, retransmits, and duplicate answers
  are all harmless over UDP, and a *restarted* node (durable state, not
  fresh) silently ignores boots and recovers from its own state instead.

Every local event is paired ``(rt, lt)`` through one shared
:class:`~repro.rt.clock.TimeBase` reading, and appended to the node's
local trace log; the cluster harness merges these logs into an
:class:`~repro.sim.trace.ExecutionTrace` that the oracles and the
serializer consume exactly as if the simulator had produced it.

Crash/restart follows PR 1's fail-stop-with-durable-state semantics:
:meth:`Node.stop` halts timers and unregisters from the transport;
:meth:`Node.start` re-registers, first flushing any transmissions that
were in flight at the crash as losses (sound - loss signals only discard
information) and resuming sequence numbers where they left off.
"""

from __future__ import annotations

import asyncio
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

from ..core.csa import EfficientCSA
from ..core.csa_base import Estimator, SuspicionPolicy
from ..core.errors import ProtocolError, SimulationError
from ..core.events import Event, EventId, EventKind, ProcessorId
from ..core.intervals import ClockBound
from ..core.specs import SystemSpec
from ..sim.faults import RetransmitPolicy
from .clock import ClockSource, MonotonicClockSource, TimeBase
from .transport import Transport
from .wire import (
    MAX_BODY_BYTES,
    WIRE_CODECS,
    WIRE_VERSION_BINARY,
    Frame,
    ack_frame,
    decode_frames,
    encode_frame,
    hello_frame,
    join_frame,
    sync_frame,
)

__all__ = [
    "LinkStats",
    "NodeConfig",
    "NodeStats",
    "Node",
]

#: smallest forward nudge of the shared real-time reading used to keep a
#: node's local-time stamps strictly increasing (see Node._next_point)
_RT_NUDGE = 1e-7


@dataclass
class LinkStats:
    """Per-neighbor traffic counters, updated live."""

    sent: int = 0
    received: int = 0
    acked: int = 0
    retransmissions: int = 0
    losses_signaled: int = 0
    duplicates: int = 0
    decode_errors: int = 0
    rejected_frames: int = 0
    #: datagrams actually written to the transport (coalescing makes this
    #: smaller than the frame count toward binary peers)
    datagrams: int = 0
    #: frames that shared a datagram with an earlier frame
    coalesced: int = 0
    #: join requests received from this peer (we acted as its sponsor)
    join_requests: int = 0
    #: highest own seq this peer has confirmed (-1: nothing acked yet)
    last_acked_seq: int = -1
    #: highest peer seq seen on this link, duplicates included
    last_seen_seq: int = -1


@dataclass(frozen=True)
class NodeConfig:
    """Static configuration of one runtime node."""

    proc: ProcessorId
    spec: SystemSpec
    gossip_period: float = 0.5
    #: fraction of the period added as uniform jitter (desynchronizes nodes)
    jitter: float = 0.1
    retransmit: RetransmitPolicy = field(default_factory=RetransmitPolicy)
    #: suspicion policy for the default estimator; None -> unhardened
    suspicion: Optional[SuspicionPolicy] = field(default_factory=SuspicionPolicy)
    seed: int = 0
    #: build a custom estimator; default is hardened unreliable EfficientCSA
    estimator_factory: Optional[Callable[["NodeConfig"], Estimator]] = None
    #: neighbor to request a bootstrap snapshot from while still fresh
    sponsor: Optional[ProcessorId] = None
    #: how long (s) a fresh joiner holds gossip for its sponsor's boot
    #: before falling back to a cold join; irrelevant without a sponsor
    boot_patience: float = 2.0
    #: preferred wire codec: "binary" advertises and upgrades to the
    #: packed v3 bodies per peer (after the peer advertises too), "json"
    #: pins this node to v2 JSON frames and advertises nothing else
    codec: str = "binary"

    def __post_init__(self):
        if self.codec not in WIRE_CODECS:
            raise SimulationError(f"unknown wire codec {self.codec!r}")
        if self.gossip_period <= 0:
            raise SimulationError(
                f"gossip period must be positive, got {self.gossip_period}"
            )
        if self.jitter < 0:
            raise SimulationError(f"jitter must be non-negative, got {self.jitter}")
        if self.sponsor is not None and self.sponsor not in self.spec.neighbors(
            self.proc
        ):
            raise SimulationError(
                f"sponsor {self.sponsor!r} is not a neighbor of {self.proc!r}"
            )
        if self.boot_patience < 0:
            raise SimulationError(
                f"boot patience must be non-negative, got {self.boot_patience}"
            )

    def build_estimator(self) -> Estimator:
        if self.estimator_factory is not None:
            return self.estimator_factory(self)
        return EfficientCSA(
            self.proc,
            self.spec,
            reliable=False,
            degraded_mode=True,
            suspicion=self.suspicion,
        )


@dataclass(frozen=True)
class NodeStats:
    """A consistent snapshot of one node's situation, taken on demand."""

    proc: ProcessorId
    running: bool
    rt: float
    lt: float
    #: bounds advanced to the snapshot instant (estimate_now)
    bound: ClockBound
    #: bounds exactly at the last local event (what Theorem 2.1 quantifies)
    event_bound: ClockBound
    events: int
    links: Dict[ProcessorId, LinkStats]
    suspected: Tuple[ProcessorId, ...]
    #: self-stabilization recoveries the estimator has performed
    recoveries: int = 0
    #: whether this node adopted a sponsor's bootstrap snapshot
    bootstrapped: bool = False

    @property
    def converged(self) -> bool:
        return self.bound.is_bounded


class Node:
    """One live processor: estimator + clock + transport endpoint."""

    def __init__(
        self,
        config: NodeConfig,
        transport: Transport,
        clock: Optional[ClockSource] = None,
        time_base: Optional[TimeBase] = None,
    ):
        self.config = config
        self.proc = config.proc
        self.transport = transport
        self.clock = clock if clock is not None else MonotonicClockSource()
        self.time_base = time_base if time_base is not None else TimeBase()
        self.estimator = config.build_estimator()
        self.peers: Tuple[ProcessorId, ...] = config.spec.neighbors(config.proc)
        self._rng = random.Random(config.seed)
        #: durable across stop/start (fail-stop with durable state)
        self._next_seq = 0
        #: (event, rt) pairs, in local emission order; harness merges these
        self.trace_log: List[Tuple[Event, float]] = []
        #: in-flight sends awaiting ack: seq -> (dest, eid, attempt, timer)
        self._pending: Dict[int, Tuple[ProcessorId, EventId, int, asyncio.TimerHandle]] = {}
        #: per-peer seqs already delivered to the estimator (at-most-once)
        self._seen: Dict[ProcessorId, Set[int]] = {p: set() for p in self.peers}
        self.stats: Dict[ProcessorId, LinkStats] = {p: LinkStats() for p in self.peers}
        self.peer_last_seen: Dict[ProcessorId, float] = {}
        #: estimator hook exceptions swallowed on the receive path
        self.estimator_errors = 0
        #: decode errors whose claimed sender is unknown or absent
        self.unattributed_errors = 0
        #: whether a sponsor's bootstrap snapshot has been adopted
        self.boot_adopted = False
        #: bootstrap snapshots shipped to joining neighbors
        self.boot_sent = 0
        #: snapshots that exceeded the frame cap (joiner falls back cold)
        self.boot_oversized = 0
        #: plain syncs dropped (unacked) while holding out for a boot
        self.boot_deferred = 0
        #: syncs no frame could carry (body over the cap): lost unsent
        self.unencodable_syncs = 0
        #: elapsed instant after which a fresh joiner stops waiting
        self._boot_deadline: Optional[float] = None
        #: per-peer negotiated wire codec; every link starts as JSON and
        #: upgrades (never downgrades mid-stream) once the peer proves
        #: binary-capable - by advertising it in a hello/join meta or by
        #: sending a binary frame itself
        self._peer_codec: Dict[ProcessorId, str] = {p: "json" for p in self.peers}
        #: per-peer frames awaiting the next coalesced datagram flush
        self._outbox: Dict[ProcessorId, List[bytes]] = {}
        self._gossip_task: Optional[asyncio.Task] = None
        self._running = False

    # -- lifecycle ---------------------------------------------------------------

    async def start(self) -> None:
        """Register with the transport and begin gossiping."""
        if self._running:
            return
        # anything in flight at the last stop is unknowable now: flush as
        # loss before new traffic so history watermarks stay conservative
        for seq in sorted(self._pending):
            dest, eid, _attempt, timer = self._pending.pop(seq)
            timer.cancel()
            self.stats[dest].losses_signaled += 1
            self._guarded(self.estimator.on_loss_detected, eid)
        self._running = True
        self.transport.register(self.proc, self._on_datagram)
        ensure = getattr(self.transport, "ensure_endpoint", None)
        if ensure is not None:
            await ensure(self.proc)
        for peer in self.peers:
            self._send_frame(
                peer,
                encode_frame(
                    hello_frame(self.proc, peer, codecs=self._advertised()),
                    self._codec_for(peer),
                ),
            )
        if self.config.sponsor is not None and getattr(self.estimator, "is_fresh", False):
            self._boot_deadline = self.time_base.elapsed() + self.config.boot_patience
        self._request_bootstrap()
        self._gossip_task = asyncio.get_running_loop().create_task(self._gossip_loop())

    async def stop(self) -> None:
        """Fail-stop: halt gossip and timers, drop off the transport.

        Estimator state, sequence numbers, and the trace log survive; a
        later :meth:`start` resumes from them.
        """
        self._running = False
        # unflushed frames die with the process: datagram semantics, and
        # the peers' loss timers already cover the gap
        self._outbox.clear()
        self.transport.unregister(self.proc)
        if self._gossip_task is not None:
            self._gossip_task.cancel()
            try:
                await self._gossip_task
            except asyncio.CancelledError:
                pass
            self._gossip_task = None
        for _dest, _eid, _attempt, timer in self._pending.values():
            timer.cancel()
        # pending entries are kept: the next start() flushes them as losses

    @property
    def running(self) -> bool:
        return self._running

    # -- clock reads -------------------------------------------------------------

    def _now(self) -> Tuple[float, float]:
        """One atomic (rt, lt) pair off the shared time base."""
        rt = self.time_base.elapsed()
        return rt, self.clock.lt_at(rt)

    def _next_point(self) -> Tuple[float, float]:
        """An (rt, lt) pair with lt strictly after the last local event.

        When two reads land inside clock resolution, the *real-time*
        reading is nudged forward and the local time recomputed through
        the clock mapping - so the recorded pair still lies exactly on
        this clock's trajectory and the execution stays in-spec (nudging
        lt alone would implicitly claim rate 1.0).
        """
        rt, lt = self._now()
        last = self.estimator.last_local_event
        if last is not None:
            nudge = _RT_NUDGE
            while lt <= last.lt:
                rt += nudge
                lt = self.clock.lt_at(rt)
                nudge *= 2
        return rt, lt

    # -- send path ---------------------------------------------------------------

    def _advertised(self) -> Tuple[str, ...]:
        """Codecs this node offers in hello/join meta."""
        return WIRE_CODECS if self.config.codec == "binary" else ("json",)

    def _codec_for(self, peer: ProcessorId) -> str:
        """The codec for the next frame to ``peer`` (negotiated, sticky)."""
        if self.config.codec == "binary" and self._peer_codec.get(peer) == "binary":
            return "binary"
        return "json"

    def _send_frame(self, peer: ProcessorId, data: bytes) -> None:
        """Queue one encoded frame for ``peer``, coalescing when possible.

        Toward binary-negotiated peers frames gather in a per-peer outbox
        and flush on the next loop turn as concatenated datagrams under
        ``MAX_BODY_BYTES`` - a gossip round's sync plus any acks ride one
        datagram.  JSON peers get the classic frame-per-datagram path:
        their decode loop may predate :func:`decode_frames`.
        """
        if self._codec_for(peer) != "binary":
            stats = self.stats.get(peer)
            if stats is not None:
                stats.datagrams += 1
            self.transport.send(self.proc, peer, data)
            return
        box = self._outbox.setdefault(peer, [])
        box.append(data)
        if len(box) == 1:
            asyncio.get_running_loop().call_soon(self._flush_outbox, peer)

    def _flush_outbox(self, peer: ProcessorId) -> None:
        frames = self._outbox.pop(peer, None)
        if not frames:
            return
        stats = self.stats.get(peer)
        datagram = bytearray()
        packed = 0
        for chunk in frames:
            if datagram and len(datagram) + len(chunk) > MAX_BODY_BYTES:
                self.transport.send(self.proc, peer, bytes(datagram))
                if stats is not None:
                    stats.datagrams += 1
                    stats.coalesced += packed - 1
                datagram = bytearray()
                packed = 0
            datagram.extend(chunk)
            packed += 1
        if datagram:
            self.transport.send(self.proc, peer, bytes(datagram))
            if stats is not None:
                stats.datagrams += 1
                stats.coalesced += packed - 1

    async def _gossip_loop(self) -> None:
        period = self.config.gossip_period
        while self._running:
            # re-ask the sponsor while still fresh: joins are idempotent and
            # UDP may lose them, so retrying until a boot lands is free
            self._request_bootstrap()
            if not self._awaiting_boot():
                for peer in self.peers:
                    if not self._running:
                        return
                    self._send_sync(peer, attempt=0)
            await asyncio.sleep(
                period * (1.0 + self._rng.uniform(0.0, self.config.jitter))
            )

    def _awaiting_boot(self) -> bool:
        """Whether this node is still holding out for its sponsor's boot.

        While true the node neither gossips nor accepts plain syncs - any
        local event would end freshness and forfeit the bootstrap.  The
        deadline bounds the wait: past it the node joins cold, building
        its view from ordinary gossip alone (slower, equally sound).
        """
        return (
            self._boot_deadline is not None
            and self.time_base.elapsed() < self._boot_deadline
            and getattr(self.estimator, "is_fresh", False)
        )

    def _request_bootstrap(self) -> None:
        """Ask the configured sponsor for a snapshot while still fresh."""
        sponsor = self.config.sponsor
        if sponsor is None or not getattr(self.estimator, "is_fresh", False):
            return
        self._send_frame(
            sponsor,
            encode_frame(
                join_frame(self.proc, sponsor, codecs=self._advertised()),
                self._codec_for(sponsor),
            ),
        )

    def _send_sync(self, dest: ProcessorId, *, attempt: int, boot: bool = False) -> None:
        """Emit one fresh sync frame to ``dest`` and arm its loss timer.

        With ``boot`` the frame also carries a bootstrap snapshot taken
        *after* the send event - the joiner's adopted view then equals
        the sponsor's causal past at the handshake send (Lemma 3.1), so
        handshake-receive plus snapshot is information-equivalent to a
        full replay.  An oversized snapshot degrades to a plain sync: the
        joiner simply bootstraps cold off ordinary gossip.  A sync that
        cannot be encoded at all (its payload outgrew ``MAX_BODY_BYTES``)
        is a message lost before the wire, never an exception out of the
        gossip loop or a timer callback.
        """
        rt, lt = self._next_point()
        event = Event(EventId(self.proc, self._next_seq), lt, EventKind.SEND, dest=dest)
        try:
            payload = self.estimator.on_send(event)
        except Exception:
            # the seq was not consumed: the local event chain stays gapless
            self.estimator_errors += 1
            return
        self._next_seq += 1
        self.trace_log.append((event, rt))
        stats = self.stats[dest]
        stats.sent += 1
        if attempt > 0:
            stats.retransmissions += 1
        codec = self._codec_for(dest)
        frame_bytes: Optional[bytes] = None
        if boot:
            take = getattr(self.estimator, "bootstrap_snapshot", None)
            if take is not None:
                try:
                    frame_bytes = encode_frame(
                        sync_frame(event, payload, boot=take()), codec
                    )
                    self.boot_sent += 1
                except Exception:
                    self.boot_oversized += 1
                    frame_bytes = None
        if frame_bytes is None:
            try:
                frame_bytes = encode_frame(sync_frame(event, payload), codec)
            except ProtocolError:
                # the send event stands but nothing goes on the wire: a
                # lost message, which the ack timer below reports as one
                self.unencodable_syncs += 1
        if frame_bytes is not None:
            self._send_frame(dest, frame_bytes)
        timer = asyncio.get_running_loop().call_later(
            self.config.retransmit.timeout_for(attempt),
            self._on_ack_timeout,
            event.eid,
            dest,
            attempt,
        )
        self._pending[event.seq] = (dest, event.eid, attempt, timer)

    def _on_ack_timeout(self, eid: EventId, dest: ProcessorId, attempt: int) -> None:
        if self._pending.pop(eid.seq, None) is None:
            return  # acked in the meantime
        self.stats[dest].losses_signaled += 1
        self._guarded(self.estimator.on_loss_detected, eid)
        if self._running and attempt < self.config.retransmit.max_retries:
            # recovery is a *new* send event: history re-reports everything
            # still unconfirmed, so the fresh message supersedes the lost one
            self._send_sync(dest, attempt=attempt + 1)

    # -- receive path ------------------------------------------------------------

    def _on_datagram(self, data: bytes) -> None:
        # one datagram may carry several coalesced frames; decode_frames
        # degrades to exactly decode_frame for the single-frame case
        for result in decode_frames(data):
            if result.error is not None:
                self._on_decode_error(result.error)
                continue
            self._on_frame(result.frame, result.version)

    def _on_frame(self, frame: Frame, version: Optional[int]) -> None:
        if frame.src not in self._seen or frame.dst != self.proc:
            # not one of our links: count it where we can, never crash
            if frame.src in self.stats:
                self.stats[frame.src].rejected_frames += 1
            return
        self._learn_codec(frame, version)
        self.peer_last_seen[frame.src] = self.time_base.elapsed()
        if frame.type == "hello":
            return
        if frame.type == "join":
            self._on_join(frame)
            return
        if frame.type == "ack":
            self._on_ack(frame)
            return
        self._on_sync(frame)

    def _learn_codec(self, frame: Frame, version: Optional[int]) -> None:
        """Upgrade the peer's negotiated codec on positive evidence only.

        A binary frame from the peer, or a hello/join whose meta
        advertises ``"binary"``, proves the peer speaks v3; nothing ever
        downgrades an upgraded link (per-peer fallback happens by never
        upgrading, not by switching mid-stream).
        """
        src = frame.src
        if self._peer_codec.get(src) == "binary":
            return
        if version == WIRE_VERSION_BINARY:
            self._peer_codec[src] = "binary"
            return
        if frame.type in ("hello", "join"):
            codecs = frame.meta.get("codecs")
            if isinstance(codecs, (list, tuple)) and "binary" in codecs:
                self._peer_codec[src] = "binary"

    def _on_join(self, frame: Frame) -> None:
        """Sponsor a joining neighbor: answer with a boot-carrying sync.

        Joins may repeat (the joiner retries while fresh, UDP duplicates
        frames); every answer is a fresh send event, and the joiner's
        :meth:`~repro.core.csa.EfficientCSA.bootstrap_from` refuses all
        but the first adopted snapshot, so repetition stays harmless.
        """
        self.stats[frame.src].join_requests += 1
        self._send_sync(frame.src, attempt=0, boot=True)

    def _on_decode_error(self, error) -> None:
        src = error.src
        if src is not None and src in self.stats:
            self.stats[src].decode_errors += 1
            report = getattr(self.estimator, "report_anomaly", None)
            if report is not None:
                _rt, lt = self._now()
                last = self.estimator.last_local_event
                if last is not None and lt < last.lt:
                    lt = last.lt
                self._guarded(report, src, "malformed", lt, f"wire: {error.code}: {error.detail}")
        else:
            self.unattributed_errors += 1

    def _on_ack(self, frame: Frame) -> None:
        entry = self._pending.pop(frame.seq, None)
        if entry is None:
            return  # late ack after timeout: the loss signal stands (sound)
        dest, eid, _attempt, timer = entry
        if dest != frame.src:
            # an ack for this seq from the wrong peer: put the entry back
            self._pending[frame.seq] = entry
            self.stats[frame.src].rejected_frames += 1
            return
        timer.cancel()
        self.stats[dest].acked += 1
        self.stats[dest].last_acked_seq = max(self.stats[dest].last_acked_seq, frame.seq)
        self._guarded(self.estimator.on_delivery_confirmed, eid)

    def _on_sync(self, frame: Frame) -> None:
        stats = self.stats[frame.src]
        stats.last_seen_seq = max(stats.last_seen_seq, frame.seq)
        if frame.seq in self._seen[frame.src]:
            # duplicate (echo, retransmit race): discard before the
            # estimator, but re-ack so the sender can settle its token
            stats.duplicates += 1
            self._ack(frame.src, frame.seq)
            return
        if frame.boot is not None:
            self._adopt_boot(frame)
        elif self._awaiting_boot():
            # a plain sync would end freshness and forfeit the bootstrap;
            # drop it unacked - the sender's loss timer covers the gap
            self.boot_deferred += 1
            return
        rt, lt = self._next_point()
        event = Event(
            EventId(self.proc, self._next_seq),
            lt,
            EventKind.RECEIVE,
            send_eid=EventId(frame.src, frame.seq),
        )
        try:
            self.estimator.on_receive(event, frame.payload)
        except Exception:
            self.estimator_errors += 1
            stats.rejected_frames += 1
            return
        self._next_seq += 1
        self._seen[frame.src].add(frame.seq)
        stats.received += 1
        self.trace_log.append((event, rt))
        self._ack(frame.src, frame.seq)

    def _adopt_boot(self, frame: Frame) -> None:
        """Adopt a sponsor snapshot riding a sync frame, at most once.

        The snapshot must name its carrier as sponsor (attribution), and
        :meth:`bootstrap_from` refuses non-fresh estimators - so a
        retransmitted or rogue boot can never overwrite live state; it
        just degrades to an ordinary sync.
        """
        adopt = getattr(self.estimator, "bootstrap_from", None)
        if adopt is None:
            return
        if frame.boot.sponsor != frame.src:
            self.stats[frame.src].rejected_frames += 1
            return
        try:
            if adopt(frame.boot):
                self.boot_adopted = True
        except Exception:
            # a structurally invalid snapshot: suspicion-worthy input
            self.estimator_errors += 1
            self.stats[frame.src].rejected_frames += 1

    def _ack(self, peer: ProcessorId, seq: int) -> None:
        self._send_frame(
            peer, encode_frame(ack_frame(self.proc, peer, seq), self._codec_for(peer))
        )

    # -- introspection -----------------------------------------------------------

    def estimate_now(self) -> ClockBound:
        """Current source-time bounds at this node's clock reading."""
        _rt, bound = self.estimate_at_now()
        return bound

    def estimate_at_now(self) -> Tuple[float, ClockBound]:
        """One atomic (rt, bound) pair: the bound holds *at* that reading.

        Soundness comparisons need the truth instant and the evaluation
        instant to be the same clock read - re-reading the time base after
        computing the bound would let the scheduling gap masquerade as an
        estimator error.
        """
        rt, lt = self._now()
        last = self.estimator.last_local_event
        if last is not None and lt < last.lt:
            lt = last.lt  # clock resolution race with an in-flight event
        return rt, self.estimator.estimate_now(lt)

    def snapshot(self) -> NodeStats:
        rt, lt = self._now()
        suspicion = getattr(self.estimator, "suspicion", None)
        suspected = tuple(suspicion.suspected()) if suspicion is not None else ()
        return NodeStats(
            proc=self.proc,
            running=self._running,
            rt=rt,
            lt=lt,
            bound=self.estimate_now(),
            event_bound=self.estimator.estimate(),
            events=len(self.trace_log),
            links={peer: LinkStats(**vars(s)) for peer, s in self.stats.items()},
            suspected=suspected,
            recoveries=getattr(self.estimator, "recoveries", 0),
            bootstrapped=self.boot_adopted,
        )

    def _guarded(self, hook, *args) -> None:
        """Call an estimator hook; a runtime node must survive its errors."""
        try:
            hook(*args)
        except Exception:
            self.estimator_errors += 1
