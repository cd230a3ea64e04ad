"""The paper's main result: the efficient optimal CSA (Sec 3).

Per processor the algorithm composes three pieces:

1. the **history propagation protocol** (Figure 2,
   :class:`~repro.core.history.HistoryModule`), which guarantees that at
   every point the processor knows exactly its local view (Lemma 3.1);
2. a **live-point tracker** (Definition 3.1,
   :class:`~repro.core.live.LiveTracker`), which turns the stream of newly
   learned events into AGDP steps - one new node plus its incident
   synchronization-graph edges, followed by the kill-set of points that
   ceased to be live;
3. the **AGDP solver** (Figure 3, :class:`~repro.core.agdp.AGDP`), which
   maintains exact distances between all live points in `O(L^2)` space and
   `O(L^2)` time per inserted node (Lemmas 3.4/3.5).

The estimate at a point ``p`` is then read off AGDP distances to/from the
latest known source point ``sp`` (always live - it is the last known point
of the source processor):

    ``ext_L = LT(p) - d(sp, p)``      ``ext_U = LT(p) + d(p, sp)``

which by Theorem 2.1 equals the full-information optimum.  Experiment E1
asserts the equality event-for-event against
:class:`~repro.core.csa_full.FullInformationCSA`.

Message loss (Sec 3.3) is supported end-to-end: a detection signal flags
the lost send, un-lives it, propagates the flag through history payloads,
and each processor garbage-collects the point from its AGDP.

:class:`EfficientCSA` is laid out in that order - *Sec 3* (event hooks,
one AGDP step per learned event, estimates) - followed by three
extensions, each switched by one constructor argument and none of them on
the path of an estimator that does not ask for it:

**Quarantine and blame** (``degraded_mode=True``, ``suspicion=...``): by
Theorem 2.1 a negative cycle can only appear when the execution violates
its own specification (out-of-spec drift or delay) - the AGDP refuses the
closing edge with :class:`~repro.core.errors.InconsistentSpecificationError`
*before* mutating its matrix.  In degraded mode the estimator collects the
refusals per step, quarantines each constraint, records a structured
:class:`QuarantineDiagnostic`, and keeps answering queries from the
remaining (still mutually consistent) constraints.  Dropping constraints
is sound: distances only grow, so bounds only widen; it merely forfeits
optimality for the affected pairs.  With a ``SuspicionPolicy`` (hardened
mode, implies degraded mode: the Byzantine-input pipeline of
docs/FAULTS.md) incoming history payloads are screened by
:mod:`repro.core.validate` before any state changes; validation failures
and quarantined edges feed a per-processor
:class:`~repro.core.csa_base.SuspicionTracker`; past the policy threshold
the accused processor is *evicted* - every constraint derived from its
claims leaves the synchronization graph.  After a blame-free clean window
the processor is rehabilitated: only events *past* the frontier known at
rehabilitation re-enter the graph.

**Audit and rebuild** (``self_heal=True``; evictions use the rebuild
too): the AGDP cannot un-insert edges, so eviction and self-stabilization
rebuild the live tracker and solver by replaying the estimator's
:class:`ReplayLog` (with the evicted processors' events excluded; the log
is why these modes keep O(events) extra memory).  Replay-rebuild is used
instead of the view-level :meth:`~repro.core.view.View.without_events`
because that primitive also excises the *causal future* of the dropped
events - correct for views, but here nearly every honest event sits
causally after a long-connected liar's early events; the graph layer can
keep honest drift chains and simply skip edges whose other endpoint is
gone, which Theorem 2.1 licenses.  A recovery starts from the log's
:class:`Checkpoint` and replays - and re-ships - only what was logged
after it, fewer than :data:`CHECKPOINT_EVERY` events however long the
run; an eviction still replays the whole log.  A self-healing estimator
audits its structural invariants at every hook and every read.

**Sponsor bootstrap** (:meth:`EfficientCSA.bootstrap_from`): a late
joiner adopts a sponsor's live frontier and live-live distances instead
of the whole history (:mod:`repro.core.bootstrap`).

**AGDP backends** (``agdp_backend``): ``"dict"`` (pure Python) and
``"numpy"`` (dense matrix, observably identical, the default wherever
numpy is importable).  See docs/PERFORMANCE.md.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice
from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional, Tuple, Union

from .agdp import AGDP
from .bootstrap import BootstrapSnapshot
from .csa_base import Estimator, SuspicionPolicy, SuspicionTracker
from .errors import InconsistentSpecificationError, ProtocolError
from .events import Event, EventId, ProcessorId
from .history import HistoryModule, HistoryPayload
from .intervals import ClockBound
from .live import LiveTracker
from .specs import SystemSpec, TOP
from .validate import ValidationFailure, validate_payload

__all__ = ["EfficientCSA", "CSAStats", "QuarantineDiagnostic", "RecoveryEvent"]

_NUMPY_AVAILABLE: Optional[bool] = None


def _numpy_available() -> bool:
    """Whether the vectorised AGDP backend can be imported (cached)."""
    global _NUMPY_AVAILABLE
    if _NUMPY_AVAILABLE is None:
        try:
            import numpy  # noqa: F401

            _NUMPY_AVAILABLE = True
        except ImportError:  # pragma: no cover - numpy is a test dependency
            _NUMPY_AVAILABLE = False
    return _NUMPY_AVAILABLE


@dataclass(frozen=True)
class QuarantineDiagnostic:
    """Structured record of one quarantined synchronization constraint.

    Produced only in degraded mode, when inserting the edge would have
    closed a negative cycle (i.e. the observed timestamps contradict the
    advertised specification, Theorem 2.1).
    """

    #: the event whose AGDP step produced the offending edge
    event: EventId
    #: the rejected edge ``(x, y, weight)`` of the synchronization graph
    edge: Tuple[EventId, EventId, float]
    #: which constraint family the edge encodes: "drift" or "transit"
    kind: str
    #: the detector's message (names the closing pair and distance)
    reason: str


@dataclass(frozen=True)
class RecoveryEvent:
    """One self-stabilization episode: corruption detected, state rebuilt."""

    #: local time of the hook or read whose entry audit caught the corruption
    at_lt: float
    #: which structural invariant failed (the detector's message)
    reason: str
    #: logged events the rebuild replayed - its cost in a machine-independent
    #: unit, bounded by :data:`CHECKPOINT_EVERY` when ``from_checkpoint``
    replayed: int = 0
    #: whether the rebuild started from a checkpoint or from the empty state
    from_checkpoint: bool = False


@dataclass
class CSAStats:
    """Roll-up of the complexity counters of Theorem 3.6 / Corollary 4.1.1."""

    max_live_points: int
    max_agdp_nodes: int
    agdp_pair_updates: int
    agdp_edges_inserted: int
    max_history_buffer: int
    max_payload_records: int
    records_sent: int
    events_observed: int

    def space_proxy(self) -> int:
        """``O(L^2 + K1*D)`` proxy: peak matrix cells + peak history buffer."""
        return self.max_agdp_nodes * self.max_agdp_nodes + self.max_history_buffer


#: logged events between two checkpoints of a self-healing estimator: the
#: most a recovery replays and re-ships.  Throughput of the hardened sim
#: is flat from 32 to 1024 (docs/PERFORMANCE.md), so this is not a knob.
CHECKPOINT_EVERY = 256


class Checkpoint(NamedTuple):
    """The estimator as it stood once a prefix of its log had been applied.

    The first three fields say which prefix - how many events, loss flags
    and forwarded records the log held; the rest are private copies of the
    state derived from it (nothing in them is shared with live state, which
    a corruption scrambles in place).
    """

    position: int
    flags: int
    forwarded: int
    live: LiveTracker
    agdp: object
    history: HistoryModule
    source_rep: Optional[EventId]


class ReplayLog:
    """Everything an estimator was told, in the order it was told.

    The durable ground truth that evictions and self-stabilization rebuild
    from: an adopted bootstrap snapshot, every event fed to the graph
    layer, every loss flag with the point of the run at which it was
    applied, the records that were only ever forwarded - and one
    checkpoint, so that a recovery replays a bounded suffix.
    """

    def __init__(self) -> None:
        #: the state some prefix of this log produced under a ledger that
        #: excluded nothing; ``None`` until the first one is taken
        self.checkpoint: Optional[Checkpoint] = None
        #: late-joiner handoff adopted at bootstrap; the prefix of every replay
        self.snapshot: Optional[BootstrapSnapshot] = None
        #: every event fed to the graph layer, in arrival order
        self.events: List[Event] = []
        self.index: Dict[EventId, Event] = {}
        #: loss flag -> number of events logged when it was first applied (0
        #: for a snapshot's flags), so a replay applies it at the same point
        self.flags: Dict[EventId, int] = {}
        #: frontier-covered records the history re-buffered for forwarding
        #: but never learned (so absent from ``events``), in arrival order;
        #: recovery restores the forwarding buffer from them
        self.forwarded: Dict[EventId, Event] = {}

    def append(self, event: Event) -> None:
        self.events.append(event)
        self.index[event.eid] = event

    def flag(self, send_eid: EventId) -> None:
        self.flags.setdefault(send_eid, len(self.events))

    def note_forwarded(self, records: Iterable[Event]) -> None:
        """Retain the records of a delivered payload that were not learned."""
        for record in records:
            eid = record.eid
            if eid not in self.index and eid not in self.forwarded:
                self.forwarded[eid] = record

    def adopt(self, snapshot: BootstrapSnapshot) -> None:
        self.snapshot = snapshot
        self.flags.update(dict.fromkeys(snapshot.loss_flags, 0))

    def checkpoint_due(self) -> bool:
        taken = self.checkpoint.position if self.checkpoint is not None else 0
        return len(self.events) - taken >= CHECKPOINT_EVERY

    def take_checkpoint(self, live, agdp, history, source_rep) -> None:
        """Keep the given copies as the state of everything logged so far."""
        self.checkpoint = Checkpoint(
            len(self.events), len(self.flags), len(self.forwarded),
            live, agdp, history, source_rep,
        )

    def replay(
        self, since: Optional[Checkpoint] = None
    ) -> Iterator[Union[Event, EventId]]:
        """Events and loss flags (bare ids) in the order the run applied them.

        A replay therefore never holds more live points than the run did,
        and a delivery that came after its flag stays without transit
        edges.  The snapshot is not part of the stream: the consumer
        applies it to its fresh structures first.  With ``since``, only
        what was logged after that checkpoint - counted, not compared: a
        flag applied between two hooks right after it carries the
        checkpoint's own position.
        """
        start, skip = (0, 0) if since is None else (since.position, since.flags)
        flags_at: Dict[int, List[EventId]] = {}
        for flag, position in islice(self.flags.items(), skip, None):
            flags_at.setdefault(position, []).append(flag)
        yield from flags_at.get(start, ())
        events = self.events
        for position in range(start, len(events)):
            yield events[position]
            yield from flags_at.get(position + 1, ())


class _LogKnowledge:
    """Adapter exposing a hardened estimator's knowledge to the validator."""

    def __init__(self, csa: "EfficientCSA"):
        self._csa = csa

    def known_seq(self, proc: ProcessorId) -> int:
        return self._csa.history.known_seq(proc)

    def lookup(self, eid: EventId) -> Optional[Event]:
        return self._csa._log.index.get(eid)

    def rejected_seq(self, proc: ProcessorId) -> int:
        return self._csa._rejected_hwm.get(proc, -1)


class EfficientCSA(Estimator):
    """The optimal, efficient external synchronization algorithm of Sec 3."""

    name = "efficient"

    def __init__(
        self,
        proc: ProcessorId,
        spec: SystemSpec,
        *,
        reliable: bool = True,
        agdp_gc: bool = True,
        agdp_backend: Optional[str] = None,
        history_gc: bool = True,
        track_reports: bool = False,
        degraded_mode: bool = False,
        suspicion: Optional[SuspicionPolicy] = None,
        self_heal: bool = False,
        debug_checks: Optional[bool] = None,
    ):
        super().__init__(proc, spec)
        if agdp_backend is None:
            # the vectorised backend is observably identical to the dict
            # solver (bit-identical distances and counters, enforced by
            # tests/core/test_agdp_numpy.py) and far faster on the payload
            # hot path, so it is the default wherever numpy exists
            agdp_backend = "numpy" if _numpy_available() else "dict"
        # expensive structural self-checks after every event hook and AGDP
        # mutation; None defers to the REPRO_DEBUG environment variable
        from ..testing.invariants import debug_checks_enabled

        self._debug_checks = debug_checks_enabled(debug_checks)
        self.reliable = reliable
        self._history_gc = history_gc
        self._track_reports = track_reports
        self._agdp_backend = agdp_backend
        self._agdp_gc = agdp_gc
        #: edge-weight factors read once from the (static) spec: per
        #: processor ``(beta - 1, 1 - alpha)``, per directed link
        #: ``(sender, receiver)`` the transit ``(upper, lower)``
        self._drift_pairs: Dict[ProcessorId, Tuple[float, float]] = {}
        self._transit_pairs: Dict[
            Tuple[ProcessorId, ProcessorId], Tuple[float, float]
        ] = {}
        self.history = self._make_history()
        self._fresh_graph()
        #: pending history delivery tokens per local send (unreliable mode)
        self._pending_tokens: Dict[EventId, int] = {}
        #: quarantine instead of raising on InconsistentSpecificationError;
        #: hardened mode blames on quarantines, so suspicion implies it
        self.degraded_mode = degraded_mode or suspicion is not None
        #: structured diagnostics of quarantined constraints (degraded mode)
        self.diagnostics: List[QuarantineDiagnostic] = []
        #: per-processor blame ledger (hardened mode only)
        self._suspicion_policy = suspicion
        self.suspicion = self._make_ledger()
        #: structured outcomes of payload screening (hardened mode only)
        self.validation_failures: List[ValidationFailure] = []
        #: highest record seq ever rejected per origin - lets the validator
        #: recognize self-inflicted gaps (see ReceiverKnowledge.rejected_seq)
        self._rejected_hwm: Dict[ProcessorId, int] = {}
        #: self-stabilization (churn extension): audit structural invariants
        #: at every event hook and read, rebuild from the log on failure
        self.self_heal = self_heal
        #: what eviction rebuilds and recoveries replay; an estimator that
        #: does neither keeps no log
        self._log: Optional[ReplayLog] = (
            ReplayLog() if suspicion is not None or self_heal else None
        )
        self.recoveries = 0
        self.recovery_events: List[RecoveryEvent] = []

    def _make_history(self) -> HistoryModule:
        return HistoryModule(
            self.proc,
            self.spec.neighbors(self.proc),
            reliable=self.reliable,
            track_reports=self._track_reports,
            gc_enabled=self._history_gc,
        )

    def _make_agdp(self):
        if self._agdp_backend == "dict":
            agdp = AGDP(gc_enabled=self._agdp_gc)
        elif self._agdp_backend == "numpy":
            from .agdp_numpy import NumpyAGDP

            agdp = NumpyAGDP(gc_enabled=self._agdp_gc)
        else:
            raise ValueError(
                f"unknown AGDP backend {self._agdp_backend!r} (use 'dict' or 'numpy')"
            )
        if self._debug_checks:
            from ..testing.invariants import check_agdp_invariants

            # installed here so eviction rebuilds re-arm the hook too
            agdp.invariant_hook = check_agdp_invariants
        return agdp

    def _make_ledger(self) -> Optional[SuspicionTracker]:
        if self._suspicion_policy is None:
            return None
        return SuspicionTracker(
            self._suspicion_policy, protect=(self.proc, self.spec.source)
        )

    def _debug_check(self) -> None:
        """Run the full cross-module invariant suite (debug mode only)."""
        if self._debug_checks:
            from ..testing.invariants import check_csa_invariants

            check_csa_invariants(self)

    # == Sec 3: event hooks ========================================================

    def on_send(self, event: Event) -> HistoryPayload:
        if not event.is_send:
            raise ProtocolError(f"on_send called with {event.kind} event {event.eid}")
        self._audit(event.lt)
        self._track_local(event)
        self.history.record_local(event)
        self._learn(event)
        payload, token = self.history.prepare_payload(event.dest)
        if not self.reliable:
            self._pending_tokens[event.eid] = token
        self._maybe_rehabilitate()
        self._maybe_checkpoint()
        self._debug_check()
        return payload

    def on_receive(self, event: Event, payload: HistoryPayload) -> None:
        if not event.is_receive:
            raise ProtocolError(f"on_receive called with {event.kind} event {event.eid}")
        if not isinstance(payload, HistoryPayload):
            raise TypeError(
                f"efficient CSA expected a HistoryPayload, got {type(payload).__name__}"
            )
        self._audit(event.lt)
        self._track_local(event)
        sender = event.send_eid.proc
        if self.suspicion is not None:
            payload = self._screen_payload(sender, payload, event)
        new_events, new_flags = self.history.ingest_payload(sender, payload)
        # Figure 2 hands the reported events over in a topological order of
        # the view; the receive itself comes after everything it reports
        for reported in new_events:
            self._learn(reported)
        if self._log is not None:
            self._log.note_forwarded(payload.records)
        self.history.record_local(event)
        self._learn(event)
        for flag in new_flags:
            self._apply_loss_flag(flag)
        self._maybe_rehabilitate()
        self._maybe_checkpoint()
        self._debug_check()

    def on_internal(self, event: Event) -> None:
        self._audit(event.lt)
        self._track_local(event)
        self.history.record_local(event)
        self._learn(event)
        self._maybe_rehabilitate()
        self._maybe_checkpoint()
        self._debug_check()

    def on_delivery_confirmed(self, send_eid: EventId) -> None:
        # a confirm or loss landing on corrupted state must recover first -
        # recovery drops the pending token, so the confirm degrades to a
        # no-op and the loss is recorded against the rebuilt history, both
        # sound
        self._audit()
        token = self._pending_tokens.pop(send_eid, None)
        if token is not None:
            self.history.confirm_delivery(token)
        self._debug_check()

    def on_loss_detected(self, send_eid: EventId) -> None:
        """Sec 3.3: locally detected loss of a message this processor sent."""
        self._audit()
        token = self._pending_tokens.pop(send_eid, None)
        if token is not None:
            self.history.abort_delivery(token)
        if self.history.record_loss(send_eid):
            self._apply_loss_flag(send_eid)
        self._debug_check()

    def _local_lt(self) -> float:
        return self._last_local.lt if self._last_local is not None else 0.0

    # == Sec 3: one AGDP step per learned event ====================================

    def _learn(self, event: Event) -> None:
        """Feed one newly learned event - local or reported - to the graph layer.

        Events must arrive in a topological order of the view; the history
        protocol guarantees this for reported events and the hooks
        interleave local events correctly.  All of Sec 3: observe the
        event (Definition 3.1), insert it with its edges and kill what
        ceased to be live (Figure 3), remember the latest source point.
        A quarantining estimator takes :meth:`_insert_guarded` instead.
        """
        if self._log is not None:
            self._log.append(event)
        if self.degraded_mode:
            self._insert_guarded(event, replay=False)
            return
        edges, kills, _ = self._step_of(event)
        eid = event.eid
        self.agdp.step(eid, edges, kills)
        if eid[0] == self.spec.source:
            self._source_rep = eid

    def _step_of(self, event: Event, hardened: bool = False):
        """Observe ``event`` and build its AGDP step: ``(edges, kills, send_lt)``.

        The one place synchronization-graph edges are made.  With ``q`` the
        processor's previous event and ``delta = LT(p) - LT(q)``, the drift
        spec bounds the elapsed real time by ``alpha * delta <= RT(p) -
        RT(q) <= beta * delta``, i.e. the pair ``p -> q`` of weight ``(beta
        - 1) * delta`` and ``q -> p`` of weight ``(1 - alpha) * delta``.
        For a receive whose send ``s`` is still tracked as undelivered,
        with ``observed = LT(p) - LT(s)``, the transit spec gives ``p ->
        s`` of weight ``upper - observed`` (bounded links only) and ``s ->
        p`` of weight ``observed - lower``.  A send that was flagged lost
        and collected before this late delivery (or whose claimant is
        evicted) contributes nothing, which is sound: fewer constraints
        only widen bounds.

        ``send_lt`` is handed through from :meth:`LiveTracker.observe` for
        the hardened caller's phantom-send test.  With ``hardened`` the
        predecessor may belong to an evicted claim and is then skipped;
        otherwise a missing one is a bug and the solver raises ``KeyError``.
        """
        eid = event.eid
        lt = event.lt
        agdp = self.agdp
        dead, pred, send_lt = self.live.observe(event, lenient=hardened)
        edges: List[Tuple[EventId, EventId, float]] = []
        if pred is not None:
            pred_id, pred_lt = pred
            if not hardened or pred_id in agdp:
                proc = eid[0]
                pair = self._drift_pairs.get(proc)
                if pair is None:
                    drift = self.spec.drift_of(proc)
                    pair = (drift.beta - 1.0, 1.0 - drift.alpha)
                    self._drift_pairs[proc] = pair
                delta = lt - pred_lt
                edges.append((eid, pred_id, pair[0] * delta))
                edges.append((pred_id, eid, pair[1] * delta))
        if send_lt is not None:
            send_eid = event.send_eid
            if send_eid in agdp:
                link = (send_eid[0], eid[0])
                pair = self._transit_pairs.get(link)
                if pair is None:
                    transit = self.spec.transit_of(*link)
                    pair = (transit.upper, transit.lower)
                    self._transit_pairs[link] = pair
                observed = lt - send_lt
                if pair[0] != TOP:
                    edges.append((eid, send_eid, pair[0] - observed))
                edges.append((send_eid, eid, observed - pair[1]))
        return edges, [k for k in dead if k in agdp], send_lt

    def _apply_loss_flag(self, send_eid: EventId, replay: bool = False) -> None:
        """Sec 3.3: un-live a lost send and collect what died with it."""
        if self._log is not None and not replay:
            self._log.flag(send_eid)
        self._collect(self.live.flag_lost(send_eid))

    def _collect(self, dead: Iterable[EventId]) -> None:
        for victim in dead:
            if victim in self.agdp:
                self.agdp.kill(victim)

    # == Sec 3: estimates ==========================================================

    def estimate(self) -> ClockBound:
        return self._read(self._own_point)

    def estimate_of(self, proc: ProcessorId) -> ClockBound:
        """Bounds on ``RT`` at the last *known* point of another processor.

        The last known point of every processor is live, so the optimal
        interval for it is directly available - this is how a monitoring
        node can bound every peer's situation from its own view.
        """
        return self._read(self._point_of, proc)

    def relative_estimate(
        self, proc_a: ProcessorId, proc_b: ProcessorId
    ) -> ClockBound:
        """Optimal bounds on ``RT(a) - RT(b)`` at the two processors' last
        known points (internal-synchronization-style output).

        Theorem 2.1 applies to *any* pair of points, not just pairs with a
        source point, and both processors' last known points are live, so
        their distances sit in the AGDP matrix already:

            ``RT(p_a) - RT(p_b) in [virt_del - d(p_b, p_a),
                                    virt_del + d(p_a, p_b)]``.

        This works even before any source information arrives - it is how
        a system without access to standard time still bounds relative
        offsets (cf. the internal-synchronization literature the paper
        builds on).
        """
        return self._read(self._pair_of, proc_a, proc_b)

    def _read(self, locate, *procs: ProcessorId) -> ClockBound:
        """The one way out of the distance matrix.

        ``locate(*procs)`` names the read as ``(p, q, offset)``, or
        ``None`` when nothing trustworthy anchors it (unbounded).  A
        self-healing estimator audits first - sampling can land between a
        corruption and the next event hook, and a scrambled matrix must
        never leak out as an exception or, worse, an unbacked interval -
        and treats an empty interval, impossible for honest state, as
        corruption the structural audit could not see.
        """
        self._audit()
        lower, upper = self._endpoints(locate(*procs))
        if lower > upper and self.self_heal:
            self._recover(self._local_lt(), "estimate produced an empty bound")
            lower, upper = self._endpoints(locate(*procs))
        return ClockBound(lower, upper)

    def _endpoints(self, where) -> Tuple[float, float]:
        """Theorem 2.1 for the pair ``p, q``: ``offset + [-d(q, p), d(p, q)]``."""
        if where is None:
            return -math.inf, math.inf
        p, q, offset = where
        distance = self.agdp.distance
        return offset - distance(q, p), offset + distance(p, q)

    def _own_point(self):
        if self._last_local is None or self._source_rep is None:
            return None
        return self._last_local.eid, self._source_rep, self._last_local.lt

    def _last_point(self, proc: ProcessorId) -> Optional[Tuple[EventId, float]]:
        # a latest claim that is excluded (evicted/excised) is not in the
        # solver: nothing trustworthy anchors that processor's current clock
        last = self.live.last_event(proc)
        return last if last is not None and last[0] in self.agdp else None

    def _point_of(self, proc: ProcessorId):
        last = self._last_point(proc)
        if last is None or self._source_rep is None:
            return None
        return last[0], self._source_rep, last[1]

    def _pair_of(self, proc_a: ProcessorId, proc_b: ProcessorId):
        last_a, last_b = self._last_point(proc_a), self._last_point(proc_b)
        if last_a is None or last_b is None:
            return None
        return last_a[0], last_b[0], last_a[1] - last_b[1]

    def stats(self) -> CSAStats:
        return CSAStats(
            max_live_points=self.live.max_live,
            max_agdp_nodes=self.agdp.stats.max_nodes,
            agdp_pair_updates=self.agdp.stats.pair_updates,
            agdp_edges_inserted=self.agdp.stats.edges_inserted,
            max_history_buffer=self.history.stats.max_buffer,
            max_payload_records=self.history.stats.max_payload,
            records_sent=self.history.stats.records_sent,
            events_observed=self.live.events_observed,
        )

    # == extension: quarantine and blame (degraded_mode / suspicion) ===============

    @property
    def degraded(self) -> bool:
        """Whether any constraint has been quarantined so far."""
        return bool(self.diagnostics)

    @property
    def eviction_events(self):
        """Suspicion state transitions so far (empty outside hardened mode)."""
        return tuple(self.suspicion.events) if self.suspicion is not None else ()

    def _insert_guarded(self, event: Event, replay: bool) -> None:
        """The AGDP step of :meth:`_learn` for estimators that distrust input.

        Degraded mode collects inconsistent constraints instead of
        raising: the solver refuses each *before* writing anything, so the
        matrix stays exact over the accepted ones and the rest of the step
        lands.  In hardened mode events of evicted (or excised-range)
        processors still pass through the live tracker - continuity of the
        tracked view must survive an eviction - but contribute no node and
        no edges to the AGDP.

        A ``replay`` (:meth:`_rebuild`) takes the same decisions and stops
        there: it records no diagnostic (the list stays cumulative) and
        blames nobody.
        """
        eid = event.eid
        suspicion = self.suspicion
        refused: List[InconsistentSpecificationError] = []
        if suspicion is not None and suspicion.is_excluded(eid):
            dead, _, send_lt = self.live.observe(event, lenient=True)
            self._collect(dead)
        else:
            edges, kills, send_lt = self._step_of(event, suspicion is not None)
            self.agdp.step(
                eid, edges, kills, refused if self.degraded_mode else None
            )
            if eid[0] == self.spec.source:
                self._source_rep = eid
        if replay:
            return
        for error in refused:
            x, y, _ = error.edge
            self.diagnostics.append(
                QuarantineDiagnostic(
                    event=eid,
                    edge=error.edge,
                    # drift edges join a processor's consecutive events
                    kind="drift" if x.proc == y.proc else "transit",
                    reason=str(error),
                )
            )
        if suspicion is None:
            return
        blames: List[Tuple[ProcessorId, str, str]] = []
        if (
            send_lt is None
            and event.is_receive
            and self.live.knows(event.send_eid)
            and event.send_eid not in self.live.lost_flags
        ):
            # the send id resolves to something the tracker did not hold as
            # an undelivered send - for honest input a double delivery, but a
            # fabricated event squatting on a real send's id produces exactly
            # this shape at every honest receiver of the real message
            blames.append(
                (
                    event.send_eid.proc,
                    "phantom-send",
                    f"receive {eid} references {event.send_eid}, which is "
                    "known but not an undelivered send",
                )
            )
        for error in refused:
            x, y, w = error.edge
            for accused in sorted({x.proc, y.proc} - set(suspicion.protected)):
                blames.append(
                    (
                        accused,
                        "quarantine",
                        f"constraint ({x}, {y}, {w:.4g}) closed a negative cycle",
                    )
                )
        # blamed only now, after the step completed: an eviction rebuilds
        # ``self.agdp``/``self.live`` in place, and doing that mid-insertion
        # would leave the step half applied to the old structures
        evicted = False
        for proc, kind, detail in blames:
            evicted |= suspicion.blame(proc, kind, event.lt, detail)
        if evicted:
            self._rebuild()

    def _screen_payload(
        self, sender: ProcessorId, payload: HistoryPayload, event: Event
    ) -> HistoryPayload:
        """Validate an incoming payload; blame the accused; return it sanitized."""
        report = validate_payload(
            sender,
            payload,
            knowledge=_LogKnowledge(self),
            spec=self.spec,
            receiver=self.proc,
            receive_event=event,
            trusted=self.suspicion.protected,
            suspected=self.suspicion.suspected(),
        )
        self.validation_failures.extend(report.failures)
        for record in report.rejected:
            if isinstance(record, Event):
                seq = record.eid.seq
                if seq > self._rejected_hwm.get(record.proc, -1):
                    self._rejected_hwm[record.proc] = seq
        evicted = False
        for failure in report.failures:
            for accused in failure.accused:
                evicted |= self.suspicion.blame(
                    accused, failure.kind, event.lt, failure.detail
                )
        if evicted:
            self._rebuild()
        return report.sanitized

    def report_anomaly(
        self, accused: ProcessorId, kind: str, at_lt: float, detail: str = ""
    ) -> None:
        """Feed an externally observed anomaly into the suspicion ledger.

        Entry point for layers below the estimator - e.g. the runtime wire
        codec attributing undecodable bytes to the claimed sender.  The
        anomaly is recorded as a :class:`ValidationFailure` and blamed
        exactly like a screening failure; no-op outside hardened mode
        (without a suspicion ledger there is nowhere to put it).
        """
        if self.suspicion is None:
            return
        self._audit(at_lt)
        self.validation_failures.append(
            ValidationFailure(kind=kind, accused=(accused,), detail=detail)
        )
        if self.suspicion.blame(accused, kind, at_lt, detail):
            self._rebuild()
        self._debug_check()

    def _maybe_rehabilitate(self) -> None:
        """Give evicted processors their way back after a clean window.

        No rebuild is needed: rehabilitation freezes the excised range at
        the current knowledge frontier (those claims stay out forever) and
        only future events re-enter the graph through normal insertion.
        """
        if self.suspicion is None or self._last_local is None:
            return
        if not self.suspicion.evicted_procs:
            return
        now = self._last_local.lt
        for proc in self.suspicion.due_for_rehabilitation(now):
            self.suspicion.rehabilitate(
                proc, now, frontier=self.history.known_seq(proc)
            )

    # == extension: audit and rebuild (self_heal; evictions rebuild too) ===========

    def self_check(self) -> bool:
        """Cheap structural audit; ``True`` when state looks coherent."""
        return self._find_corruption() is None

    def _find_corruption(self) -> Optional[str]:
        """O(#processors) cross-module invariant probe.

        Detects the corruption classes of the churn fault model: a
        scrambled history frontier (disagrees with the live tracker), a
        poisoned distance matrix (nonzero diagonal at a live point, or a
        lost source representative), and an invalid suspicion ledger
        (negative or NaN scores).  Anything that *raises* during the probe
        is corruption too.
        """
        try:
            for proc in self.live.processors:
                if self.history.known_seq(proc) != self.live.last_seq(proc):
                    return (
                        f"history frontier for {proc!r} disagrees with the "
                        "live tracker"
                    )
            if self._source_rep is not None and self._source_rep not in self.agdp:
                return "source representative missing from the distance solver"
            for proc in self.live.processors:
                last = self.live.last_event(proc)
                if last is not None and last[0] in self.agdp:
                    if self.agdp.distance(last[0], last[0]) != 0.0:
                        return f"distance matrix diagonal poisoned at {last[0]}"
            if self.suspicion is not None:
                for proc, score in self.suspicion.scores.items():
                    if not score >= 0.0:  # NaN fails this comparison too
                        return f"suspicion ledger holds invalid score for {proc!r}"
        except Exception as exc:
            return f"structural audit raised: {exc}"
        return None

    def _audit(self, at_lt: Optional[float] = None) -> None:
        """Entry audit of every hook and read (self-healing estimators only);
        without a local event the record anchors at the last local time."""
        if not self.self_heal:
            return
        reason = self._find_corruption()
        if reason is not None:
            self._recover(self._local_lt() if at_lt is None else at_lt, reason)

    def _maybe_checkpoint(self) -> None:
        """Checkpoint the log once enough has been logged since the last one.

        Runs where a hook ends: history, tracker and solver all describe
        the same prefix of the log there (inside :meth:`_learn` the
        history has run ahead of the graph).  Only a ledger that excludes
        nothing is captured - a recovery replays under a fresh one, so a
        clean checkpoint plus the suffix is the full replay; an estimator
        that has evicted keeps its last clean checkpoint and takes no new
        one until it next recovers.
        """
        if not self.self_heal:
            return  # never recovers, so would never restore one
        log = self._log
        if not log.checkpoint_due():
            return
        if self.suspicion is not None and self.suspicion.excludes_anything:
            return
        log.take_checkpoint(
            self.live.copy(), self.agdp.copy(), self.history.copy(), self._source_rep
        )

    def _recover(self, at_lt: float, reason: str) -> None:
        """Rebuild every subsystem from the replay log (self-stabilization).

        The log and its checkpoint are the ground truth; history,
        suspicion ledger, live tracker and solver are restored from the
        checkpoint and the events, forwarded records and loss flags logged
        after it are applied again, through the calls the run made.  So
        recovery is *exact* - distances, live set and knowledge are
        bit-identical to a never-corrupted twin's - and costs what was
        logged since the checkpoint, not the run.  Two things are not the
        twin's: the watermarks are those *confirmed* when the checkpoint
        was taken (lower bounds on what each neighbor knows, so the
        replayed suffix and whatever was unconfirmed is buffered and
        shipped again, and receivers dedup it), and unsettled delivery
        tokens are dropped - late confirms become no-ops and the
        unconfirmed payloads are simply re-reported.  Before the first
        checkpoint the whole log is replayed into fresh structures and
        every watermark restarts.
        """
        log = self._log
        since = log.checkpoint
        position, flags, forwarded = (0, 0, 0) if since is None else since[:3]
        self.recoveries += 1
        self.recovery_events.append(
            RecoveryEvent(
                at_lt=at_lt,
                reason=reason,
                replayed=len(log.events) - position,
                from_checkpoint=since is not None,
            )
        )
        stats = self.history.stats
        if since is None:
            self.history = self._make_history()
            if log.snapshot is not None:
                self._adopt_frontier(log.snapshot)
        else:
            # a copy: this checkpoint may have to be restored again
            self.history = since.history.copy()
        self.history.stats = stats
        # frontier-covered forwardables first: they causally precede every
        # logged (post-bootstrap) event, so this is a valid learn order
        self.history.adopt_events(islice(log.forwarded.values(), forwarded, None))
        self.history.adopt_events(log.events[position:])
        for flag in islice(log.flags, flags, None):
            self.history.record_loss(flag)
        self.suspicion = self._make_ledger()
        self._pending_tokens.clear()
        self._rebuild(since)

    def _rebuild(self, since: Optional[Checkpoint] = None) -> None:
        """Re-derive tracker and solver from the replay log, minus the evicted.

        A fresh live tracker and solver take the snapshot and then the
        log's events and loss flags in the order the run applied them.
        Sound by Theorem 2.1 - the surviving constraints are a subset of
        genuine ones - and exact over what remains.  An eviction replays
        the whole log (the distances in a checkpoint are blended; the
        graph minus one processor needs the events); a recovery, whose
        ledger excludes nothing, passes the checkpoint to start from.
        Counters carry over: the replay's work adds to the run's.
        """
        log = self._log
        live, agdp = self.live, self.agdp
        if since is None:
            self._fresh_graph()
            if log.snapshot is not None:
                self._apply_snapshot(log.snapshot, replay=True)
        else:
            self.live, self.agdp = since.live.copy(), since.agdp.copy()
            self._source_rep = since.source_rep
        self.live.events_observed = live.events_observed
        self.live.max_live = max(self.live.max_live, live.max_live)
        self.agdp.stats = agdp.stats
        for item in log.replay(since):
            if isinstance(item, Event):
                self._insert_guarded(item, replay=True)
            else:
                self._apply_loss_flag(item, replay=True)

    def _fresh_graph(self) -> None:
        self.live = LiveTracker()
        self.agdp = self._make_agdp()
        #: latest known event of the source processor (the AGDP query anchor)
        self._source_rep: Optional[EventId] = None

    # == extension: sponsor bootstrap (late joiners) ===============================

    @property
    def is_fresh(self) -> bool:
        """Whether this estimator has neither observed nor adopted anything.

        Only a fresh estimator may bootstrap: adopting over existing state
        would forge continuity.  A restarted node with durable state is not
        fresh - its :meth:`bootstrap_from` is a no-op returning ``False``,
        which is exactly the at-most-once semantics the runtime handshake
        needs (a retransmitted join answer must not re-apply).
        """
        log = self._log
        return (
            self._last_local is None
            and self.live.events_observed == 0
            and not self.live.processors
            and (log is None or (not log.events and log.snapshot is None))
        )

    def bootstrap_snapshot(self) -> BootstrapSnapshot:
        """Export this estimator's handoff state for a late joiner.

        Sound and complete by Lemmas 3.4/3.5: garbage collection preserves
        exact distances between live points, and every future constraint is
        incident only to live points, so the frontier + finite live-live
        distances + loss flags are all a joiner needs (see
        :mod:`repro.core.bootstrap`).  Call *after* recording the send
        event of the handshake message, so the snapshot covers it.
        """
        last = tuple(
            (proc, seq, lt, is_send)
            for proc, (seq, lt, is_send) in sorted(self.live.last_events().items())
        )
        undelivered = tuple(
            (eid.proc, eid.seq, self.live.send_lt(eid))
            for eid in sorted(self.live.undelivered_sends())
        )
        points = [p for p in sorted(self.live.live_points()) if p in self.agdp]
        distances = []
        for x in points:
            for y in points:
                if x == y:
                    continue
                w = self.agdp.distance(x, y)
                if math.isfinite(w):
                    distances.append((x.proc, x.seq, y.proc, y.seq, w))
        return BootstrapSnapshot(
            sponsor=self.proc,
            last=last,
            undelivered=undelivered,
            known=tuple(sorted(self.history.knowledge_frontier().items())),
            loss_flags=tuple(sorted(self.history.loss_flags)),
            distances=tuple(distances),
            source_rep=self._source_rep,
        )

    def bootstrap_from(self, snapshot: BootstrapSnapshot) -> bool:
        """Adopt a sponsor's snapshot; returns ``False`` unless fresh.

        On success the estimator behaves as if it had absorbed the
        sponsor's entire view: the next receive (the handshake message
        itself) attaches to the adopted live points and the first estimate
        is already Theorem 2.1-optimal.  A snapshot whose distances are
        internally inconsistent (corrupt or adversarial) is refused
        wholesale - the estimator resets to fresh and returns ``False``.
        """
        if not self.is_fresh:
            return False
        try:
            self._adopt_frontier(snapshot)
            self._apply_snapshot(snapshot, replay=False)
        except (InconsistentSpecificationError, ProtocolError, ValueError):
            self.history = self._make_history()
            self._fresh_graph()
            return False
        if self._log is not None:
            self._log.adopt(snapshot)
        return True

    def _adopt_frontier(self, snapshot: BootstrapSnapshot) -> None:
        """Teach a fresh history module what the snapshot's sponsor knew."""
        sponsor = (
            snapshot.sponsor if snapshot.sponsor in self.history.neighbors else None
        )
        self.history.adopt_frontier(
            snapshot.frontier(), snapshot.loss_flags, sponsor=sponsor
        )

    def _apply_snapshot(self, snapshot: BootstrapSnapshot, replay: bool) -> None:
        """Load a snapshot into a fresh live tracker and solver.

        An inconsistent distance raises (:meth:`bootstrap_from` refuses the
        snapshot wholesale) unless this is a ``replay``, which quarantines
        it silently like a logged event's.  In hardened replays, points
        claimed by currently excluded processors stay out of the solver
        (their folded path contributions cannot be unfolded - the snapshot
        is trusted sponsor state, eviction excises only direct nodes).
        """
        self.live.adopt(snapshot.last, snapshot.undelivered, snapshot.loss_flags)
        excluded = (
            self.suspicion.is_excluded if self.suspicion is not None else lambda e: False
        )
        kept = [p for p in snapshot.live_points() if not excluded(p)]
        for point in kept:
            self.agdp.add_node(point)
        in_agdp = set(kept)
        for xp, xs, yp, ys, w in snapshot.distances:
            x, y = EventId(xp, xs), EventId(yp, ys)
            if x not in in_agdp or y not in in_agdp:
                continue
            try:
                self.agdp.insert_edge(x, y, w)
            except InconsistentSpecificationError:
                if not replay:
                    raise
        if snapshot.source_rep is not None and snapshot.source_rep in self.agdp:
            self._source_rep = snapshot.source_rep
