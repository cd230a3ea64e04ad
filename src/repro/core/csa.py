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
   `O(L^2)` time per inserted edge (Lemmas 3.4/3.5).

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

**Degraded mode** (``degraded_mode=True``): by Theorem 2.1 a negative
cycle can only appear when the execution violates its own specification
(out-of-spec drift or delay) - the AGDP refuses the closing edge with
:class:`~repro.core.errors.InconsistentSpecificationError` *before*
mutating its matrix.  In degraded mode the estimator catches that per
edge, quarantines the constraint, records a structured
:class:`QuarantineDiagnostic`, and keeps answering queries from the
remaining (still mutually consistent) constraints.  Dropping constraints
is sound: distances only grow, so bounds only widen; it merely forfeits
optimality for the affected pairs.

**AGDP backends** (``agdp_backend``): ``"dict"`` (pure-Python, the
reference), ``"numpy"`` (compacted dense matrix, vectorised Ausiello
update - observably identical to the dict solver and the default
wherever numpy is importable; pass ``"dict"`` explicitly to force the
pure-Python solver), and
``"numpy-source-only"`` (maintains only the source representative's
distance row/column by incremental relaxation - O(affected edges) per
insertion; :meth:`estimate` and :meth:`estimate_of` work,
:meth:`relative_estimate` raises, degraded/hardened modes are rejected).
See docs/PERFORMANCE.md for the selection guide.

**Hardened mode** (``suspicion=SuspicionPolicy(...)``; implies degraded
mode): the Byzantine-input pipeline of docs/FAULTS.md.  Incoming history
payloads are screened by :mod:`repro.core.validate` before any state
changes; validation failures and quarantined edges feed a per-processor
:class:`~repro.core.csa_base.SuspicionTracker`; past the policy threshold
the accused processor is *evicted* - every constraint derived from its
claims leaves the synchronization graph.  The AGDP cannot un-insert
edges, so eviction rebuilds the live tracker and solver by replaying the
estimator's event log with the evicted processor's events excluded (the
log is why hardened mode keeps O(events) extra memory).  Replay-rebuild
is used instead of the view-level
:meth:`~repro.core.view.View.without_events` because that primitive also
excises the *causal future* of the dropped events - correct for views,
but here nearly every honest event sits causally after a long-connected
liar's early events; the graph layer can keep honest drift chains and
simply skip edges whose other endpoint is gone, which Theorem 2.1
licenses (dropping constraints only widens bounds).  After a blame-free
clean window the processor is rehabilitated: only events *past* the
frontier known at rehabilitation re-enter the graph.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

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

    #: local time of the event hook whose entry audit caught the corruption
    at_lt: float
    #: which structural invariant failed (the detector's message)
    reason: str


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


class _LogKnowledge:
    """Adapter exposing a hardened estimator's knowledge to the validator."""

    def __init__(self, csa: "EfficientCSA"):
        self._csa = csa

    def known_seq(self, proc: ProcessorId) -> int:
        return self._csa.history.known_seq(proc)

    def lookup(self, eid: EventId) -> Optional[Event]:
        return self._csa._log_index.get(eid)

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
        if agdp_backend == "numpy-source-only" and (
            degraded_mode or suspicion is not None
        ):
            # quarantine needs the solver to refuse a bad constraint
            # *before* mutating; the source-only solver detects negative
            # cycles only during relaxation, after the adjacency changed
            raise ValueError(
                "the 'numpy-source-only' AGDP backend cannot run in degraded "
                "or hardened mode (no pre-mutation inconsistency detection); "
                "use 'dict' or 'numpy'"
            )
        if agdp_backend == "numpy-source-only" and self_heal:
            # the structural audit reads matrix diagonals and the recovery
            # path replays pairwise constraints; the anchored row/column
            # solver retains neither
            raise ValueError(
                "the 'numpy-source-only' AGDP backend cannot self-heal; "
                "use 'dict' or 'numpy'"
            )
        # expensive structural self-checks after every event hook and AGDP
        # mutation; None defers to the REPRO_DEBUG environment variable
        from ..testing.invariants import debug_checks_enabled

        self._debug_checks = debug_checks_enabled(debug_checks)
        self._history_gc = history_gc
        self._track_reports = track_reports
        self.history = HistoryModule(
            proc,
            spec.neighbors(proc),
            reliable=reliable,
            track_reports=track_reports,
            gc_enabled=history_gc,
        )
        self.live = LiveTracker()
        #: edge-weight factors read once from the (static) spec: per
        #: processor ``(beta - 1, 1 - alpha)``, per directed link
        #: ``(sender, receiver)`` the transit ``(upper, lower)``
        self._drift_pairs: Dict[ProcessorId, Tuple[float, float]] = {}
        self._transit_pairs: Dict[
            Tuple[ProcessorId, ProcessorId], Tuple[float, float]
        ] = {}
        self._agdp_backend = agdp_backend
        self._agdp_gc = agdp_gc
        self.agdp = self._make_agdp()
        self.reliable = reliable
        #: quarantine instead of raising on InconsistentSpecificationError;
        #: hardened mode blames on quarantines, so suspicion implies it
        self.degraded_mode = degraded_mode or suspicion is not None
        #: structured diagnostics of quarantined constraints (degraded mode)
        self.diagnostics: List[QuarantineDiagnostic] = []
        #: latest known event of the source processor (the AGDP query anchor)
        self._source_rep: Optional[EventId] = None
        #: pending history delivery tokens per local send (unreliable mode)
        self._pending_tokens: Dict[EventId, int] = {}
        #: per-processor blame ledger (hardened mode only)
        self._suspicion_policy = suspicion
        self.suspicion: Optional[SuspicionTracker] = (
            SuspicionTracker(suspicion, protect=(proc, spec.source))
            if suspicion is not None
            else None
        )
        #: structured outcomes of payload screening (hardened mode only)
        self.validation_failures: List[ValidationFailure] = []
        #: highest record seq ever rejected per origin - lets the validator
        #: recognize self-inflicted gaps (see ReceiverKnowledge.rejected_seq)
        self._rejected_hwm: Dict[ProcessorId, int] = {}
        #: every event ever fed to the graph layer, in arrival order; the
        #: replay source for eviction rebuilds (hardened mode only)
        self._event_log: List[Event] = []
        self._log_index: Dict[EventId, Event] = {}
        self._replaying = False
        #: self-stabilization (churn extension): audit structural invariants
        #: at every event hook and rebuild from the retained log on failure
        self.self_heal = self_heal
        #: the event log doubles as the recovery replay source, so it is
        #: retained for self-healing estimators even outside hardened mode
        self._retain_log = self.suspicion is not None or self_heal
        #: loss flags in arrival order, each with the length of the event
        #: log when it was applied (0 for a bootstrap snapshot's flags), so a
        #: rebuild applies it at the same point of the replay; durable
        #: across history rebuilds
        self._flag_log: Dict[EventId, int] = {}
        #: frontier-covered records re-buffered for forwarding but never
        #: learned (so absent from the event log); kept in arrival order so
        #: recovery can restore the forwarding buffer exactly
        self._rebuffer_log: Dict[EventId, Event] = {}
        #: late-joiner handoff adopted at bootstrap; replay prefix of rebuilds
        self._bootstrap: Optional[BootstrapSnapshot] = None
        self.recoveries = 0
        self.recovery_events: List[RecoveryEvent] = []

    def _make_agdp(self):
        if self._agdp_backend == "dict":
            agdp = AGDP(gc_enabled=self._agdp_gc)
        elif self._agdp_backend == "numpy":
            from .agdp_numpy import NumpyAGDP

            agdp = NumpyAGDP(gc_enabled=self._agdp_gc)
        elif self._agdp_backend == "numpy-source-only":
            # O(affected edges) per insertion instead of O(L^2): maintains
            # only the source representative's distance row/column, which
            # is all estimate()/estimate_of() read.  relative_estimate()
            # needs arbitrary pairs and raises; see docs/PERFORMANCE.md.
            from .agdp_numpy import NumpyAGDP

            agdp = NumpyAGDP(gc_enabled=self._agdp_gc, source_only=True)
        else:
            raise ValueError(
                f"unknown AGDP backend {self._agdp_backend!r} "
                "(use 'dict', 'numpy', or 'numpy-source-only')"
            )
        if self._debug_checks:
            from ..testing.invariants import check_agdp_invariants

            # installed here so eviction rebuilds re-arm the hook too
            agdp.invariant_hook = check_agdp_invariants
        return agdp

    @property
    def degraded(self) -> bool:
        """Whether any constraint has been quarantined so far."""
        return bool(self.diagnostics)

    @property
    def eviction_events(self):
        """Suspicion state transitions so far (empty outside hardened mode)."""
        return tuple(self.suspicion.events) if self.suspicion is not None else ()

    def _debug_check(self) -> None:
        """Run the full cross-module invariant suite (debug mode only)."""
        if self._debug_checks:
            from ..testing.invariants import check_csa_invariants

            check_csa_invariants(self)

    # -- event hooks -------------------------------------------------------------

    def on_send(self, event: Event) -> HistoryPayload:
        if not event.is_send:
            raise ProtocolError(f"on_send called with {event.kind} event {event.eid}")
        self._audit(event.lt)
        self._track_local(event)
        self.history.record_local(event)
        self._ingest(event)
        payload, token = self.history.prepare_payload(event.dest)
        if not self.reliable:
            self._pending_tokens[event.eid] = token
        self._maybe_rehabilitate()
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
        self._ingest_reported(new_events)
        if self._retain_log:
            # records the history re-buffered rather than learned (covered
            # by an adopted frontier) never reach the event log; retain
            # them separately so recovery can restore the forwarding buffer
            new_ids = {e.eid for e in new_events}
            for record in payload.records:
                if (
                    record.eid not in new_ids
                    and record.eid not in self._log_index
                    and record.eid not in self._rebuffer_log
                ):
                    self._rebuffer_log[record.eid] = record
        self.history.record_local(event)
        self._ingest(event)
        for flag in new_flags:
            self._apply_loss_flag(flag)
        self._maybe_rehabilitate()
        self._debug_check()

    def on_internal(self, event: Event) -> None:
        self._audit(event.lt)
        self._track_local(event)
        self.history.record_local(event)
        self._ingest(event)
        self._maybe_rehabilitate()
        self._debug_check()

    def on_delivery_confirmed(self, send_eid: EventId) -> None:
        # these two hooks fire without a local event, so the audit anchors
        # at the last local time (as estimate() does); a confirm or loss
        # landing on corrupted state must recover first - recovery drops
        # the pending token, so the confirm degrades to a no-op and the
        # loss is recorded against the rebuilt history, both sound
        self._audit(self._last_local.lt if self._last_local is not None else 0.0)
        token = self._pending_tokens.pop(send_eid, None)
        if token is not None:
            self.history.confirm_delivery(token)
        self._debug_check()

    def on_loss_detected(self, send_eid: EventId) -> None:
        """Sec 3.3: locally detected loss of a message this processor sent."""
        self._audit(self._last_local.lt if self._last_local is not None else 0.0)
        token = self._pending_tokens.pop(send_eid, None)
        if token is not None:
            self.history.abort_delivery(token)
        if self.history.record_loss(send_eid):
            self._apply_loss_flag(send_eid)
        self._debug_check()

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

    # -- dynamic membership: late-joiner bootstrap -----------------------------------

    @property
    def is_fresh(self) -> bool:
        """Whether this estimator has neither observed nor adopted anything.

        Only a fresh estimator may bootstrap: adopting over existing state
        would forge continuity.  A restarted node with durable state is not
        fresh - its :meth:`bootstrap_from` is a no-op returning ``False``,
        which is exactly the at-most-once semantics the runtime handshake
        needs (a retransmitted join answer must not re-apply).
        """
        return (
            self._last_local is None
            and self.live.events_observed == 0
            and not self.live.processors
            and not self._event_log
            and self._bootstrap is None
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
        if getattr(self.agdp, "source_only", False):
            raise ProtocolError(
                "the 'numpy-source-only' backend retains no pairwise "
                "distances to hand off; sponsor with 'dict' or 'numpy'"
            )
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
        if getattr(self.agdp, "source_only", False):
            raise ProtocolError(
                "the 'numpy-source-only' backend cannot bootstrap "
                "(no pairwise distance storage); use 'dict' or 'numpy'"
            )
        sponsor = (
            snapshot.sponsor if snapshot.sponsor in self.history.neighbors else None
        )
        try:
            self.history.adopt_frontier(
                snapshot.frontier(), snapshot.loss_flags, sponsor=sponsor
            )
            self._apply_snapshot(snapshot)
        except (InconsistentSpecificationError, ProtocolError, ValueError):
            self._reset_fresh()
            return False
        self._bootstrap = snapshot
        if self._retain_log:
            self._flag_log.update(dict.fromkeys(snapshot.loss_flags, 0))
        return True

    def _apply_snapshot(self, snapshot: BootstrapSnapshot) -> None:
        """Load a snapshot into the live tracker and solver (fresh structures).

        Shared by :meth:`bootstrap_from` and :meth:`_rebuild`; in hardened
        replays, points claimed by currently excluded processors stay out of
        the solver (their folded path contributions cannot be unfolded - the
        snapshot is trusted sponsor state, eviction excises only direct
        nodes).
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
                if not self._replaying:
                    raise  # bootstrap_from refuses the snapshot wholesale
                # replay: quarantine silently, like logged-event replays
        if snapshot.source_rep is not None and snapshot.source_rep in self.agdp:
            self._source_rep = snapshot.source_rep

    def _reset_fresh(self) -> None:
        """Discard all state after a refused bootstrap (back to fresh)."""
        self.history = HistoryModule(
            self.proc,
            self.spec.neighbors(self.proc),
            reliable=self.reliable,
            track_reports=self._track_reports,
            gc_enabled=self._history_gc,
        )
        self.live = LiveTracker()
        self.agdp = self._make_agdp()
        self._source_rep = None
        self._bootstrap = None

    # -- self-stabilization: audit and recovery --------------------------------------

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

    def _audit(self, at_lt: float) -> None:
        """Entry audit of every event hook (self-healing estimators only)."""
        if not self.self_heal:
            return
        reason = self._find_corruption()
        if reason is not None:
            self._recover(at_lt, reason)

    def _recover(self, at_lt: float, reason: str) -> None:
        """Rebuild every subsystem from durable logs (self-stabilization).

        The retained event log, loss-flag log, and bootstrap snapshot are
        the ground truth; history, live tracker, solver, and suspicion
        ledger are all re-derived from them, so recovery is *exact*: the
        rebuilt state is bit-identical to a never-corrupted twin's (modulo
        watermarks, which reset and merely cause re-shipping that receivers
        dedup).  Unsettled delivery tokens are dropped - late confirms
        become no-ops and the unconfirmed payloads are simply re-reported.
        """
        self.recoveries += 1
        self.recovery_events.append(RecoveryEvent(at_lt=at_lt, reason=reason))
        self.history = HistoryModule(
            self.proc,
            self.spec.neighbors(self.proc),
            reliable=self.reliable,
            track_reports=self._track_reports,
            gc_enabled=self._history_gc,
        )
        if self._bootstrap is not None:
            sponsor = (
                self._bootstrap.sponsor
                if self._bootstrap.sponsor in self.history.neighbors
                else None
            )
            self.history.adopt_frontier(
                self._bootstrap.frontier(),
                self._bootstrap.loss_flags,
                sponsor=sponsor,
            )
        # frontier-covered forwardables first: they causally precede every
        # logged (post-bootstrap) event, so this is a valid learn order
        self.history.adopt_events(self._rebuffer_log.values())
        self.history.adopt_events(self._event_log)
        for flag in sorted(self._flag_log):
            self.history.record_loss(flag)
        if self._suspicion_policy is not None:
            self.suspicion = SuspicionTracker(
                self._suspicion_policy, protect=(self.proc, self.spec.source)
            )
        self._pending_tokens.clear()
        self._rebuild()

    # -- core insertion ------------------------------------------------------------

    def _ingest_reported(self, events: List[Event]) -> None:
        """Insert a delivered payload's fresh records as one AGDP batch.

        One payload of ``k`` events costs one :meth:`AGDP.step_batch` call
        instead of ``k`` scalar passes.  The steps are handed over as a
        generator, so each event's edges and kill-set are computed against
        the live/AGDP state left by the *previous* step - interleaving,
        counters, and failure points are identical to the scalar loop.

        Hardened, degraded, and source-only estimators keep the scalar
        path: those modes mutate blame/quarantine/anchor state mid-stream,
        which the streamlined step generator does not model.
        """
        if (
            self.suspicion is not None
            or self.degraded_mode
            or getattr(self.agdp, "source_only", False)
        ):
            for event in events:
                self._ingest(event)
            return
        self.agdp.step_batch(self._reported_steps(events))

    def _reported_steps(self, events: List[Event]):
        """Yield ``(node, edges, kills)`` AGDP steps for reported events.

        Lazy on purpose: :meth:`AGDP.step_batch` pulls the next step only
        after applying the previous one, so even the state left behind by
        a mid-payload failure matches the scalar loop.
        """
        step_of = self._step_of
        source = self.spec.source
        retain = self._retain_log and not self._replaying
        for event in events:
            eid = event.eid
            if retain:
                self._event_log.append(event)
                self._log_index[eid] = event
            edges, kills, _ = step_of(event)
            if eid[0] == source:
                self._source_rep = eid
            yield eid, edges, kills

    def _ingest(self, event: Event) -> None:
        """Log (hardened/self-heal mode) and insert one event into the graph layer."""
        if self._retain_log and not self._replaying:
            self._event_log.append(event)
            self._log_index[event.eid] = event
        self._agdp_insert(event)

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

    def _agdp_insert(self, event: Event) -> None:
        """One AGDP step: insert ``event`` with its incident edges, then kill.

        Events must arrive in a topological order of the view; the history
        protocol guarantees this for reported events and the caller
        interleaves local events correctly.

        In hardened mode events of evicted (or excised-range) processors
        still pass through the live tracker - continuity of the tracked
        view must survive an eviction - but contribute no node and no
        edges to the AGDP.
        """
        eid = event.eid
        hardened = self.suspicion is not None
        excluded = hardened and self.suspicion.is_excluded(eid)
        blames: List[Tuple[ProcessorId, str, str]] = []
        if excluded:
            dead, _, send_lt = self.live.observe(event, lenient=True)
            for victim in dead:
                if victim in self.agdp:
                    self.agdp.kill(victim)
        else:
            edges, kills, send_lt = self._step_of(event, hardened)
        if (
            hardened
            and send_lt is None
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
        if excluded:
            self._finish_insert(event, blames)
            return
        # degraded mode collects inconsistent constraints instead of raising:
        # the solver refuses each *before* writing anything, so the matrix
        # stays exact over the accepted ones and the rest of the step lands
        refused: Optional[List[InconsistentSpecificationError]] = (
            [] if self.degraded_mode else None
        )
        self.agdp.step(eid, edges, kills, refused)
        for error in refused or ():
            x, y, w = error.edge
            if not self._replaying:
                self.diagnostics.append(
                    QuarantineDiagnostic(
                        event=eid,
                        edge=error.edge,
                        # drift edges join a processor's consecutive events
                        kind="drift" if x.proc == y.proc else "transit",
                        reason=str(error),
                    )
                )
            if hardened:
                for accused in sorted(
                    {x.proc, y.proc} - set(self.suspicion.protected)
                ):
                    blames.append(
                        (
                            accused,
                            "quarantine",
                            f"constraint ({x}, {y}, {w:.4g}) closed a "
                            "negative cycle",
                        )
                    )
        if event.proc == self.spec.source:
            self._source_rep = eid
            if getattr(self.agdp, "source_only", False):
                self.agdp.set_anchor(eid)
        self._finish_insert(event, blames)

    def _finish_insert(
        self, event: Event, blames: List[Tuple[ProcessorId, str, str]]
    ) -> None:
        """Apply blame collected during an insertion, after it completed.

        Deferred because an eviction rebuilds ``self.agdp``/``self.live``
        in place; doing that mid-insertion would leave the step half
        applied to the old structures.
        """
        if not blames or self.suspicion is None or self._replaying:
            return
        evicted = False
        for proc, kind, detail in blames:
            evicted |= self.suspicion.blame(proc, kind, event.lt, detail)
        if evicted:
            self._rebuild()

    # -- hardened mode: screening, eviction, rehabilitation -------------------------

    def _screen_payload(
        self, sender: ProcessorId, payload: HistoryPayload, event: Event
    ) -> HistoryPayload:
        """Validate an incoming payload; blame the accused; return it sanitized."""
        if not isinstance(payload, HistoryPayload):  # pragma: no cover - guarded above
            raise TypeError("hardened CSA screens HistoryPayloads only")
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

    def _rebuild(self) -> None:
        """Re-derive tracker and solver from the event log, minus the evicted.

        The AGDP cannot remove a node's constraints once inserted, so
        eviction replays history: a fresh live tracker and solver consume
        the full event log with the evicted processors' events excluded.
        Sound by Theorem 2.1 - the surviving constraints are a subset of
        genuine ones - and exact over what remains.  Each loss flag is
        applied where the live run applied it (its recorded position in
        the event log), so the replay never holds more live points than
        the run did and a delivery that came after its flag stays without
        transit edges.  Quarantine decisions taken during replay are not
        re-recorded (the diagnostics list stays cumulative) and produce no
        fresh blame.
        """
        self._replaying = True
        try:
            self.live = LiveTracker()
            self.agdp = self._make_agdp()
            self._source_rep = None
            if self._bootstrap is not None:
                self._apply_snapshot(self._bootstrap)
            flags_at: Dict[int, List[EventId]] = {}
            for flag, position in self._flag_log.items():
                flags_at.setdefault(position, []).append(flag)
            for flag in flags_at.get(0, ()):
                self._apply_loss_flag(flag)
            for position, event in enumerate(self._event_log, 1):
                self._agdp_insert(event)
                for flag in flags_at.get(position, ()):
                    self._apply_loss_flag(flag)
        finally:
            self._replaying = False

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

    def _apply_loss_flag(self, send_eid: EventId) -> None:
        if self._retain_log and not self._replaying:
            self._flag_log.setdefault(send_eid, len(self._event_log))
        for victim in self.live.flag_lost(send_eid):
            if victim in self.agdp:
                self.agdp.kill(victim)

    # -- estimates ----------------------------------------------------------------

    def estimate(self) -> ClockBound:
        if self.self_heal:
            # reads audit too: sampling can land between the corruption and
            # the next event hook, and a scrambled matrix must never leak
            # out as an exception (or worse, an unsound interval)
            at_lt = self._last_local.lt if self._last_local is not None else 0.0
            self._audit(at_lt)
            lower, upper = self._estimate_endpoints()
            if lower > upper:
                # an empty interval is impossible for honest state, so this
                # is corruption the structural audit could not see
                self._recover(at_lt, "estimate produced an empty bound")
                lower, upper = self._estimate_endpoints()
            return ClockBound(lower, upper)
        lower, upper = self._estimate_endpoints()
        return ClockBound(lower, upper)

    def _estimate_endpoints(self) -> Tuple[float, float]:
        if self._last_local is None or self._source_rep is None:
            return -math.inf, math.inf
        p = self._last_local.eid
        sp = self._source_rep
        lt_p = self._last_local.lt
        d_p_sp = self.agdp.distance(p, sp)
        d_sp_p = self.agdp.distance(sp, p)
        lower = -math.inf if math.isinf(d_sp_p) else lt_p - d_sp_p
        upper = math.inf if math.isinf(d_p_sp) else lt_p + d_p_sp
        return lower, upper

    def estimate_of(self, proc: ProcessorId) -> ClockBound:
        """Bounds on ``RT`` at the last *known* point of another processor.

        The last known point of every processor is live, so the optimal
        interval for it is directly available - this is how a monitoring
        node can bound every peer's situation from its own view.
        """
        if self._source_rep is None:
            return ClockBound.unbounded()
        last = self.live.last_event(proc)
        if last is None:
            return ClockBound.unbounded()
        eid, lt = last
        if eid not in self.agdp:
            # the processor's latest claim is excluded (evicted/excised);
            # nothing trustworthy anchors its current clock
            return ClockBound.unbounded()
        d_p_sp = self.agdp.distance(eid, self._source_rep)
        d_sp_p = self.agdp.distance(self._source_rep, eid)
        lower = -math.inf if math.isinf(d_sp_p) else lt - d_sp_p
        upper = math.inf if math.isinf(d_p_sp) else lt + d_p_sp
        return ClockBound(lower, upper)

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
        last_a = self.live.last_event(proc_a)
        last_b = self.live.last_event(proc_b)
        if last_a is None or last_b is None:
            return ClockBound.unbounded()
        eid_a, lt_a = last_a
        eid_b, lt_b = last_b
        if eid_a not in self.agdp or eid_b not in self.agdp:
            return ClockBound.unbounded()
        virt_del = lt_a - lt_b
        d_ab = self.agdp.distance(eid_a, eid_b)
        d_ba = self.agdp.distance(eid_b, eid_a)
        lower = -math.inf if math.isinf(d_ba) else virt_del - d_ba
        upper = math.inf if math.isinf(d_ab) else virt_del + d_ab
        return ClockBound(lower, upper)

    # -- accounting ----------------------------------------------------------------

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
