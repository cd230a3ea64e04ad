"""Validation of untrusted history payloads (Byzantine-input hardening).

The full-information propagation protocol (Sec 3.1, Fig 2) merges incoming
event records verbatim, which is correct when every processor follows the
protocol but lets a single lying processor poison every honest node's
synchronization graph.  This module is the admission filter in front of
the merge: each incoming :class:`~repro.core.history.HistoryPayload` is
screened *before* any estimator state changes, and every anomaly becomes a
structured :class:`ValidationFailure` that names the processors it accuses
instead of a blanket :class:`~repro.core.errors.ViewError`.

Checks, in order:

* **structural** - records are well-formed :class:`~repro.core.events.Event`
  objects of processors and links that exist in the
  :class:`~repro.core.specs.SystemSpec`;
* **continuity** - per-processor sequence numbers extend the receiver's
  knowledge frontier without gaps (Fig 2 ships contiguous ranges, so a gap
  means tampering somewhere upstream);
* **monotonicity** - claimed local clocks strictly increase per processor;
* **conflicts/equivocation** - a record disagreeing with a copy the
  receiver already holds is the signature of the *originating* processor
  telling different stories to different peers - unless the origin is
  the receiver itself (``echoed-self``): then a relay echoed someone's
  forgery of the receiver's event, and the origin is the one processor
  known to be innocent;
* **causal-past closure** - receives reference sends that are known, carried
  by the same payload, or at least attributable when they are not;
* **forged-self** - no payload may claim events of the *receiving*
  processor it has not generated itself;
* **drift/transit plausibility** - the claimed (real-time-free) local
  intervals and message timings must admit *some* execution satisfying the
  advertised drift and transit bounds.  By the Clock Synchronization
  Theorem (Thm 2.1) that is exactly "the induced synchronization subgraph
  has no negative cycle", checked with Bellman-Ford over the payload's
  records plus the receiver-held boundary events.

Blame attribution follows one rule: anomalies a correct *relay* could
never produce (self-contradictory claims of processor ``w``) accuse ``w``;
anomalies a correct relay could not *ship* (malformed records, sequence
gaps) accuse the immediate sender - unless the implicated origin is
already suspected, in which case the origin keeps the blame so that honest
relays of a liar's half-poisoned stream are not punished for it.

Rejection and blame are deliberately decoupled: a record is rejected only
when keeping it could corrupt receiver state (conflicts, gaps, forged
events, implausible timings); benign-but-suspicious shapes (a receive
whose send we cannot resolve) are admitted - the degraded-mode graph
guards already cope with them - while still producing a failure for the
suspicion ledger.  Rejected records never advance protocol watermarks, so
honest senders simply re-report them; sustained lying therefore converts
into sustained blame, which is what drives eviction
(:class:`~repro.core.csa_base.SuspicionTracker`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Protocol,
    Set,
    Tuple,
)

from .distances import WeightedDigraph, find_negative_cycle
from .events import Event, EventId, ProcessorId
from .history import HistoryPayload
from .specs import SystemSpec
from .syncgraph import drift_edge_weights, transit_edge_weights

__all__ = [
    "FAILURE_KINDS",
    "ValidationFailure",
    "ValidationReport",
    "ReceiverKnowledge",
    "validate_payload",
]

#: Every kind a :class:`ValidationFailure` may carry, with the blame rule.
FAILURE_KINDS: Tuple[str, ...] = (
    "malformed",  # not an Event / unknown processor or link -> sender
    "gap",  # skipped sequence numbers -> sender (origin when suspected)
    "non-monotone",  # claimed local clock not increasing -> origin
    "forged-self",  # claims the receiver's own future events -> sender
    "equivocation",  # conflicts with a copy the receiver holds -> origin
    "echoed-self",  # forged copy of the receiver's own event -> sender, weight 0
    "conflict",  # two contradictory copies in one payload -> sender
    "dangling-send",  # receive of an unknown send -> sender (origin when suspected)
    "bad-send-ref",  # receive of a known non-send event -> referenced origin
    "double-delivery",  # one send received twice in one payload -> sender
    "implausible",  # timings violate drift/transit specs, one culprit -> that processor
    "implausible-shared",  # negative cycle spanning several processors -> all of them, lightly
    "bad-flag",  # malformed loss flag -> sender
)


@dataclass(frozen=True)
class ValidationFailure:
    """One validated anomaly, with the processors it accuses.

    ``accused`` lists every processor this anomaly implicates; the owning
    estimator feeds each into its suspicion tracker.  ``record`` is the
    offending payload record when one can be named.
    """

    kind: str
    accused: Tuple[ProcessorId, ...]
    detail: str
    record: Optional[Event] = None

    def __post_init__(self):
        if self.kind not in FAILURE_KINDS:
            raise ValueError(f"unknown validation failure kind {self.kind!r}")


@dataclass(frozen=True)
class ValidationReport:
    """The outcome of screening one payload."""

    #: records safe to ingest, in the payload's original order
    accepted: Tuple[Event, ...]
    #: records withheld from the receiver's state
    rejected: Tuple[Event, ...]
    failures: Tuple[ValidationFailure, ...]
    #: loss flags that passed screening
    accepted_flags: Tuple[EventId, ...]
    rejected_flags: Tuple[object, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def sanitized(self) -> HistoryPayload:
        """The payload with everything rejected stripped out."""
        return HistoryPayload(records=self.accepted, loss_flags=self.accepted_flags)


class ReceiverKnowledge(Protocol):
    """What the validator may ask about the receiver's current state."""

    def known_seq(self, proc: ProcessorId) -> int:
        """Highest sequence number of ``proc`` the receiver knows (-1: none)."""
        ...

    def lookup(self, eid: EventId) -> Optional[Event]:
        """The receiver's copy of ``eid``, or ``None`` if not retained."""
        ...

    def rejected_seq(self, proc: ProcessorId) -> int:
        """Highest seq of ``proc`` the receiver has ever *rejected* (-1: none).

        Optional (implementations may omit it).  Used to recognize
        *self-inflicted* gaps: once the receiver refuses records, honest
        senders - who cannot know that - keep shipping from their own
        optimistic watermark, and every subsequent payload legitimately
        skips the refused range.  Blaming anyone for such a gap would
        convert one (possibly wrong) rejection into unbounded suspicion.
        """
        ...


class _Screen:
    """Working state for one :func:`validate_payload` call."""

    def __init__(
        self,
        sender: ProcessorId,
        receiver: ProcessorId,
        knowledge: ReceiverKnowledge,
        spec: SystemSpec,
        trusted: FrozenSet[ProcessorId],
        suspected: FrozenSet[ProcessorId],
        ignored: FrozenSet[ProcessorId],
    ):
        self.sender = sender
        self.receiver = receiver
        self.knowledge = knowledge
        self.spec = spec
        self.trusted = trusted
        self.suspected = suspected
        self.ignored = ignored
        self.accepted: Dict[EventId, Event] = {}
        self.order: List[EventId] = []
        self.rejected: List[Event] = []
        self.failures: List[ValidationFailure] = []
        self._emitted: Set[Tuple[str, Tuple[ProcessorId, ...]]] = set()
        #: origins whose remaining records are silently rejected
        self.tainted: Set[ProcessorId] = set()
        #: highest accepted-or-known seq per origin
        self.frontier: Dict[ProcessorId, int] = {}
        #: send eid -> first in-payload receive, for double-delivery detection
        self.delivered: Dict[EventId, EventId] = {}

    # -- bookkeeping -------------------------------------------------------------

    def fail(
        self,
        kind: str,
        accused: Iterable[ProcessorId],
        detail: str,
        record: Optional[Event] = None,
    ) -> None:
        """Emit a failure, deduplicated per (kind, accused) within the payload.

        Deduplication keeps blame proportional to *payloads* rather than
        records: one poisoned payload is one lie, however many records it
        drags along, so a burst of bad records cannot catapult a processor
        past the eviction threshold in a single step.
        """
        accused = tuple(dict.fromkeys(accused))
        key = (kind, accused)
        if key in self._emitted:
            return
        self._emitted.add(key)
        self.failures.append(ValidationFailure(kind, accused, detail, record))

    def blame_shipper(self, origin: ProcessorId) -> Tuple[ProcessorId, ...]:
        """Sender-attributed blame, redirected to an already-suspected origin.

        A gap or dangling reference in ``origin``'s stream is normally the
        immediate sender's fault (Fig 2 never ships one), but when the
        receiver has already caught ``origin`` misbehaving, the hole is far
        more likely collateral of *that* - e.g. the receiver froze
        ``origin``'s history after a conflict while honest relays kept
        confirming deliveries.  Accusing the honest relay would let one
        liar get its neighbors evicted.
        """
        if origin in self.suspected or origin in self.ignored:
            return (origin,)
        return (self.sender,)

    def effective_frontier(self, proc: ProcessorId) -> int:
        known = self.knowledge.known_seq(proc)
        return max(known, self.frontier.get(proc, -1))

    def resolve(self, eid: EventId) -> Optional[Event]:
        """A copy of ``eid`` from the payload's accepted set or the receiver."""
        got = self.accepted.get(eid)
        if got is not None:
            return got
        return self.knowledge.lookup(eid)

    def reject(self, record: Event, taint: bool = True) -> None:
        self.rejected.append(record)
        if taint:
            self.tainted.add(record.proc)

    def accept(self, record: Event) -> None:
        if record.eid not in self.accepted:
            self.order.append(record.eid)
        self.accepted[record.eid] = record
        if record.seq > self.frontier.get(record.proc, -1):
            self.frontier[record.proc] = record.seq

    # -- structural / per-record screening ----------------------------------------

    def screen_record(self, record: object) -> None:
        if not isinstance(record, Event):
            self.fail(
                "malformed",
                (self.sender,),
                f"payload record {record!r} is not an event",
            )
            return
        proc = record.proc
        if proc in self.ignored or proc in self.tainted:
            # evicted origins and post-anomaly remnants: drop without blame
            self.reject(record, taint=False)
            return
        if proc not in self.spec.drift:
            self.fail(
                "malformed",
                (self.sender,),
                f"record {record.eid} claims unknown processor {proc!r}",
                record,
            )
            self.reject(record)
            return
        duplicate = self.accepted.get(record.eid)
        if duplicate is not None:
            if duplicate != record:
                self.fail(
                    "conflict",
                    (self.sender,),
                    f"payload carries two contradictory copies of {record.eid}: "
                    f"{duplicate} and {record}",
                    record,
                )
                self.reject(record)
            return
        known = self.knowledge.known_seq(proc)
        if record.seq <= known:
            self.screen_known(record)
            return
        frontier = self.effective_frontier(proc)
        if record.seq > frontier + 1:
            rejected_hwm = getattr(self.knowledge, "rejected_seq", lambda p: -1)(proc)
            if record.seq - 1 <= rejected_hwm:
                # self-inflicted: the missing range is exactly what this
                # receiver refused earlier.  The record is still unusable
                # (its past is unknown), but an honest sender produces this
                # shape whenever we rejected something, so blame recurs
                # only against an origin we already suspect - that is what
                # keeps a persistent liar from rehabilitating - and never
                # lands on the relay.
                accused: Tuple[ProcessorId, ...] = (
                    (proc,) if proc in self.suspected else ()
                )
                why = "the missing records were rejected here earlier"
            else:
                accused = self.blame_shipper(proc)
                why = f"receiver's frontier for {proc!r} is {frontier}"
            self.fail(
                "gap",
                accused,
                f"record {record.eid} skips sequence numbers ({why})",
                record,
            )
            self.reject(record)
            return
        self.screen_new(record)

    def screen_known(self, record: Event) -> None:
        """A record the receiver already learned: only equivocation to check."""
        stored = self.knowledge.lookup(record.eid)
        if stored is not None and stored != record:
            if record.proc == self.receiver:
                # the receiver's copy of its own event is the authentic one;
                # the forgery came back through a relay that cannot tell
                self.fail(
                    "echoed-self",
                    (self.sender,),
                    f"payload echoes a forged copy of {self.receiver!r}'s own "
                    f"event {record.eid}: held {stored}, offered {record}",
                    record,
                )
            else:
                self.fail(
                    "equivocation",
                    (record.proc,),
                    f"record {record.eid} conflicts with the receiver's copy: "
                    f"held {stored}, offered {record} "
                    f"(originating processor {record.proc!r})",
                    record,
                )
            self.reject(record)
            return
        # matching (or unverifiable) duplicate: keep it so protocol
        # watermarks advance exactly as they would without screening
        self.accept(record)

    def screen_new(self, record: Event) -> None:
        proc = record.proc
        if proc == self.receiver:
            self.fail(
                "forged-self",
                (self.sender,),
                f"payload claims {self.receiver!r}'s own future event {record.eid}",
                record,
            )
            self.reject(record)
            return
        pred_id = record.eid.pred()
        if pred_id is not None:
            pred = self.resolve(pred_id)
            if pred is not None and record.lt <= pred.lt:
                self.fail(
                    "non-monotone",
                    (proc,),
                    f"{proc!r}'s claimed clock does not increase: "
                    f"{pred.lt} at {pred_id} then {record.lt} at {record.eid}",
                    record,
                )
                self.reject(record)
                return
        if record.is_send:
            if record.dest not in self.spec.drift or not self.spec.has_link(
                proc, record.dest
            ):
                self.fail(
                    "malformed",
                    (proc,),
                    f"send {record.eid} claims a message over a nonexistent "
                    f"link to {record.dest!r}",
                    record,
                )
                self.reject(record)
                return
        if record.is_receive and not self.screen_receive(record):
            return
        self.accept(record)

    def screen_receive(self, record: Event) -> bool:
        """Causal-past closure for a receive; True when the record is kept."""
        send_eid = record.send_eid
        if send_eid.proc not in self.spec.drift or not self.spec.has_link(
            record.proc, send_eid.proc
        ):
            self.fail(
                "malformed",
                (record.proc,),
                f"receive {record.eid} claims a message over a nonexistent "
                f"link from {send_eid.proc!r}",
                record,
            )
            self.reject(record)
            return False
        first = self.delivered.setdefault(send_eid, record.eid)
        if first != record.eid:
            # both receives are kept (the graph layer tolerates the echo);
            # the contradiction still goes on the ledger
            self.fail(
                "double-delivery",
                (self.sender,),
                f"payload delivers message {send_eid} twice "
                f"(receives {first} and {record.eid})",
                record,
            )
        send = self.resolve(send_eid)
        if send is not None:
            if not send.is_send or send.dest != record.proc:
                # the *referenced event* is the lie (e.g. a fabricated
                # internal squatting on a real send's id); the receive
                # itself may well be genuine, so it is kept
                self.fail(
                    "bad-send-ref",
                    (send_eid.proc,),
                    f"receive {record.eid} references {send_eid} which is "
                    f"{send}, not a send addressed to {record.proc!r}",
                    record,
                )
        elif send_eid.seq > self.effective_frontier(send_eid.proc):
            # Fig 2 reports sends before their receives, so a correct relay
            # cannot ship this; keep the record (the graph guards skip the
            # unresolvable transit edge) but note who shipped it
            self.fail(
                "dangling-send",
                self.blame_shipper(send_eid.proc),
                f"receive {record.eid} references unknown send {send_eid}",
                record,
            )
        return True

    # -- semantic plausibility ------------------------------------------------------

    def plausibility_nodes(
        self, receive_event: Optional[Event]
    ) -> Dict[EventId, Event]:
        """Accepted *new* records plus the receiver-held boundary around them.

        The boundary - per-processor predecessors, referenced sends, and
        the engine receive event carrying this payload - anchors the
        claimed timings against evidence the receiver trusts; without it a
        liar's claims would only ever be checked against themselves.
        """
        nodes: Dict[EventId, Event] = {}
        for eid in self.order:
            if eid.seq > self.knowledge.known_seq(eid.proc):
                nodes[eid] = self.accepted[eid]
        for eid in list(nodes):
            event = nodes[eid]
            pred_id = eid.pred()
            if pred_id is not None and pred_id not in nodes:
                pred = self.knowledge.lookup(pred_id)
                if pred is not None:
                    nodes[pred_id] = pred
            if event.is_receive and event.send_eid not in nodes:
                send = self.knowledge.lookup(event.send_eid)
                if send is not None:
                    nodes[event.send_eid] = send
        if receive_event is not None:
            nodes[receive_event.eid] = receive_event
            pred_id = receive_event.eid.pred()
            if pred_id is not None and pred_id not in nodes:
                pred = self.knowledge.lookup(pred_id)
                if pred is not None:
                    nodes[pred_id] = pred
        return nodes

    def plausibility_graph(self, nodes: Dict[EventId, Event]) -> WeightedDigraph:
        graph = WeightedDigraph()
        for eid, event in nodes.items():
            graph.add_node(eid)
            pred_id = eid.pred()
            if pred_id is not None and pred_id in nodes:
                pred = nodes[pred_id]
                if pred.lt <= event.lt:
                    w_back, w_fwd = drift_edge_weights(self.spec, pred, event)
                    graph.add_edge(eid, pred_id, w_back)
                    graph.add_edge(pred_id, eid, w_fwd)
            if event.is_receive and event.send_eid in nodes:
                send = nodes[event.send_eid]
                if send.is_send and send.dest == event.proc:
                    w_r_to_s, w_s_to_r = transit_edge_weights(self.spec, send, event)
                    graph.add_edge(eid, event.send_eid, w_r_to_s)
                    graph.add_edge(event.send_eid, eid, w_s_to_r)
        return graph

    def screen_plausibility(self, receive_event: Optional[Event]) -> None:
        """Reject claimed timings that cannot belong to any in-spec execution.

        Theorem 2.1 in the small: a negative cycle in the synchronization
        subgraph induced by the claims certifies that no assignment of real
        times satisfies the advertised drift and transit bounds.  Honest
        payloads, being projections of a real in-spec execution, can never
        produce one.

        Attribution depends on how many untrusted processors the cycle
        spans.  Exactly one: the evidence is unambiguous (only that
        processor's claims are unanchored), so it is accused with full
        weight, its claimed records are dropped, and the check repeats on
        the remainder.  Several: the cycle proves *someone* lied but not
        who, so all of them are ledgered lightly (``implausible-shared``)
        and every record is kept - the graph layer quarantines the
        poisoned constraints without freezing anyone's stream, so later
        payloads can still deliver the evidence that singles the liar out.
        Rejecting here instead would permanently freeze the co-accused
        honest streams at this receiver (senders never re-ship confirmed
        ranges), leaving only unattributable gap echoes behind.
        """
        while True:
            nodes = self.plausibility_nodes(receive_event)
            if not nodes:
                return
            cycle = find_negative_cycle(self.plausibility_graph(nodes))
            if cycle is None:
                return
            cycle_procs = sorted(
                {endpoint.proc for u, v, _w in cycle for endpoint in (u, v)}
            )
            accused = tuple(
                p for p in cycle_procs if p not in self.trusted and p != self.receiver
            )
            detail = "claimed timings close a negative cycle: " + " -> ".join(
                f"{u}~{w:.4g}" for u, _v, w in cycle
            )
            if not accused:
                # every processor on the cycle is trusted: the claims
                # themselves must be counterfeit - charge the shipper and
                # drop everything it carried that we had not already known
                self.fail("implausible", (self.sender,), detail)
                for eid in list(self.order):
                    if eid.seq > self.knowledge.known_seq(eid.proc):
                        self.reject(self.accepted.pop(eid), taint=False)
                        self.order.remove(eid)
                return
            if len(accused) > 1:
                self.fail("implausible-shared", accused, detail)
                return
            self.fail("implausible", accused, detail)
            for eid in list(self.order):
                if eid.proc in accused and eid.seq > self.knowledge.known_seq(
                    eid.proc
                ):
                    self.reject(self.accepted.pop(eid))
                    self.order.remove(eid)

    # -- loss flags ------------------------------------------------------------------

    def screen_flags(
        self, flags: Iterable[object]
    ) -> Tuple[List[EventId], List[object]]:
        kept: List[EventId] = []
        dropped: List[object] = []
        for flag in flags:
            if not isinstance(flag, EventId) or flag.proc not in self.spec.drift:
                self.fail(
                    "bad-flag",
                    (self.sender,),
                    f"loss flag {flag!r} does not name a known event",
                )
                dropped.append(flag)
                continue
            kept.append(flag)
        return kept, dropped


def validate_payload(
    sender: ProcessorId,
    payload: HistoryPayload,
    *,
    knowledge: ReceiverKnowledge,
    spec: SystemSpec,
    receiver: ProcessorId,
    receive_event: Optional[Event] = None,
    trusted: Iterable[ProcessorId] = (),
    suspected: Iterable[ProcessorId] = (),
    ignored: Iterable[ProcessorId] = (),
) -> ValidationReport:
    """Screen one incoming history payload before any state is touched.

    Parameters
    ----------
    sender:
        The neighbor that shipped the payload (the accused for anomalies a
        correct relay could not produce).
    knowledge:
        The receiver's current event knowledge (:class:`ReceiverKnowledge`).
    receive_event:
        The (trusted, locally generated) receive event carrying this
        payload, when available; anchoring it in the plausibility check
        lets round-trip timing lies be caught on arrival rather than only
        later in the graph layer.
    trusted:
        Processors never accused (typically the receiver itself and the
        source).
    suspected:
        Processors with outstanding suspicion at the receiver; sender-side
        blame for holes in *their* streams is redirected to them.
    ignored:
        Evicted processors whose records are dropped silently - their
        streams are frozen at the receiver, so anomalies in them carry no
        new information.

    Returns a :class:`ValidationReport`; ``report.sanitized`` is the
    payload to hand to the protocol layer.  For honest payloads the
    sanitized payload equals the input, so screening is behaviorally
    invisible on clean executions.
    """
    screen = _Screen(
        sender=sender,
        receiver=receiver,
        knowledge=knowledge,
        spec=spec,
        trusted=frozenset(trusted) | {receiver},
        suspected=frozenset(suspected),
        ignored=frozenset(ignored),
    )
    for record in payload.records:
        screen.screen_record(record)
    screen.screen_plausibility(receive_event)
    kept_flags, dropped_flags = screen.screen_flags(payload.loss_flags)
    return ValidationReport(
        accepted=tuple(screen.accepted[eid] for eid in screen.order),
        rejected=tuple(screen.rejected),
        failures=tuple(screen.failures),
        accepted_flags=tuple(kept_flags),
        rejected_flags=tuple(dropped_flags),
    )
