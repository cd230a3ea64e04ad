"""Incremental live-point tracking (Definition 3.1).

A point ``p`` of a view is *live* iff

* ``p`` is the last point of its processor in the view, or
* ``p`` is the send event of a message whose receive is not in the view
  (and the message has not been flagged as lost, Sec 3.3).

The efficient algorithm never stores the whole view, so liveness must be
maintained incrementally as events are learned in topological order.  This
tracker holds O(#processors + #in-flight messages) state: the last known
event per processor and the set of undelivered sends, and reports exactly
which nodes *die* at each insertion - the kill-set handed to the AGDP
solver - along with the two facts the estimator builds the new event's
edges from (its processor's previous event, the matched send's local
time), so one :meth:`LiveTracker.observe` call per event is the whole
conversation.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

from .errors import ProtocolError
from .events import Event, EventId, EventKind, ProcessorId

__all__ = ["LiveTracker"]

_SEND = EventKind.SEND
_RECEIVE = EventKind.RECEIVE


#: a processor's last known event as ``(eid, lt, is_send)``; ``eid`` is the
#: id object the event arrived with, handed back by
#: :meth:`LiveTracker.last_event` instead of being rebuilt per query
_LastEvent = Tuple[EventId, float, bool]


class LiveTracker:
    """Maintains Definition 3.1 liveness over a view learned event-by-event."""

    def __init__(self):
        self._last: Dict[ProcessorId, _LastEvent] = {}
        #: undelivered, unflagged send events and their local times
        self._undelivered: Dict[EventId, float] = {}
        #: sends flagged lost (Sec 3.3); retained to ignore late duplicates
        self._lost: Set[EventId] = set()
        #: total number of events observed (for complexity accounting)
        self.events_observed = 0
        #: peak number of simultaneously live points
        self.max_live = 0
        #: undelivered sends that are *not* their processor's last event;
        #: the live set is {last event per proc} | undelivered, and the
        #: overlap is exactly the undelivered sends still at the frontier,
        #: so live_count = len(_last) + this counter without building a set
        self._undelivered_nonlast = 0

    def copy(self) -> "LiveTracker":
        """An independent tracker in the same state (entries are immutable)."""
        twin = LiveTracker()
        twin._last = dict(self._last)
        twin._undelivered = dict(self._undelivered)
        twin._lost = set(self._lost)
        twin.events_observed = self.events_observed
        twin.max_live = self.max_live
        twin._undelivered_nonlast = self._undelivered_nonlast
        return twin

    # -- queries -----------------------------------------------------------------

    def last_event(self, proc: ProcessorId) -> Optional[Tuple[EventId, float]]:
        """The last known event of ``proc`` as ``(eid, lt)``, or ``None``."""
        last = self._last.get(proc)
        if last is None:
            return None
        return last[0], last[1]

    def last_seq(self, proc: ProcessorId) -> int:
        last = self._last.get(proc)
        return -1 if last is None else last[0][1]

    def knows(self, eid: EventId) -> bool:
        """Whether the tracked view contains ``eid``."""
        return eid.seq <= self.last_seq(eid.proc)

    def is_live(self, eid: EventId) -> bool:
        if not self.knows(eid):
            raise ProtocolError(f"liveness of unknown event {eid}")
        if self.last_seq(eid.proc) == eid.seq:
            return True
        return eid in self._undelivered

    def live_points(self) -> Set[EventId]:
        live = {last[0] for last in self._last.values()}
        live.update(self._undelivered)
        return live

    def live_count(self) -> int:
        return len(self._last) + self._undelivered_nonlast

    def undelivered_sends(self) -> Set[EventId]:
        return set(self._undelivered)

    def send_lt(self, send_eid: EventId) -> Optional[float]:
        """Local time of an undelivered tracked send, or ``None``."""
        return self._undelivered.get(send_eid)

    @property
    def processors(self) -> Tuple[ProcessorId, ...]:
        return tuple(sorted(self._last))

    def last_events(self) -> Dict[ProcessorId, Tuple[int, float, bool]]:
        """Export the per-processor frontier as ``proc -> (seq, lt, is_send)``.

        Together with :meth:`undelivered_sends`/:meth:`send_lt` and
        :attr:`lost_flags` this is the full bootstrap-relevant state of the
        tracker (what a sponsor hands a late joiner).
        """
        return {
            proc: (eid[1], lt, is_send)
            for proc, (eid, lt, is_send) in self._last.items()
        }

    # -- mutation ----------------------------------------------------------------

    def adopt(
        self,
        last: Iterable[Tuple[ProcessorId, int, float, bool]],
        undelivered: Iterable[Tuple[ProcessorId, int, float]] = (),
        lost: Iterable[EventId] = (),
    ) -> None:
        """Adopt a sponsor's live frontier wholesale (late-joiner bootstrap).

        Only a *fresh* tracker may adopt - continuity guarantees would be
        spent otherwise - and adopted events do not count as observed
        (``events_observed`` keeps measuring this processor's own run).
        """
        if self.events_observed or self._last or self._undelivered or self._lost:
            raise ProtocolError("only a fresh tracker can adopt a frontier")
        for proc, seq, lt, is_send in last:
            self._last[proc] = (EventId(proc, seq), lt, is_send)
        for proc, seq, lt in undelivered:
            eid = EventId(proc, seq)
            if seq > self.last_seq(proc):
                raise ProtocolError(
                    f"adopted undelivered send {eid} beyond frontier"
                )
            self._undelivered[eid] = lt
        self._lost.update(lost)
        self._undelivered_nonlast = sum(
            1 for eid in self._undelivered if self.last_seq(eid.proc) != eid.seq
        )
        self.max_live = max(self.max_live, self.live_count())

    def observe(
        self, event: Event, *, lenient: bool = False
    ) -> Tuple[List[EventId], Optional[Tuple[EventId, float]], Optional[float]]:
        """Record ``event`` (the next event of its processor).

        Returns ``(kills, pred, send_lt)`` - everything the caller needs to
        turn the event into an AGDP step, from one pass over the tracker:

        * ``kills``: the event ids that were live before this insertion and
          are dead after it;
        * ``pred``: the processor's previous event as ``(eid, lt)`` (what
          :meth:`last_event` answered before the call), or ``None``;
        * ``send_lt``: for a receive whose send was tracked as undelivered,
          that send's local time (what :meth:`send_lt` answered before the
          call); ``None`` otherwise.

        The caller must feed events in a topological order of the view
        (per-processor sequence numbers must be contiguous); violations
        raise :class:`ProtocolError`.

        With ``lenient=True`` a receive whose send is known as something
        other than an undelivered send is tolerated instead of raising.
        Under honest input that shape is a double delivery (a protocol
        bug), but a Byzantine peer can manufacture it for a perfectly
        honest message by squatting a fabricated event on the real send's
        id; the hardened estimator must keep tracking through it.  The
        check happens *before* any mutation, so the tracker cannot offer
        try/except recovery - continuity would already be spent.
        """
        eid = event.eid
        proc, seq = eid
        kind = event.kind
        last = self._last
        undelivered = self._undelivered
        prev = last.get(proc)
        expected = 0 if prev is None else prev[0][1] + 1
        if seq != expected:
            raise ProtocolError(
                f"event {eid} observed out of order (expected seq {expected})"
            )
        send_lt = None
        if kind is _RECEIVE:
            send_eid = event.send_eid
            send_lt = undelivered.get(send_eid)
            if (
                send_lt is None
                and not lenient
                and send_eid not in self._lost
                and self.knows(send_eid)
            ):
                raise ProtocolError(
                    f"message {send_eid} delivered twice (receive {eid})"
                )
        dead: List[EventId] = []
        pred = None
        if prev is not None:
            prev_id = prev[0]
            pred = (prev_id, prev[1])
            # the old last point stays live only as an undelivered send
            if prev_id not in undelivered:
                dead.append(prev_id)
            else:
                # superseded at the frontier but still in flight: it now
                # counts toward the undelivered-nonlast overlap correction
                self._undelivered_nonlast += 1
        if send_lt is not None:
            del undelivered[send_eid]
            if last[send_eid[0]][0][1] != send_eid[1]:
                dead.append(send_eid)
                self._undelivered_nonlast -= 1
        is_send = kind is _SEND
        last[proc] = (eid, event.lt, is_send)
        if is_send:
            undelivered[eid] = event.lt
        self.events_observed += 1
        live = len(last) + self._undelivered_nonlast
        if live > self.max_live:
            self.max_live = live
        return dead, pred, send_lt

    def flag_lost(self, send_eid: EventId) -> List[EventId]:
        """Sec 3.3: mark a send's message as lost; return newly dead points.

        Idempotent; flagging an unknown or already-delivered send is a
        no-op (the detector may race with a late delivery elsewhere).
        """
        self._lost.add(send_eid)
        if send_eid not in self._undelivered:
            return []
        del self._undelivered[send_eid]
        if self.last_seq(send_eid.proc) == send_eid.seq:
            return []
        self._undelivered_nonlast -= 1
        return [send_eid]

    @property
    def lost_flags(self) -> Set[EventId]:
        return set(self._lost)
