"""The full-information history propagation protocol (Sec 3.1, Figure 2).

Each processor ``v`` keeps

* a history buffer ``H_v`` of event records, and
* for each neighbor ``u`` and each processor ``w``, a watermark
  ``C_vu[w]`` - the last event of ``w`` that ``v`` knows ``u`` knows
  (reported by ``v`` to ``u`` or by ``u`` to ``v``).

On sending to ``u``, the message carries every buffered event ``u`` might
lack (``seq > C_vu[loc]``); watermarks are advanced and the buffer is
garbage-collected.  The protocol is a vector-clock variant and guarantees
(Lemma 3.1) that at every point ``p`` the processor at ``p`` knows exactly
the local view from ``p``, with each event reported at most once per link
direction (Lemma 3.2) and buffer size ``O(K1 * (D + 1))`` (Lemma 3.3).

**Pseudo-code erratum.**  Figure 2 of the paper garbage-collects with
``H_v <- {p in H_v | for some neighbor u': LT(p) <= C_vu'[loc(p)]}``, which
*keeps* events some neighbor already knows and drops the rest - the
opposite of the surrounding prose and of what Lemmas 3.2/3.3 require.  We
implement the prose: **keep ``p`` iff some neighbor still lacks it**
(``seq(p) > C_vu'[loc(p)]`` for some ``u'``).  See DESIGN.md.

Watermarks are stored as per-processor *sequence numbers* rather than local
times; the two orders agree (local times strictly increase per processor)
and integers avoid floating-point comparisons.

**Message loss (Sec 3.3).**  The paper assumes reliable communication for
the transformation and sketches loss handling via a detection mechanism.
Advancing ``C_vu`` at send time is only sound if the message arrives, so
:meth:`prepare_payload` returns a *delivery token*:

* in ``reliable`` mode (default) the token is confirmed immediately -
  exactly Figure 2;
* in unreliable mode nothing advances until :meth:`confirm_delivery`,
  and payloads are computed against confirmed watermarks only.  A lost
  payload is simply :meth:`abort_delivery`-ed; later payloads re-report the
  same contiguous range, so receivers can never observe a sequence gap
  (duplicates are skipped).  Report-once then holds per *successful*
  delivery, matching the paper's refined ``K1`` assumption.

Loss flags (Sec 3.3) ride along with event records and are disseminated
once per link direction.

**Indexed hot paths.**  Naively, every send scans the whole buffer
(``O(|H_v|)`` per message) and every watermark advance rebuilds the buffer
dict (``O(|H_v| * deg)`` per settle/ingest).  This module instead keeps

* a per-neighbor *pending index* - for each neighbor ``u``, the buffered
  events ``u`` still lacks relative to *confirmed* watermarks, in learn
  order - so :meth:`prepare_payload` is ``O(|payload|)``; and
* a per-event *lacking refcount* - how many neighbors still lack the
  event - so garbage collection is incremental: an event leaves ``H_v``
  the moment its refcount hits zero, with no full-buffer rebuild.

Invariant: for every buffered event ``e`` and neighbor ``u``,
``e in pending[u]`` iff ``C_vu[loc(e)] < seq(e)``, and
``lacking[e] = |{u : e in pending[u]}| > 0``.  Watermarks only advance, so
an event leaves each pending index at most once and is never re-added.
Learn order is preserved for free: Python dicts iterate in insertion
order, events are learned exactly once, and eviction never reorders the
survivors.  Observable behaviour (payload contents and order, Lemma 3.2
report-once, Lemma 3.3 buffer bound, unreliable-mode token semantics) is
bit-identical to the pre-indexing module, which is preserved as
:class:`repro.testing.reference.ReferenceHistoryModule` and enforced by
differential property tests.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Dict, Iterable, List, Optional, Set, Tuple

from .errors import ProtocolError
from .events import Event, EventId, ProcessorId

__all__ = ["HistoryPayload", "HistoryStats", "HistoryModule"]


@dataclass(frozen=True)
class HistoryPayload:
    """The synchronization data piggybacked on one application message.

    ``records`` is in a topological order of the happens-before relation
    (a subsequence of the sender's learn order), so the receiver may
    process it left to right.
    """

    records: Tuple[Event, ...]
    loss_flags: Tuple[EventId, ...] = ()

    def __len__(self) -> int:
        return len(self.records)

    @property
    def size(self) -> int:
        """Report size in records (the paper's message-size unit)."""
        return len(self.records) + len(self.loss_flags)

    # -- JSON codec -------------------------------------------------------------

    def to_dict(self) -> Dict:
        """JSON-safe form: event records via :meth:`Event.to_dict`, loss
        flags as ``[proc, seq]`` pairs.  Exact inverse of :meth:`from_dict`
        (the wire protocol and corpus/debug dumps both rely on the
        round trip being lossless)."""
        return {
            "records": [event.to_dict() for event in self.records],
            "loss_flags": [[eid.proc, eid.seq] for eid in self.loss_flags],
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "HistoryPayload":
        """Inverse of :meth:`to_dict`; raises ``ValueError`` on bad input.

        This is the decode path for *untrusted* bytes (the wire protocol
        feeds received frames through here before any admission
        screening), so shapes are checked explicitly and errors carry the
        offending fragment.
        """
        if not isinstance(data, dict):
            raise ValueError(
                f"history payload must be a mapping, got {type(data).__name__}"
            )
        records_raw = data.get("records", [])
        if not isinstance(records_raw, (list, tuple)):
            raise ValueError(f"'records' must be a list, got {type(records_raw).__name__}")
        records = tuple(Event.from_dict(entry) for entry in records_raw)
        flags_raw = data.get("loss_flags", [])
        if not isinstance(flags_raw, (list, tuple)):
            raise ValueError(f"'loss_flags' must be a list, got {type(flags_raw).__name__}")
        flags = []
        for entry in flags_raw:
            if (
                not isinstance(entry, (list, tuple))
                or len(entry) != 2
                or not isinstance(entry[0], str)
                or not entry[0]
                or not isinstance(entry[1], int)
                or isinstance(entry[1], bool)
                or entry[1] < 0
            ):
                raise ValueError(f"loss flag must be [proc, seq], got {entry!r}")
            flags.append(EventId(entry[0], entry[1]))
        return cls(records=records, loss_flags=tuple(flags))


@dataclass
class HistoryStats:
    """Counters backing Lemmas 3.2/3.3 and the message-size bound of Thm 3.6."""

    records_sent: int = 0
    records_received: int = 0
    duplicate_records_received: int = 0
    payloads_sent: int = 0
    payloads_received: int = 0
    max_buffer: int = 0
    max_payload: int = 0
    #: per-(event, neighbor) report counts by *this* module; kept only when
    #: report tracking is enabled (Lemma 3.2 experiment)
    reports: Optional[Dict[Tuple[EventId, ProcessorId], int]] = None


@dataclass
class _DeliveryToken:
    token_id: int
    neighbor: ProcessorId
    #: watermark advances implied by this payload: proc -> max seq shipped
    marks: Dict[ProcessorId, int]
    loss_flags: Tuple[EventId, ...]
    settled: bool = False


class HistoryModule:
    """Per-processor state of the Figure 2 protocol."""

    def __init__(
        self,
        proc: ProcessorId,
        neighbors: Iterable[ProcessorId],
        *,
        reliable: bool = True,
        track_reports: bool = False,
        gc_enabled: bool = True,
    ):
        self.proc = proc
        self.neighbors: Tuple[ProcessorId, ...] = tuple(sorted(set(neighbors)))
        if proc in self.neighbors:
            raise ProtocolError(f"processor {proc!r} cannot neighbor itself")
        #: H_v - buffered event records keyed by id, in learn order (events
        #: are inserted exactly once and eviction preserves dict order)
        self._buffer: Dict[EventId, Event] = {}
        #: C_vu[w] as sequence-number watermarks (-1 = knows nothing of w)
        self._watermark: Dict[ProcessorId, Dict[ProcessorId, int]] = {
            u: {} for u in self.neighbors
        }
        #: per-neighbor pending index: buffered events the neighbor still
        #: lacks (by confirmed watermark), in learn order - the payload of
        #: the next send, maintained incrementally
        self._pending: Dict[ProcessorId, Dict[EventId, Event]] = {
            u: {} for u in self.neighbors
        }
        #: per-event refcount: how many neighbors still lack it; an event
        #: is buffered iff its count is positive (incremental GC)
        self._lacking: Dict[EventId, int] = {}
        #: K_v[w] - this module's own knowledge frontier per processor
        self._known: Dict[ProcessorId, int] = {}
        #: Sec 3.3 loss flags known / already confirmed-shipped per neighbor
        self._loss_known: Set[EventId] = set()
        self._loss_sent: Dict[ProcessorId, Set[EventId]] = {
            u: set() for u in self.neighbors
        }
        #: per-neighbor pending loss flags (= _loss_known - _loss_sent[u]),
        #: maintained incrementally for O(|payload|) sends
        self._loss_pending: Dict[ProcessorId, Set[EventId]] = {
            u: set() for u in self.neighbors
        }
        self.reliable = reliable
        self._gc_enabled = gc_enabled
        self._tokens: Dict[int, _DeliveryToken] = {}
        self._token_ids = itertools.count()
        self.stats = HistoryStats(reports={} if track_reports else None)

    def copy(self) -> "HistoryModule":
        """An independent module in the same protocol state, nothing in flight.

        Buffer, watermarks, indexes, loss flags and counters are copied
        (event records are immutable and shared); unsettled delivery
        tokens are not - to the copy those payloads were never confirmed,
        so it re-reports them.
        """
        twin = HistoryModule(
            self.proc, self.neighbors, reliable=self.reliable, gc_enabled=self._gc_enabled
        )
        twin._buffer = dict(self._buffer)
        twin._watermark = {u: dict(marks) for u, marks in self._watermark.items()}
        twin._pending = {u: dict(index) for u, index in self._pending.items()}
        twin._lacking = dict(self._lacking)
        twin._known = dict(self._known)
        twin._loss_known = set(self._loss_known)
        twin._loss_sent = {u: set(flags) for u, flags in self._loss_sent.items()}
        twin._loss_pending = {u: set(flags) for u, flags in self._loss_pending.items()}
        reports = self.stats.reports
        twin.stats = replace(self.stats, reports=None if reports is None else dict(reports))
        return twin

    # -- inspection ---------------------------------------------------------------

    def known_seq(self, proc: ProcessorId) -> int:
        """Highest event sequence number of ``proc`` this module knows."""
        return self._known.get(proc, -1)

    def knows(self, eid: EventId) -> bool:
        return eid.seq <= self.known_seq(eid.proc)

    def watermark(self, neighbor: ProcessorId, proc: ProcessorId) -> int:
        """``C_vu[w]`` as a sequence number (-1 when unknown)."""
        try:
            return self._watermark[neighbor].get(proc, -1)
        except KeyError:
            raise ProtocolError(f"{neighbor!r} is not a neighbor of {self.proc!r}") from None

    def buffer_size(self) -> int:
        """``|H_v|`` - the Lemma 3.3 quantity."""
        return len(self._buffer)

    def buffered_events(self) -> List[Event]:
        """Buffered events in learn order (dict insertion order; no sort)."""
        return list(self._buffer.values())

    @property
    def loss_flags(self) -> Set[EventId]:
        return set(self._loss_known)

    def pending_tokens(self) -> int:
        return len(self._tokens)

    def knowledge_frontier(self) -> Dict[ProcessorId, int]:
        """``K_v`` - this module's knowledge frontier, ``proc -> max seq``."""
        return dict(self._known)

    # -- dynamic membership -----------------------------------------------------------

    def adopt_frontier(
        self,
        known: Dict[ProcessorId, int],
        loss_flags: Iterable[EventId] = (),
        *,
        sponsor: Optional[ProcessorId] = None,
    ) -> None:
        """Late-joiner bootstrap: adopt a sponsor's knowledge frontier.

        The joiner claims to know everything up to ``known`` without holding
        the records themselves - sound because those events' constraints
        arrive pre-folded in the AGDP distance snapshot, and the frontier
        stops neighbors' payload dedup from re-teaching them (a record at or
        below the frontier is skipped as a duplicate on ingest).

        If ``sponsor`` is one of our neighbors, its watermark row is seeded
        with the same frontier (the sponsor knows everything it handed us),
        so the first payload back to it is small; adopted loss flags are
        likewise marked already-shipped toward the sponsor but pending to
        every other neighbor.  Only a fresh module may adopt.
        """
        if self._known or self._buffer or self._loss_known:
            raise ProtocolError(
                f"{self.proc!r} cannot adopt a frontier over existing history"
            )
        self._known.update(known)
        flags = set(loss_flags)
        self._loss_known.update(flags)
        for u, pending in self._loss_pending.items():
            if u != sponsor:
                pending.update(flags)
        if sponsor is not None and sponsor in self._watermark:
            marks = self._watermark[sponsor]
            for proc, seq in known.items():
                if seq > marks.get(proc, -1):
                    marks[proc] = seq
            self._loss_sent[sponsor].update(flags)

    def absorb_peer_frontier(
        self, neighbor: ProcessorId, marks: Dict[ProcessorId, int]
    ) -> None:
        """Watermark handoff: learn that ``neighbor`` already knows ``marks``.

        Called on a joiner's *peers* when the joiner bootstraps from a
        sponsor snapshot: the peer may advance ``C_vu`` for the new neighbor
        to the snapshot frontier without shipping anything (the knowledge
        arrived out of band).  Watermarks only advance, so this composes
        with any interleaving of regular payload traffic.
        """
        if neighbor not in self._watermark:
            raise ProtocolError(f"{neighbor!r} is not a neighbor of {self.proc!r}")
        row = self._watermark[neighbor]
        advanced = False
        for proc, seq in marks.items():
            if seq > row.get(proc, -1):
                row[proc] = seq
                advanced = True
        if advanced:
            self._prune_pending(neighbor)

    def adopt_events(self, events: Iterable[Event]) -> None:
        """Re-learn ``events`` in order (self-stabilization rebuild path).

        Unlike :meth:`record_local` this accepts events of any processor;
        the caller is responsible for supplying a valid learn order (the
        estimator's retained event log is one by construction).  Events
        already covered by the knowledge frontier (records an adopted
        frontier covers seq-wise) are re-buffered for forwarding instead
        of re-learned.
        """
        for event in events:
            if self.knows(event.eid):
                self._rebuffer(event)
            else:
                self._learn(event)

    # -- local events ---------------------------------------------------------------

    def record_local(self, event: Event) -> None:
        """Record an event occurring at this processor (in sequence order)."""
        if event.eid[0] != self.proc:
            raise ProtocolError(
                f"module of {self.proc!r} given local event of {event.proc!r}"
            )
        self._learn(event)

    def record_loss(self, send_eid: EventId) -> bool:
        """Record a locally detected message loss; returns True if new."""
        if send_eid in self._loss_known:
            return False
        self._loss_known.add(send_eid)
        # a fresh flag is never in any _loss_sent set (those only hold
        # flags already in _loss_known), so it is pending everywhere
        for pending in self._loss_pending.values():
            pending.add(send_eid)
        return True

    def _learn(self, event: Event) -> None:
        eid = event.eid
        proc, seq = eid
        known = self._known
        expected = known.get(proc, -1) + 1
        if seq != expected:
            raise ProtocolError(
                f"{self.proc!r} learned {eid} out of order (expected seq {expected})"
            )
        known[proc] = seq
        # Buffer the event iff some neighbor still lacks it, and index it
        # under exactly those neighbors' pending maps.
        lacking = 0
        pending = self._pending
        for u, marks in self._watermark.items():
            if seq > marks.get(proc, -1):
                pending[u][eid] = event
                lacking += 1
        if lacking:
            self._lacking[eid] = lacking
            buffer = self._buffer
            buffer[eid] = event
            if len(buffer) > self.stats.max_buffer:
                self.stats.max_buffer = len(buffer)

    def _rebuffer(self, event: Event) -> None:
        """Re-index an already-known record for neighbors that still lack it.

        Buffer order stays a valid learn order: any record causally
        preceding an already-buffered event arrived no later than it on the
        same channel, so a record re-buffered now cannot precede anything
        buffered earlier.
        """
        eid = event.eid
        if eid in self._lacking:
            return  # already buffered and indexed
        proc, seq = eid
        lacking = 0
        for u, marks in self._watermark.items():
            if seq > marks.get(proc, -1):
                self._pending[u][eid] = event
                lacking += 1
        if lacking:
            self._lacking[eid] = lacking
            self._buffer[eid] = event
            self.stats.max_buffer = max(self.stats.max_buffer, len(self._buffer))

    # -- protocol: sending ------------------------------------------------------------

    def prepare_payload(self, neighbor: ProcessorId) -> Tuple[HistoryPayload, int]:
        """Figure 2 send handler: fill the message; returns (payload, token).

        Must be called when a message to ``neighbor`` is sent and only
        *after* the send event itself has been recorded with
        :meth:`record_local` (the local view from the send point includes
        the send point).  In reliable mode the token is already settled;
        in unreliable mode the caller's delivery-detection mechanism must
        eventually call :meth:`confirm_delivery` or :meth:`abort_delivery`.
        """
        if neighbor not in self._watermark:
            raise ProtocolError(f"{neighbor!r} is not a neighbor of {self.proc!r}")
        # the pending index holds exactly the events the neighbor lacks by
        # confirmed watermark, already in learn order: O(|payload|)
        fresh = list(self._pending[neighbor].values())
        advance: Dict[ProcessorId, int] = {}
        for event in fresh:
            proc, seq = event.eid
            if seq > advance.get(proc, -1):
                advance[proc] = seq
        reports = self.stats.reports
        if reports is not None:
            for event in fresh:
                key = (event.eid, neighbor)
                reports[key] = reports.get(key, 0) + 1
        flags = tuple(sorted(self._loss_pending[neighbor]))
        payload = HistoryPayload(records=tuple(fresh), loss_flags=flags)
        token = _DeliveryToken(
            token_id=next(self._token_ids),
            neighbor=neighbor,
            marks=advance,
            loss_flags=flags,
        )
        self.stats.payloads_sent += 1
        self.stats.records_sent += len(fresh)
        self.stats.max_payload = max(self.stats.max_payload, payload.size)
        if self.reliable:
            self._settle(token, confirmed=True)
        else:
            self._tokens[token.token_id] = token
        return payload, token.token_id

    def prepare_payloads(
        self, neighbors: Iterable[ProcessorId]
    ) -> Dict[ProcessorId, Tuple[HistoryPayload, int]]:
        """Prepare one payload per neighbor in a single pass (broadcast path).

        Equivalent to calling :meth:`prepare_payload` for each neighbor in
        order, with one optimisation: when several neighbors lack exactly
        the same records and flags - the common shape right after a burst
        of local events, before any watermark has diverged - the
        :class:`HistoryPayload` object is built once and *shared* between
        the results.  Callers that serialize payloads can then encode per
        distinct object instead of per destination.  Tokens stay
        per-neighbor (watermark advances are independent).

        No production caller: it is kept only as a ``bench/trace.py``
        hook point until that hook table is re-based.
        """
        results: Dict[ProcessorId, Tuple[HistoryPayload, int]] = {}
        shared: Dict[Tuple[Tuple[int, ...], Tuple[EventId, ...]], HistoryPayload] = {}
        for neighbor in neighbors:
            payload, token = self.prepare_payload(neighbor)
            key = (tuple(map(id, payload.records)), payload.loss_flags)
            cached = shared.get(key)
            if cached is None:
                shared[key] = payload
            else:
                payload = cached
            results[neighbor] = (payload, token)
        return results

    def confirm_delivery(self, token_id: int) -> None:
        """Acknowledge that the payload under ``token_id`` reached its neighbor."""
        self._settle(self._take_token(token_id), confirmed=True)

    def abort_delivery(self, token_id: int) -> None:
        """Record that the payload under ``token_id`` was lost in transit.

        Nothing to undo: watermarks only advance on confirmation, so the
        shipped events remain buffered and will be re-reported.
        """
        self._settle(self._take_token(token_id), confirmed=False)

    def _take_token(self, token_id: int) -> _DeliveryToken:
        token = self._tokens.pop(token_id, None)
        if token is None:
            raise ProtocolError(
                f"unknown or already settled delivery token {token_id} at {self.proc!r}"
            )
        return token

    def _settle(self, token: _DeliveryToken, *, confirmed: bool) -> None:
        if token.settled:
            raise ProtocolError(f"delivery token {token.token_id} settled twice")
        token.settled = True
        if not confirmed:
            return
        marks = self._watermark[token.neighbor]
        advanced = False
        for proc, seq in token.marks.items():
            if seq > marks.get(proc, -1):
                marks[proc] = seq
                advanced = True
        self._loss_sent[token.neighbor].update(token.loss_flags)
        self._loss_pending[token.neighbor].difference_update(token.loss_flags)
        if advanced:
            self._prune_pending(token.neighbor)

    # -- protocol: receiving ------------------------------------------------------------

    def ingest_payload(
        self, neighbor: ProcessorId, payload: HistoryPayload
    ) -> Tuple[List[Event], List[EventId]]:
        """Figure 2 receive handler.

        Returns ``(new_events, new_loss_flags)``: the events this module had
        not known, in topological order, plus newly learned loss flags.  The
        caller records the receive event itself separately (it is a local
        event, not part of the payload).
        """
        if neighbor not in self._watermark:
            raise ProtocolError(f"{neighbor!r} is not a neighbor of {self.proc!r}")
        marks = self._watermark[neighbor]
        known = self._known
        stats = self.stats
        new_events: List[Event] = []
        stats.payloads_received += 1
        advanced = False
        for event in payload.records:
            stats.records_received += 1
            proc, seq = event.eid
            if seq > marks.get(proc, -1):
                marks[proc] = seq
                advanced = True
            if seq <= known.get(proc, -1):
                stats.duplicate_records_received += 1
                # A record we know *of* but do not hold: after a frontier
                # adoption the seqs are covered yet the records are not -
                # hold it for any neighbor whose watermark does not cover
                # it, or an information-poor neighbor could never learn it
                # through us.  For true duplicates every lacking neighbor
                # is already indexed (or covered), so this is a no-op.
                self._rebuffer(event)
                continue
            self._learn(event)
            new_events.append(event)
        new_flags = [f for f in payload.loss_flags if f not in self._loss_known]
        self._loss_known.update(new_flags)
        for other, pending in self._loss_pending.items():
            if other != neighbor:
                pending.update(new_flags)
        # the sender evidently knows these flags; never ship them back
        self._loss_sent[neighbor].update(payload.loss_flags)
        self._loss_pending[neighbor].difference_update(payload.loss_flags)
        if advanced:
            self._prune_pending(neighbor)
        return new_events, new_flags

    # -- garbage collection ----------------------------------------------------------

    def _prune_pending(self, neighbor: ProcessorId) -> None:
        """Incremental corrected-Figure 2 GC after a watermark advance.

        Drops from ``neighbor``'s pending index every event its watermarks
        now cover, decrementing the lacking refcounts; an event whose count
        reaches zero is known by every neighbor and leaves ``H_v``
        (unless GC is disabled for the A2 ablation).  O(|pending index|)
        per advance instead of a full-buffer rebuild.
        """
        pending = self._pending[neighbor]
        marks = self._watermark[neighbor]
        covered = [eid for eid in pending if eid[1] <= marks.get(eid[0], -1)]
        lacking = self._lacking
        for eid in covered:
            del pending[eid]
            count = lacking[eid] - 1
            if count:
                lacking[eid] = count
            else:
                del lacking[eid]
                if self._gc_enabled:
                    del self._buffer[eid]
