"""Events, event identifiers, and messages.

The paper models an execution as a sequence of *points* (message sends and
receives, plus any other locally observable steps).  Each point ``p`` has

* a unique processor ``loc(p)`` at which it occurs,
* a local time ``LT(p)`` read off that processor's hardware clock, and
* (only in the analysis, never visible to the algorithm) a real time
  ``RT(p)``.

We identify an event by the pair ``(processor, seq)`` where ``seq`` is the
0-based index of the event at its processor.  Per-processor local times are
required to be strictly increasing, so ``seq`` order and ``LT`` order agree;
using the integer sequence number avoids floating-point comparisons in
protocol watermarks.

A message is identified by its send event: every send event sends exactly
one message, so the send's :class:`EventId` doubles as the message id.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, NamedTuple, Optional

__all__ = [
    "ProcessorId",
    "EventId",
    "EventKind",
    "Event",
    "LinkId",
    "link_id",
]

#: Processors are identified by arbitrary (hashable, comparable) strings.
ProcessorId = str

#: Links are identified by the unordered pair of their endpoints, stored
#: as a sorted tuple so that ``link_id(u, v) == link_id(v, u)``.
LinkId = tuple

def link_id(u, v):
    """Return the canonical identifier of the (bidirectional) link ``{u, v}``.

    >>> link_id("b", "a")
    ('a', 'b')
    """
    if u == v:
        raise ValueError(f"a link must join two distinct processors, got {u!r} twice")
    return (u, v) if u <= v else (v, u)


class EventKind(enum.Enum):
    """Classification of a point of the execution."""

    SEND = "send"
    RECEIVE = "receive"
    INTERNAL = "internal"

    def __repr__(self):  # pragma: no cover - cosmetic
        return f"EventKind.{self.name}"


class _EventIdFields(NamedTuple):
    # (a NamedTuple body may not define ``__new__``; the subclass does)
    proc: ProcessorId
    seq: int


class EventId(_EventIdFields):
    """Globally unique identifier of an event: processor plus sequence number.

    An id *is* the plain pair ``(proc, seq)``: a ``tuple`` for
    ``isinstance`` purposes, equal to and hashing like that pair.  Event
    ids are the keys of every hot protocol table (AGDP slot map, history
    buffers and pending maps, live sets), so hashing and equality are
    ``tuple``'s own, in C - never override ``__hash__`` or ``__eq__`` here.

    Ordering is lexicographic ``(proc, seq)``; note that this is *not* the
    happens-before order, merely a stable total order convenient for
    deterministic iteration.
    """

    __slots__ = ()

    def __new__(cls, proc: ProcessorId, seq: int):
        if seq < 0:
            raise ValueError(f"event sequence numbers are non-negative, got {seq}")
        return tuple.__new__(cls, (proc, seq))

    def pred(self) -> Optional["EventId"]:
        """The id of the previous event at the same processor, or ``None``."""
        if self[1] == 0:
            return None
        return tuple.__new__(EventId, (self[0], self[1] - 1))

    def succ(self) -> "EventId":
        """The id of the next event at the same processor."""
        return tuple.__new__(EventId, (self[0], self[1] + 1))

    def __str__(self):
        return f"{self[0]}#{self[1]}"


@dataclass(frozen=True)
class Event:
    """A point of the execution together with its locally observable data.

    Attributes
    ----------
    eid:
        The event's identifier (``loc`` and per-processor index).
    lt:
        Local time at which the event occurred, read from the hardware
        clock of ``eid.proc``.  Strictly increasing per processor.
    kind:
        Send, receive, or internal.
    dest:
        For sends: the processor the message is addressed to.
    send_eid:
        For receives: the id of the matching send event.  This is locally
        observable because every message carries its sender's id and
        sequence number.
    link:
        For sends and receives: the canonical id of the link the message
        travels on, used to look up the link's transit-time specification.
    """

    eid: EventId
    lt: float
    kind: EventKind
    dest: Optional[ProcessorId] = None
    send_eid: Optional[EventId] = None
    link: Optional[LinkId] = field(default=None)

    def __post_init__(self):
        if self.kind is EventKind.SEND:
            if self.dest is None:
                raise ValueError(f"send event {self.eid} needs a destination")
            if self.send_eid is not None:
                raise ValueError(f"send event {self.eid} must not reference another send")
            object.__setattr__(self, "link", link_id(self.eid.proc, self.dest))
        elif self.kind is EventKind.RECEIVE:
            if self.send_eid is None:
                raise ValueError(f"receive event {self.eid} needs its send event id")
            if self.send_eid.proc == self.eid.proc:
                raise ValueError(
                    f"receive event {self.eid} cannot receive from its own processor"
                )
            object.__setattr__(self, "link", link_id(self.eid.proc, self.send_eid.proc))
        else:
            if self.dest is not None or self.send_eid is not None:
                raise ValueError(f"internal event {self.eid} carries message attributes")

    @property
    def proc(self) -> ProcessorId:
        """The processor at which this event occurred (``loc`` in the paper)."""
        return self.eid.proc

    @property
    def seq(self) -> int:
        """The index of this event among the events of its processor."""
        return self.eid.seq

    @property
    def is_send(self) -> bool:
        return self.kind is EventKind.SEND

    @property
    def is_receive(self) -> bool:
        return self.kind is EventKind.RECEIVE

    def __str__(self):
        tag = {EventKind.SEND: "s", EventKind.RECEIVE: "r", EventKind.INTERNAL: "i"}[self.kind]
        return f"{self.eid}{tag}@{self.lt:g}"

    # -- JSON codec -------------------------------------------------------------

    def to_dict(self) -> Dict:
        """This event as a flat JSON-safe mapping.

        The shape matches the per-event entries of the archived-run format
        (:mod:`repro.sim.serialize`): ``proc``/``seq``/``lt``/``kind`` plus
        ``dest`` for sends and ``send: [proc, seq]`` for receives.  The
        derived ``link`` attribute is not stored; :meth:`from_dict`
        recomputes it.
        """
        entry: Dict = {
            "proc": self.eid.proc,
            "seq": self.eid.seq,
            "lt": self.lt,
            "kind": self.kind.value,
        }
        if self.is_send:
            entry["dest"] = self.dest
        if self.is_receive:
            entry["send"] = [self.send_eid.proc, self.send_eid.seq]
        return entry

    @classmethod
    def from_dict(cls, data: Dict) -> "Event":
        """Inverse of :meth:`to_dict`; raises ``ValueError`` on bad input.

        Built for untrusted bytes (the wire protocol decodes payload
        records through here), so every field is type-checked explicitly
        rather than trusted to crash somewhere downstream.
        """
        if not isinstance(data, dict):
            raise ValueError(f"event record must be a mapping, got {type(data).__name__}")
        proc = data.get("proc")
        if not isinstance(proc, str) or not proc:
            raise ValueError(f"event record needs a non-empty 'proc' string, got {proc!r}")
        seq = data.get("seq")
        if not isinstance(seq, int) or isinstance(seq, bool) or seq < 0:
            raise ValueError(f"event record needs a non-negative integer 'seq', got {seq!r}")
        lt = data.get("lt")
        if isinstance(lt, bool) or not isinstance(lt, (int, float)):
            raise ValueError(f"event record needs a numeric 'lt', got {lt!r}")
        lt = float(lt)
        if lt != lt or lt in (float("inf"), float("-inf")):
            raise ValueError(f"event local time must be finite, got {lt!r}")
        try:
            kind = EventKind(data.get("kind"))
        except ValueError:
            raise ValueError(f"unknown event kind {data.get('kind')!r}") from None
        dest = None
        send_eid = None
        if kind is EventKind.SEND:
            dest = data.get("dest")
            if not isinstance(dest, str) or not dest:
                raise ValueError(f"send record needs a non-empty 'dest' string, got {dest!r}")
        elif kind is EventKind.RECEIVE:
            ref = data.get("send")
            if (
                not isinstance(ref, (list, tuple))
                or len(ref) != 2
                or not isinstance(ref[0], str)
                or not ref[0]
                or not isinstance(ref[1], int)
                or isinstance(ref[1], bool)
                or ref[1] < 0
            ):
                raise ValueError(f"receive record needs 'send': [proc, seq], got {ref!r}")
            send_eid = EventId(ref[0], ref[1])
        return cls(eid=EventId(proc, seq), lt=lt, kind=kind, dest=dest, send_eid=send_eid)
