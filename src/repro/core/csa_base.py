"""The passive clock-synchronization-algorithm (CSA) interface (Sec 2.2).

The paper studies *passive* algorithms: a CSA is a layer between the send
module (which decides when messages flow) and the network.  It may fill
information into outgoing messages and read information from incoming
ones, but it never initiates traffic and never alters timing.  This module
defines that interface; the optimal algorithms and every baseline implement
it, which is what lets experiment E8 attach several estimators to the same
execution and compare them point-for-point.

Lifecycle per processor:

* ``on_send(event)`` - called at each send event of this processor;
  returns an opaque payload the network will carry alongside the
  application message.
* ``on_receive(event, payload)`` - called at each receive event with the
  payload produced by the *same estimator type* at the sender.
* ``on_internal(event)`` - any other locally observable point.
* ``on_delivery_confirmed(send_eid)`` / ``on_loss_detected(send_eid)`` -
  optional signals from the system's delivery/loss detection mechanism
  (Sec 3.3); reliable-network runs never call them.
* ``estimate()`` - the external-synchronization interval at the last local
  point; ``estimate_now(local_time)`` - the interval for the present local
  clock reading, advanced by the processor's own drift bounds.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from .errors import EstimateUnavailableError
from .events import Event, EventId, ProcessorId
from .intervals import ClockBound
from .specs import SystemSpec

__all__ = [
    "DEFAULT_BLAME_WEIGHTS",
    "Estimator",
    "EvictionEvent",
    "SuspicionPolicy",
    "SuspicionTracker",
]


# -- Byzantine-input suspicion (see docs/FAULTS.md) -------------------------------
#
# Dropping constraints is always sound (Theorem 2.1: fewer edges only widen
# bounds), so an estimator may *evict* a processor it distrusts without ever
# jeopardising validity - the only cost of a wrong eviction is precision.
# That asymmetry is what makes a simple additive suspicion score safe: blame
# is attributed by the validation layer (:mod:`repro.core.validate`) and by
# quarantined negative-cycle edges; past a threshold the accused processor's
# events are excluded from the synchronization graph; after a blame-free
# window it is rehabilitated, re-admitting only events *after* the frontier
# known at rehabilitation time (old, possibly poisoned claims stay excised).


#: Default blame weight per anomaly kind (``threshold`` defaults to 3.0).
#:
#: The grading encodes how *attributable* each shape is:
#:
#: * weight >= threshold - evidence only the accused can have produced
#:   (self-contradictory claims of one processor, a negative cycle
#:   anchored on the receiver's own events): instant eviction.
#: * 1.0 - sender-attributed shapes an honest relay cannot ship (fresh
#:   gaps, malformed records), recurring holes in an
#:   already-suspected origin's stream (what keeps a persistent liar
#:   from rehabilitating), and negative cycles spanning several
#:   untrusted processors (someone on the cycle lied, but any single
#:   accused may be an honest bystander - sustained lying, not one
#:   shared sighting, is what evicts).
#: * 0.0 - ledger-only: shapes that honest processors legitimately
#:   produce downstream of *someone else's* quarantine (a receive whose
#:   send was refused here, echoes - including a forged copy of the
#:   receiver's own event that an honest relay passes back).  Blaming
#:   these lets one liar get its honest neighbors evicted - the chaos
#:   suite's first Byzantine run demonstrated exactly that cascade.
DEFAULT_BLAME_WEIGHTS: Tuple[Tuple[str, float], ...] = (
    ("implausible", 3.0),
    ("equivocation", 3.0),
    ("non-monotone", 3.0),
    ("forged-self", 3.0),
    ("conflict", 1.5),
    ("implausible-shared", 1.0),
    ("malformed", 1.0),
    ("gap", 1.0),
    ("quarantine", 1.0),
    ("phantom-send", 1.0),
    ("dangling-send", 0.0),
    ("echoed-self", 0.0),
    ("bad-send-ref", 0.0),
    ("double-delivery", 0.0),
    ("bad-flag", 0.0),
)


@dataclass(frozen=True)
class SuspicionPolicy:
    """Tunables for per-processor suspicion scoring.

    ``threshold`` is the cumulative blame weight at which a processor is
    evicted; ``clean_window`` is the local-time span without new blame
    after which an evicted processor is rehabilitated.  ``blame_weights``
    overrides the per-kind weight; kinds not listed fall back to
    :data:`DEFAULT_BLAME_WEIGHTS` and then to 1.0.  A kind weighing 0 is
    ledgered by the validator but never scores.
    """

    threshold: float = 3.0
    clean_window: float = 60.0
    blame_weights: Tuple[Tuple[str, float], ...] = ()

    def weight(self, kind: str) -> float:
        for name, value in self.blame_weights:
            if name == kind:
                return value
        for name, value in DEFAULT_BLAME_WEIGHTS:
            if name == kind:
                return value
        return 1.0


@dataclass(frozen=True)
class EvictionEvent:
    """One transition of the suspicion state machine, for surfacing in results."""

    proc: ProcessorId
    #: ``"evicted"`` or ``"rehabilitated"``
    action: str
    #: local time (at the judging processor) of the transition
    at_lt: float
    #: suspicion score at the moment of transition
    score: float
    detail: str = ""


class SuspicionTracker:
    """Per-processor blame accounting with eviction and rehabilitation.

    One tracker lives inside each hardened estimator and judges *remote*
    processors from that estimator's standpoint; protected processors
    (self and the source) are never blamed.  The tracker only does the
    bookkeeping - excluding evicted evidence from the synchronization
    graph is the owning estimator's job (it knows how to rebuild).
    """

    def __init__(
        self,
        policy: SuspicionPolicy,
        protect: Iterable[ProcessorId] = (),
    ):
        self.policy = policy
        self.protected: FrozenSet[ProcessorId] = frozenset(protect)
        #: cumulative blame weight per processor
        self.scores: Dict[ProcessorId, float] = {}
        #: blame multiplicity per (processor, kind), for diagnostics
        self.blame_counts: Dict[Tuple[ProcessorId, str], int] = {}
        #: local time of the most recent blame per processor
        self.last_blame_lt: Dict[ProcessorId, float] = {}
        #: rehabilitated processors re-admit only events with seq > this
        self.excised_until: Dict[ProcessorId, int] = {}
        #: chronological log of evictions and rehabilitations
        self.events: List[EvictionEvent] = []
        self._evicted: Dict[ProcessorId, float] = {}

    # -- blame -------------------------------------------------------------------

    def blame(
        self, proc: ProcessorId, kind: str, at_lt: float, detail: str = ""
    ) -> bool:
        """Attribute one unit of ``kind`` blame; return True on new eviction."""
        if proc in self.protected:
            return False
        weight = self.policy.weight(kind)
        if weight <= 0:
            return False
        self.scores[proc] = self.scores.get(proc, 0.0) + weight
        key = (proc, kind)
        self.blame_counts[key] = self.blame_counts.get(key, 0) + 1
        self.last_blame_lt[proc] = at_lt
        if proc not in self._evicted and self.scores[proc] >= self.policy.threshold:
            self._evicted[proc] = at_lt
            self.events.append(
                EvictionEvent(proc, "evicted", at_lt, self.scores[proc], detail or kind)
            )
            return True
        return False

    # -- state queries -----------------------------------------------------------

    def is_evicted(self, proc: ProcessorId) -> bool:
        return proc in self._evicted

    @property
    def evicted_procs(self) -> FrozenSet[ProcessorId]:
        return frozenset(self._evicted)

    def suspected(self) -> FrozenSet[ProcessorId]:
        """Processors with any positive score (including the evicted)."""
        return frozenset(p for p, s in self.scores.items() if s > 0)

    def is_excluded(self, eid: EventId) -> bool:
        """Should this event stay out of the synchronization graph?"""
        if eid.proc in self._evicted:
            return True
        return eid.seq <= self.excised_until.get(eid.proc, -1)

    @property
    def excludes_anything(self) -> bool:
        """Whether :meth:`is_excluded` can answer ``True`` at all."""
        return bool(self._evicted or self.excised_until)

    # -- rehabilitation ----------------------------------------------------------

    def due_for_rehabilitation(self, now_lt: float) -> List[ProcessorId]:
        """Evicted processors whose blame-free window has elapsed."""
        return sorted(
            proc
            for proc in self._evicted
            if now_lt - self.last_blame_lt.get(proc, now_lt)
            >= self.policy.clean_window
        )

    def rehabilitate(self, proc: ProcessorId, at_lt: float, frontier: int) -> None:
        """Un-evict ``proc``; events up to ``frontier`` stay excised forever.

        Re-admitting the pre-eviction claims would re-import whatever
        earned the eviction, so rehabilitation is forward-only: the score
        resets and only events with ``seq > frontier`` enter the graph.
        """
        if proc not in self._evicted:
            raise ValueError(f"{proc!r} is not evicted")
        del self._evicted[proc]
        self.scores[proc] = 0.0
        self.excised_until[proc] = max(frontier, self.excised_until.get(proc, -1))
        self.events.append(
            EvictionEvent(
                proc,
                "rehabilitated",
                at_lt,
                0.0,
                f"events up to seq {frontier} remain excised",
            )
        )


class Estimator(abc.ABC):
    """Abstract passive external-synchronization estimator."""

    #: short identifier used to route payloads between peer estimators
    name: str = "estimator"

    def __init__(self, proc: ProcessorId, spec: SystemSpec):
        self.proc = proc
        self.spec = spec
        self._last_local: Optional[Event] = None

    # -- event hooks -------------------------------------------------------------

    @abc.abstractmethod
    def on_send(self, event: Event) -> object:
        """Handle a local send event; return the payload to piggyback."""

    @abc.abstractmethod
    def on_receive(self, event: Event, payload: object) -> None:
        """Handle a local receive event carrying a peer's payload."""

    def on_internal(self, event: Event) -> None:
        """Handle a local internal event (default: just track it)."""
        self._track_local(event)

    def on_delivery_confirmed(self, send_eid: EventId) -> None:
        """The message sent at ``send_eid`` is known to have been delivered."""

    def on_loss_detected(self, send_eid: EventId) -> None:
        """The message sent at ``send_eid`` is known to have been lost."""

    # -- estimates ----------------------------------------------------------------

    @abc.abstractmethod
    def estimate(self) -> ClockBound:
        """Source-clock bounds at this processor's last local event."""

    def estimate_now(self, local_time: float) -> ClockBound:
        """Source-clock bounds at the current local clock reading.

        Derived from :meth:`estimate` by advancing through this processor's
        drift spec over the local time elapsed since the last event.
        """
        base = self.estimate()
        if self._last_local is None:
            return base
        elapsed = local_time - self._last_local.lt
        if elapsed < 0:
            raise ValueError(
                f"local time {local_time} precedes last event at {self._last_local.lt}"
            )
        if not base.is_bounded and base.lower == -base.upper:
            return base  # still completely uninformed
        return base.advance(elapsed, self.spec.drift_of(self.proc))

    def estimate_strict(self) -> ClockBound:
        """Like :meth:`estimate`, but raises
        :class:`~repro.core.errors.EstimateUnavailableError` instead of
        returning an interval with an infinite endpoint.
        """
        bound = self.estimate()
        if not bound.is_bounded:
            raise EstimateUnavailableError(
                f"{self.proc!r} has no bounded source estimate yet"
            )
        return bound

    # -- shared helpers -------------------------------------------------------------

    @property
    def last_local_event(self) -> Optional[Event]:
        return self._last_local

    def _track_local(self, event: Event) -> None:
        if event.proc != self.proc:
            raise ValueError(
                f"estimator of {self.proc!r} given event of {event.proc!r}"
            )
        if self._last_local is not None and event.lt <= self._last_local.lt:
            raise ValueError(
                f"local time went backwards at {self.proc!r}: "
                f"{self._last_local.lt} then {event.lt}"
            )
        self._last_local = event
