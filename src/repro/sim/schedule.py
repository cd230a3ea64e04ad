"""Deterministic adversarial schedules and their replay harness.

The property-based conformance suite (:mod:`repro.testing`) does not drive
the discrete-event simulator: it drives the protocol *directly* through a
:class:`Schedule` - a fully explicit, JSON-serializable list of steps
(sends, FIFO deliveries, drops) over hidden affine clocks.  Determinism is
the point: a schedule replays bit-identically, so any divergence found by
the differential driver can be committed to the corpus and replayed
forever (see ``docs/TESTING.md``).

A schedule may carry one liar (``tamper``), a
:class:`~repro.sim.faults.ByzantineProcessor` - the spec the seeded
simulator uses.  The harness applies it with the simulator's own pure
:func:`~repro.sim.faults.tamper` under one fixed seed.  Only the history
payloads the liar ships change (never the events of the real execution,
never the full-information reference's view payloads), and every lie is
a hash of what it concerns, so tampered runs replay exactly too.
"""

from __future__ import annotations

import json
import math
import random
from collections import deque
from dataclasses import dataclass, fields
from typing import Callable, Dict, Optional, Set, Tuple

from ..core.csa import EfficientCSA
from ..core.csa_full import FullInformationCSA
from ..core.events import Event, EventId, EventKind, ProcessorId
from ..core.history import HistoryPayload
from ..core.specs import DriftSpec, SystemSpec, TransitSpec
from ..core.view import View
from .faults import CORRUPTION_SCOPES, ByzantineProcessor, scramble_estimator, tamper

__all__ = [
    "Schedule",
    "ScheduleHarness",
    "CHURN_OPS",
]

#: Step kinds a schedule may contain.  Every step is a 4-tuple
#: ``(op, src, dest, dt)``: advance real time by ``dt``, then apply ``op``
#: on the directed link ``src -> dest`` (indices into the processor list).
STEP_OPS = ("send", "deliver", "drop")

#: Membership / self-stabilization step kinds (the churn extension).  Same
#: 4-tuple shape, with the second pair reinterpreted per op:
#:
#: * ``("join", joiner, sponsor, dt)`` - admit an absent ``joiner`` via a
#:   bootstrap handshake from ``sponsor`` (must be a link neighbor);
#: * ``("leave", u, u, dt)`` - ``u`` departs; in-flight messages *to* it
#:   are purged and truthfully flagged at their senders;
#: * ``("rejoin", u, u, dt)`` - a departed ``u`` returns with durable
#:   state (no handshake - its estimator survived the absence);
#: * ``("corrupt", u, scope_index, dt)`` - scramble subsystem
#:   ``CORRUPTION_SCOPES[scope_index]`` of ``u``'s efficient estimator
#:   (self-stabilization fault; deterministic per occurrence);
#: * ``("link_down", u, v, dt)`` / ``("link_up", u, v, dt)`` - the edge
#:   disappears/reappears (Pabico-style time-varying edges); going down
#:   purges both direction queues with sender-side loss flags.
#:
#: Every churn op degrades to a no-op when its precondition does not hold
#: (already present, already down, empty queue, ...), preserving the
#: every-subsequence-is-valid property that makes shrinking sound.
CHURN_OPS = ("join", "leave", "rejoin", "corrupt", "link_down", "link_up")

#: ops that purge in-flight queues and therefore need ``lossy=True``
#: (purging under reliable-mode history semantics would leave receivers
#: with a permanent knowledge gap: watermarks already advanced at send)
_PURGING_OPS = ("leave", "rejoin", "link_down", "link_up")


#: the plan seed the harness hands :func:`~repro.sim.faults.tamper`
_TAMPER_SEED = 0


def _liar_to_dict(liar: ByzantineProcessor) -> Dict:
    """The liar's fields that differ from their defaults (JSON-safe: the
    default open-ended window is never written as ``Infinity``)."""
    return {
        f.name: list(value) if f.name == "modes" else value
        for f in fields(liar)
        if (value := getattr(liar, f.name)) != f.default
    }


@dataclass(frozen=True)
class Schedule:
    """A deterministic protocol schedule over hidden affine clocks.

    ``rates`` lists the hidden clock rate of each processor (index 0 is
    the source; its rate is forced to 1.0 - the source defines real
    time).  ``edges`` lists undirected links as index pairs.  ``steps``
    drive the run; ``deliver``/``drop`` on an empty queue are no-ops, so
    *every* subsequence of a valid schedule is again a valid schedule -
    the property that makes shrinking and delta-debugging sound.
    """

    rates: Tuple[float, ...]
    edges: Tuple[Tuple[int, int], ...]
    steps: Tuple[Tuple, ...]
    lossy: bool = False
    tamper: Optional[ByzantineProcessor] = None
    #: processors present from the start (indices); ``None`` means all.
    #: Absent processors can only enter via a ``join`` step.  Must contain
    #: 0 - the source anchors real time and cannot join late.
    initial: Optional[Tuple[int, ...]] = None

    def __post_init__(self):
        n = len(self.rates)
        if n < 2:
            raise ValueError("a schedule needs at least two processors")
        edge_keys = set()
        for u, v in self.edges:
            if not (0 <= u < n and 0 <= v < n and u != v):
                raise ValueError(f"bad edge ({u}, {v}) for {n} processors")
            edge_keys.add((min(u, v), max(u, v)))
        if self.initial is not None:
            if 0 not in self.initial:
                raise ValueError("the source (index 0) must be present initially")
            if len(set(self.initial)) != len(self.initial):
                raise ValueError("duplicate indices in initial membership")
            for i in self.initial:
                if not (0 <= i < n):
                    raise ValueError(f"initial member {i} out of range for {n} processors")
        for step in self.steps:
            op, u, v, dt = step
            if op not in STEP_OPS and op not in CHURN_OPS:
                raise ValueError(f"unknown step op {op!r}")
            if op == "drop" and not self.lossy:
                raise ValueError("drop steps require a lossy schedule")
            if op in _PURGING_OPS and not self.lossy:
                raise ValueError(
                    f"{op} steps require a lossy schedule (they purge "
                    "in-flight messages)"
                )
            if dt < 0:
                raise ValueError(f"step {step} rewinds time")
            if op in ("join", "leave", "rejoin") and u == 0:
                raise ValueError("the source (index 0) cannot churn")
            if op == "corrupt":
                if not (0 <= u < n):
                    raise ValueError(f"corrupt victim {u} out of range")
                if not (0 <= v < len(CORRUPTION_SCOPES)):
                    raise ValueError(
                        f"corrupt scope index {v} out of range for "
                        f"{CORRUPTION_SCOPES}"
                    )
            elif op in ("join", "link_down", "link_up"):
                if u == v or not (0 <= u < n and 0 <= v < n):
                    raise ValueError(f"bad endpoints in step {step}")
                if (min(u, v), max(u, v)) not in edge_keys:
                    raise ValueError(
                        f"step {step} references ({u}, {v}), which is not an edge"
                    )
            elif op in ("leave", "rejoin"):
                if not (0 <= u < n):
                    raise ValueError(f"bad processor index in step {step}")
        if self.tamper is not None and self.tamper.proc not in self.names[1:]:
            raise ValueError(
                f"the liar {self.tamper.proc!r} is not a non-source processor "
                f"of {self.names}"
            )

    @property
    def n_procs(self) -> int:
        return len(self.rates)

    @property
    def names(self) -> Tuple[ProcessorId, ...]:
        return tuple(f"q{i}" for i in range(len(self.rates)))

    # -- persistence (the corpus format, docs/TESTING.md) ----------------------

    def to_dict(self) -> Dict:
        data = {
            "rates": list(self.rates),
            "edges": [list(e) for e in self.edges],
            "steps": [[op, u, v, dt] for op, u, v, dt in self.steps],
            "lossy": self.lossy,
            "tamper": None if self.tamper is None else _liar_to_dict(self.tamper),
        }
        if self.initial is not None:
            data["initial"] = list(self.initial)
        return data

    @classmethod
    def from_dict(cls, data: Dict) -> "Schedule":
        initial = data.get("initial")
        return cls(
            rates=tuple(float(r) for r in data["rates"]),
            edges=tuple((int(u), int(v)) for u, v in data["edges"]),
            steps=tuple(
                (str(op), int(u), int(v), float(dt))
                for op, u, v, dt in data["steps"]
            ),
            lossy=bool(data.get("lossy", False)),
            tamper=(
                None
                if data.get("tamper") is None
                else ByzantineProcessor(**data["tamper"])
            ),
            initial=None if initial is None else tuple(int(i) for i in initial),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "Schedule":
        return cls.from_dict(json.loads(text))

    def build_spec(self) -> SystemSpec:
        """The advertised specification every replay of this schedule obeys.

        The drift band covers all hidden rates with a hair of slack, and
        links advertise only ``transit >= 0`` - so every generated
        execution satisfies its specification by construction.
        """
        rates = self.true_rates()
        band = (min(rates), max(rates))
        names = self.names
        return SystemSpec.build(
            source=names[0],
            processors=list(names),
            links=[(names[u], names[v]) for u, v in self.edges],
            default_drift=DriftSpec.from_rate_bounds(band[0] - 1e-9, band[1] + 1e-9),
            default_transit=TransitSpec(0.0, math.inf),
        )

    def true_rates(self) -> Tuple[float, ...]:
        """Hidden clock rates with the source pinned to real time."""
        return (1.0,) + tuple(self.rates[1:])


class ScheduleHarness:
    """Replays a :class:`Schedule` against live estimators, deterministically.

    One :class:`~repro.core.csa.EfficientCSA` per processor (customizable
    via ``estimator_factory``), optionally shadowed by a
    :class:`~repro.core.csa_full.FullInformationCSA` reference receiving
    untampered view payloads over the same executions.  The harness records
    the omniscient ground truth (events in learn order, real times, a
    causally closed :class:`~repro.core.view.View`) for the oracles in
    :mod:`repro.testing`.
    """

    def __init__(
        self,
        schedule: Schedule,
        *,
        estimator_factory: Optional[
            Callable[[ProcessorId, SystemSpec], EfficientCSA]
        ] = None,
        attach_full: bool = True,
    ):
        self.schedule = schedule
        self.names = list(schedule.names)
        self.rates = dict(zip(self.names, schedule.true_rates()))
        self.spec = schedule.build_spec()
        if estimator_factory is None:
            reliable = not schedule.lossy
            estimator_factory = lambda p, s: EfficientCSA(p, s, reliable=reliable)
        self.csas: Dict[ProcessorId, EfficientCSA] = {
            name: estimator_factory(name, self.spec) for name in self.names
        }
        self.fulls: Dict[ProcessorId, FullInformationCSA] = (
            {name: FullInformationCSA(name, self.spec) for name in self.names}
            if attach_full
            else {}
        )
        self.now = 0.0
        self.seq = {name: 0 for name in self.names}
        #: FIFO queues of (send_event, payload, full_payload) per directed link
        self.in_flight: Dict[Tuple[ProcessorId, ProcessorId], deque] = {}
        for u, v in schedule.edges:
            self.in_flight[(self.names[u], self.names[v])] = deque()
            self.in_flight[(self.names[v], self.names[u])] = deque()
        #: every event of the real execution, in a topological (learn) order
        self.events: Dict[EventId, Event] = {}
        #: the same events as a causally closed View (legacy oracle surface)
        self.view = View()
        #: hidden real time of each event
        self.truth: Dict[EventId, float] = {}
        #: sends dropped and truthfully flagged so far
        self.flagged: Set[EventId] = set()
        #: processors whose state may causally depend on tampered payloads
        self.tainted: Set[ProcessorId] = set()
        # -- dynamic membership state --
        #: processors currently part of the execution
        self.present: Set[ProcessorId] = (
            set(self.names)
            if schedule.initial is None
            else {self.names[i] for i in schedule.initial}
        )
        #: canonical (min, max) name pairs of currently-up links
        self.links_up: Set[Tuple[ProcessorId, ProcessorId]] = {
            tuple(sorted((self.names[u], self.names[v]))) for u, v in schedule.edges
        }
        #: processors whose efficient estimator is corrupted and has not
        #: yet recovered (skipped by end-of-run checks if still dirty)
        self.dirty: Set[ProcessorId] = set()
        self._corrupt_count = 0
        if schedule.tamper is not None:
            self.tainted.add(schedule.tamper.proc)

    # -- clock plumbing ---------------------------------------------------------

    def _lt(self, proc: ProcessorId) -> float:
        return self.rates[proc] * self.now

    def _next_event(self, proc: ProcessorId, kind: EventKind, **kwargs) -> Event:
        event = Event(
            eid=EventId(proc, self.seq[proc]), lt=self._lt(proc), kind=kind, **kwargs
        )
        self.seq[proc] += 1
        self.events[event.eid] = event
        self.view.add(event)
        self.truth[event.eid] = self.now
        return event

    # -- step application -------------------------------------------------------

    def advance(self, dt: float) -> None:
        self.now += dt

    def send(self, src: ProcessorId, dest: ProcessorId) -> None:
        if src not in self.present or dest not in self.present:
            return  # departed endpoints cannot exchange messages
        if tuple(sorted((src, dest))) not in self.links_up:
            return
        event = self._next_event(src, EventKind.SEND, dest=dest)
        payload = self._lie(event, self.csas[src].on_send(event))
        full_payload = (
            self.fulls[src].on_send(event) if self.fulls else None
        )
        self.in_flight[(src, dest)].append((event, payload, full_payload))
        self._note_recovered(src)

    def deliver(self, src: ProcessorId, dest: ProcessorId) -> Optional[ProcessorId]:
        """Deliver the oldest in-flight message; returns the receiver or None."""
        queue = self.in_flight[(src, dest)]
        if not queue:
            return None
        send_event, payload, full_payload = queue.popleft()
        event = self._next_event(dest, EventKind.RECEIVE, send_eid=send_event.eid)
        self.csas[dest].on_receive(event, payload)
        if self.fulls:
            self.fulls[dest].on_receive(event, full_payload)
        if self.schedule.lossy:
            self.csas[src].on_delivery_confirmed(send_event.eid)
            if self.fulls:
                self.fulls[src].on_delivery_confirmed(send_event.eid)
        if src in self.tainted:
            self.tainted.add(dest)
        self._note_recovered(dest)
        return dest

    def drop(self, src: ProcessorId, dest: ProcessorId) -> Optional[ProcessorId]:
        """Drop the oldest in-flight message, truthfully detected at the sender."""
        queue = self.in_flight[(src, dest)]
        if not queue:
            return None
        send_event, _payload, _full = queue.popleft()
        self.flagged.add(send_event.eid)
        self.csas[src].on_loss_detected(send_event.eid)
        if self.fulls:
            self.fulls[src].on_loss_detected(send_event.eid)
        return src

    # -- dynamic membership (churn) ---------------------------------------------

    def _purge_queue(self, src: ProcessorId, dest: ProcessorId) -> None:
        """Drop every in-flight message on ``src -> dest``, truthfully
        flagging each at the sender (the schedule is lossy, so the sender's
        loss-detection path re-ships the lost knowledge later)."""
        queue = self.in_flight[(src, dest)]
        while queue:
            send_event, _payload, _full = queue.popleft()
            self.flagged.add(send_event.eid)
            self.csas[src].on_loss_detected(send_event.eid)
            if self.fulls:
                self.fulls[src].on_loss_detected(send_event.eid)

    def _note_recovered(self, proc: ProcessorId) -> None:
        """Clear ``proc`` from the dirty set once its estimator audits clean."""
        if proc in self.dirty and self.csas[proc].self_check():
            self.dirty.discard(proc)

    def leave(self, u: ProcessorId) -> None:
        """``u`` departs: messages in flight *to* it are purged (flagged at
        their senders); messages *from* it stay deliverable (already on the
        wire).  Its estimator state is retained for a durable rejoin."""
        if u not in self.present:
            return
        self.present.discard(u)
        for v in self.names:
            if (v, u) in self.in_flight:
                self._purge_queue(v, u)

    def rejoin(self, u: ProcessorId) -> None:
        """A departed ``u`` returns with durable state - no handshake."""
        if u in self.present:
            return
        self.present.add(u)

    def join(
        self, joiner: ProcessorId, sponsor: ProcessorId
    ) -> Optional[ProcessorId]:
        """Admit ``joiner`` via a bootstrap handshake from ``sponsor``.

        The sponsor performs an ordinary send event toward the joiner; the
        snapshot is taken *after* that send so the handshake message itself
        is covered as an adopted undelivered live point (Lemma 3.1: the
        sponsor's view is the causal past of its latest event, so snapshot
        + handshake receive is information-equivalent to a full replay -
        the joiner's first estimate is already optimal).  A joiner whose
        estimator is not completely fresh (a durable restart) declines the
        snapshot and processes the handshake as a normal delivery.
        Returns the joiner if the handshake happened, else ``None``.
        """
        if joiner in self.present or sponsor not in self.present:
            return None
        if tuple(sorted((joiner, sponsor))) not in self.links_up:
            return None
        event = self._next_event(sponsor, EventKind.SEND, dest=joiner)
        payload = self._lie(event, self.csas[sponsor].on_send(event))
        full_payload = self.fulls[sponsor].on_send(event) if self.fulls else None
        self._note_recovered(sponsor)
        snapshot = self.csas[sponsor].bootstrap_snapshot()
        self.present.add(joiner)
        adopted = self.csas[joiner].bootstrap_from(snapshot)
        recv = self._next_event(joiner, EventKind.RECEIVE, send_eid=event.eid)
        self.csas[joiner].on_receive(recv, payload)
        if self.fulls:
            self.fulls[joiner].on_receive(recv, full_payload)
        if self.schedule.lossy:
            self.csas[sponsor].on_delivery_confirmed(event.eid)
            if self.fulls:
                self.fulls[sponsor].on_delivery_confirmed(event.eid)
        if adopted:
            # watermark handoff: neighbors of the joiner need not re-ship
            # knowledge the snapshot already carried
            frontier = snapshot.frontier()
            for peer in self.present:
                if peer == joiner:
                    continue
                if joiner in self.spec.neighbors(peer):
                    self.csas[peer].history.absorb_peer_frontier(joiner, frontier)
        if sponsor in self.tainted:
            self.tainted.add(joiner)
        self._note_recovered(joiner)
        return joiner

    def corrupt(self, proc: ProcessorId, scope_index: int) -> None:
        """Scramble one subsystem of ``proc``'s efficient estimator.

        Deterministic per occurrence: the RNG is seeded from the running
        corruption count, the victim, and the scope (string seeding hashes
        via SHA-512, so replays agree across processes - unlike ``hash``).
        The full-information reference is never corrupted; it stays the
        clean oracle the recovered estimator is compared against.
        """
        if proc not in self.present:
            return
        scope = CORRUPTION_SCOPES[scope_index]
        self._corrupt_count += 1
        rng = random.Random(f"{self._corrupt_count}|{proc}|{scope}")
        if scramble_estimator(self.csas[proc], scope, rng):
            self.dirty.add(proc)

    def link_down(self, a: ProcessorId, b: ProcessorId) -> None:
        """The edge disappears; both direction queues are purged with
        sender-side loss flags (a lossy-mode-only operation)."""
        key = tuple(sorted((a, b)))
        if key not in self.links_up:
            return
        self.links_up.discard(key)
        self._purge_queue(a, b)
        self._purge_queue(b, a)

    def link_up(self, a: ProcessorId, b: ProcessorId) -> None:
        key = tuple(sorted((a, b)))
        if key in self.links_up:
            return
        if (a, b) in self.in_flight:  # only real edges can come back up
            self.links_up.add(key)

    def run(
        self,
        on_checkpoint: Optional[Callable[[int, ProcessorId], None]] = None,
    ) -> None:
        """Replay every step; call ``on_checkpoint(step_index, proc)`` after
        each effective delivery (at the receiver) or drop (at the sender)."""
        for index, (op, u, v, dt) in enumerate(self.schedule.steps):
            self.advance(dt)
            if op == "corrupt":
                self.corrupt(self.names[u], v)
                continue
            if op in ("leave", "rejoin"):
                getattr(self, op)(self.names[u])
                continue
            src, dest = self.names[u], self.names[v]
            if (src, dest) not in self.in_flight:
                continue  # a shrunk schedule may reference a removed edge
            if op == "send":
                self.send(src, dest)
            elif op == "deliver":
                at = self.deliver(src, dest)
                if at is not None and on_checkpoint is not None:
                    on_checkpoint(index, at)
            elif op == "drop":
                at = self.drop(src, dest)
                if at is not None and on_checkpoint is not None:
                    on_checkpoint(index, at)
            elif op == "join":
                at = self.join(src, dest)
                if at is not None and on_checkpoint is not None:
                    on_checkpoint(index, at)
            elif op == "link_down":
                self.link_down(src, dest)
            else:  # link_up
                self.link_up(src, dest)

    # -- Byzantine tampering ------------------------------------------------------

    def _lie(self, send_event: Event, payload: HistoryPayload) -> HistoryPayload:
        """``payload`` as the schedule's liar (if it sent it) ships it."""
        liar = self.schedule.tamper
        if liar is None or not (liar.start <= self.now < liar.end):
            return payload
        return tamper(liar, _TAMPER_SEED, send_event, payload)
