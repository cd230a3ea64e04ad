"""Deterministic discrete-event simulation engine.

The engine advances real time through a priority queue of actions, creates
events (sends, receives, internal points) at processors, drives every
attached passive estimator, and records the omniscient
:class:`~repro.sim.trace.ExecutionTrace`.  Every action - a delivery, a
timer, a workload tick, an injected fault - is a plain callable popped
and run one at a time in ``(rt, tie)`` order; there is one delivery path.

Design points that matter for fidelity:

* **Estimators are passive** (Sec 2.2): workloads decide all traffic; the
  estimators only fill/read piggybacked payloads.  Several estimator kinds
  can ride the *same* execution simultaneously, each with its own payload
  channel - that is how the baseline-comparison experiment observes all
  algorithms under identical conditions.
* **Specs are honoured by construction**: actual delays are sampled inside
  the advertised transit bounds (with a small interior margin so FIFO
  nudges cannot push them out), and clock models stay inside their
  advertised drift bands.  The trace-level validator double-checks every
  run in the tests.  The *only* exception is deliberate fault injection:
  a :class:`~repro.sim.faults.FaultPlan` may schedule out-of-spec delay or
  drift excursions, precisely to exercise the estimators' degraded mode.
* **FIFO links**: report propagation (Figure 2) requires per-direction
  FIFO delivery; arrivals on a directed link are clamped to be strictly
  increasing, staying within the transit spec (see DESIGN.md).
* **Loss and detection** (Sec 3.3): each send may be dropped with the
  link's i.i.d. loss probability, or by an injected fault (partition,
  correlated burst, crashed receiver).  Losses are recorded in the trace
  *at drop time* - the omniscient record never lags the counters.  The
  processors learn of a loss through one of two mechanisms:

  - the legacy **oracle**: after ``loss_detection_delay`` real time units
    the sender's ``on_loss_detected`` hook fires - the paper's assumed
    detection mechanism; or
  - a :class:`~repro.sim.faults.RetransmitPolicy`: each send arms an ack
    timeout; silence triggers ``on_loss_detected`` *and* an application
    level resend with exponential backoff up to a retry cap.  This turns
    the Sec 3.3 assumption into an actual recovery protocol.

  Successful deliveries trigger ``on_delivery_confirmed`` at the sender
  when ``confirm_deliveries`` is enabled (forced on by a retransmit
  policy, which cannot work without confirmations).
* **At-most-once delivery**: the paper's model gives every message at most
  one receive event.  Injected duplicates are therefore discarded by the
  receiving link layer (and counted); since an echo never becomes a receive
  event, it does not constrain the FIFO floor of genuine messages.
"""

from __future__ import annotations

import heapq
import itertools
import math
import random
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

from ..core.csa_base import Estimator
from ..core.errors import SimulationError
from ..core.events import Event, EventId, EventKind, ProcessorId
from .clock import ClockModel
from .faults import ActiveFaults, FaultPlan, RetransmitPolicy, scramble_estimator
from .network import LinkConfig, Network
from .trace import ExecutionTrace

__all__ = ["Message", "SimProcessor", "LinkCounters", "Simulation"]

#: minimal spacing forced between same-processor events and FIFO arrivals
_NUDGE = 1e-9


@dataclass
class Message:
    """An in-flight application message with its piggybacked CSA payloads."""

    send_event: Event
    payloads: Dict[str, object]
    info: object = None
    #: 0 for the original transmission, k for the k-th retransmission
    attempt: int = 0


@dataclass
class LinkCounters:
    """Per-directed-link message accounting (src -> dest)."""

    sent: int = 0
    lost: int = 0
    duplicated: int = 0

    @property
    def delivered(self) -> int:
        return self.sent - self.lost


@dataclass
class SimProcessor:
    """Run-time state of one simulated processor."""

    name: ProcessorId
    clock: ClockModel
    estimators: Dict[str, Estimator] = field(default_factory=dict)
    next_seq: int = 0
    last_event_rt: float = float("-inf")
    last_event_lt: float = float("-inf")

    def make_event(
        self,
        rt: float,
        kind: EventKind,
        *,
        dest: Optional[ProcessorId] = None,
        send_eid: Optional[EventId] = None,
    ) -> Tuple[Event, float]:
        """Create this processor's next event at (approximately) ``rt``.

        Returns ``(event, actual_rt)``; ``actual_rt`` may be nudged forward
        to keep per-processor real times (hence local times) strictly
        increasing.
        """
        if rt <= self.last_event_rt:
            rt = self.last_event_rt + _NUDGE
        lt = self.clock.lt(rt)
        if lt <= self.last_event_lt:
            raise SimulationError(
                f"clock of {self.name!r} not strictly increasing at rt={rt}"
            )
        event = Event(
            eid=EventId(self.name, self.next_seq),
            lt=lt,
            kind=kind,
            dest=dest,
            send_eid=send_eid,
        )
        self.next_seq += 1
        self.last_event_rt = rt
        self.last_event_lt = lt
        return event, rt


class Simulation:
    """The simulator: one network, one workload-driven execution."""

    def __init__(
        self,
        network: Network,
        *,
        seed: int = 0,
        loss_detection_delay: float = 5.0,
        confirm_deliveries: bool = False,
        faults: Optional[FaultPlan] = None,
        retransmit: Optional[RetransmitPolicy] = None,
    ):
        self.network = network
        self.spec = network.spec
        self.rng = random.Random(seed)
        self.trace = ExecutionTrace()
        self.loss_detection_delay = loss_detection_delay
        self.retransmit = retransmit
        #: whether to signal on_delivery_confirmed (needed by unreliable-mode
        #: estimators; reliable runs skip the bookkeeping).  A retransmit
        #: policy requires confirmations, so it forces this on.
        self.confirm_deliveries = confirm_deliveries or retransmit is not None
        #: bound fault-plan runtime; its RNG stream is disjoint from self.rng,
        #: so a no-op plan leaves the execution bit-identical
        self.faults: Optional[ActiveFaults] = (
            faults.bind(network) if faults is not None else None
        )
        self.now = 0.0
        # lazy import, as in EfficientCSA: repro.testing imports this module
        from ..testing.invariants import debug_checks_enabled

        #: REPRO_DEBUG: assert that simulated time never moves backwards
        self._debug_checks = debug_checks_enabled()
        self._queue: List[Tuple[float, int, Callable[[], None]]] = []
        self._tiebreak = itertools.count()
        self.processors: Dict[ProcessorId, SimProcessor] = {}
        for name in network.processors:
            clock = network.clocks[name]
            if self.faults is not None:
                clock = self.faults.clock_for(name, clock)
            self.processors[name] = SimProcessor(name, clock)
        #: last scheduled arrival per directed link, for FIFO clamping
        self._last_arrival: Dict[Tuple[ProcessorId, ProcessorId], float] = {}
        #: workload hook invoked at each delivery: fn(sim, receive_event, info)
        self.on_message: Optional[Callable[["Simulation", Event, object], None]] = None
        #: workload hook invoked on each detected loss: fn(sim, send_event, info)
        self.on_loss: Optional[Callable[["Simulation", Event, object], None]] = None
        self.messages_sent = 0
        self.messages_lost = 0
        self.messages_duplicated = 0
        #: application sends swallowed because the sender was crashed
        self.sends_suppressed = 0
        #: retransmissions issued by the retransmit policy
        self.retransmissions = 0
        #: timeouts that fired for messages actually delivered (false alarms)
        self.false_loss_signals = 0
        #: per-directed-link counters (src, dest) -> LinkCounters
        self.link_stats: Dict[Tuple[ProcessorId, ProcessorId], LinkCounters] = {}
        #: sends awaiting a delivery confirmation under the retransmit policy
        self._await_ack: Dict[EventId, Message] = {}
        # churn extension: state corruptions and late joins fire as ordinary
        # scheduled actions (estimators are attached before run_until drains
        # the queue, so the lazily bound hooks see them)
        if self.faults is not None:
            for inj in self.faults.corruptions():
                self.schedule_at(inj.at, lambda inj=inj: self._do_corrupt(inj))
            for inj in self.faults.late_joins().values():
                self.schedule_at(inj.at, lambda inj=inj: self._do_join(inj))

    # -- setup -------------------------------------------------------------------

    def attach_estimators(
        self, name: str, factory: Callable[[ProcessorId, object], Estimator]
    ) -> None:
        """Create one estimator per processor under payload channel ``name``."""
        for proc in self.processors.values():
            if name in proc.estimators:
                raise SimulationError(f"estimator channel {name!r} already attached")
            proc.estimators[name] = factory(proc.name, self.spec)

    def estimator(self, proc: ProcessorId, name: str) -> Estimator:
        return self.processors[proc].estimators[name]

    # -- scheduling ----------------------------------------------------------------

    def schedule_at(self, rt: float, action: Callable[[], None]) -> None:
        if rt < self.now:
            raise SimulationError(f"cannot schedule in the past ({rt} < {self.now})")
        heapq.heappush(self._queue, (rt, next(self._tiebreak), action))

    def schedule_after(self, delay: float, action: Callable[[], None]) -> None:
        self.schedule_at(self.now + delay, action)

    def schedule_local(
        self, proc: ProcessorId, lt: float, action: Callable[[], None]
    ) -> None:
        """Schedule an action when ``proc``'s own clock shows ``lt``."""
        rt = self.processors[proc].clock.rt(lt)
        self.schedule_at(rt, action)

    def local_time(self, proc: ProcessorId) -> float:
        return self.processors[proc].clock.lt(self.now)

    def crashed(self, proc: ProcessorId) -> bool:
        """Whether ``proc`` is inside an injected crash window right now."""
        return self.faults is not None and self.faults.crashed(proc, self.now)

    def _link_counters(self, src: ProcessorId, dest: ProcessorId) -> LinkCounters:
        key = (src, dest)
        counters = self.link_stats.get(key)
        if counters is None:
            counters = self.link_stats[key] = LinkCounters()
        return counters

    # -- event generation --------------------------------------------------------------

    def internal_event(self, proc: ProcessorId) -> Optional[Event]:
        """An internal point at ``proc`` (used to raise relative system speed).

        Suppressed (returns ``None``) while ``proc`` is crashed.
        """
        if self.crashed(proc):
            self.faults.note_crash_suppressed_internal()
            return None
        sp = self.processors[proc]
        event, rt = sp.make_event(self.now, EventKind.INTERNAL)
        self.trace.record(event, rt)
        for estimator in sp.estimators.values():
            estimator.on_internal(event)
        return event

    def send(
        self,
        src: ProcessorId,
        dest: ProcessorId,
        info: object = None,
        *,
        _attempt: int = 0,
    ) -> Optional[Event]:
        """Send an application message now; returns the send event.

        Returns ``None`` (no event, no message) when the sender is inside
        an injected crash window.
        """
        link = self.network.link_between(src, dest)
        if self.crashed(src):
            self.faults.note_crash_suppressed_send()
            self.sends_suppressed += 1
            return None
        sp = self.processors[src]
        send_event, send_rt = sp.make_event(self.now, EventKind.SEND, dest=dest)
        self.trace.record(send_event, send_rt)
        payloads = {
            name: estimator.on_send(send_event)
            for name, estimator in sp.estimators.items()
        }
        # Byzantine tampering rewrites payload *contents* only - the event
        # trace and all baseline RNG draws are untouched, so a run with a
        # liar is timing-identical to the honest run.
        if self.faults is not None:
            payloads = self.faults.tamper_payloads(send_event, self.now, payloads)
        message = Message(
            send_event=send_event, payloads=payloads, info=info, attempt=_attempt
        )
        self.messages_sent += 1
        self._link_counters(src, dest).sent += 1
        if self.retransmit is not None:
            self._await_ack[send_event.eid] = message
            self.schedule_after(
                self.retransmit.timeout_for(_attempt),
                lambda: self._ack_timeout(message),
            )
        # baseline i.i.d. loss draw - same self.rng order as a fault-free run
        if link.loss_prob > 0 and self.rng.random() < link.loss_prob:
            self._drop(message, at_rt=send_rt)
            return send_event
        # injected drops (partition, correlated burst) use the fault stream only
        if self.faults is not None and self.faults.drop_in_transit(
            src, dest, send_rt
        ):
            self._drop(message, at_rt=send_rt)
            return send_event
        excursion_extra = (
            self.faults.delay_excursion(src, dest, send_rt)
            if self.faults is not None
            else None
        )
        arrival = self._fifo_arrival(
            src, dest, send_rt, link, excursion_extra=excursion_extra
        )
        self.schedule_at(arrival, partial(self._deliver, message, arrival))
        if self.faults is not None and self.faults.duplicated(src, dest, send_rt):
            # the echo trails the original; it is discarded at the receiver
            # without creating a receive event, so it does not constrain the
            # link's FIFO arrival floor for genuine messages
            echo = arrival + max(self.faults.echo_delay(arrival - send_rt), _NUDGE)
            self.schedule_at(echo, lambda: self._deliver_duplicate(message))
        return send_event

    def _fifo_arrival(
        self,
        src: ProcessorId,
        dest: ProcessorId,
        send_rt: float,
        link: LinkConfig,
        *,
        excursion_extra: Optional[float] = None,
    ) -> float:
        spec = link.spec_for(src)
        span = spec.slack if spec.is_bounded else link.unbounded_span
        # sample with a small interior margin so FIFO nudges stay in spec;
        # the draw happens even under an excursion so the baseline stream
        # stays aligned for everything the fault does not touch
        margin = 0.02 * span
        delay = spec.lower + margin + self.rng.random() * max(span - 2 * margin, 0.0)
        if excursion_extra is not None:
            if not spec.is_bounded:
                raise SimulationError(
                    f"delay excursion on ({src!r}, {dest!r}) needs a bounded transit spec"
                )
            # deliberate spec violation: land strictly beyond the upper bound
            delay = spec.upper + excursion_extra
        arrival = send_rt + delay
        key = (src, dest)
        floor = self._last_arrival.get(key, -1.0) + _NUDGE
        if arrival < floor:
            arrival = floor
        if excursion_extra is None:
            if spec.is_bounded and arrival > send_rt + spec.upper:
                if self.faults is not None and self.faults.link_has_delay_excursion(
                    src, dest
                ):
                    # collateral lateness: FIFO behind an out-of-spec arrival
                    # forces this message out of spec as well; let it through
                    # (it is part of the injected violation)
                    self._last_arrival[key] = arrival
                    return arrival
                previous = self._last_arrival.get(key, send_rt)
                arrival = 0.5 * (previous + send_rt + spec.upper)
                if arrival <= previous:
                    raise SimulationError(
                        f"cannot schedule FIFO arrival on {key} within transit spec"
                    )
            if arrival < send_rt + spec.lower:
                raise SimulationError(
                    f"arrival violates transit lower bound on {key}"
                )
        self._last_arrival[key] = arrival
        return arrival

    # -- delivery and loss ---------------------------------------------------------

    def _deliver(self, message: Message, arrival: float) -> None:
        send_event = message.send_event
        dest = send_event.dest
        if self.crashed(dest):
            # the message reached a dead host: lost at the doorstep
            self.faults.note_crash_dropped_arrival()
            self._drop(message, at_rt=arrival, already_sent=True)
            return
        dp = self.processors[dest]
        receive_event, recv_rt = dp.make_event(
            arrival, EventKind.RECEIVE, send_eid=send_event.eid
        )
        self.trace.record(receive_event, recv_rt)
        for name, estimator in dp.estimators.items():
            estimator.on_receive(receive_event, message.payloads.get(name))
        self._await_ack.pop(send_event.eid, None)
        if self.confirm_deliveries:
            for estimator in self.processors[send_event.proc].estimators.values():
                estimator.on_delivery_confirmed(send_event.eid)
        if self.on_message is not None:
            self.on_message(self, receive_event, message.info)

    def _deliver_duplicate(self, message: Message) -> None:
        """A duplicated copy arrives: the link layer discards it (at-most-once)."""
        send_event = message.send_event
        self.messages_duplicated += 1
        self._link_counters(send_event.proc, send_event.dest).duplicated += 1

    def _drop(
        self, message: Message, *, at_rt: float, already_sent: bool = False
    ) -> None:
        """Record a dropped message and arrange for its loss to be noticed.

        ``already_sent`` distinguishes drops at arrival time (crashed
        receiver) from drops at send time; both are recorded in the trace
        immediately, so ``messages_lost`` and ``trace.lost_sends`` agree at
        every instant - including at quiesce, when a drop would previously
        go unrecorded if the run ended inside the detection delay.
        """
        send_event = message.send_event
        self.messages_lost += 1
        self._link_counters(send_event.proc, send_event.dest).lost += 1
        self.trace.record_lost(send_event.eid)
        if self.retransmit is not None:
            return  # the armed ack timeout is the detection mechanism
        # legacy oracle: signal the sender after the detection delay
        if math.isfinite(self.loss_detection_delay):
            self.schedule_at(
                at_rt + self.loss_detection_delay,
                lambda: self._signal_loss(message),
            )
        else:
            # an infinite delay models "no detection mechanism": schedule
            # beyond any reachable time so the signal never fires
            heapq.heappush(
                self._queue,
                (math.inf, next(self._tiebreak), lambda: self._signal_loss(message)),
            )

    def _signal_loss(self, message: Message) -> None:
        """Tell the sender's estimators (and the workload) about a loss."""
        send_event = message.send_event
        for estimator in self.processors[send_event.proc].estimators.values():
            estimator.on_loss_detected(send_event.eid)
        if self.on_loss is not None:
            self.on_loss(self, send_event, message.info)

    def _ack_timeout(self, message: Message) -> None:
        """Retransmit-policy timer: no confirmation in time means presumed lost."""
        send_event = message.send_event
        if self._await_ack.pop(send_event.eid, None) is None:
            return  # confirmed in time - nothing to do
        if send_event.eid not in self.trace.lost_sends:
            # the message is merely late (still in flight); the loss signal
            # is a false alarm - sound (flags on delivered messages are
            # ignored downstream) but worth counting
            self.false_loss_signals += 1
        self._signal_loss(message)
        if message.attempt >= self.retransmit.max_retries:
            return  # give up: graceful degradation, not an error
        src, dest = send_event.proc, send_event.dest
        if self.crashed(src):
            return  # a dead sender retries nothing
        retry = self.send(src, dest, message.info, _attempt=message.attempt + 1)
        if retry is not None:
            self.retransmissions += 1

    # -- churn: state corruption and late joins ---------------------------------------

    def _do_corrupt(self, inj) -> None:
        """Scramble one subsystem of every self-healing estimator at a victim.

        Deterministic per (victim, scope, time, channel); estimators without
        ``self_heal`` refuse the scramble (corrupting a non-healing estimator
        tests nothing but a crash) and the injection counts as skipped.
        """
        sp = self.processors[inj.proc]
        scrambled = False
        for name, estimator in sp.estimators.items():
            rng = random.Random(f"corrupt|{inj.proc}|{inj.scope}|{inj.at}|{name}")
            if scramble_estimator(estimator, inj.scope, rng):
                scrambled = True
        self.faults.injected[
            "corruptions" if scrambled else "corruptions_skipped"
        ] += 1

    def _do_join(self, inj) -> None:
        """Admit a late joiner via a sponsor bootstrap handshake.

        The sponsor sends an ordinary application message to the joiner (so
        the handshake rides the normal payload/FIFO/loss machinery); each
        sponsor estimator that supports it exports a snapshot *after* that
        send - covering it as an undelivered live point - and the joiner's
        matching estimator adopts it immediately (the snapshot travels out
        of band; only the records ride the message).  With the sponsor
        crashed or the snapshot unsupported, the joiner comes up cold and
        learns through regular traffic instead.
        """
        joiner, sponsor = inj.proc, inj.sponsor
        if self.faults.crashed(sponsor, self.now):
            self.faults.injected["joins_cold"] += 1
            return
        send_event = self.send(sponsor, joiner)
        if send_event is None:
            self.faults.injected["joins_cold"] += 1
            return
        jp = self.processors[joiner]
        sp = self.processors[sponsor]
        bootstrapped = False
        for name, estimator in jp.estimators.items():
            sponsor_est = sp.estimators.get(name)
            snap_fn = getattr(sponsor_est, "bootstrap_snapshot", None)
            adopt_fn = getattr(estimator, "bootstrap_from", None)
            if snap_fn is None or adopt_fn is None:
                continue
            if adopt_fn(snap_fn()):
                bootstrapped = True
        self.faults.injected[
            "joins_bootstrapped" if bootstrapped else "joins_cold"
        ] += 1

    # -- main loop -----------------------------------------------------------------

    def run_until(self, rt_limit: float, *, max_actions: Optional[int] = None) -> int:
        """Process queued actions until ``rt_limit``; returns actions executed.

        One action at a time, in ``(rt, tie)`` order: a delivery is an
        action like any other (:meth:`_deliver` bound to its message).
        """
        executed = 0
        queue = self._queue
        # a call that spends its action budget leaves time at the last
        # executed action: due actions may remain, and jumping to rt_limit
        # would make the next call move ``now`` backwards
        while max_actions is None or executed < max_actions:
            if not queue or queue[0][0] > rt_limit:
                # drained up to rt_limit: nothing can happen before it
                self.now = max(self.now, rt_limit)
                break
            rt, _tie, action = heapq.heappop(queue)
            self._advance(rt)
            action()
            executed += 1
        return executed

    def _advance(self, rt: float) -> None:
        """Move simulated time to the action about to execute."""
        if self._debug_checks and rt < self.now:
            raise SimulationError(
                f"simulated time moved backwards ({rt} < {self.now})"
            )
        self.now = rt

    def pending_actions(self) -> int:
        return len(self._queue)
