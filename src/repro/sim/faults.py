"""Fault injection: declarative, seeded fault plans for chaos testing.

The paper's model (and the seed simulator) is benign: links lose messages
i.i.d., a loss oracle flags every drop, clocks and delays stay inside their
advertised specs.  Real deployments - the regime studied by the
fault-tolerant clock synchronization literature - see processor crashes,
network partitions, *correlated* loss bursts, duplicated packets, and
hardware that wanders outside its datasheet.  This module injects all of
those into an execution from a declarative :class:`FaultPlan`:

* :class:`CrashWindow` - a processor is down over a real-time window.
  Crashes are fail-stop with durable state (a reboot): no events occur at
  the processor while it is down (sends are suppressed, arriving messages
  are lost, internal events skipped), and it resumes with its estimator
  state intact when the window ends.  Out-of-band delivery/loss signals
  are still applied (they mutate durable bookkeeping, not the event log).
* :class:`PartitionWindow` - a link drops every message, both directions,
  over a window.
* :class:`BurstLoss` - correlated loss via the Gilbert-Elliott two-state
  channel: each directed link is in a *good* or *bad* state, transitions
  happen per message, and the per-message loss probability depends on the
  state.  This complements the engine's i.i.d. ``loss_prob``.
* :class:`Duplication` - a delivered message is also echoed a second time.
  The paper's model requires at-most-once delivery, so the engine's link
  layer discards the echo at the receiver (and counts it); the echo never
  becomes a receive event, so FIFO ordering of genuine messages holds.
* :class:`DelayExcursion` - actual delays *exceed* the advertised
  :class:`~repro.core.specs.TransitSpec` upper bound during a window.
  This deliberately violates the preconditions of Theorem 2.1: downstream
  estimators may derive a negative cycle and must degrade gracefully
  (see :class:`~repro.core.csa.EfficientCSA` ``degraded_mode``).
* :class:`DriftExcursion` - a clock's rate leaves its advertised
  :class:`~repro.core.specs.DriftSpec` band during a window (realised by
  :class:`~repro.sim.clock.ExcursionClock`).  Also out-of-spec.
* :class:`ByzantineProcessor` - the processor *lies*.  Unlike every fault
  above, nothing about the execution's timing changes: the processor's
  clock, sends and receives are all genuine, but the **history payloads**
  it ships are tampered with on the way out - claimed timestamps skewed
  (``lie_timestamps``), skewed differently per neighbor (``equivocate``),
  records silently dropped (``truncate``), or events invented out of thin
  air (``fabricate``).  Because only payload *contents* change, a
  Byzantine run's event trace is bit-identical to the corresponding
  fault-free run; only estimator states diverge - which is exactly what
  makes the injection a sharp test of the hardened estimator
  (:mod:`repro.core.validate`, ``EfficientCSA(suspicion=...)``).
  A Byzantine processor lies about its *own* history; it cannot forge
  other processors' records wholesale (no signatures exist in this model,
  but the validator treats third-party records it relays as evidence
  *against the relay* only in shapes an honest relay could never produce).

**RNG isolation.**  A :class:`FaultPlan` carries its own seed; all fault
decisions (burst-loss transitions, duplication draws, echo delays) come
from that private stream.  The engine's baseline draws (i.i.d. loss,
in-spec delay sampling) keep their order, so attaching a plan with no
injections leaves an execution *bit-identical* to a run without one - the
chaos suite asserts this.

**Retransmission.**  :class:`RetransmitPolicy` turns the Sec 3.3 loss
*assumption* into an actual protocol: every application send arms a
timeout; if no delivery confirmation arrives in time the sender signals
``on_loss_detected`` (sound even when the message is merely late - flags
on delivered messages are ignored downstream) and resends the application
message with a fresh payload, with exponential backoff up to a retry cap.
"""

from __future__ import annotations

import dataclasses
import math
import random
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..core.errors import SimulationError
from ..core.events import Event, EventId, EventKind, ProcessorId, link_id
from ..core.history import HistoryPayload

__all__ = [
    "CrashWindow",
    "PartitionWindow",
    "BurstLoss",
    "Duplication",
    "DelayExcursion",
    "DriftExcursion",
    "ByzantineProcessor",
    "BYZANTINE_MODES",
    "StateCorruption",
    "LateJoin",
    "CORRUPTION_SCOPES",
    "scramble_estimator",
    "FaultPlan",
    "ActiveFaults",
    "RetransmitPolicy",
]


def _check_window(start: float, end: float) -> None:
    if not (0 <= start < end):
        raise SimulationError(f"fault window requires 0 <= start < end, got [{start}, {end})")


@dataclass(frozen=True)
class CrashWindow:
    """Processor ``proc`` is down (fail-stop, durable state) over ``[start, end)``."""

    proc: ProcessorId
    start: float
    end: float

    def __post_init__(self):
        _check_window(self.start, self.end)


@dataclass(frozen=True)
class PartitionWindow:
    """Link ``a -- b`` drops every message, both directions, over ``[start, end)``."""

    a: ProcessorId
    b: ProcessorId
    start: float
    end: float

    def __post_init__(self):
        _check_window(self.start, self.end)


@dataclass(frozen=True)
class BurstLoss:
    """Gilbert-Elliott correlated loss on link ``a -- b`` over ``[start, end)``.

    Each directed half of the link keeps a channel state in {good, bad}.
    Per message the state first transitions (``p_enter``: good -> bad,
    ``p_exit``: bad -> good), then the message is dropped with the state's
    loss probability.  ``1 / p_exit`` is the mean burst length in messages.
    """

    a: ProcessorId
    b: ProcessorId
    p_enter: float = 0.05
    p_exit: float = 0.3
    loss_good: float = 0.0
    loss_bad: float = 0.9
    start: float = 0.0
    end: float = math.inf

    def __post_init__(self):
        if not (0 <= self.start < self.end):
            raise SimulationError(f"bad burst-loss window [{self.start}, {self.end})")
        for name in ("p_enter", "p_exit", "loss_good", "loss_bad"):
            value = getattr(self, name)
            if not (0 <= value <= 1):
                raise SimulationError(f"{name} must be in [0, 1], got {value}")


@dataclass(frozen=True)
class Duplication:
    """Each delivered message on ``a -- b`` is echoed with probability ``prob``."""

    a: ProcessorId
    b: ProcessorId
    prob: float = 0.2
    start: float = 0.0
    end: float = math.inf

    def __post_init__(self):
        if not (0 <= self.start < self.end):
            raise SimulationError(f"bad duplication window [{self.start}, {self.end})")
        if not (0 <= self.prob <= 1):
            raise SimulationError(f"duplication prob must be in [0, 1], got {self.prob}")


@dataclass(frozen=True)
class DelayExcursion:
    """Out-of-spec delays on link ``a -- b``: actual delay = spec upper + ``extra``.

    Requires the affected direction's transit spec to be bounded (an
    unbounded spec cannot be exceeded).  Violates Theorem 2.1's
    preconditions by construction.
    """

    a: ProcessorId
    b: ProcessorId
    start: float
    end: float
    extra: float = 1.0

    def __post_init__(self):
        _check_window(self.start, self.end)
        if self.extra <= 0:
            raise SimulationError(f"excursion extra must be positive, got {self.extra}")


@dataclass(frozen=True)
class DriftExcursion:
    """Clock of ``proc`` runs at (true rate + ``rate_offset``) over ``[start, end)``.

    The advertised spec is *not* widened - that is the point: the clock
    silently violates its datasheet, exactly the failure the consistency
    check of Theorem 2.1 can expose.
    """

    proc: ProcessorId
    start: float
    end: float
    rate_offset: float = 0.5

    def __post_init__(self):
        _check_window(self.start, self.end)
        if self.rate_offset == 0:
            raise SimulationError("rate_offset must be non-zero for an excursion")


#: the tampering modes a Byzantine processor may combine
BYZANTINE_MODES = frozenset(
    {"lie_timestamps", "equivocate", "truncate", "fabricate"}
)


@dataclass(frozen=True)
class ByzantineProcessor:
    """Processor ``proc`` tampers with outgoing history payloads.

    ``modes`` is a non-empty subset of :data:`BYZANTINE_MODES`:

    * ``lie_timestamps`` - claimed local times of own records are skewed by
      a growing *rate* error: ``claimed = lt + magnitude * (lt - anchor)``
      where ``anchor`` is the local time of the first tampered record.  A
      rate skew is chosen deliberately: a *constant* offset lie provably
      cancels around every cycle of the sync graph (each cycle enters and
      leaves the liar equally often), so it is both undetectable and
      harmless for external synchronization.  Only inconsistent lies can
      poison bounds - and those are exactly what negative-cycle detection
      catches.
    * ``equivocate`` - as ``lie_timestamps``, but with a different skew
      factor per destination, so neighbors receive mutually inconsistent
      copies of the same events (detected when relayed copies meet).
    * ``truncate`` - each shipped record is silently dropped with
      probability ``rate`` (receivers see sequence gaps no honest sender
      could produce).
    * ``fabricate`` - with probability ``rate`` per payload, invented
      internal events are appended after the liar's last genuine record,
      squatting on sequence numbers its real future events will also use.

    The same lie for the same event id (and destination, under
    equivocation) is repeated on re-reports, so the liar stays
    *self-consistent* - the hardest case for a validator.  The source is
    never allowed to be Byzantine: its clock defines real time.
    """

    proc: ProcessorId
    modes: Tuple[str, ...] = ("lie_timestamps",)
    start: float = 0.0
    end: float = math.inf
    #: rate-skew magnitude of timestamp lies (claimed extra seconds per
    #: genuine local second since the anchor)
    magnitude: float = 0.5
    #: per-record truncation probability / per-payload fabrication probability
    rate: float = 0.25

    def __post_init__(self):
        object.__setattr__(self, "modes", tuple(self.modes))
        if not (0 <= self.start < self.end):
            raise SimulationError(f"bad byzantine window [{self.start}, {self.end})")
        if not self.modes:
            raise SimulationError("ByzantineProcessor needs at least one mode")
        unknown = set(self.modes) - BYZANTINE_MODES
        if unknown:
            raise SimulationError(
                f"unknown byzantine mode(s) {sorted(unknown)}; "
                f"choose from {sorted(BYZANTINE_MODES)}"
            )
        if self.magnitude <= 0:
            raise SimulationError(
                f"byzantine magnitude must be positive, got {self.magnitude}"
            )
        if not (0 <= self.rate <= 1):
            raise SimulationError(f"byzantine rate must be in [0, 1], got {self.rate}")


#: state-corruption scopes the churn fault model can scramble (which
#: subsystem of a self-healing estimator gets poisoned)
CORRUPTION_SCOPES = ("agdp", "history", "ledger")


@dataclass(frozen=True)
class StateCorruption:
    """Estimator state of ``proc`` is scrambled in place at real time ``at``.

    The self-stabilization fault model (Charron-Bost & Penet de Monterno
    style): nothing about the execution changes - no message is lost, no
    clock drifts - but the victim's *internal state* is arbitrarily
    corrupted.  ``scope`` picks the poisoned subsystem (see
    :data:`CORRUPTION_SCOPES`): AGDP distance matrix, history
    frontier/buffers, or the suspicion ledger.  A self-healing estimator
    (``EfficientCSA(self_heal=True)``) must detect the corruption at its
    next event hook and rebuild from its durable logs; re-convergence time
    is the number of events (or real time) until Theorem 2.1 bounds hold
    again.  Corrupting a non-self-healing estimator is refused (counted
    as skipped), since it could never recover.
    """

    proc: ProcessorId
    at: float
    scope: str = "agdp"

    def __post_init__(self):
        if self.at < 0:
            raise SimulationError(f"corruption time must be >= 0, got {self.at}")
        if self.scope not in CORRUPTION_SCOPES:
            raise SimulationError(
                f"unknown corruption scope {self.scope!r}; "
                f"choose from {CORRUPTION_SCOPES}"
            )


@dataclass(frozen=True)
class LateJoin:
    """``proc`` is absent until ``at``, then admitted via ``sponsor``.

    Before ``at`` the processor behaves exactly like a crashed one (no
    events, arrivals dropped).  At ``at`` the sponsor - which must be a
    link neighbor - sends a handshake message carrying its bootstrap
    snapshot (:meth:`~repro.core.csa.EfficientCSA.bootstrap_snapshot`);
    the joiner adopts it and converges without replaying the run.  The
    source cannot join late: its clock defines real time.
    """

    proc: ProcessorId
    at: float
    sponsor: ProcessorId

    def __post_init__(self):
        if self.at < 0:
            raise SimulationError(f"join time must be >= 0, got {self.at}")
        if self.proc == self.sponsor:
            raise SimulationError(f"{self.proc!r} cannot sponsor its own join")


def scramble_estimator(estimator, scope: str, rng: random.Random) -> bool:
    """Corrupt one subsystem of ``estimator`` in a detectably broken way.

    Returns ``True`` when state was actually scrambled; ``False`` when the
    corruption is refused (estimator is not self-healing, or the targeted
    subsystem holds nothing to corrupt yet).  Every scramble is guaranteed
    to trip the estimator's structural audit
    (:meth:`~repro.core.csa.EfficientCSA.self_check`): the AGDP scope
    poisons matrix diagonals, the history scope drags the knowledge
    frontier below the live tracker's, and the ledger scope plants a
    negative suspicion score.
    """
    if not getattr(estimator, "self_heal", False):
        return False
    if scope not in CORRUPTION_SCOPES:
        raise SimulationError(
            f"unknown corruption scope {scope!r}; choose from {CORRUPTION_SCOPES}"
        )
    if scope == "agdp":
        return _scramble_agdp(estimator.agdp, rng)
    if scope == "history":
        return _scramble_history(estimator, rng)
    return _scramble_ledger(estimator, rng)


def _scramble_agdp(agdp, rng: random.Random) -> bool:
    nodes = sorted(agdp.nodes)
    if not nodes:
        return False
    dist = getattr(agdp, "_dist", None)
    if dist is not None:  # dict backend
        for x in nodes:
            row = dist[x]
            for y in list(row):
                if y != x and math.isfinite(row[y]):
                    row[y] += rng.uniform(-2.0, 2.0)
            row[x] = rng.uniform(0.5, 3.0)  # nonzero diagonal: the detector
        return True
    matrix, n = agdp._matrix, agdp._n
    for i in range(n):
        for j in range(n):
            if i == j:
                matrix[i, j] = rng.uniform(0.5, 3.0)
            elif math.isfinite(matrix[i, j]):
                matrix[i, j] = matrix[i, j] + rng.uniform(-2.0, 2.0)
    return n > 0


def _scramble_history(estimator, rng: random.Random) -> bool:
    history = estimator.history
    victims = [p for p in estimator.live.processors if history.known_seq(p) >= 0]
    if not victims:
        return False
    # drag the frontier strictly below the live tracker's (the detector)
    # and trash the buffer indexes; recovery re-derives both from the log
    for proc in victims:
        history._known[proc] = max(-1, history.known_seq(proc) - rng.randint(1, 3))
    history._buffer.clear()
    history._lacking.clear()
    for pending in history._pending.values():
        pending.clear()
    return True


def _scramble_ledger(estimator, rng: random.Random) -> bool:
    tracker = estimator.suspicion
    if tracker is None:
        return False
    others = sorted(p for p in estimator.spec.processors if p != estimator.proc)
    if not others:
        return False
    tracker.scores[rng.choice(others)] = -rng.uniform(1.0, 5.0)
    return True


#: injection kinds that violate the advertised specification
_OUT_OF_SPEC = (DelayExcursion, DriftExcursion)

#: injection kinds that are adversarial (lying), not merely out-of-spec
_ADVERSARIAL = (ByzantineProcessor,)


@dataclass(frozen=True)
class RetransmitPolicy:
    """Timeout + exponential backoff + max-retries recovery (Sec 3.3 made real).

    Parameters
    ----------
    timeout:
        Real time the sender waits for a delivery confirmation before
        declaring the message lost.  Choose comfortably above the link's
        transit upper bound to avoid false loss signals (false signals are
        *sound* - they only discard information - but wasteful).
    backoff:
        Multiplier applied to the timeout on each successive retry.
    max_retries:
        Retries per original application message; after these are
        exhausted the message is abandoned (history re-reports its records
        on the next regular send, so abandonment degrades, not corrupts).
    """

    timeout: float = 1.0
    backoff: float = 2.0
    max_retries: int = 3

    def __post_init__(self):
        if self.timeout <= 0:
            raise SimulationError(f"retransmit timeout must be positive, got {self.timeout}")
        if self.backoff < 1:
            raise SimulationError(f"retransmit backoff must be >= 1, got {self.backoff}")
        if self.max_retries < 0:
            raise SimulationError(f"max_retries must be >= 0, got {self.max_retries}")

    def timeout_for(self, attempt: int) -> float:
        """The ack deadline for the ``attempt``-th transmission (0-based)."""
        return self.timeout * (self.backoff ** attempt)


@dataclass(frozen=True)
class FaultPlan:
    """A declarative, seeded timeline of fault injections.

    The plan is immutable and bound to one simulation at a time via
    :meth:`bind`, which creates the runtime state (private RNG stream,
    Gilbert-Elliott channel states, counters).
    """

    seed: int = 0
    injections: Tuple[object, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "injections", tuple(self.injections))
        known = (
            CrashWindow,
            PartitionWindow,
            BurstLoss,
            Duplication,
            DelayExcursion,
            DriftExcursion,
            ByzantineProcessor,
            StateCorruption,
            LateJoin,
        )
        for injection in self.injections:
            if not isinstance(injection, known):
                raise SimulationError(
                    f"unknown fault injection type {type(injection).__name__}"
                )

    @property
    def is_noop(self) -> bool:
        return not self.injections

    def of_kind(self, kind) -> List[object]:
        return [i for i in self.injections if isinstance(i, kind)]

    def has_out_of_spec(self) -> bool:
        """Whether any injection violates the advertised specification."""
        return any(isinstance(i, _OUT_OF_SPEC) for i in self.injections)

    def out_of_spec_windows(self) -> List[Tuple[float, float]]:
        """Real-time windows during which some out-of-spec fault is active."""
        return [
            (i.start, i.end) for i in self.injections if isinstance(i, _OUT_OF_SPEC)
        ]

    def has_adversarial(self) -> bool:
        """Whether any injection makes a processor lie (Byzantine)."""
        return any(isinstance(i, _ADVERSARIAL) for i in self.injections)

    def byzantine_procs(self) -> Tuple[ProcessorId, ...]:
        """The processors with a Byzantine injection, sorted, deduplicated."""
        return tuple(
            sorted({i.proc for i in self.injections if isinstance(i, ByzantineProcessor)})
        )

    def corruptions(self) -> List["StateCorruption"]:
        """The state-corruption injections, in plan order."""
        return self.of_kind(StateCorruption)

    def late_joins(self) -> List["LateJoin"]:
        """The late-join injections, in plan order."""
        return self.of_kind(LateJoin)

    def bind(self, network) -> "ActiveFaults":
        """Validate the plan against ``network`` and create runtime state."""
        return ActiveFaults(self, network)

    # -- randomized schedules ------------------------------------------------------

    @classmethod
    def random(
        cls,
        seed: int,
        network,
        duration: float,
        *,
        crashes: int = 2,
        partitions: int = 2,
        burst_links: int = 2,
        duplication_links: int = 1,
        crash_source: bool = False,
        mean_outage: float = 0.1,
    ) -> "FaultPlan":
        """A seeded randomized fault schedule for chaos/soak runs.

        Draws ``crashes`` crash windows, ``partitions`` link partitions,
        Gilbert-Elliott burst loss on ``burst_links`` links and duplication
        on ``duplication_links`` links, with outage windows averaging
        ``mean_outage * duration``.  The source is never crashed unless
        ``crash_source`` is set (crashing the root merely widens bounds,
        which makes soak assertions vacuous).  No out-of-spec injections
        are generated: randomized soak runs must keep Theorem 2.1's
        preconditions so soundness stays assertable.
        """
        rng = random.Random(seed)
        procs = [p for p in network.processors if crash_source or p != network.source]
        links = sorted(network.links)
        injections: List[object] = []

        def window() -> Tuple[float, float]:
            length = min(duration, rng.expovariate(1.0 / (mean_outage * duration)))
            length = max(length, 0.01 * duration)
            start = rng.uniform(0.0, max(duration - length, 1e-6))
            return start, start + length

        for _ in range(min(crashes, len(procs))):
            start, end = window()
            injections.append(CrashWindow(rng.choice(procs), start, end))
        for _ in range(min(partitions, len(links))):
            start, end = window()
            a, b = rng.choice(links)
            injections.append(PartitionWindow(a, b, start, end))
        for a, b in rng.sample(links, min(burst_links, len(links))):
            injections.append(
                BurstLoss(
                    a,
                    b,
                    p_enter=rng.uniform(0.02, 0.1),
                    p_exit=rng.uniform(0.2, 0.5),
                    loss_bad=rng.uniform(0.7, 0.95),
                )
            )
        for a, b in rng.sample(links, min(duplication_links, len(links))):
            injections.append(Duplication(a, b, prob=rng.uniform(0.1, 0.3)))
        return cls(seed=rng.randrange(2**31), injections=tuple(injections))


class ActiveFaults:
    """Runtime fault state bound to one simulation run.

    All randomness comes from the plan's private stream; the engine's own
    RNG is never consulted here.
    """

    def __init__(self, plan: FaultPlan, network):
        self.plan = plan
        self.rng = random.Random(plan.seed)
        procs = set(network.processors)
        links = set(network.links)
        #: per-processor crash windows
        self._crashes: Dict[ProcessorId, List[Tuple[float, float]]] = {}
        #: per-canonical-link partition windows
        self._partitions: Dict[Tuple[ProcessorId, ProcessorId], List[Tuple[float, float]]] = {}
        #: per-canonical-link burst-loss injections and per-directed-link state
        self._bursts: Dict[Tuple[ProcessorId, ProcessorId], BurstLoss] = {}
        self._burst_bad: Dict[Tuple[ProcessorId, ProcessorId], bool] = {}
        self._duplications: Dict[Tuple[ProcessorId, ProcessorId], Duplication] = {}
        self._delay_excursions: Dict[Tuple[ProcessorId, ProcessorId], List[DelayExcursion]] = {}
        self._drift_excursions: Dict[ProcessorId, List[DriftExcursion]] = {}
        #: per-processor Byzantine injection (at most one per processor)
        self._byzantine: Dict[ProcessorId, ByzantineProcessor] = {}
        #: state-corruption injections, in plan order
        self._corruptions: List[StateCorruption] = []
        #: per-processor late-join injection (at most one per processor)
        self._late_joins: Dict[ProcessorId, LateJoin] = {}
        #: cached claimed local time per (event id, destination-or-None)
        self._lie_lt: Dict[Tuple[EventId, Optional[ProcessorId]], float] = {}
        #: local time of the first tampered record per liar (lie anchor)
        self._lie_anchor: Dict[ProcessorId, float] = {}

        def check_proc(proc):
            if proc not in procs:
                raise SimulationError(f"fault plan references unknown processor {proc!r}")

        def check_link(a, b):
            lid = link_id(a, b)
            if lid not in links:
                raise SimulationError(f"fault plan references unknown link {lid}")
            return lid

        for injection in plan.injections:
            if isinstance(injection, CrashWindow):
                check_proc(injection.proc)
                self._crashes.setdefault(injection.proc, []).append(
                    (injection.start, injection.end)
                )
            elif isinstance(injection, PartitionWindow):
                lid = check_link(injection.a, injection.b)
                self._partitions.setdefault(lid, []).append(
                    (injection.start, injection.end)
                )
            elif isinstance(injection, BurstLoss):
                lid = check_link(injection.a, injection.b)
                if lid in self._bursts:
                    raise SimulationError(f"duplicate burst-loss injection on link {lid}")
                self._bursts[lid] = injection
                self._burst_bad[(injection.a, injection.b)] = False
                self._burst_bad[(injection.b, injection.a)] = False
            elif isinstance(injection, Duplication):
                lid = check_link(injection.a, injection.b)
                if lid in self._duplications:
                    raise SimulationError(f"duplicate duplication injection on link {lid}")
                self._duplications[lid] = injection
            elif isinstance(injection, DelayExcursion):
                lid = check_link(injection.a, injection.b)
                self._delay_excursions.setdefault(lid, []).append(injection)
            elif isinstance(injection, DriftExcursion):
                check_proc(injection.proc)
                if injection.proc == network.source:
                    raise SimulationError(
                        "cannot inject a drift excursion at the source: its clock "
                        "defines real time"
                    )
                self._drift_excursions.setdefault(injection.proc, []).append(injection)
            elif isinstance(injection, ByzantineProcessor):
                check_proc(injection.proc)
                if injection.proc == network.source:
                    raise SimulationError(
                        "cannot make the source Byzantine: its clock defines "
                        "real time and every estimator must trust it"
                    )
                if injection.proc in self._byzantine:
                    raise SimulationError(
                        f"duplicate Byzantine injection for processor {injection.proc!r}"
                    )
                self._byzantine[injection.proc] = injection
            elif isinstance(injection, StateCorruption):
                check_proc(injection.proc)
                self._corruptions.append(injection)
            elif isinstance(injection, LateJoin):
                check_proc(injection.proc)
                check_proc(injection.sponsor)
                check_link(injection.proc, injection.sponsor)
                if injection.proc == network.source:
                    raise SimulationError(
                        "the source cannot join late: its clock defines real time"
                    )
                if injection.proc in self._late_joins:
                    raise SimulationError(
                        f"duplicate late-join injection for processor {injection.proc!r}"
                    )
                self._late_joins[injection.proc] = injection
        #: counters of injected faults, by kind, for reporting
        self.injected: Dict[str, int] = {
            "crash_suppressed_sends": 0,
            "crash_suppressed_internal": 0,
            "crash_dropped_arrivals": 0,
            "partition_drops": 0,
            "burst_drops": 0,
            "duplicates": 0,
            "delay_excursions": 0,
            "tampered_payloads": 0,
            "lied_timestamps": 0,
            "equivocations": 0,
            "truncated_records": 0,
            "fabricated_records": 0,
            "corruptions": 0,
            "corruptions_skipped": 0,
            "joins_bootstrapped": 0,
            "joins_cold": 0,
        }

    # -- queries the engine makes --------------------------------------------------

    @staticmethod
    def _in_window(windows: Iterable[Tuple[float, float]], rt: float) -> bool:
        return any(start <= rt < end for start, end in windows)

    def crashed(self, proc: ProcessorId, rt: float) -> bool:
        join = self._late_joins.get(proc)
        if join is not None and rt < join.at:
            # a not-yet-joined processor behaves exactly like a crashed one:
            # no events occur at it and arrivals are dropped
            return True
        windows = self._crashes.get(proc)
        return bool(windows) and self._in_window(windows, rt)

    def corruptions(self) -> List[StateCorruption]:
        return list(self._corruptions)

    def late_joins(self) -> Dict[ProcessorId, LateJoin]:
        return dict(self._late_joins)

    def crash_windows(self, proc: ProcessorId) -> List[Tuple[float, float]]:
        return list(self._crashes.get(proc, ()))

    def drop_in_transit(
        self, src: ProcessorId, dest: ProcessorId, rt: float
    ) -> Optional[str]:
        """Partition / burst-loss verdict for a message entering the link now.

        Returns a reason string when the message is dropped, else ``None``.
        Gilbert-Elliott state transitions happen here, once per message on
        a burst-configured link, drawing only from the fault stream.
        """
        lid = link_id(src, dest)
        windows = self._partitions.get(lid)
        if windows and self._in_window(windows, rt):
            self.injected["partition_drops"] += 1
            return "partition"
        burst = self._bursts.get(lid)
        if burst is not None and burst.start <= rt < burst.end:
            key = (src, dest)
            bad = self._burst_bad[key]
            if bad:
                if self.rng.random() < burst.p_exit:
                    bad = False
            else:
                if self.rng.random() < burst.p_enter:
                    bad = True
            self._burst_bad[key] = bad
            loss = burst.loss_bad if bad else burst.loss_good
            if loss > 0 and self.rng.random() < loss:
                self.injected["burst_drops"] += 1
                return "burst"
        return None

    def duplicated(self, src: ProcessorId, dest: ProcessorId, rt: float) -> bool:
        dup = self._duplications.get(link_id(src, dest))
        if dup is None or not (dup.start <= rt < dup.end):
            return False
        if self.rng.random() < dup.prob:
            self.injected["duplicates"] += 1
            return True
        return False

    def echo_delay(self, base_delay: float) -> float:
        """Extra delay of a duplicate echo behind the original delivery."""
        return base_delay * self.rng.uniform(0.1, 1.0)

    def link_has_delay_excursion(self, src: ProcessorId, dest: ProcessorId) -> bool:
        """Whether any delay excursion is planned on this link (any window).

        Used by the engine to accept *collateral* out-of-spec arrivals: a
        message queued FIFO behind an excursed arrival may itself land past
        its transit bound after the window closes.
        """
        return bool(self._delay_excursions.get(link_id(src, dest)))

    def delay_excursion(
        self, src: ProcessorId, dest: ProcessorId, rt: float
    ) -> Optional[float]:
        """The active out-of-spec ``extra`` delay for this send, if any."""
        for excursion in self._delay_excursions.get(link_id(src, dest), ()):
            if excursion.start <= rt < excursion.end:
                self.injected["delay_excursions"] += 1
                return excursion.extra
        return None

    def clock_for(self, proc: ProcessorId, base):
        """Wrap ``base`` in an out-of-spec excursion clock when planned."""
        excursions = self._drift_excursions.get(proc)
        if not excursions:
            return base
        from .clock import ExcursionClock

        return ExcursionClock(
            base,
            [(e.start, e.end, e.rate_offset) for e in excursions],
        )

    # -- Byzantine payload tampering -----------------------------------------------

    def tamper_payloads(
        self,
        src: ProcessorId,
        dest: ProcessorId,
        rt: float,
        payloads: Dict[str, object],
    ) -> Dict[str, object]:
        """Apply ``src``'s Byzantine modes to its outgoing payloads, if any.

        When ``src`` has no active Byzantine injection the input mapping is
        returned unchanged and **no randomness is consumed**, so plans
        without adversarial injections keep executions bit-identical.  Only
        :class:`~repro.core.history.HistoryPayload` values are tampered;
        other payload types (e.g. the full-information estimator's
        ``View``) pass through untouched - the full-information reference
        has no hardening and exists to define ground truth, not to survive
        liars.
        """
        byz = self._byzantine.get(src)
        if byz is None or not (byz.start <= rt < byz.end):
            return payloads
        out = {}
        changed = False
        for name, payload in payloads.items():
            tampered = self._tamper_one(byz, dest, payload)
            changed = changed or tampered is not payload
            out[name] = tampered
        if changed:
            self.injected["tampered_payloads"] += 1
        return out

    def _tamper_one(self, byz: ByzantineProcessor, dest: ProcessorId, payload):
        if not isinstance(payload, HistoryPayload):
            return payload
        records: List[Event] = []
        mutated = False
        for record in payload.records:
            if "truncate" in byz.modes and self.rng.random() < byz.rate:
                self.injected["truncated_records"] += 1
                mutated = True
                continue
            if record.eid.proc == byz.proc:
                claimed = self._claimed_lt(byz, dest, record)
                if claimed != record.lt:
                    record = dataclasses.replace(record, lt=claimed)
                    mutated = True
            records.append(record)
        if "fabricate" in byz.modes and self.rng.random() < byz.rate:
            own = [r for r in records if r.eid.proc == byz.proc]
            if own:
                last = max(own, key=lambda r: r.eid.seq)
                lt = max(r.lt for r in own)
                for i in range(1 + (self.rng.random() < 0.5)):
                    lt += self.rng.uniform(0.05, 0.5)
                    records.append(
                        Event(EventId(byz.proc, last.eid.seq + 1 + i), lt, EventKind.INTERNAL)
                    )
                    self.injected["fabricated_records"] += 1
                    mutated = True
        if not mutated:
            return payload
        return HistoryPayload(records=tuple(records), loss_flags=payload.loss_flags)

    def _claimed_lt(self, byz: ByzantineProcessor, dest: ProcessorId, record: Event) -> float:
        """The (cached) lie told about ``record``'s local time to ``dest``.

        Caching per event id - and per destination under equivocation -
        keeps the liar self-consistent across re-reports and
        retransmissions, which is the hardest case for the validator.
        """
        lying = "lie_timestamps" in byz.modes or "equivocate" in byz.modes
        if not lying:
            return record.lt
        key = (record.eid, dest if "equivocate" in byz.modes else None)
        cached = self._lie_lt.get(key)
        if cached is not None:
            return cached
        anchor = self._lie_anchor.setdefault(byz.proc, record.lt)
        factor = 1.0
        if "equivocate" in byz.modes:
            # deterministic per (liar, dest) so the factor does not depend
            # on message interleaving; Random() rejects tuple seeds, so key
            # the stream by string
            factor = random.Random(
                f"{self.plan.seed}:{byz.proc}:{dest}"
            ).uniform(0.5, 1.5)
        claimed = record.lt + byz.magnitude * factor * max(record.lt - anchor, 0.0)
        self._lie_lt[key] = claimed
        if claimed != record.lt:
            self.injected["lied_timestamps"] += 1
            if "equivocate" in byz.modes:
                self.injected["equivocations"] += 1
        return claimed

    def note_crash_suppressed_send(self) -> None:
        self.injected["crash_suppressed_sends"] += 1

    def note_crash_suppressed_internal(self) -> None:
        self.injected["crash_suppressed_internal"] += 1

    def note_crash_dropped_arrival(self) -> None:
        self.injected["crash_dropped_arrivals"] += 1
