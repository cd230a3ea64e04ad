"""High-level run orchestration: build, execute, sample, validate.

The runner is the convenience layer experiments and examples use: it
assembles a :class:`~repro.sim.network.Network` from a topology shape,
attaches estimator channels, installs a workload, runs for a given real
duration while periodically sampling every estimator's current interval
against the true time, and returns everything bundled in a
:class:`RunResult`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..core.csa_base import Estimator
from ..core.errors import SimulationError
from ..core.events import ProcessorId
from ..core.intervals import ClockBound
from ..core.specs import TransitSpec
from .clock import ClockModel, PiecewiseDriftingClock
from .engine import Simulation
from .faults import FaultPlan, RetransmitPolicy
from .network import LinkConfig, Network
from .trace import ExecutionTrace

__all__ = ["EstimateSample", "RunResult", "standard_network", "run_workload"]


@dataclass(frozen=True)
class EstimateSample:
    """One sampled estimate: who, when, what, and the truth.

    ``truth`` is the true source time at sampling instant (= real time,
    since the source clock defines real time); soundness means
    ``bound.contains(truth)``.
    """

    rt: float
    proc: ProcessorId
    channel: str
    bound: ClockBound
    truth: float

    @property
    def sound(self) -> bool:
        return self.bound.contains(self.truth, tolerance=1e-6)

    @property
    def width(self) -> float:
        return self.bound.width


@dataclass
class RunResult:
    """Everything a finished run exposes to analysis."""

    sim: Simulation
    trace: ExecutionTrace
    samples: List[EstimateSample] = field(default_factory=list)

    def samples_for(
        self, channel: str, proc: Optional[ProcessorId] = None
    ) -> List[EstimateSample]:
        return [
            s
            for s in self.samples
            if s.channel == channel and (proc is None or s.proc == proc)
        ]

    def soundness_violations(self) -> List[EstimateSample]:
        return [s for s in self.samples if not s.sound]

    def mean_width(self, channel: str, *, skip_unbounded: bool = True) -> float:
        widths = [
            s.width
            for s in self.samples_for(channel)
            if s.bound.is_bounded or not skip_unbounded
        ]
        if not widths:
            return float("inf")
        return sum(widths) / len(widths)

    # -- robustness reporting (suspicion / validation) -----------------------------

    def _each_estimator(self, channel: Optional[str]):
        for proc, sp in self.sim.processors.items():
            for name, estimator in sp.estimators.items():
                if channel is None or name == channel:
                    yield proc, name, estimator

    def eviction_events(self, channel: Optional[str] = None) -> Dict[
        Tuple[ProcessorId, str], list
    ]:
        """Per ``(observer, channel)``: suspicion eviction/rehabilitation events."""
        out: Dict[Tuple[ProcessorId, str], list] = {}
        for proc, name, estimator in self._each_estimator(channel):
            events = list(getattr(estimator, "eviction_events", ()) or ())
            if events:
                out[(proc, name)] = events
        return out

    def validation_failures(self, channel: Optional[str] = None) -> Dict[
        Tuple[ProcessorId, str], list
    ]:
        """Per ``(observer, channel)``: payload validation failures recorded."""
        out: Dict[Tuple[ProcessorId, str], list] = {}
        for proc, name, estimator in self._each_estimator(channel):
            failures = list(getattr(estimator, "validation_failures", ()) or ())
            if failures:
                out[(proc, name)] = failures
        return out

    def evicted_by(self, channel: str) -> Dict[ProcessorId, frozenset]:
        """Per observer on ``channel``: the set of processors it has evicted."""
        out: Dict[ProcessorId, frozenset] = {}
        for proc, _name, estimator in self._each_estimator(channel):
            suspicion = getattr(estimator, "suspicion", None)
            if suspicion is not None:
                out[proc] = suspicion.evicted_procs
        return out

    # -- self-stabilization reporting (churn extension) -----------------------------

    def recovery_events(self, channel: Optional[str] = None) -> Dict[
        Tuple[ProcessorId, str], list
    ]:
        """Per ``(observer, channel)``: self-stabilization recovery events."""
        out: Dict[Tuple[ProcessorId, str], list] = {}
        for proc, name, estimator in self._each_estimator(channel):
            events = list(getattr(estimator, "recovery_events", ()) or ())
            if events:
                out[(proc, name)] = events
        return out

    def reconvergence_after(
        self, rt0: float, proc: ProcessorId, channel: str
    ) -> Tuple[float, int]:
        """Re-convergence after a disruption at real time ``rt0``.

        Returns ``(rt_delta, samples_examined)``: the real-time lag from
        ``rt0`` to the first sample of ``proc`` on ``channel`` from which
        every remaining sample is sound *and* bounded - the operational
        reading of "the Theorem 2.1 bounds hold again".  ``(inf, n)`` if
        the tail never settles (or no sample at/after ``rt0`` exists).
        """
        tail = [s for s in self.samples_for(channel, proc) if s.rt >= rt0]
        settled_from: Optional[float] = None
        for sample in tail:
            good = sample.sound and sample.bound.is_bounded
            if good and settled_from is None:
                settled_from = sample.rt
            elif not good:
                settled_from = None
        if settled_from is None:
            return float("inf"), len(tail)
        return settled_from - rt0, len(tail)


def standard_network(
    names: Sequence[ProcessorId],
    links: Sequence[Tuple[ProcessorId, ProcessorId]],
    *,
    source: Optional[ProcessorId] = None,
    seed: int = 0,
    drift_ppm: float = 100.0,
    delay: Tuple[float, float] = (0.01, 0.08),
    loss_prob: float = 0.0,
    clock_offset_spread: float = 5.0,
) -> Network:
    """A network with drifting clocks and uniform link behaviour.

    Every non-source processor gets a seeded
    :class:`~repro.sim.clock.PiecewiseDriftingClock` within
    ``+/- drift_ppm``; every link gets transit bounds ``[delay[0],
    delay[1]]`` and the given loss probability.
    """
    if source is None:
        source = names[0]
    rng = random.Random(seed)
    clocks: Dict[ProcessorId, ClockModel] = {}
    for name in names:
        if name == source:
            continue
        clocks[name] = PiecewiseDriftingClock(
            seed=rng.randrange(2**31),
            r_min=1 - drift_ppm * 1e-6,
            r_max=1 + drift_ppm * 1e-6,
            offset=rng.uniform(-clock_offset_spread, clock_offset_spread),
        )
    link_configs = [
        LinkConfig(u, v, transit=TransitSpec(delay[0], delay[1]), loss_prob=loss_prob)
        for u, v in links
    ]
    return Network(source=source, clocks=clocks, links=link_configs)


def run_workload(
    network: Network,
    workload,
    estimators: Dict[str, Callable[[ProcessorId, object], Estimator]],
    *,
    duration: float,
    seed: int = 0,
    sample_period: Optional[float] = None,
    sample_channels: Optional[Sequence[str]] = None,
    loss_detection_delay: float = 5.0,
    confirm_deliveries: Optional[bool] = None,
    faults: Optional[FaultPlan] = None,
    retransmit: Optional[RetransmitPolicy] = None,
) -> RunResult:
    """Build a simulation, run it, and collect estimate samples.

    ``estimators`` maps channel names to factories ``(proc, spec) ->
    Estimator``.  If any link is lossy and ``confirm_deliveries`` is not
    explicitly set, delivery confirmations are enabled automatically (the
    unreliable-mode protocol needs them).  ``faults`` attaches a
    :class:`~repro.sim.faults.FaultPlan`; ``retransmit`` replaces the loss
    oracle with a :class:`~repro.sim.faults.RetransmitPolicy`.
    """
    lossy = any(link.loss_prob > 0 for link in network.links.values())
    if confirm_deliveries is None:
        confirm_deliveries = lossy
    sim = Simulation(
        network,
        seed=seed,
        loss_detection_delay=loss_detection_delay,
        confirm_deliveries=confirm_deliveries,
        faults=faults,
        retransmit=retransmit,
    )
    for name, factory in estimators.items():
        sim.attach_estimators(name, factory)
    workload.install(sim)
    result = RunResult(sim=sim, trace=sim.trace)
    if sample_period is not None:
        channels = tuple(sample_channels or estimators.keys())

        def sample():
            for proc in network.processors:
                lt_now = sim.local_time(proc)
                for channel in channels:
                    bound = sim.estimator(proc, channel).estimate_now(lt_now)
                    result.samples.append(
                        EstimateSample(
                            rt=sim.now,
                            proc=proc,
                            channel=channel,
                            bound=bound,
                            truth=sim.now,
                        )
                    )
            if sim.now + sample_period <= duration:
                sim.schedule_after(sample_period, sample)

        sim.schedule_at(sample_period, sample)
    sim.run_until(duration)
    return result
