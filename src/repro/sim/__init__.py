"""Discrete-event simulation substrate.

The paper's model is abstract (processors, links, bounds); this package
realises it as a deterministic, seeded simulator so that every theorem can
be checked against concrete executions:

* :mod:`~repro.sim.clock` - drifting hardware-clock models that honour
  their advertised :class:`~repro.core.specs.DriftSpec`;
* :mod:`~repro.sim.network` - topologies, per-direction transit specs,
  actual delay sampling, loss;
* :mod:`~repro.sim.engine` - the event loop driving workloads, passive
  estimators, and loss detection;
* :mod:`~repro.sim.faults` - declarative, seeded fault injection (crashes,
  partitions, burst loss, duplication, out-of-spec excursions) and the
  retransmission policy;
* :mod:`~repro.sim.schedule` - explicit step-by-step adversarial
  schedules (with deterministic Byzantine tampering) and a replay
  harness, used by the conformance/differential test suite;
* :mod:`~repro.sim.trace` - the omniscient execution record used by all
  test oracles;
* :mod:`~repro.sim.workloads` - send modules (periodic gossip, NTP
  hierarchy, Cristian probe bursts, random traffic);
* :mod:`~repro.sim.runner` - one-call orchestration with estimate
  sampling.
"""

from .clock import (
    AffineClock,
    ClockModel,
    ExcursionClock,
    PerfectClock,
    PiecewiseDriftingClock,
    SinusoidalDriftClock,
)
from .engine import LinkCounters, Message, SimProcessor, Simulation
from .faults import (
    CORRUPTION_SCOPES,
    BurstLoss,
    ByzantineProcessor,
    CrashWindow,
    DelayExcursion,
    DriftExcursion,
    Duplication,
    FaultPlan,
    LateJoin,
    PartitionWindow,
    RetransmitPolicy,
    StateCorruption,
    scramble_estimator,
    tamper,
)
from .network import LinkConfig, Network, topologies
from .runner import EstimateSample, RunResult, run_workload, standard_network
from .schedule import CHURN_OPS, Schedule, ScheduleHarness
from .serialize import dump_run, load_run
from .trace import ExecutionTrace, TracedEvent

__all__ = [
    "AffineClock",
    "BurstLoss",
    "ByzantineProcessor",
    "CHURN_OPS",
    "CORRUPTION_SCOPES",
    "ClockModel",
    "CrashWindow",
    "DelayExcursion",
    "DriftExcursion",
    "Duplication",
    "EstimateSample",
    "ExcursionClock",
    "ExecutionTrace",
    "FaultPlan",
    "LateJoin",
    "LinkConfig",
    "LinkCounters",
    "Message",
    "Network",
    "PartitionWindow",
    "PerfectClock",
    "PiecewiseDriftingClock",
    "RetransmitPolicy",
    "RunResult",
    "Schedule",
    "ScheduleHarness",
    "SimProcessor",
    "SinusoidalDriftClock",
    "Simulation",
    "StateCorruption",
    "TracedEvent",
    "dump_run",
    "load_run",
    "run_workload",
    "scramble_estimator",
    "standard_network",
    "tamper",
    "topologies",
]
