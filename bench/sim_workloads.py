"""The three simulator workloads.

Each builds its system through ``repro.sim`` public entry points, warms
up untimed, then times one ``run_until`` call - the only thing between
the two clock reads.  Everything is generated from the seed; runs are
deterministic, which :func:`result_digest` lets the caller verify.
"""

from __future__ import annotations

import gc
import hashlib
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.core import EfficientCSA, SuspicionPolicy
from repro.sim import Simulation, standard_network, topologies
from repro.sim.faults import (
    CORRUPTION_SCOPES,
    FaultPlan,
    LateJoin,
    RetransmitPolicy,
    StateCorruption,
)
from repro.sim.workloads import PeriodicGossip, make_ntp_system

from .oracle_check import oracle_parity
from .spec import RUN_SECONDS
from .trace import Tracer

CHANNEL = "efficient"
SAMPLE_PERIOD = 5.0


@dataclass
class Scenario:
    sim: Simulation
    warm_until: float
    end: float
    #: workload-specific correctness checks, evaluated after the run
    checks: Callable[[Simulation], Dict[str, bool]]


def _line12(seed: int, scale: float) -> Scenario:
    names, links = topologies.line(12)
    network = standard_network(names, links, seed=seed, drift_ppm=200)
    sim = Simulation(network, seed=seed)
    sim.attach_estimators(CHANNEL, lambda proc, spec: EfficientCSA(proc, spec))
    PeriodicGossip(period=4, seed=seed).install(sim)
    return Scenario(sim, 20.0 * scale, 1200.0 * scale, lambda _sim: {})


def _ntp31(seed: int, scale: float) -> Scenario:
    network, workload = make_ntp_system((2, 4, 8, 16), poll_period=15, seed=seed)
    sim = Simulation(network, seed=seed)
    sim.attach_estimators(CHANNEL, lambda proc, spec: EfficientCSA(proc, spec))
    workload.install(sim)
    return Scenario(sim, 20.0 * scale, 300.0 * scale, lambda _sim: {})


def _churn(seed: int, scale: float) -> Scenario:
    names, links = topologies.ring(8)
    network = standard_network(names, links, seed=seed, loss_prob=0.02)
    end = 480.0 * scale
    joiner = names[5]
    injections: List[object] = [LateJoin(joiner, 20.0 * scale, sponsor=names[4])]
    victims = [name for name in names if name != network.source]
    for k in range(1, 8):
        injections.append(
            StateCorruption(
                victims[(k - 1) % len(victims)],
                60.0 * scale * k,
                CORRUPTION_SCOPES[(k - 1) % len(CORRUPTION_SCOPES)],
            )
        )
    sim = Simulation(
        network,
        seed=seed,
        faults=FaultPlan(seed=seed, injections=tuple(injections)),
        retransmit=RetransmitPolicy(timeout=1, backoff=2, max_retries=3),
    )
    sim.attach_estimators(
        CHANNEL,
        lambda proc, spec: EfficientCSA(
            proc, spec, reliable=False, self_heal=True, suspicion=SuspicionPolicy()
        ),
    )
    PeriodicGossip(period=2, seed=seed).install(sim)

    def checks(sim_: Simulation) -> Dict[str, bool]:
        injected = sim_.faults.injected
        recoveries = sum(
            sim_.estimator(proc, CHANNEL).recoveries for proc in sim_.processors
        )
        return {
            "recoveries_eq_corruptions": recoveries == injected["corruptions"] > 0,
            "one_join_bootstrapped": injected["joins_bootstrapped"] == 1,
        }

    return Scenario(sim, 25.0 * scale, end, checks)


BUILDERS: Dict[str, Callable[[int, float], Scenario]] = {
    "sim-line12-gossip": _line12,
    "sim-ntp-tree31": _ntp31,
    "sim-churn-hardened": _churn,
}


def result_digest(sim: Simulation, samples: List[Tuple[float, str, float, float]]) -> str:
    """Hash of every trace event id + local time and every sample's bound."""
    digest = hashlib.sha256()
    for record in sim.trace:
        event = record.event
        digest.update(f"{event.proc}|{event.seq}|{event.lt.hex()}\n".encode())
    for rt, proc, lower, upper in samples:
        digest.update(f"{proc}|{rt.hex()}|{lower.hex()}|{upper.hex()}\n".encode())
    return digest.hexdigest()


def _estimators(sim: Simulation) -> List[EfficientCSA]:
    return [sim.estimator(proc, CHANNEL) for proc in sorted(sim.processors)]


def _validation_failures(sim: Simulation) -> int:
    return sum(len(est.validation_failures) for est in _estimators(sim))


def exact_counters(sim: Simulation, samples: int) -> Dict[str, int]:
    """Machine-independent counters, identical on every repeat of a seed."""
    stats = [est.stats() for est in _estimators(sim)]
    injected = sim.faults.injected if sim.faults is not None else {}
    return {
        "events": len(sim.trace),
        "msgs_sent": sim.messages_sent,
        "msgs_lost": sim.messages_lost,
        "retransmissions": sim.retransmissions,
        "samples": samples,
        "pair_updates": sum(s.agdp_pair_updates for s in stats),
        "records_sent": sum(s.records_sent for s in stats),
        "max_live": max(s.max_live_points for s in stats),
        "recoveries": sum(est.recoveries for est in _estimators(sim)),
        "corruptions": injected.get("corruptions", 0),
        "joins_bootstrapped": injected.get("joins_bootstrapped", 0),
    }


def run(
    name: str,
    seed: int,
    seconds: float,
    tracer: Optional[Tracer],
    setup_done: Callable[[], float],
    setup_only: bool = False,
    check: bool = False,
) -> Dict:
    """One run of sim workload ``name``; see ``bench/worker.py`` for the shape.

    ``tracer`` (already installed) records the timed window and adds the
    layer counters; ``check`` adds ``repro.testing.oracle`` parity.
    """
    scale = seconds / RUN_SECONDS
    scenario = BUILDERS[name](seed, scale)
    sim = scenario.sim
    network = sim.network
    samples: List[Tuple[float, str, float, float]] = []

    def sample() -> None:
        for proc in network.processors:
            if sim.crashed(proc):
                continue  # a not-yet-joined processor estimates nothing
            bound = sim.estimator(proc, CHANNEL).estimate_now(sim.local_time(proc))
            samples.append((sim.now, proc, bound.lower, bound.upper))
        sim.schedule_after(SAMPLE_PERIOD, sample)

    sim.schedule_at(min(SAMPLE_PERIOD, scenario.warm_until), sample)
    sim.run_until(scenario.warm_until)
    setup_s = setup_done()
    if setup_only:
        return {"setup_s": setup_s}

    warm_samples = len(samples)
    delivered0 = sim.messages_sent - sim.messages_lost
    before = exact_counters(sim, 0)
    failures0 = _validation_failures(sim)
    gc.collect()
    cpu0, wall0 = time.process_time(), time.perf_counter()
    if tracer is None:
        sim.run_until(scenario.end)
    else:
        with tracer.root("sim.engine", "run_until"):
            sim.run_until(scenario.end)
    wall1, cpu1 = time.perf_counter(), time.process_time()
    window_s, window_cpu_s = wall1 - wall0, cpu1 - cpu0

    delivered = sim.messages_sent - sim.messages_lost - delivered0
    window = samples[warm_samples:]
    widths = [upper - lower for _rt, _p, lower, upper in window
              if lower != float("-inf") and upper != float("inf")]
    unsound = sum(1 for rt, _p, lower, upper in window
                  if not (lower - 1e-6 <= rt <= upper + 1e-6))
    last_by_proc = {proc: (lower, upper) for _rt, proc, lower, upper in window}
    # convergence is a property of the full horizon: the shortened
    # variants (check, selftest) may end before the deepest NTP level is fed,
    # or before any sample of the window is bounded
    short = scale < 1.0
    unbounded_finals = [] if short else sorted(
        proc for proc, (lower, upper) in last_by_proc.items()
        if proc != network.source and (lower == float("-inf") or upper == float("inf"))
    )
    finals_bounded = short or all(
        est.estimate().is_bounded for est in _estimators(sim)
        if not sim.crashed(est.proc) and est.proc != network.source
    )
    checks = {
        "sound": unsound == 0,
        "final_estimates_bounded": finals_bounded and not unbounded_finals,
        "window_has_traffic": delivered > 0 and (short or bool(widths)),
        **scenario.checks(sim),
    }

    after = exact_counters(sim, len(window))
    result = {
        "setup_s": setup_s,
        "window_s": window_s,
        "window_cpu_s": window_cpu_s,
        "ops_attempted": len(window),
        "ops_failed": unsound + len(unbounded_finals),
        "checks": checks,
        "metrics": {
            "msgs_per_s": delivered / window_s,
            "width_mean_s": sum(widths) / len(widths) if widths else float("inf"),
            "cpu_ms_per_exchange": 1e3 * window_cpu_s / max(delivered, 1),
        },
        "sample_counts": {"width_mean_s": len(widths)},
        "digest": result_digest(sim, samples),
        "counters": after,
    }
    if tracer is not None:
        result["layer_counters"] = {
            **{f"sim.engine.{key}": after[key] - before[key]
               for key in ("events", "msgs_sent", "msgs_lost", "retransmissions")},
            "sim.clock.segments": sum(
                clock.segment_count() for clock in network.clocks.values()
                if hasattr(clock, "segment_count")
            ),
            "core.csa.recoveries": after["recoveries"] - before["recoveries"],
            "core.validate.failures": _validation_failures(sim) - failures0,
        }
    if check:
        finals = {}
        for est in _estimators(sim):
            bound = est.estimate()
            finals[est.proc] = (bound.lower, bound.upper)
        result["oracle"] = oracle_parity(sim.trace, sim.spec, finals)
    return result
