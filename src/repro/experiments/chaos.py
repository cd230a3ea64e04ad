"""Chaos/soak harness: randomized fault schedules against the estimators.

The ROADMAP's north star asks the reproduction to "handle as many
scenarios as you can imagine"; this experiment is the standing proof.  Per
topology (line / ring / grid) it draws a seeded randomized
:class:`~repro.sim.faults.FaultPlan` - processor crash windows, link
partitions, Gilbert-Elliott burst loss, message duplication - on top of
i.i.d. loss, runs periodic gossip under a
:class:`~repro.sim.faults.RetransmitPolicy`, and asserts the standing
invariants:

* the run completes without an unhandled exception;
* every sampled estimate is *sound* (contains true source time) - the
  randomized schedules contain no out-of-spec injection, so Theorem 2.1
  applies throughout;
* at quiesce every surviving (non-crashed) processor's estimate contains
  the true source time;
* a gc-enabled and a gc-disabled AGDP channel ride the same execution and
  their estimates agree sample-for-sample: garbage collection under churn
  loses no live-live distance (Lemma 3.4);
* in-spec runs never trigger the degraded-mode quarantine.

A final deliberately *out-of-spec* run (a delay excursion beyond the
advertised transit bound) checks graceful degradation: the estimator
records structured :class:`~repro.core.csa.QuarantineDiagnostic` entries
and keeps serving queries instead of propagating
:class:`~repro.core.errors.InconsistentSpecificationError`.

A *Byzantine* run (``--liars``) puts lying processors - skewed and
equivocating timestamps, fabricated events - against suspicion-hardened
estimators (see ``docs/FAULTS.md``) and asserts that every honest
neighbor evicts its liar, that honest mis-evictions rehabilitate, that
honest estimates stay sound, and that the honest-only synchronization
graph stays consistent (the lies lived in payloads, not in the timing).

Run as ``repro-chaos`` (console script), via the experiment registry id
``chaos-soak``, or through ``make chaos`` / ``make chaos-byz``.
"""

from __future__ import annotations

import argparse
from typing import Dict, List, Optional, Sequence, Tuple

from ..analysis.claims import ClaimCheck, check_soundness
from ..core.csa import EfficientCSA
from ..core.csa_base import SuspicionPolicy
from ..core.distances import find_negative_cycle
from ..core.syncgraph import build_sync_graph
from ..sim.faults import (
    ByzantineProcessor,
    CrashWindow,
    DelayExcursion,
    FaultPlan,
    LateJoin,
    RetransmitPolicy,
    StateCorruption,
)
from ..sim.network import topologies
from ..sim.runner import RunResult, run_workload, standard_network
from ..sim.workloads import PeriodicGossip
from .base import ExperimentResult, experiment

__all__ = ["run", "main"]


def _shape(name: str, n: int) -> Tuple[List[str], List[Tuple[str, str]]]:
    if name == "line":
        return topologies.line(n)
    if name == "ring":
        return topologies.ring(n)
    if name == "grid":
        return topologies.grid(2, max((n + 1) // 2, 2))
    raise ValueError(f"unknown chaos topology {name!r} (use line/ring/grid)")


def _chaos_run(
    shape: str,
    n: int,
    duration: float,
    seed: int,
    loss_prob: float,
) -> Tuple[RunResult, FaultPlan]:
    names, links = _shape(shape, n)
    network = standard_network(names, links, seed=seed, loss_prob=loss_prob)
    plan = FaultPlan.random(seed, network, duration)
    result = run_workload(
        network,
        PeriodicGossip(period=4.0, seed=seed),
        {
            "efficient": lambda p, s: EfficientCSA(
                p, s, reliable=False, degraded_mode=True
            ),
            "efficient-nogc": lambda p, s: EfficientCSA(
                p, s, reliable=False, degraded_mode=True, agdp_gc=False
            ),
        },
        duration=duration,
        seed=seed,
        sample_period=duration / 10,
        faults=plan,
        retransmit=RetransmitPolicy(timeout=1.0, backoff=2.0, max_retries=3),
    )
    return result, plan


def _gc_agreement(result: RunResult) -> ClaimCheck:
    """GC-on and GC-off channels must agree on every sampled interval."""
    by_key: Dict[Tuple[float, str], Dict[str, object]] = {}
    for sample in result.samples:
        by_key.setdefault((sample.rt, sample.proc), {})[sample.channel] = sample.bound
    mismatches = 0
    compared = 0
    for bounds in by_key.values():
        gc = bounds.get("efficient")
        nogc = bounds.get("efficient-nogc")
        if gc is None or nogc is None:
            continue
        compared += 1
        if abs(gc.lower - nogc.lower) > 1e-9 or abs(gc.upper - nogc.upper) > 1e-9:
            mismatches += 1
    return ClaimCheck(
        name="gc preserves live-live distances (Lemma 3.4)",
        passed=compared > 0 and mismatches == 0,
        details={"compared": compared, "mismatches": mismatches},
    )


def _quiesce_containment(result: RunResult) -> ClaimCheck:
    """Every surviving processor's estimate contains true time at quiesce."""
    sim = result.sim
    failures = 0
    survivors = 0
    for proc in sim.network.processors:
        if sim.crashed(proc):
            continue  # still inside a crash window at quiesce
        survivors += 1
        bound = sim.estimator(proc, "efficient").estimate_now(sim.local_time(proc))
        if not bound.contains(sim.now, tolerance=1e-6):
            failures += 1
    return ClaimCheck(
        name="survivors contain true source time at quiesce",
        passed=survivors > 0 and failures == 0,
        details={"survivors": survivors, "violations": failures},
    )


def _no_quarantine(result: RunResult) -> ClaimCheck:
    """In-spec chaos must never trip the degraded-mode quarantine."""
    quarantined = sum(
        len(result.sim.estimator(proc, channel).diagnostics)
        for proc in result.sim.network.processors
        for channel in ("efficient", "efficient-nogc")
    )
    return ClaimCheck(
        name="no quarantine while the execution is in spec",
        passed=quarantined == 0,
        details={"quarantined_edges": quarantined},
    )


def _out_of_spec_run(n: int, duration: float, seed: int) -> Tuple[RunResult, int]:
    """A run whose delays leave spec: degraded mode must absorb the fallout."""
    names, links = topologies.ring(n)
    network = standard_network(names, links, seed=seed)
    victim = links[0]
    plan = FaultPlan(
        seed=seed,
        injections=(
            DelayExcursion(
                victim[0],
                victim[1],
                start=duration * 0.25,
                end=duration * 0.5,
                extra=2.0,
            ),
        ),
    )
    result = run_workload(
        network,
        PeriodicGossip(period=4.0, seed=seed),
        {
            "efficient": lambda p, s: EfficientCSA(
                p, s, reliable=False, degraded_mode=True
            )
        },
        duration=duration,
        seed=seed,
        faults=plan,
        retransmit=RetransmitPolicy(timeout=1.0, backoff=2.0, max_retries=3),
    )
    quarantined = sum(
        len(result.sim.estimator(proc, "efficient").diagnostics)
        for proc in network.processors
    )
    return result, quarantined


def _churn_scenario_run(
    n: int, duration: float, seed: int
) -> Tuple[RunResult, Dict[str, object]]:
    """Membership churn + state corruption on one line, simultaneously.

    The far-end processor joins late off a sponsor snapshot, a middle
    relay crashes and restarts (durable-state rejoin), and another relay
    gets its estimator state scrambled - all under i.i.d. loss with
    retransmission.  The self-healing estimators must detect the
    scramble, rebuild, and re-converge; nobody may ever emit an unsound
    sample.
    """
    import math as _math

    names, links = topologies.line(n)
    network = standard_network(names, links, seed=seed, loss_prob=0.03)
    joiner, sponsor = names[-1], names[-2]
    rebooter = names[1]
    victim = names[2]
    plan = FaultPlan(
        seed=seed,
        injections=(
            LateJoin(joiner, duration * 0.2, sponsor=sponsor),
            CrashWindow(rebooter, duration * 0.35, duration * 0.5),
            StateCorruption(victim, duration * 0.6, "agdp"),
        ),
    )
    result = run_workload(
        network,
        PeriodicGossip(period=2.0, seed=seed),
        {
            "efficient": lambda p, s: EfficientCSA(
                p, s, reliable=False, self_heal=True, suspicion=SuspicionPolicy()
            )
        },
        duration=duration,
        seed=seed,
        sample_period=2.0,
        faults=plan,
        retransmit=RetransmitPolicy(timeout=1.0, backoff=2.0, max_retries=3),
    )
    recoveries = result.recovery_events("efficient").get((victim, "efficient"), ())
    join_lag, _ = result.reconvergence_after(duration * 0.2, joiner, "efficient")
    reboot_lag, _ = result.reconvergence_after(duration * 0.5, rebooter, "efficient")
    corrupt_lag, _ = result.reconvergence_after(duration * 0.6, victim, "efficient")
    verdict = {
        "bootstrapped": result.sim.faults.injected["joins_bootstrapped"],
        "victim_recoveries": len(recoveries),
        "max_replayed": max((r.replayed for r in recoveries), default=0),
        "join_lag": join_lag,
        "reboot_lag": reboot_lag,
        "corrupt_lag": corrupt_lag,
        "all_finite": all(
            _math.isfinite(lag) for lag in (join_lag, reboot_lag, corrupt_lag)
        ),
    }
    return result, verdict


def _byzantine_run(
    n: int, duration: float, seed: int, liars: int
) -> Tuple[RunResult, Tuple[str, ...]]:
    """A ring with ``liars`` Byzantine processors against hardened estimators."""
    names, links = topologies.ring(n)
    network = standard_network(names, links, seed=seed)
    candidates = [p for p in names if p != network.source]
    step = max(len(candidates) // max(liars, 1), 1)
    chosen = tuple(candidates[::step][:liars])
    plan = FaultPlan(
        seed=seed,
        injections=tuple(
            ByzantineProcessor(
                proc,
                modes=("lie_timestamps", "equivocate", "fabricate"),
                start=duration * 0.05,
                magnitude=0.8,
            )
            for proc in chosen
        ),
    )
    policy = SuspicionPolicy(threshold=3.0, clean_window=duration / 4)
    result = run_workload(
        network,
        PeriodicGossip(period=2.0, seed=seed),
        {"hardened": lambda p, s: EfficientCSA(p, s, suspicion=policy)},
        duration=duration,
        seed=seed,
        sample_period=duration / 10,
        faults=plan,
    )
    return result, chosen


def _byzantine_checks(
    result: RunResult, liars: Tuple[str, ...]
) -> List[ClaimCheck]:
    sim = result.sim
    honest = [p for p in sim.network.processors if p not in liars]

    # every honest *neighbor* of a liar must have evicted it by quiesce
    # (a consistent liar is indistinguishable at distance - only the
    # processors that share round-trips with it hold decisive evidence)
    missing = []
    for liar in liars:
        for peer in sim.spec.neighbors(liar):
            if peer in liars:
                continue
            tracker = sim.estimator(peer, "hardened").suspicion
            if not tracker.is_evicted(liar):
                missing.append((peer, liar))
    evicted_map = {
        proc: sorted(v) for proc, v in result.evicted_by("hardened").items() if v
    }
    checks = [
        ClaimCheck(
            name="byzantine: every honest neighbor evicts its liar",
            passed=not missing,
            details={"missing": missing, "evictions": evicted_map},
        )
    ]

    # only liars stay evicted: honest mis-evictions (a liar can drag an
    # honest relay into a negative cycle) must have been rehabilitated
    stuck = {
        proc: sorted(set(v) - set(liars))
        for proc, v in result.evicted_by("hardened").items()
        if set(v) - set(liars)
    }
    checks.append(
        ClaimCheck(
            name="byzantine: no honest processor stays evicted",
            passed=not stuck,
            details={"stuck": stuck},
        )
    )

    # honest estimates must be sound at every sample despite the lies
    honest_bad = [
        s for s in result.samples if s.proc in honest and not s.sound
    ]
    checks.append(
        ClaimCheck(
            name="byzantine: honest estimates stay sound",
            passed=not honest_bad,
            details={"violations": len(honest_bad)},
        )
    )

    # ground truth: the honest-only synchronization graph (the real
    # execution minus the liars' events) is consistent - the lies lived
    # only in payloads, never in the actual timing
    view = result.trace.global_view()
    liar_eids = [e.eid for liar in liars for e in view.events_of(liar)]
    honest_view = view.without_events(liar_eids)
    cycle = find_negative_cycle(build_sync_graph(honest_view, sim.spec))
    checks.append(
        ClaimCheck(
            name="byzantine: honest-only sync graph has no negative cycle",
            passed=cycle is None,
            details={"cycle": [] if cycle is None else [str(e) for e in cycle]},
        )
    )
    return checks


def _register(fn):
    # Under ``python -m repro.experiments.chaos`` runpy executes this file a
    # second time as ``__main__`` after the package import already registered
    # the canonical copy; registering again would be a duplicate-name error.
    if __name__ == "__main__":
        return fn
    return experiment("chaos-soak")(fn)


@_register
def run(
    shapes: Sequence[str] = ("line", "ring", "grid"),
    *,
    n: int = 6,
    duration: float = 120.0,
    seed: int = 0,
    loss_prob: float = 0.05,
    liars: int = 1,
    churn: bool = True,
) -> ExperimentResult:
    result = ExperimentResult(
        experiment="chaos-soak",
        description=(
            "Randomized fault schedules (crashes, partitions, burst loss, "
            "duplication) with retransmission; estimators must stay sound, "
            "gc must lose nothing, and out-of-spec evidence must be "
            "quarantined, not fatal."
        ),
    )
    for index, shape in enumerate(shapes):
        run_seed = seed + 101 * index
        chaos, plan = _chaos_run(shape, n, duration, run_seed, loss_prob)
        sim = chaos.sim
        injected = sim.faults.injected
        result.rows.append(
            {
                "shape": shape,
                "faults": len(plan.injections),
                "sent": sim.messages_sent,
                "lost": sim.messages_lost,
                "dup": sim.messages_duplicated,
                "retrans": sim.retransmissions,
                "suppressed": sim.sends_suppressed,
                "partition_drops": injected["partition_drops"],
                "burst_drops": injected["burst_drops"],
                "crash_drops": injected["crash_dropped_arrivals"],
            }
        )
        prefix = f"{shape}: "
        for check in (
            check_soundness(chaos, ("efficient", "efficient-nogc")),
            _quiesce_containment(chaos),
            _gc_agreement(chaos),
            _no_quarantine(chaos),
        ):
            result.checks.append(
                ClaimCheck(
                    name=prefix + check.name,
                    passed=check.passed,
                    details=check.details,
                )
            )
    oos, quarantined = _out_of_spec_run(n, duration, seed + 977)
    # the estimator must still answer queries after quarantining
    final = oos.sim.estimator(
        oos.sim.network.processors[-1], "efficient"
    ).estimate_now(oos.sim.local_time(oos.sim.network.processors[-1]))
    result.rows.append(
        {
            "shape": "ring(out-of-spec)",
            "faults": 1,
            "sent": oos.sim.messages_sent,
            "lost": oos.sim.messages_lost,
            "dup": 0,
            "retrans": oos.sim.retransmissions,
            "suppressed": 0,
            "partition_drops": 0,
            "burst_drops": 0,
            "crash_drops": 0,
        }
    )
    result.checks.append(
        ClaimCheck(
            name="out-of-spec: evidence quarantined, estimator keeps serving",
            passed=quarantined > 0 and final is not None,
            details={
                "quarantined_edges": quarantined,
                "delay_excursions": oos.sim.faults.injected["delay_excursions"],
            },
        )
    )
    if churn:
        churn_result, verdict = _churn_scenario_run(n, duration, seed + 2221)
        churn_bad = [s for s in churn_result.samples if not s.sound]
        result.rows.append(
            {
                "shape": "line(churn)",
                "faults": 3,
                "sent": churn_result.sim.messages_sent,
                "lost": churn_result.sim.messages_lost,
                "dup": 0,
                "retrans": churn_result.sim.retransmissions,
                "suppressed": churn_result.sim.sends_suppressed,
                "partition_drops": 0,
                "burst_drops": 0,
                "crash_drops": churn_result.sim.faults.injected[
                    "crash_dropped_arrivals"
                ],
            }
        )
        result.checks.append(
            ClaimCheck(
                name="churn: joiner bootstrapped, scramble rebuilt, all re-converge",
                passed=(
                    verdict["bootstrapped"] == 1
                    and verdict["victim_recoveries"] >= 1
                    and verdict["all_finite"]
                    and not churn_bad
                ),
                details=dict(verdict, violations=len(churn_bad)),
            )
        )
    if liars > 0:
        byz, chosen = _byzantine_run(n, duration * 1.5, seed + 4099, liars)
        injected = byz.sim.faults.injected
        evictions = sum(
            sum(1 for e in events if e.action == "evicted")
            for events in byz.eviction_events("hardened").values()
        )
        rehabilitations = sum(
            sum(1 for e in events if e.action == "rehabilitated")
            for events in byz.eviction_events("hardened").values()
        )
        result.rows.append(
            {
                "shape": f"ring(byzantine x{len(chosen)})",
                "faults": len(chosen),
                "sent": byz.sim.messages_sent,
                "lost": byz.sim.messages_lost,
                "dup": 0,
                "retrans": 0,
                "suppressed": 0,
                "partition_drops": 0,
                "burst_drops": 0,
                "crash_drops": 0,
                "tampered": injected["tampered_payloads"],
                "fabricated": injected["fabricated_records"],
                "evictions": evictions,
                "rehabs": rehabilitations,
            }
        )
        result.checks.extend(_byzantine_checks(byz, chosen))
    result.notes = (
        "Randomized schedules never include out-of-spec injections, so "
        "soundness is assertable throughout; the dedicated excursion run "
        "exercises the degraded-mode quarantine, and the Byzantine run "
        "exercises payload validation, suspicion, and eviction."
    )
    return result


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Console entry point: ``repro-chaos [--duration D] [--seed S] ...``."""
    parser = argparse.ArgumentParser(
        prog="repro-chaos",
        description="Seeded chaos/soak run for the clock-sync estimators.",
    )
    parser.add_argument(
        "--shapes",
        nargs="+",
        default=["line", "ring", "grid"],
        choices=["line", "ring", "grid"],
        help="topologies to soak (default: all three)",
    )
    parser.add_argument("--n", type=int, default=6, help="processors per topology")
    parser.add_argument(
        "--duration", type=float, default=120.0, help="simulated real time per run"
    )
    parser.add_argument("--seed", type=int, default=0, help="base random seed")
    parser.add_argument(
        "--loss-prob", type=float, default=0.05, help="baseline i.i.d. loss"
    )
    parser.add_argument(
        "--liars",
        type=int,
        default=1,
        help="Byzantine processors in the adversarial run (0 disables it)",
    )
    parser.add_argument(
        "--no-churn",
        action="store_true",
        help="skip the membership-churn / self-stabilization cell",
    )
    args = parser.parse_args(argv)
    result = run(
        tuple(args.shapes),
        n=args.n,
        duration=args.duration,
        seed=args.seed,
        loss_prob=args.loss_prob,
        liars=args.liars,
        churn=not args.no_churn,
    )
    print(result.render())
    return 0 if result.all_passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
