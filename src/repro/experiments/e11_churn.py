"""E11 - re-convergence after state corruption and late joins (churn).

Self-stabilization, measured: scramble one processor's estimator state
(its AGDP distance matrix, its history buffers, or its suspicion ledger
- the :data:`~repro.sim.faults.CORRUPTION_SCOPES`) mid-run and measure
how long until the Theorem 2.1 bounds hold again.  The self-healing
estimator audits its cross-module invariants on every event, detects the
scramble at the next send or receive, rebuilds from its durable event
log, and re-converges; the paper's bounds then apply to the rebuilt
state as if the corruption never happened.

A second cell admits a *late joiner* through the sponsor-snapshot
handshake (Lemmas 3.4/3.5: the frontier plus live-live distances is a
complete handoff) and measures its time-to-bounded - which is one
handshake, not a cold start.

Per (topology x scope) the table reports the re-convergence lag: the
real time from injection to the first sample from which every later
sample is sound *and* bounded.  The standing claims: every recovery
happens (>= 1 per corrupted processor), every re-convergence is finite,
and no sample - before, during, or after the disruption - excludes the
true source time.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Sequence, Tuple

from ..analysis.claims import ClaimCheck
from ..core.csa import EfficientCSA
from ..core.csa_base import SuspicionPolicy
from ..core.csa_full import FullInformationCSA
from ..sim.faults import (
    CORRUPTION_SCOPES,
    FaultPlan,
    LateJoin,
    RetransmitPolicy,
    StateCorruption,
)
from ..sim.network import topologies
from ..sim.runner import RunResult, run_workload, standard_network
from ..sim.workloads import PeriodicGossip
from .base import ExperimentResult, experiment

__all__ = ["run"]


def _shape(name: str, n: int):
    if name == "line":
        return topologies.line(n)
    if name == "ring":
        return topologies.ring(n)
    raise ValueError(f"unknown churn topology {name!r} (use line/ring)")


def _churn_run(
    shape: str,
    n: int,
    duration: float,
    seed: int,
    plan: FaultPlan,
    period: float,
) -> RunResult:
    names, links = _shape(shape, n)
    network = standard_network(names, links, seed=seed, loss_prob=0.02)
    return run_workload(
        network,
        PeriodicGossip(period=period, seed=seed),
        {
            "efficient": lambda p, s: EfficientCSA(
                p,
                s,
                reliable=False,
                self_heal=True,
                suspicion=SuspicionPolicy(),
            ),
            "full": lambda p, s: FullInformationCSA(p, s),
        },
        duration=duration,
        seed=seed,
        sample_period=period,
        faults=plan,
        retransmit=RetransmitPolicy(timeout=1.0, backoff=2.0, max_retries=3),
    )


@experiment("e11-churn")
def run(
    shapes: Sequence[str] = ("line", "ring"),
    *,
    n: int = 6,
    duration: float = 120.0,
    period: float = 2.0,
    seed: int = 0,
) -> ExperimentResult:
    result = ExperimentResult(
        experiment="e11-churn",
        description=(
            "Self-stabilization: per corruption scope, the lag from the "
            "scramble to restored Theorem 2.1 bounds; plus a late joiner "
            "bootstrapping through the sponsor-snapshot handshake."
        ),
    )
    for shape_index, shape in enumerate(shapes):
        names, _links = _shape(shape, n)
        victim = names[n // 2]
        corrupt_at = duration * 0.4
        for scope_index, scope in enumerate(CORRUPTION_SCOPES):
            run_seed = seed + 101 * shape_index + 7 * scope_index
            plan = FaultPlan(
                seed=run_seed,
                injections=(StateCorruption(victim, corrupt_at, scope),),
            )
            churn = _churn_run(shape, n, duration, run_seed, plan, period)
            recoveries = churn.recovery_events("efficient").get(
                (victim, "efficient"), ()
            )
            victim_recoveries = len(recoveries)
            lag, examined = churn.reconvergence_after(
                corrupt_at, victim, "efficient"
            )
            violations = len(churn.soundness_violations())
            result.rows.append(
                {
                    "shape": shape,
                    "disruption": f"corrupt:{scope}",
                    "proc": victim,
                    "at_rt": corrupt_at,
                    "recoveries": victim_recoveries,
                    "reconvergence_rt": (
                        round(lag, 3) if math.isfinite(lag) else None
                    ),
                    # the recovery's cost in logged events replayed, a
                    # unit no machine changes (max over the recoveries)
                    "replayed": max((r.replayed for r in recoveries), default=None),
                    "tail_samples": examined,
                    "soundness_violations": violations,
                }
            )
            prefix = f"{shape}/{scope}: "
            result.checks.append(
                ClaimCheck(
                    name=prefix + "corruption detected and state rebuilt",
                    passed=victim_recoveries >= 1,
                    details={
                        "recoveries": victim_recoveries,
                        "injected": churn.sim.faults.injected["corruptions"],
                    },
                )
            )
            result.checks.append(
                ClaimCheck(
                    name=prefix + "finite re-convergence to Theorem 2.1 bounds",
                    passed=math.isfinite(lag),
                    details={"lag_rt": lag, "tail_samples": examined},
                )
            )
            result.checks.append(
                ClaimCheck(
                    name=prefix + "every sample sound across the disruption",
                    passed=violations == 0,
                    details={"violations": violations},
                )
            )
        # the join cell: the far-end processor arrives mid-run, sponsored
        # by its neighbor, and must reach bounded estimates off the
        # snapshot handoff rather than a cold start
        joiner = names[-1]
        sponsor = names[-2]
        join_at = duration * 0.3
        join_seed = seed + 101 * shape_index + 9001
        plan = FaultPlan(
            seed=join_seed,
            injections=(LateJoin(joiner, join_at, sponsor=sponsor),),
        )
        joined = _churn_run(shape, n, duration, join_seed, plan, period)
        lag, examined = joined.reconvergence_after(join_at, joiner, "efficient")
        violations = len(joined.soundness_violations())
        result.rows.append(
            {
                "shape": shape,
                "disruption": "late-join",
                "proc": joiner,
                "at_rt": join_at,
                "recoveries": 0,
                "reconvergence_rt": round(lag, 3) if math.isfinite(lag) else None,
                "tail_samples": examined,
                "soundness_violations": violations,
            }
        )
        result.checks.append(
            ClaimCheck(
                name=f"{shape}/join: sponsored joiner reaches bounds",
                passed=(
                    math.isfinite(lag)
                    and joined.sim.faults.injected["joins_bootstrapped"] == 1
                ),
                details={
                    "lag_rt": lag,
                    "bootstrapped": joined.sim.faults.injected[
                        "joins_bootstrapped"
                    ],
                    "cold": joined.sim.faults.injected["joins_cold"],
                },
            )
        )
        result.checks.append(
            ClaimCheck(
                name=f"{shape}/join: every sample sound across the join",
                passed=violations == 0,
                details={"violations": violations},
            )
        )
    result.notes = (
        "Detection is event-driven (the invariant audit runs on every "
        "send/receive), so re-convergence lag is dominated by one round "
        "of gossip re-absorption; the joiner's lag is one handshake - "
        "the snapshot already carries the sponsor's whole causal past."
    )
    return result
