"""Engine-level churn faults: late joins, state corruption, re-convergence.

The event-driven engine counterpart of the schedule-level churn tests:
:class:`~repro.sim.faults.LateJoin` admits a processor mid-run via the
sponsor handshake, :class:`~repro.sim.faults.StateCorruption` scrambles
a victim's estimator in place, and :class:`~repro.sim.runner.RunResult`
measures the re-convergence lag back to Theorem 2.1 bounds.
"""

import math

import pytest

from repro.core import EfficientCSA
from repro.core.csa_base import SuspicionPolicy
from repro.core.errors import SimulationError
from repro.sim.faults import (
    CORRUPTION_SCOPES,
    CrashWindow,
    FaultPlan,
    LateJoin,
    RetransmitPolicy,
    StateCorruption,
)
from repro.sim.network import topologies
from repro.sim.runner import run_workload, standard_network
from repro.sim.workloads import PeriodicGossip

NAMES, LINKS = topologies.line(4)


def network(seed=0):
    # unreliable mode: a crashed (or not-yet-joined) processor drops
    # arrivals, and only the loss-detection path re-ships that knowledge
    return standard_network(NAMES, LINKS, seed=seed, loss_prob=0.01)


def run(plan, *, self_heal=False, duration=30.0, seed=0):
    return run_workload(
        network(seed),
        PeriodicGossip(period=1.0, seed=seed),
        {
            "efficient": lambda p, s: EfficientCSA(
                p,
                s,
                reliable=False,
                self_heal=self_heal,
                suspicion=SuspicionPolicy() if self_heal else None,
            )
        },
        duration=duration,
        seed=seed,
        sample_period=1.0,
        faults=plan,
        retransmit=RetransmitPolicy(timeout=1.0, backoff=2.0, max_retries=3),
    )


class TestInjectionValidation:
    def test_corruption_scope_is_checked(self):
        with pytest.raises(SimulationError, match="scope"):
            StateCorruption("a", 1.0, "flux-capacitor")

    def test_corruption_time_is_checked(self):
        with pytest.raises(SimulationError, match=">= 0"):
            StateCorruption("a", -1.0)

    def test_join_cannot_self_sponsor(self):
        with pytest.raises(SimulationError, match="sponsor"):
            LateJoin("a", 1.0, sponsor="a")

    def test_join_time_is_checked(self):
        with pytest.raises(SimulationError, match=">= 0"):
            LateJoin("a", -0.5, sponsor="b")


class TestCrashedBeforeJoin:
    def test_not_yet_joined_behaves_as_crashed(self):
        plan = FaultPlan(injections=(LateJoin(NAMES[3], 10.0, sponsor=NAMES[2]),))
        active = plan.bind(network())
        assert active.crashed(NAMES[3], 0.0)
        assert active.crashed(NAMES[3], 9.99)
        assert not active.crashed(NAMES[3], 10.0)
        assert not active.crashed(NAMES[2], 5.0)  # everyone else is up


class TestLateJoinRuns:
    def test_sponsored_join_bootstraps_and_converges(self):
        join_at = 12.0
        plan = FaultPlan(injections=(LateJoin(NAMES[3], join_at, sponsor=NAMES[2]),))
        result = run(plan)
        assert result.sim.faults.injected["joins_bootstrapped"] == 1
        assert result.sim.faults.injected["joins_cold"] == 0
        # absent means absent: every pre-join sample is the vacuous bound
        pre = [s for s in result.samples_for("efficient", NAMES[3]) if s.rt < join_at]
        assert pre and all(not s.bound.is_bounded for s in pre)
        lag, examined = result.reconvergence_after(join_at, NAMES[3], "efficient")
        assert math.isfinite(lag)
        assert examined > 0
        assert result.soundness_violations() == []

    def test_join_with_crashed_sponsor_comes_up_cold(self):
        join_at = 12.0
        plan = FaultPlan(
            injections=(
                CrashWindow(NAMES[2], 10.0, 16.0),
                LateJoin(NAMES[3], join_at, sponsor=NAMES[2]),
            )
        )
        result = run(plan)
        assert result.sim.faults.injected["joins_cold"] == 1
        assert result.sim.faults.injected["joins_bootstrapped"] == 0
        # cold is slower but equally sound: regular traffic still teaches it
        assert result.soundness_violations() == []


class TestStateCorruptionRuns:
    @pytest.mark.parametrize("scope", CORRUPTION_SCOPES)
    def test_self_healing_victim_recovers(self, scope):
        corrupt_at = 15.0
        victim = NAMES[1]
        plan = FaultPlan(injections=(StateCorruption(victim, corrupt_at, scope),))
        result = run(plan, self_heal=True)
        assert result.sim.faults.injected["corruptions"] == 1
        recoveries = result.recovery_events("efficient")
        assert len(recoveries.get((victim, "efficient"), ())) >= 1
        lag, _examined = result.reconvergence_after(corrupt_at, victim, "efficient")
        assert math.isfinite(lag)
        assert result.soundness_violations() == []

    def test_archive_shows_what_each_recovery_replayed(self, tmp_path):
        import json

        from repro.sim.serialize import dump_run, load_run

        victim = NAMES[1]
        plan = FaultPlan(injections=(StateCorruption(victim, 15.0, "agdp"),))
        result = run(plan, self_heal=True)
        path = tmp_path / "run.json"
        dump_run(result, str(path))
        (row,) = json.loads(path.read_text())["recoveries"]
        (event,) = result.recovery_events("efficient")[(victim, "efficient")]
        assert row == {
            "proc": victim,
            "channel": "efficient",
            "at_lt": event.at_lt,
            "reason": event.reason,
            "replayed": event.replayed,
            "from_checkpoint": event.from_checkpoint,
        }
        assert row["replayed"] > 0
        load_run(str(path))  # an extra key: loaders pass it through

    def test_non_healing_estimator_refuses_the_scramble(self):
        plan = FaultPlan(injections=(StateCorruption(NAMES[1], 15.0, "agdp"),))
        result = run(plan, self_heal=False)
        assert result.sim.faults.injected["corruptions"] == 0
        assert result.sim.faults.injected["corruptions_skipped"] == 1
        assert result.recovery_events("efficient") == {}
        assert result.soundness_violations() == []
