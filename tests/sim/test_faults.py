"""Unit tests for the fault-injection subsystem (plans, windows, clocks)."""

import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.errors import SimulationError
from repro.core.events import Event, EventId, EventKind
from repro.core.history import HistoryPayload
from repro.sim.clock import ExcursionClock, PerfectClock, PiecewiseDriftingClock
from repro.sim.faults import (
    BurstLoss,
    ByzantineProcessor,
    CrashWindow,
    DelayExcursion,
    DriftExcursion,
    Duplication,
    FaultPlan,
    PartitionWindow,
    RetransmitPolicy,
    tamper,
)
from repro.sim.network import topologies
from repro.sim.runner import standard_network
from repro.testing.strategies import byzantine_processors, events, history_payloads


def small_network(seed=0):
    names, links = topologies.ring(4)
    return standard_network(names, links, seed=seed)


class TestInjectionValidation:
    def test_windows_must_be_ordered(self):
        with pytest.raises(SimulationError):
            CrashWindow("p1", 5.0, 5.0)
        with pytest.raises(SimulationError):
            PartitionWindow("p0", "p1", -1.0, 4.0)
        with pytest.raises(SimulationError):
            DelayExcursion("p0", "p1", 10.0, 5.0)

    def test_probabilities_must_be_valid(self):
        with pytest.raises(SimulationError):
            BurstLoss("p0", "p1", p_enter=1.5)
        with pytest.raises(SimulationError):
            Duplication("p0", "p1", prob=-0.1)

    def test_excursions_must_be_nontrivial(self):
        with pytest.raises(SimulationError):
            DelayExcursion("p0", "p1", 0.0, 5.0, extra=0.0)
        with pytest.raises(SimulationError):
            DriftExcursion("p1", 0.0, 5.0, rate_offset=0.0)

    def test_plan_rejects_unknown_injection_types(self):
        with pytest.raises(SimulationError):
            FaultPlan(seed=0, injections=("not-a-fault",))

    def test_retransmit_policy_validation(self):
        with pytest.raises(SimulationError):
            RetransmitPolicy(timeout=0.0)
        with pytest.raises(SimulationError):
            RetransmitPolicy(backoff=0.5)
        with pytest.raises(SimulationError):
            RetransmitPolicy(max_retries=-1)


class TestBinding:
    def test_unknown_processor_rejected(self):
        plan = FaultPlan(seed=0, injections=(CrashWindow("ghost", 0.0, 1.0),))
        with pytest.raises(SimulationError):
            plan.bind(small_network())

    def test_unknown_link_rejected(self):
        plan = FaultPlan(
            seed=0, injections=(PartitionWindow("p0", "p2", 0.0, 1.0),)
        )  # ring(4) has no chord p0--p2
        with pytest.raises(SimulationError):
            plan.bind(small_network())

    def test_source_drift_excursion_rejected(self):
        plan = FaultPlan(seed=0, injections=(DriftExcursion("p0", 1.0, 2.0),))
        with pytest.raises(SimulationError):
            plan.bind(small_network())

    def test_noop_plan_properties(self):
        plan = FaultPlan(seed=7)
        assert plan.is_noop
        assert not plan.has_out_of_spec()
        active = plan.bind(small_network())
        assert not active.crashed("p1", 10.0)
        assert active.drop_in_transit("p0", "p1", 10.0) is None
        assert not active.duplicated("p0", "p1", 10.0)
        assert active.delay_excursion("p0", "p1", 10.0) is None

    def test_out_of_spec_detection(self):
        plan = FaultPlan(
            seed=0,
            injections=(
                CrashWindow("p1", 0.0, 1.0),
                DelayExcursion("p0", "p1", 3.0, 4.0),
            ),
        )
        assert plan.has_out_of_spec()
        assert plan.out_of_spec_windows() == [(3.0, 4.0)]


class TestCrashWindows:
    def test_crash_half_open_interval(self):
        plan = FaultPlan(seed=0, injections=(CrashWindow("p1", 10.0, 20.0),))
        active = plan.bind(small_network())
        assert not active.crashed("p1", 9.999)
        assert active.crashed("p1", 10.0)
        assert active.crashed("p1", 19.999)
        assert not active.crashed("p1", 20.0)
        assert not active.crashed("p2", 15.0)

    def test_multiple_windows_union(self):
        plan = FaultPlan(
            seed=0,
            injections=(
                CrashWindow("p1", 1.0, 2.0),
                CrashWindow("p1", 5.0, 6.0),
            ),
        )
        active = plan.bind(small_network())
        assert active.crashed("p1", 1.5)
        assert not active.crashed("p1", 3.0)
        assert active.crashed("p1", 5.5)
        assert active.crash_windows("p1") == [(1.0, 2.0), (5.0, 6.0)]


class TestGilbertElliott:
    def test_deterministic_per_seed(self):
        def verdicts(seed):
            plan = FaultPlan(
                seed=seed,
                injections=(
                    BurstLoss("p0", "p1", p_enter=0.3, p_exit=0.3, loss_bad=0.9),
                ),
            )
            active = plan.bind(small_network())
            return [
                active.drop_in_transit("p0", "p1", float(i)) for i in range(200)
            ]

        assert verdicts(5) == verdicts(5)
        assert verdicts(5) != verdicts(6)

    def test_directions_have_independent_state(self):
        plan = FaultPlan(
            seed=1,
            injections=(
                BurstLoss(
                    "p0", "p1", p_enter=1.0, p_exit=0.0, loss_bad=1.0, loss_good=0.0
                ),
            ),
        )
        active = plan.bind(small_network())
        # forward direction transitions to bad on the first message and
        # never exits: everything after message one is dropped
        first = active.drop_in_transit("p0", "p1", 0.0)
        rest = [active.drop_in_transit("p0", "p1", float(i)) for i in range(1, 10)]
        assert all(v == "burst" for v in rest)
        # the reverse direction keeps its own channel state machine
        assert active._burst_bad[("p1", "p0")] is False

    def test_window_gates_the_model(self):
        plan = FaultPlan(
            seed=1,
            injections=(
                BurstLoss(
                    "p0",
                    "p1",
                    p_enter=1.0,
                    p_exit=0.0,
                    loss_bad=1.0,
                    start=10.0,
                    end=20.0,
                ),
            ),
        )
        active = plan.bind(small_network())
        assert active.drop_in_transit("p0", "p1", 5.0) is None
        assert active.drop_in_transit("p0", "p1", 15.0) is not None
        assert active.drop_in_transit("p0", "p1", 25.0) is None


class TestRandomPlans:
    def test_reproducible_and_in_spec(self):
        network = small_network()
        plan_a = FaultPlan.random(3, network, 100.0)
        plan_b = FaultPlan.random(3, network, 100.0)
        assert plan_a == plan_b
        assert not plan_a.has_out_of_spec()
        assert plan_a.of_kind(CrashWindow)
        assert plan_a.of_kind(PartitionWindow)
        assert plan_a.of_kind(BurstLoss)
        assert plan_a.of_kind(Duplication)

    def test_source_spared_by_default(self):
        network = small_network()
        for seed in range(20):
            plan = FaultPlan.random(seed, network, 50.0)
            assert all(
                crash.proc != network.source for crash in plan.of_kind(CrashWindow)
            )

    def test_windows_within_duration(self):
        network = small_network()
        plan = FaultPlan.random(9, network, 50.0)
        for crash in plan.of_kind(CrashWindow):
            assert 0 <= crash.start < crash.end <= 50.0 + 50.0  # capped length


class TestExcursionClock:
    def test_offset_applied_only_in_window(self):
        clock = ExcursionClock(PerfectClock(), [(10.0, 20.0, 0.5)])
        assert clock.lt(5.0) == pytest.approx(5.0)
        assert clock.lt(10.0) == pytest.approx(10.0)
        assert clock.lt(15.0) == pytest.approx(15.0 + 0.5 * 5.0)
        assert clock.lt(20.0) == pytest.approx(20.0 + 0.5 * 10.0)
        # after the window the accumulated offset persists but stops growing
        assert clock.lt(30.0) == pytest.approx(30.0 + 5.0)

    def test_advertised_spec_unchanged(self):
        base = PiecewiseDriftingClock(3)
        clock = ExcursionClock(base, [(1.0, 2.0, 0.3)])
        assert clock.advertised == base.advertised

    def test_inverse_roundtrip(self):
        base = PiecewiseDriftingClock(5)
        clock = ExcursionClock(base, [(5.0, 15.0, 0.4), (30.0, 40.0, -0.3)])
        for rt in (0.0, 4.0, 7.5, 20.0, 35.0, 80.0):
            assert clock.rt(clock.lt(rt)) == pytest.approx(rt, abs=1e-6)

    def test_strictly_increasing_enforced(self):
        # a -1.0 offset would stop a near-unit-rate clock
        with pytest.raises(SimulationError):
            ExcursionClock(PerfectClock(), [(0.0, 10.0, -1.0)])
        # overlapping negatives whose sum kills the rate are also caught
        with pytest.raises(SimulationError):
            ExcursionClock(
                PerfectClock(), [(0.0, 10.0, -0.6), (5.0, 15.0, -0.6)]
            )

    def test_window_validation(self):
        with pytest.raises(SimulationError):
            ExcursionClock(PerfectClock(), [(5.0, 5.0, 0.1)])
        with pytest.raises(SimulationError):
            ExcursionClock(PerfectClock(), [(0.0, 5.0, 0.0)])


class TestEchoDelay:
    def test_echo_trails_by_bounded_fraction(self):
        plan = FaultPlan(seed=21, injections=(Duplication("p0", "p1", prob=1.0),))
        active = plan.bind(small_network())
        for _ in range(100):
            extra = active.echo_delay(0.1)
            assert 0.01 - 1e-12 <= extra <= 0.1 + 1e-12


_TAMPER_PROCS = ("q0", "q1", "q2", "q3")


class TestTamper:
    """The one liar function is pure: its output is a hash of its inputs."""

    @given(
        liar=byzantine_processors(_TAMPER_PROCS[1:3], duration=None),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        calls=st.lists(
            st.tuples(
                events(procs=_TAMPER_PROCS).filter(lambda event: event.is_send),
                history_payloads(procs=_TAMPER_PROCS),
            ),
            min_size=1,
            max_size=6,
        ),
    )
    def test_equal_inputs_give_equal_outputs_in_any_order(self, liar, seed, calls):
        forward = [tamper(liar, seed, send, payload) for send, payload in calls]
        backward = [tamper(liar, seed, send, payload) for send, payload in calls[::-1]]
        assert forward == backward[::-1]
        for (send, payload), out in zip(calls, forward):
            if send.proc != liar.proc:
                assert out is payload

    def test_a_re_report_repeats_the_lie_per_destination(self):
        liar = ByzantineProcessor("q1", modes=("equivocate",), magnitude=0.5)
        record = Event(EventId("q1", 3), 10.0, EventKind.INTERNAL)
        own = HistoryPayload(records=(record,), loss_flags=())

        def shipped(seq, dest):
            send = Event(EventId("q1", seq), 10.0 + seq, EventKind.SEND, dest=dest)
            return tamper(liar, 7, send, own).records[0].lt

        assert shipped(4, "q2") == shipped(9, "q2") != 10.0
        assert shipped(4, "q0") == shipped(9, "q0") != shipped(4, "q2")
