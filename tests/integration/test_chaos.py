"""Chaos/soak integration tests: the acceptance gate for fault injection.

Four pillars:

1. **RNG-stream isolation** - attaching a no-op :class:`FaultPlan` leaves
   an execution bit-identical (same events, same real times, same losses)
   to a run without one.
2. **Soak under randomized chaos** - seeded schedules of crashes,
   partitions, burst loss, and duplication across line/ring/grid complete
   without unhandled exceptions, estimates stay sound throughout, and
   with retransmission every surviving processor's estimate contains the
   true source time at quiesce.
3. **Graceful degradation** - an out-of-spec excursion (delay or drift)
   trips the degraded-mode quarantine: structured diagnostics are
   recorded and the estimator keeps serving queries, while a
   non-degraded control estimator raises
   :class:`InconsistentSpecificationError` on the same execution.
4. **Retransmission mechanics** - timeouts resend with exponential
   backoff up to the retry cap, and delivery confirmations cancel
   pending timers.
"""

import math

import pytest

from repro.core.csa import EfficientCSA, QuarantineDiagnostic, SuspicionPolicy
from repro.core.errors import InconsistentSpecificationError, SimulationError
from repro.sim.engine import Simulation
from repro.sim.faults import (
    BurstLoss,
    CrashWindow,
    DelayExcursion,
    DriftExcursion,
    Duplication,
    FaultPlan,
    PartitionWindow,
    RetransmitPolicy,
)
from repro.sim.network import topologies
from repro.sim.runner import run_workload, standard_network
from repro.sim.workloads import PeriodicGossip
from repro.testing import PerEdgeAGDP


def _estimators(**kwargs):
    return {"efficient": lambda p, s: EfficientCSA(p, s, reliable=False, **kwargs)}


def _trace_fingerprint(trace):
    return [
        (record.event.eid, record.event.kind, record.event.lt, record.rt)
        for record in trace
    ]


# -- 1. RNG-stream isolation -----------------------------------------------------


def test_noop_fault_plan_is_bit_identical():
    names, links = topologies.ring(5)

    def execute(faults):
        network = standard_network(names, links, seed=3, loss_prob=0.15)
        return run_workload(
            network,
            PeriodicGossip(period=4.0, seed=3),
            _estimators(),
            duration=60.0,
            seed=3,
            faults=faults,
        )

    baseline = execute(None)
    with_plan = execute(FaultPlan(seed=42))

    assert _trace_fingerprint(baseline.trace) == _trace_fingerprint(with_plan.trace)
    assert baseline.trace.lost_sends == with_plan.trace.lost_sends
    assert baseline.sim.messages_sent == with_plan.sim.messages_sent
    assert baseline.sim.messages_lost == with_plan.sim.messages_lost
    assert [(s.rt, s.proc, s.bound) for s in baseline.samples] == [
        (s.rt, s.proc, s.bound) for s in with_plan.samples
    ]


# -- 2. soak under randomized chaos ----------------------------------------------


@pytest.mark.parametrize(
    "shape_name,shape",
    [
        ("line", topologies.line(5)),
        ("ring", topologies.ring(6)),
        ("grid", topologies.grid(2, 3)),
    ],
)
def test_chaos_soak_sound_and_contained(shape_name, shape):
    names, links = shape
    network = standard_network(names, links, seed=11, loss_prob=0.05)
    plan = FaultPlan.random(11, network, 80.0)
    # the acceptance schedule must actually contain every fault family
    assert plan.of_kind(CrashWindow)
    assert plan.of_kind(PartitionWindow)
    assert plan.of_kind(BurstLoss)
    assert plan.of_kind(Duplication)
    assert not plan.has_out_of_spec()

    result = run_workload(
        network,
        PeriodicGossip(period=4.0, seed=11),
        _estimators(degraded_mode=True),
        duration=80.0,
        seed=11,
        sample_period=8.0,
        faults=plan,
        retransmit=RetransmitPolicy(timeout=1.0, backoff=2.0, max_retries=3),
    )

    # no unhandled exception reaching here is half the point; now soundness:
    assert not result.soundness_violations()
    sim = result.sim
    # faults really fired
    injected = sim.faults.injected
    assert injected["partition_drops"] + injected["burst_drops"] > 0 or (
        sim.messages_lost > 0
    )
    # surviving processors' estimates contain true source time at quiesce
    for proc in network.processors:
        if sim.crashed(proc):
            continue
        bound = sim.estimator(proc, "efficient").estimate_now(sim.local_time(proc))
        assert bound.contains(sim.now, tolerance=1e-6), (shape_name, proc)
    # in-spec chaos never trips the quarantine
    for proc in network.processors:
        assert not sim.estimator(proc, "efficient").diagnostics


def test_chaos_per_link_counters_consistent():
    names, links = topologies.ring(5)
    network = standard_network(names, links, seed=7, loss_prob=0.1)
    plan = FaultPlan.random(7, network, 60.0)
    result = run_workload(
        network,
        PeriodicGossip(period=3.0, seed=7),
        _estimators(degraded_mode=True),
        duration=60.0,
        seed=7,
        faults=plan,
        retransmit=RetransmitPolicy(timeout=1.0, max_retries=2),
    )
    sim = result.sim
    assert sum(c.sent for c in sim.link_stats.values()) == sim.messages_sent
    assert sum(c.lost for c in sim.link_stats.values()) == sim.messages_lost
    assert (
        sum(c.duplicated for c in sim.link_stats.values()) == sim.messages_duplicated
    )
    # the trace-derived summary agrees on sent/lost per directed link
    summary = sim.trace.link_summary()
    for key, counters in sim.link_stats.items():
        if counters.sent == 0:
            continue
        assert summary[key]["sent"] == counters.sent
        assert summary[key]["lost"] == counters.lost
    # drop-time accounting: trace and counters agree *at quiesce*
    assert len(sim.trace.lost_sends) == sim.messages_lost


# -- 3. graceful degradation on out-of-spec faults --------------------------------


def _excursion_network_and_plan(kind):
    names, links = topologies.line(4)
    network = standard_network(names, links, seed=5)
    if kind == "delay":
        a, b = links[1]
        injection = DelayExcursion(a, b, start=15.0, end=35.0, extra=2.0)
    else:
        injection = DriftExcursion(names[-1], start=15.0, end=35.0, rate_offset=0.5)
    return network, FaultPlan(seed=5, injections=(injection,))


@pytest.mark.parametrize("kind", ["delay", "drift"])
def test_out_of_spec_raises_without_degraded_mode(kind):
    network, plan = _excursion_network_and_plan(kind)
    with pytest.raises(InconsistentSpecificationError):
        run_workload(
            network,
            PeriodicGossip(period=4.0, seed=5),
            _estimators(degraded_mode=False),
            duration=60.0,
            seed=5,
            faults=plan,
        )


@pytest.mark.parametrize("kind", ["delay", "drift"])
def test_out_of_spec_quarantined_in_degraded_mode(kind):
    network, plan = _excursion_network_and_plan(kind)
    result = run_workload(
        network,
        PeriodicGossip(period=4.0, seed=5),
        _estimators(degraded_mode=True),
        duration=60.0,
        seed=5,
        faults=plan,
    )
    diagnostics = [
        d
        for proc in network.processors
        for d in result.sim.estimator(proc, "efficient").diagnostics
    ]
    assert diagnostics, "expected the excursion to trip the quarantine"
    for diagnostic in diagnostics:
        assert isinstance(diagnostic, QuarantineDiagnostic)
        assert diagnostic.kind in ("drift", "transit")
        assert "negative cycle" in diagnostic.reason
        x, y, w = diagnostic.edge
        assert math.isfinite(w)
    # the estimator keeps serving queries after quarantining
    for proc in network.processors:
        estimator = result.sim.estimator(proc, "efficient")
        assert estimator.degraded or not estimator.diagnostics
        bound = estimator.estimate_now(result.sim.local_time(proc))
        assert bound.lower <= bound.upper


class _PerEdgeCSA(EfficientCSA):
    """The quarantining path as it was before ``step`` went node-wise."""

    def _make_agdp(self):
        return PerEdgeAGDP(gc_enabled=self._agdp_gc)


@pytest.mark.parametrize("kind", ["delay", "drift"])
@pytest.mark.parametrize("hardened", [False, True], ids=["degraded", "hardened"])
def test_quarantine_unchanged_by_node_wise_step(kind, hardened):
    """Same constraints quarantined, same diagnostics, same blame ledger.

    Both estimators see the same execution; only the solver behind the
    quarantining branch differs (node-wise ``step`` vs the frozen per-edge
    sequence), rebuilds after evictions included.
    """
    network, plan = _excursion_network_and_plan(kind)
    mode = {"suspicion": SuspicionPolicy()} if hardened else {"degraded_mode": True}
    result = run_workload(
        network,
        PeriodicGossip(period=4.0, seed=5),
        {
            "efficient": lambda p, s: EfficientCSA(p, s, reliable=False, **mode),
            "per-edge": lambda p, s: _PerEdgeCSA(p, s, reliable=False, **mode),
        },
        duration=60.0,
        seed=5,
        faults=plan,
    )
    quarantined = 0
    for proc in network.processors:
        new = result.sim.estimator(proc, "efficient")
        old = result.sim.estimator(proc, "per-edge")
        assert new.diagnostics == old.diagnostics
        quarantined += len(new.diagnostics)
        if hardened:
            assert new.suspicion.scores == old.suspicion.scores
            assert new.suspicion.blame_counts == old.suspicion.blame_counts
            assert new.suspicion.last_blame_lt == old.suspicion.last_blame_lt
            assert new.eviction_events == old.eviction_events
        a, b = new.estimate(), old.estimate()
        assert (a.is_bounded, b.is_bounded) == (True, True) or a == b
        if a.is_bounded:
            assert a.lower == pytest.approx(b.lower, abs=1e-9)
            assert a.upper == pytest.approx(b.upper, abs=1e-9)
    assert quarantined, "expected the excursion to trip the quarantine"


def test_drift_excursion_violates_advertised_spec():
    """The excursion clock really leaves its advertised band (that's the point)."""
    network, plan = _excursion_network_and_plan("drift")
    active = plan.bind(network)
    proc = network.processors[-1]
    base = network.clocks[proc]
    wrapped = active.clock_for(proc, base)
    assert wrapped is not base
    assert wrapped.advertised == base.advertised  # spec not widened
    # measured rate over the excursion window exceeds the advertised maximum
    rate = (wrapped.lt(30.0) - wrapped.lt(20.0)) / 10.0
    max_rate = base.advertised.alpha  # alpha = fastest advertised rate
    assert rate > max_rate or rate > 1.4  # offset 0.5 dominates ppm-scale drift
    # the inverse still works on the wrapped clock
    assert wrapped.rt(wrapped.lt(27.5)) == pytest.approx(27.5, abs=1e-6)


# -- 4. retransmission mechanics ---------------------------------------------------


def _two_node_sim(**kwargs):
    names, links = topologies.line(2)
    network = standard_network(names, links, seed=1, loss_prob=kwargs.pop("loss", 0.0))
    sim = Simulation(network, seed=1, **kwargs)
    sim.attach_estimators(
        "efficient", lambda p, s: EfficientCSA(p, s, reliable=False)
    )
    return sim


def test_retransmit_resends_lost_messages():
    sim = _two_node_sim(
        loss=0.4, retransmit=RetransmitPolicy(timeout=0.5, backoff=2.0, max_retries=4)
    )
    for _ in range(40):
        sim.send("p0", "p1")
        sim.run_until(sim.now + 2.0)
    sim.run_until(sim.now + 60.0)
    assert sim.messages_lost > 0
    assert sim.retransmissions > 0
    # every loss eventually covered: attempts = originals + retransmissions
    assert sim.messages_sent == 40 + sim.retransmissions


def test_retransmit_respects_retry_cap():
    names, links = topologies.line(2)
    network = standard_network(names, links, seed=2)
    # a permanent partition loses every transmission
    plan = FaultPlan(
        seed=2, injections=(PartitionWindow("p0", "p1", 0.0, math.inf),)
    )
    sim = Simulation(
        network,
        seed=2,
        faults=plan,
        retransmit=RetransmitPolicy(timeout=0.25, backoff=2.0, max_retries=3),
    )
    sim.attach_estimators("efficient", lambda p, s: EfficientCSA(p, s, reliable=False))
    sim.send("p0", "p1")
    sim.run_until(200.0)
    # 1 original + exactly max_retries resends, then it gives up
    assert sim.messages_sent == 4
    assert sim.retransmissions == 3
    assert sim.messages_lost == 4


def test_retransmit_timeouts_use_exponential_backoff():
    policy = RetransmitPolicy(timeout=0.5, backoff=3.0, max_retries=5)
    assert policy.timeout_for(0) == pytest.approx(0.5)
    assert policy.timeout_for(1) == pytest.approx(1.5)
    assert policy.timeout_for(3) == pytest.approx(13.5)


def test_confirmed_delivery_cancels_timeout():
    sim = _two_node_sim(retransmit=RetransmitPolicy(timeout=5.0, max_retries=3))
    sim.send("p0", "p1")
    sim.run_until(100.0)
    assert sim.messages_lost == 0
    assert sim.retransmissions == 0
    assert sim.false_loss_signals == 0
    assert not sim._await_ack


def test_short_timeout_false_alarm_is_sound():
    # timeout far below the transit lower bound: every send times out first
    sim = _two_node_sim(retransmit=RetransmitPolicy(timeout=1e-3, max_retries=1))
    sim.send("p0", "p1")
    sim.run_until(50.0)
    assert sim.false_loss_signals >= 1
    assert sim.messages_lost == 0  # nothing was actually dropped
    # the estimator survived the spurious loss flag and the duplicate delivery
    bound = sim.estimator("p1", "efficient").estimate_now(sim.local_time("p1"))
    assert bound.contains(sim.now, tolerance=1e-6)


# -- crash / duplication / partition specifics -------------------------------------


def test_crash_window_suppresses_and_resumes():
    names, links = topologies.line(2)
    network = standard_network(names, links, seed=9)
    plan = FaultPlan(seed=9, injections=(CrashWindow("p1", 20.0, 40.0),))
    sim = Simulation(network, seed=9, faults=plan, confirm_deliveries=True)
    sim.attach_estimators("efficient", lambda p, s: EfficientCSA(p, s, reliable=False))

    sent = []

    def tick():
        event = sim.send("p1", "p0")
        sent.append((sim.now, event))
        back = sim.send("p0", "p1")
        assert back is not None  # p0 never crashes
        if sim.now < 60.0:
            sim.schedule_after(5.0, tick)

    sim.schedule_at(1.0, tick)
    sim.run_until(80.0)

    suppressed = [rt for rt, event in sent if event is None]
    delivered = [rt for rt, event in sent if event is not None]
    assert suppressed and all(20.0 <= rt < 40.0 for rt in suppressed)
    assert any(rt >= 40.0 for rt in delivered)  # resumed after the window
    assert sim.sends_suppressed == len(suppressed)
    # messages that arrived during the crash were dropped at the doorstep
    assert sim.faults.injected["crash_dropped_arrivals"] > 0
    # estimator state survived the outage (durable-state reboot)
    bound = sim.estimator("p1", "efficient").estimate_now(sim.local_time("p1"))
    assert bound.contains(sim.now, tolerance=1e-6)


def test_duplication_counted_and_discarded():
    names, links = topologies.line(2)
    network = standard_network(names, links, seed=13)
    plan = FaultPlan(seed=13, injections=(Duplication("p0", "p1", prob=1.0),))
    sim = Simulation(network, seed=13, faults=plan)
    sim.attach_estimators("efficient", lambda p, s: EfficientCSA(p, s, reliable=False))
    for _ in range(10):
        sim.send("p0", "p1")
        sim.run_until(sim.now + 1.0)
    sim.run_until(sim.now + 10.0)
    assert sim.messages_duplicated == 10
    assert sim.link_stats[("p0", "p1")].duplicated == 10
    # at-most-once: exactly one receive event per send in the trace
    receives = [r for r in sim.trace if r.event.is_receive]
    assert len(receives) == 10


def test_partition_drops_both_directions():
    names, links = topologies.line(2)
    network = standard_network(names, links, seed=17)
    plan = FaultPlan(
        seed=17, injections=(PartitionWindow("p0", "p1", 0.0, math.inf),)
    )
    sim = Simulation(network, seed=17, faults=plan, loss_detection_delay=1.0)
    sim.attach_estimators("efficient", lambda p, s: EfficientCSA(p, s, reliable=False))
    sim.send("p0", "p1")
    sim.run_until(sim.now + 1.0)
    sim.send("p1", "p0")
    sim.run_until(sim.now + 10.0)
    assert sim.messages_lost == 2
    assert sim.faults.injected["partition_drops"] == 2
    assert not any(r.event.is_receive for r in sim.trace)


def test_burst_loss_is_correlated():
    names, links = topologies.line(2)
    network = standard_network(names, links, seed=19)
    plan = FaultPlan(
        seed=19,
        injections=(
            BurstLoss("p0", "p1", p_enter=0.2, p_exit=0.2, loss_bad=1.0),
        ),
    )
    sim = Simulation(network, seed=19, faults=plan, loss_detection_delay=math.inf)
    sim.attach_estimators("efficient", lambda p, s: EfficientCSA(p, s, reliable=False))
    outcomes = []
    for _ in range(400):
        before = sim.messages_lost
        sim.send("p0", "p1")
        outcomes.append(sim.messages_lost > before)
        sim.run_until(sim.now + 0.5)
    losses = sum(outcomes)
    assert 0 < losses < 400
    # correlation: a loss is followed by another loss far more often than
    # the marginal loss rate would predict under independence
    following_loss = [b for a, b in zip(outcomes, outcomes[1:]) if a]
    conditional = sum(following_loss) / len(following_loss)
    marginal = losses / len(outcomes)
    assert conditional > 1.5 * marginal


# -- satellite: random_connected no longer silently under-delivers -----------------


def test_random_connected_raises_on_impossible_chords():
    with pytest.raises(SimulationError):
        topologies.random_connected(4, extra_edges=100, seed=0)
    # feasible request still works and yields the exact count
    names, pairs = topologies.random_connected(6, extra_edges=3, seed=0)
    assert len(pairs) == (6 - 1) + 3
