"""Self-stabilization: seeded state corruption, detection, exact rebuild.

Every scramble in :data:`~repro.sim.faults.CORRUPTION_SCOPES` must trip
the structural audit, and the recovery (a replay of the durable event
log) must leave the estimator with exactly the estimates of a twin that
was never corrupted - detection happens at the next event hook *or* at
the next read, whichever comes first, so a sampled estimate can never
leak scrambled state.
"""

import math
import random

import pytest

from repro.core import EfficientCSA
from repro.core.csa import ReplayLog
from repro.core.specs import DriftSpec, SystemSpec, TransitSpec
from repro.sim.faults import CORRUPTION_SCOPES, scramble_estimator
from repro.core.csa_base import SuspicionPolicy

from ..conftest import make_event, recv, send


def line3_spec() -> SystemSpec:
    return SystemSpec.build(
        source="src",
        processors=["src", "a", "b"],
        links=[("src", "a"), ("a", "b")],
        default_drift=DriftSpec.from_ppm(100.0),
        default_transit=TransitSpec(0.2, 1.0),
    )


def run_script(estimator_a):
    """One round trip src <-> a, driving the passive hooks."""
    spec = estimator_a.spec
    source = EfficientCSA("src", spec)
    s1 = send("src", 0, 10.0, dest="a")
    payload1 = source.on_send(s1)
    estimator_a.on_receive(recv("a", 0, 13.5, s1), payload1)
    s2 = send("a", 1, 14.0, dest="src")
    source.on_receive(recv("src", 1, 11.5, s2), estimator_a.on_send(s2))
    return source


def healing_pair():
    """Two identically-driven self-healing estimators (victim + twin)."""
    spec = line3_spec()
    victim = EfficientCSA("a", spec, self_heal=True, suspicion=SuspicionPolicy())
    twin = EfficientCSA("a", spec, self_heal=True, suspicion=SuspicionPolicy())
    run_script(victim)
    run_script(twin)
    return victim, twin


@pytest.mark.parametrize("scope", CORRUPTION_SCOPES)
def test_scramble_trips_the_structural_audit(scope):
    victim, _twin = healing_pair()
    assert victim.self_check()
    assert scramble_estimator(victim, scope, random.Random(7))
    assert not victim.self_check()


@pytest.mark.parametrize("scope", CORRUPTION_SCOPES)
def test_next_event_hook_recovers_exactly(scope):
    victim, twin = healing_pair()
    assert scramble_estimator(victim, scope, random.Random(7))
    # the next send's entry audit detects and rebuilds from the event log
    s3 = send("a", 2, 15.0, dest="src")
    payload_victim = victim.on_send(s3)
    payload_twin = twin.on_send(send("a", 2, 15.0, dest="src"))
    assert victim.recoveries == 1
    assert len(victim.recovery_events) == 1
    assert victim.self_check()
    assert victim.estimate().lower == pytest.approx(twin.estimate().lower)
    assert victim.estimate().upper == pytest.approx(twin.estimate().upper)
    # the rebuilt history re-reports, receivers dedup: records are a superset
    victim_ids = {record.eid for record in payload_victim.records}
    twin_ids = {record.eid for record in payload_twin.records}
    assert victim_ids >= twin_ids


#: every way out of the distance matrix
READS = {
    "estimate": lambda est: est.estimate(),
    "estimate_of": lambda est: est.estimate_of("src"),
    "relative_estimate": lambda est: est.relative_estimate("a", "src"),
}


@pytest.mark.parametrize("scope", CORRUPTION_SCOPES)
def test_read_path_audits_too(scope):
    """Sampling between the scramble and the next event must self-heal,
    whichever read does the sampling: it raises nothing, costs exactly one
    recovery, and returns what the never-corrupted twin returns."""
    for name, read in READS.items():
        victim, twin = healing_pair()
        assert scramble_estimator(victim, scope, random.Random(11))
        bound = read(victim)  # no event hook ran in between
        assert victim.recoveries == 1, name
        assert bound.is_bounded, name
        assert bound.lower == pytest.approx(read(twin).lower), name
        assert bound.upper == pytest.approx(read(twin).upper), name


def test_estimate_of_matches_twin_after_recovery():
    victim, twin = healing_pair()
    assert scramble_estimator(victim, "agdp", random.Random(3))
    victim.on_internal(make_event("a", 2, 15.0))  # audit runs at entry
    twin.on_internal(make_event("a", 2, 15.0))
    for proc in ("src", "a"):
        ours = victim.estimate_of(proc)
        theirs = twin.estimate_of(proc)
        assert ours.lower == pytest.approx(theirs.lower)
        assert ours.upper == pytest.approx(theirs.upper)


def test_plain_estimator_refuses_the_scramble():
    spec = line3_spec()
    plain = EfficientCSA("a", spec)
    run_script(plain)
    assert not scramble_estimator(plain, "agdp", random.Random(5))
    assert plain.estimate().is_bounded  # untouched


def test_unknown_scope_rejected():
    victim, _twin = healing_pair()
    with pytest.raises(Exception):
        scramble_estimator(victim, "flux-capacitor", random.Random(1))


def test_scramble_before_any_state_is_refused():
    spec = line3_spec()
    empty = EfficientCSA("a", spec, self_heal=True)
    assert not scramble_estimator(empty, "agdp", random.Random(2))


def _unreliable_healing_estimator():
    """A self-healing, debug-checked estimator with one unsettled send."""
    spec = line3_spec()
    victim = EfficientCSA(
        "a",
        spec,
        reliable=False,
        self_heal=True,
        suspicion=SuspicionPolicy(),
        debug_checks=True,
    )
    source = EfficientCSA("src", spec, reliable=False)
    s1 = send("src", 0, 10.0, dest="a")
    victim.on_receive(recv("a", 0, 13.5, s1), source.on_send(s1))
    s2 = send("a", 1, 14.0, dest="src")
    victim.on_send(s2)  # delivery never settles: the token stays pending
    return victim, s2


@pytest.mark.parametrize("settle", ["loss", "confirm"])
def test_loss_and_confirm_hooks_audit_too(settle):
    """A drop or ack landing on corrupted state recovers, never trips debug.

    Found by the churn differential sweep: ``on_loss_detected`` and
    ``on_delivery_confirmed`` fire without a local event, so without an
    entry audit a scramble sat unrepaired while the debug invariant hooks
    validated the poisoned matrix.
    """
    victim, s2 = _unreliable_healing_estimator()
    assert scramble_estimator(victim, "agdp", random.Random(13))
    if settle == "loss":
        victim.on_loss_detected(s2.eid)  # must audit + rebuild, not raise
        assert s2.eid in victim.history.loss_flags
    else:
        victim.on_delivery_confirmed(s2.eid)  # degrades to a no-op
    assert victim.recoveries == 1
    assert victim.self_check()
    assert victim.estimate().is_bounded


def _lossy_run(estimator_a):
    """``a`` loses six sends to ``b`` one after another, then gets a late
    delivery from ``src`` that followed its own loss flag."""
    spec = estimator_a.spec
    source = EfficientCSA("src", spec, reliable=False)
    s1 = send("src", 0, 10.0, dest="a")
    estimator_a.on_receive(recv("a", 0, 13.5, s1), source.on_send(s1))
    seq, lt = 1, 14.0
    for _ in range(6):
        lost = send("a", seq, lt, dest="b")
        estimator_a.on_send(lost)
        estimator_a.on_internal(make_event("a", seq + 1, lt + 0.25))
        estimator_a.on_loss_detected(lost.eid)
        seq, lt = seq + 2, lt + 0.5
    # src gives s2 up for lost and says so on s3; s2 then arrives after all
    # (its timestamps agree with the other two messages, so transit edges
    # for it would tighten the bound rather than contradict anything)
    s2 = send("src", 1, 16.5, dest="a")
    payload2 = source.on_send(s2)
    source.on_loss_detected(s2.eid)
    s3 = send("src", 2, 17.0, dest="a")
    estimator_a.on_receive(recv("a", seq, 20.2, s3), source.on_send(s3))
    assert s2.eid in estimator_a.history.loss_flags
    estimator_a.on_receive(recv("a", seq + 1, 20.3, s2), payload2)
    return seq + 2


@pytest.mark.parametrize("suspicion", [None, SuspicionPolicy()], ids=["plain", "hardened"])
def test_rebuild_applies_each_loss_flag_where_the_run_did(suspicion):
    """The replay used to apply the loss flags after the whole event log:
    every send ever flagged lost was live at once (a 147 x 147 matrix on a
    ring of 8 whose run peaks below 40), and a delivery that came after
    its flag grew transit edges the run never had."""

    def make():
        return EfficientCSA(
            "a", line3_spec(), reliable=False, self_heal=True, suspicion=suspicion
        )

    victim, twin = make(), make()
    next_seq = _lossy_run(victim)
    _lossy_run(twin)
    peak = victim.live.max_live
    assert peak == twin.live.max_live <= 4
    assert scramble_estimator(victim, "agdp", random.Random(7))
    for estimator in (victim, twin):
        estimator.on_internal(make_event("a", next_seq, 21.0))
    assert victim.recoveries == 1 and twin.recoveries == 0
    assert victim.live.max_live <= peak  # the rebuilt tracker's own peak
    assert victim.agdp.stats.max_nodes <= twin.agdp.stats.max_nodes
    assert victim.live.live_points() == twin.live.live_points()
    assert victim.agdp.nodes == twin.agdp.nodes
    for proc in ("src", "a"):
        assert victim.estimate_of(proc) == twin.estimate_of(proc)
    assert victim.estimate() == twin.estimate()
    assert victim.estimate().is_bounded


def test_replay_log_orders_flags_where_the_run_applied_them():
    from repro.core.bootstrap import BootstrapSnapshot
    from repro.core.events import EventId

    log = ReplayLog()
    adopted, early, late = EventId("src", 0), EventId("a", 1), EventId("a", 3)
    log.adopt(
        BootstrapSnapshot(
            sponsor="src", last=(), undelivered=(), known=(),
            loss_flags=(adopted,), distances=(), source_rep=None,
        )
    )
    events = [make_event("a", seq, 10.0 + seq) for seq in range(4)]
    log.append(events[0])
    log.append(events[1])
    log.flag(early)
    log.append(events[2])
    log.flag(early)  # a re-flag keeps the first position
    log.append(events[3])
    log.flag(late)
    assert list(log.replay()) == [
        adopted, events[0], events[1], early, events[2], events[3], late
    ]
    assert log.index[events[2].eid] is events[2]
    # only records that were neither learned nor retained before are kept
    covered, again = make_event("b", 0, 5.0), make_event("b", 0, 5.0)
    log.note_forwarded([events[1], covered, again])
    assert list(log.forwarded.values()) == [covered]
    assert list(log.replay())[1:3] == events[:2]  # forwarded never replays
