"""Validation rejection paths under randomized Byzantine schedules.

Complements ``test_validate.py`` (single-anomaly unit paths) with the
shapes a real liar produces end to end: equivocation *combined* with
truncation in one stream, and causal-closure violations buried in
multi-hop relayed views.  The end-to-end cases drive whole tampered
schedules through the hardened estimator; the unit cases call
:func:`repro.core.validate.validate_payload` directly.
"""

import dataclasses

from hypothesis import example, given

from repro.core import (
    FAILURE_KINDS,
    EventId,
    HistoryPayload,
    SuspicionPolicy,
    validate_payload,
)
from repro.sim.faults import ByzantineProcessor
from repro.sim.schedule import Schedule, ScheduleHarness
from repro.testing.strategies import schedules

from ..conftest import make_event, recv, send
from .test_validate import SPEC, StubKnowledge


def _hardened_harness(schedule):
    from repro.core import EfficientCSA

    return ScheduleHarness(
        schedule,
        estimator_factory=lambda p, s: EfficientCSA(
            p, s, reliable=not schedule.lossy, suspicion=SuspicionPolicy()
        ),
        attach_full=False,
    )


# -- end-to-end: deterministic detection cases -----------------------------------------


def test_equivocation_across_listeners_is_detected():
    """q1 tells q0 and q2 different clocks; q2's relay exposes the lie at q0."""
    schedule = Schedule(
        rates=(1.0, 1.0, 1.0),
        edges=((0, 1), (1, 2), (0, 2)),
        steps=(
            ("send", 1, 0, 0.5),
            ("deliver", 1, 0, 0.3),
            ("send", 1, 2, 0.4),
            ("deliver", 1, 2, 0.3),
            ("send", 2, 0, 0.2),
            ("deliver", 2, 0, 0.4),
        ),
        tamper=ByzantineProcessor("q1", modes=("equivocate",), magnitude=0.5),
    )
    harness = _hardened_harness(schedule)
    harness.run()
    failures = harness.csas["q0"].validation_failures
    assert any(
        f.kind == "equivocation" and f.accused == ("q1",) for f in failures
    ), [f"{f.kind}:{f.accused}" for f in failures]


def test_truncation_surfaces_as_closure_violation_then_gap():
    """A truncated payload leaves a dangling receive, then an inexplicable gap."""
    schedule = Schedule(
        rates=(1.0, 1.0, 1.0),
        edges=((0, 1), (1, 2)),
        steps=(
            # q1#0: send to q2 (padding so later payloads have >1 record)
            ("send", 1, 2, 0.5),
            ("deliver", 1, 2, 0.2),
            # q1#1: send to q0; the shipped payload is truncated, so the
            # receive at q0 references a send record that never arrives
            ("send", 1, 0, 0.3),
            ("deliver", 1, 0, 0.2),
            # q1#2: next send to q0 now *skips* the withheld record
            ("send", 1, 0, 0.3),
            ("deliver", 1, 0, 0.2),
        ),
        tamper=ByzantineProcessor("q1", modes=("truncate",), rate=0.5),
    )
    harness = _hardened_harness(schedule)
    harness.run()
    kinds = {f.kind for f in harness.csas["q0"].validation_failures}
    assert kinds & {"dangling-send", "gap"}, kinds


# -- end-to-end: randomized schedules --------------------------------------------------


def _implicates_liar(failure, liar):
    """Whether a ledger entry traces back to the liar's stream.

    Either the liar is accused outright, or the flagged record is one of
    the liar's own events, or it is a receive referencing one of the
    liar's (withheld) sends.
    """
    if liar in failure.accused:
        return True
    record = failure.record
    if record is None:
        return False
    if getattr(record, "proc", None) == liar:
        return True
    send_eid = getattr(record, "send_eid", None)
    return send_eid is not None and send_eid.proc == liar


#: a liar's forged copy of its own send q1#0 travels q1 -> q0 -> q2 -> q1:
#: the liar, holding the authentic copy, must not accuse itself
_ECHOED_SELF = Schedule(
    rates=(1.0, 1.0, 1.0),
    edges=((0, 1), (0, 2), (1, 2)),
    steps=(
        ("send", 0, 1, 1.0),
        ("send", 0, 1, 1.0),
        ("send", 1, 0, 1.0),
        ("deliver", 1, 0, 1.0),
        ("send", 0, 1, 1.0),
        ("send", 0, 1, 1.0),
        ("send", 0, 2, 1.0),
        ("deliver", 0, 2, 1.0),
    )
    + (("send", 0, 1, 1.0),) * 6
    + (("send", 2, 1, 1.0), ("deliver", 2, 1, 1.0)),
    tamper=ByzantineProcessor("q1", modes=("lie_timestamps",), magnitude=1.0),
)


@given(schedules(min_procs=3, max_procs=5, min_steps=10, max_steps=35, tamper=True))
@example(_ECHOED_SELF)
def test_combined_equivocation_and_truncation_never_misattributes(schedule):
    """Whatever a lying stream does, every ledger entry traces to the liar.

    The liar equivocates *and* truncates in the same stream (the hardest
    attribution case: the dangling/gap echoes of truncation arrive
    interleaved with conflicting copies).  Sender-attributed kinds may
    name an honest relay — Fig 2 relays never ship holes, so a hole in a
    relayed stream structurally blames the shipper until the origin is
    suspected, and :data:`~repro.core.DEFAULT_BLAME_WEIGHTS` zero-weights
    those echoes precisely so the framing never evicts the relay — but
    every entry must still carry the liar's fingerprints (in ``accused``,
    in the flagged record's origin, or in the send it references).
    Unforgeable origin-attributed kinds must accuse exactly the liar,
    nobody self-accuses, processors the liar's data never reached stay
    spotless, and the run never crashes the hardened pipeline.
    """
    tamper = dataclasses.replace(schedule.tamper, modes=("equivocate", "truncate"))
    schedule = dataclasses.replace(schedule, tamper=tamper)
    harness = _hardened_harness(schedule)
    harness.run()
    liar = schedule.tamper.proc
    for proc in harness.names:
        csa = harness.csas[proc]
        for failure in csa.validation_failures:
            assert failure.kind in FAILURE_KINDS
            assert proc not in failure.accused  # never self-accusation
            assert _implicates_liar(failure, liar), (proc, failure)
            if failure.kind in ("equivocation", "non-monotone"):
                # unforgeable: only the origin can contradict itself
                assert failure.accused == (liar,)
        if proc not in harness.tainted:
            # the liar's data never reached this processor
            assert not csa.validation_failures
            assert not csa.eviction_events


@given(schedules(min_procs=2, max_procs=4, min_steps=5, max_steps=30))
def test_honest_schedules_never_ledger_anything(schedule):
    """Screening is behaviorally invisible on spec-satisfying executions."""
    harness = _hardened_harness(schedule)
    harness.run()
    for proc in harness.names:
        csa = harness.csas[proc]
        assert csa.validation_failures == []
        assert not csa.eviction_events


# -- unit: causal-closure violations on multi-hop views --------------------------------


def _chain_view():
    """s -> a is the receiver's hop; the payload relays a b/c conversation."""
    s0 = send("b", 0, 1.0, dest="c")
    r0 = recv("c", 0, 1.5, s0)
    s1 = send("c", 1, 2.0, dest="b")
    r1 = recv("b", 1, 2.5, s1)
    return [s0, r0, s1, r1]


def test_multi_hop_relay_with_withheld_send_blames_the_relay():
    """A receive deep in a relayed chain references a send the payload omits."""
    chain = _chain_view()
    ghost = recv("c", 2, 3.5, send("b", 5, 3.0, dest="c"))  # b#5 never shipped
    payload = HistoryPayload(records=tuple(chain + [ghost]), loss_flags=())
    report = validate_payload(
        "b", payload, knowledge=StubKnowledge(), spec=SPEC, receiver="a"
    )
    dangling = [f for f in report.failures if f.kind == "dangling-send"]
    assert dangling and dangling[0].accused == ("b",)
    # closure violations deep in the chain do not reject the whole view
    assert ghost in report.accepted


def test_multi_hop_withheld_send_blames_suspected_origin_over_relay():
    chain = _chain_view()
    ghost = recv("c", 2, 3.5, send("b", 5, 3.0, dest="c"))
    payload = HistoryPayload(records=tuple(chain + [ghost]), loss_flags=())
    report = validate_payload(
        "b",
        payload,
        knowledge=StubKnowledge(),
        spec=SPEC,
        receiver="a",
        suspected=("b",),
    )
    dangling = [f for f in report.failures if f.kind == "dangling-send"]
    assert dangling and dangling[0].accused == ("b",)


def test_multi_hop_send_ref_resolving_to_internal_blames_the_origin():
    """The referenced eid exists two hops away - but is not a send at all."""
    fake_send = make_event("c", 0, 1.0)  # internal event squatting on the id
    rx = recv("b", 0, 1.8, send("c", 0, 1.0, dest="b"))
    payload = HistoryPayload(records=(fake_send, rx), loss_flags=())
    report = validate_payload(
        "b", payload, knowledge=StubKnowledge(), spec=SPEC, receiver="a"
    )
    bad = [f for f in report.failures if f.kind == "bad-send-ref"]
    assert bad and bad[0].accused == ("c",)


def test_equivocation_freezes_the_stream_within_a_payload():
    """After one anomaly, the origin's remaining records drop without blame.

    One poisoned payload is one lie: the equivocation is ledgered, and the
    truncation gap riding the same stream is swallowed silently rather
    than stacking a second accusation in the same screen.
    """
    held = send("b", 0, 1.0, dest="a")
    knowledge = StubKnowledge([held])
    twisted = send("b", 0, 1.7, dest="a")  # equivocation vs the held copy
    skipping = make_event("b", 3, 4.0)  # truncation: b#1, b#2 withheld
    payload = HistoryPayload(records=(twisted, skipping), loss_flags=())
    report = validate_payload(
        "c", payload, knowledge=knowledge, spec=SPEC, receiver="a"
    )
    assert [f.kind for f in report.failures] == ["equivocation"]
    assert report.failures[0].accused == ("b",)
    assert twisted in report.rejected and skipping in report.rejected
    assert report.sanitized.records == ()


def test_equivocation_then_truncation_across_payloads_ledgers_both():
    """Across successive payloads the combined stream earns both kinds."""
    held = send("b", 0, 1.0, dest="a")
    knowledge = StubKnowledge([held])
    twisted = send("b", 0, 1.7, dest="a")
    first = validate_payload(
        "c",
        HistoryPayload(records=(twisted,), loss_flags=()),
        knowledge=knowledge,
        spec=SPEC,
        receiver="a",
    )
    skipping = make_event("b", 3, 4.0)
    second = validate_payload(
        "c",
        HistoryPayload(records=(skipping,), loss_flags=()),
        knowledge=knowledge,
        spec=SPEC,
        receiver="a",
        suspected=("b",),  # the first screen put b on the ledger
    )
    assert [f.kind for f in first.failures] == ["equivocation"]
    assert [f.kind for f in second.failures] == ["gap"]
    # with b already suspected, the gap blames b rather than the relay c
    assert second.failures[0].accused == ("b",)
