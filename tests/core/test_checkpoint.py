"""Recovery from the replay log's checkpoint: exact, and bounded by it.

A self-healing estimator checkpoints its state every ``CHECKPOINT_EVERY``
logged events and a recovery restores the checkpoint and replays only the
suffix.  The oracle throughout is the full replay that stays for
evictions: the same operations in the same order on bit-equal inputs, so
everything derived from the log is compared with ``==``, never ``approx``.
"""

import contextlib
import math
import random
from dataclasses import asdict

import pytest
from hypothesis import given, settings

from repro.core import EfficientCSA
from repro.core import csa as csa_module
from repro.core.agdp import AGDP
from repro.core.agdp_numpy import NumpyAGDP
from repro.core.csa_base import SuspicionPolicy
from repro.core.events import EventKind
from repro.core.history import HistoryModule, HistoryPayload
from repro.core.live import LiveTracker
from repro.sim.faults import CORRUPTION_SCOPES, scramble_estimator
from repro.sim.schedule import Schedule, ScheduleHarness
from repro.testing import run_differential
from repro.testing.strategies import churn_schedules

from ..conftest import make_event, recv, send


@contextlib.contextmanager
def checkpoint_every(events: int):
    """Shrink the module constant so hand-sized runs cross many checkpoints."""
    before = csa_module.CHECKPOINT_EVERY
    csa_module.CHECKPOINT_EVERY = events
    try:
        yield
    finally:
        csa_module.CHECKPOINT_EVERY = before


def graph_state(est):
    """Everything a recovery re-derives from the log, in comparable form."""
    procs = est.live.processors
    reads = (  # first: a read audits, and heals what it finds
        [est.estimate()]
        + [est.estimate_of(p) for p in procs]
        + [est.relative_estimate(p, q) for p in procs for q in procs]
    )
    nodes = sorted(est.agdp.nodes)
    return {
        "reads": reads,
        "live": est.live.live_points(),
        "last": est.live.last_events(),
        "nodes": nodes,
        "distances": [est.agdp.distance(x, y) for x in nodes for y in nodes],
        "source_rep": est._source_rep,
        "known": est.history.knowledge_frontier(),
        "loss_flags": est.history.loss_flags,
    }


def assert_ships_no_less(victim, twin):
    """What differs from a twin after a recovery, and in which direction:
    the watermarks are older, so the victim holds and owes a superset."""
    ours, theirs = victim.history, twin.history
    assert set(ours._buffer) >= set(theirs._buffer)
    for u in ours.neighbors:
        assert set(ours._pending[u]) >= set(theirs._pending[u])
        for proc in theirs.knowledge_frontier():
            assert ours.watermark(u, proc) <= theirs.watermark(u, proc)


# -- (a) the long-run twin ----------------------------------------------------


class Worlds:
    """The same execution driven through two harnesses in lockstep: one
    whose ``q2`` gets scrambled and one that never does."""

    #: q0 is the source, q1 sponsors the late joiner q2, q3 is away during
    #: the join and comes back owing q2 records its frontier already covers
    SCHEDULE = Schedule(
        rates=(1.0, 1.0002, 0.9997, 1.0001),
        edges=((0, 1), (1, 2), (2, 3), (3, 0)),
        steps=(),
        lossy=True,
        initial=(0, 1, 3),
    )

    def __init__(self, factory):
        self.pair = [
            ScheduleHarness(self.SCHEDULE, estimator_factory=factory, attach_full=False)
            for _ in range(2)
        ]
        self.victim = self.pair[0].csas["q2"]
        self.twin = self.pair[1].csas["q2"]
        #: checkpoint position -> forwarded records it had folded in
        self.checkpoints = {}
        #: loss flags applied between hooks while the log stood exactly at
        #: its checkpoint: flag -> that position
        self.flags_at_checkpoint = {}

    def each(self, op, *args):
        for harness in self.pair:
            harness.advance(0.05)
            getattr(harness, op)(*args)
        self._after_hook()

    def message(self, src, dest):
        self.each("send", src, dest)
        self.each("deliver", src, dest)

    def _after_hook(self):
        log = self.victim._log
        taken = log.checkpoint
        if taken is None or taken.position in self.checkpoints:
            return
        self.checkpoints[taken.position] = taken.forwarded
        assert taken.position == len(log.events)  # taken where a hook ends
        if self.pair[0].in_flight[("q2", "q3")]:
            lost = self.pair[0].in_flight[("q2", "q3")][0][0].eid
            for harness in self.pair:
                harness.drop("q2", "q3")
            assert log.flags[lost] == taken.position
            self.flags_at_checkpoint[lost] = taken.position

    def round(self):
        self.message("q0", "q1")
        self.message("q1", "q2")
        self.each("send", "q2", "q3")  # stays in flight: the next flag's target
        self.message("q2", "q1")
        self.message("q1", "q0")
        self.message("q3", "q0")
        self.message("q0", "q3")
        if len(self.pair[0].in_flight[("q2", "q3")]) > 2:
            self.each("deliver", "q2", "q3")
        self.message("q3", "q2")

    def join_with_half_the_handshake(self):
        """q1 sponsors q2, but the older half of the handshake's records
        goes missing: q2's adopted frontier covers them all the same, and
        whoever ships them later hands q2 records to forward, not to learn."""
        for harness in self.pair:
            sponsor = harness.csas["q1"]

            def halved(event, on_send=sponsor.on_send):
                payload = on_send(event)
                records = payload.records
                return HistoryPayload(records[len(records) // 2 :], payload.loss_flags)

            sponsor.on_send = halved
            harness.advance(0.05)
            harness.join("q2", "q1")
            del sponsor.on_send
        self._after_hook()

    def late_delivery(self):
        """q1 gives a message to q2 up for lost, says so on the next one,
        and the first arrives after all - after its flag."""
        held = []
        for harness in self.pair:
            harness.advance(0.05)
            harness.send("q1", "q2")
            entry = harness.in_flight[("q1", "q2")].pop()
            harness.csas["q1"].on_loss_detected(entry[0].eid)
            held.append(entry)
        self.message("q1", "q2")
        for harness, (sent, payload, _full) in zip(self.pair, held):
            assert sent.eid in harness.csas["q2"].history.loss_flags
            harness.advance(0.05)
            event = harness._next_event("q2", EventKind.RECEIVE, send_eid=sent.eid)
            harness.csas["q2"].on_receive(event, payload)
        self._after_hook()

    def scramble(self, scope, seed):
        return scramble_estimator(self.victim, scope, random.Random(seed))


def build_worlds(backend, suspicion):
    worlds = Worlds(
        lambda proc, spec: EfficientCSA(
            proc, spec, reliable=False, self_heal=True,
            agdp_backend=backend, suspicion=suspicion,
        )
    )
    for _ in range(3):  # q3 piles up a backlog toward the absent q2
        worlds.message("q0", "q1")
        worlds.message("q0", "q3")
        worlds.message("q3", "q0")
        worlds.message("q1", "q0")
    worlds.each("leave", "q3")
    worlds.join_with_half_the_handshake()
    assert worlds.victim._log.snapshot is not None
    forwarded_at_join = len(worlds.victim._log.forwarded)
    assert forwarded_at_join  # the handshake carried frontier-covered records
    for _ in range(4):
        worlds.message("q0", "q1")
        worlds.message("q1", "q2")
        worlds.message("q2", "q1")
    worlds.each("rejoin", "q3")
    worlds.message("q3", "q2")
    # q3's old backlog holds the half that went missing
    assert len(worlds.victim._log.forwarded) > forwarded_at_join
    for _ in range(4):
        worlds.round()
    worlds.late_delivery()
    worlds.round()
    return worlds


@pytest.mark.parametrize("scope", CORRUPTION_SCOPES)
@pytest.mark.parametrize("suspicion", [None, SuspicionPolicy()], ids=["plain", "hardened"])
@pytest.mark.parametrize("backend", ["dict", "numpy"])
def test_long_run_twin_is_bit_equal_after_recovery(backend, suspicion, scope):
    if scope == "ledger" and suspicion is None:
        pytest.skip("a plain self-healing estimator keeps no ledger to scramble")
    with checkpoint_every(16):
        worlds = build_worlds(backend, suspicion)
        victim, twin = worlds.victim, worlds.twin
        assert len(worlds.checkpoints) >= 3
        assert worlds.flags_at_checkpoint
        # the first checkpoint folded the handshake's forwarded records in,
        # the rest were forwarded after it
        folded = worlds.checkpoints[min(worlds.checkpoints)]
        assert 0 < folded < len(victim._log.forwarded)
        assert graph_state(victim) == graph_state(twin)

        # the same checkpoint serves twice: no hook runs between the two
        # scrambles, so no new one can have been taken
        for seed in (7, 8):
            assert worlds.scramble(scope, seed)
            assert graph_state(victim) == graph_state(twin)  # the reads heal
        assert [e.from_checkpoint for e in victim.recovery_events] == [True, True]
        assert all(e.replayed < 16 for e in victim.recovery_events)
        assert twin.recoveries == 0
        assert_ships_no_less(victim, twin)

        # the restored structures carry on like the originals
        for _ in range(3):
            worlds.round()
            assert graph_state(victim) == graph_state(twin)
        assert_ships_no_less(victim, twin)
        # ... and the neighbors dedup what was shipped again
        for proc in ("q0", "q1", "q3"):
            assert graph_state(worlds.pair[0].csas[proc]) == graph_state(
                worlds.pair[1].csas[proc]
            )


def test_recovery_before_the_first_checkpoint_replays_everything():
    worlds = Worlds(
        lambda proc, spec: EfficientCSA(proc, spec, reliable=False, self_heal=True)
    )
    worlds.message("q0", "q1")
    worlds.each("join", "q2", "q1")
    worlds.message("q1", "q2")
    victim = worlds.victim
    assert victim._log.checkpoint is None
    assert worlds.scramble("agdp", 3)
    assert graph_state(victim) == graph_state(worlds.twin)
    (event,) = victim.recovery_events
    assert not event.from_checkpoint
    assert event.replayed == len(victim._log.events)


# -- (b) checkpoint + suffix == full replay, over generated churn ---------------


class BothWays(EfficientCSA):
    """Recovers twice from the same corrupted state - once with the
    checkpoint dropped (the full replay), once from it - and keeps the
    two outcomes for the test to compare (``mismatches``, a list the
    test hands each instance).  The run continues on the checkpointed
    state."""

    def _recover(self, at_lt, reason):
        log = self._log
        taken, log.checkpoint = log.checkpoint, None
        super()._recover(at_lt, reason)
        full = self._comparable()
        everything = set(self.history._buffer)  # no watermark survived
        log.checkpoint = taken
        super()._recover(at_lt, reason)
        if self._comparable() != full:
            self.mismatches.append((self.proc, at_lt, reason))
        if not set(self.history._buffer) <= everything:
            self.mismatches.append((self.proc, at_lt, "buffer holds an unlogged record"))

    def _comparable(self):
        nodes = sorted(self.agdp.nodes)
        return (
            self.live.live_points(),
            self.live.last_events(),
            self.live.undelivered_sends(),
            self.live.lost_flags,
            nodes,
            [self.agdp.distance(x, y) for x in nodes for y in nodes],
            self._source_rep,
            self.history.knowledge_frontier(),
            self.history.loss_flags,
        )


@settings(max_examples=40)
@given(churn_schedules(min_steps=25, max_steps=45))
def test_checkpoint_plus_suffix_equals_full_replay(schedule):
    mismatches = []
    estimators = []

    def factory(proc, spec):
        est = BothWays(
            proc, spec, reliable=False, self_heal=True, suspicion=SuspicionPolicy()
        )
        est.mismatches = mismatches
        estimators.append(est)
        return est

    with checkpoint_every(3):
        report = run_differential(
            schedule, estimator_factory=factory, check_determinism=False
        )
    assert report.ok, report.describe()
    assert not mismatches
    for est in estimators:
        for event in est.recovery_events:
            # while a ledger excludes something no checkpoint is taken and
            # the suffix may grow; otherwise it stays below the constant
            assert not event.from_checkpoint or event.replayed < 3 or est.eviction_events


# -- (c) evictions: no checkpoint while anything is excluded --------------------


def line3_spec():
    from repro.core.specs import DriftSpec, SystemSpec, TransitSpec

    return SystemSpec.build(
        source="src",
        processors=["src", "a", "b"],
        links=[("src", "a"), ("a", "b")],
        default_drift=DriftSpec.from_ppm(100.0),
        default_transit=TransitSpec(0.2, 1.0),
    )


def ping(estimator, source, round_no):
    """One src -> a message and one internal event at ``a``."""
    lt = 10.0 + round_no
    s = send("src", round_no, lt, dest="a")
    estimator.on_receive(recv("a", 2 * round_no, lt + 3.5, s), source.on_send(s))
    estimator.on_internal(make_event("a", 2 * round_no + 1, lt + 3.75))


def test_an_estimator_that_evicted_takes_no_checkpoint():
    def make():
        return EfficientCSA(
            "a", line3_spec(), self_heal=True, suspicion=SuspicionPolicy()
        )

    with checkpoint_every(4):
        victim, clean = make(), make()
        sources = [EfficientCSA("src", line3_spec()) for _ in range(2)]
        for round_no in range(4):
            for est, source in zip((victim, clean), sources):
                ping(est, source, round_no)
        taken = victim._log.checkpoint
        assert taken is not None and taken.position == clean._log.checkpoint.position

        victim.report_anomaly("b", "equivocation", 20.0, "says two things")
        assert victim.suspicion.is_evicted("b")
        for round_no in range(4, 10):
            for est, source in zip((victim, clean), sources):
                ping(est, source, round_no)
        assert victim._log.checkpoint is taken  # the last clean one stays
        assert clean._log.checkpoint.position > taken.position

        # a recovery forgets the ledger, so clean checkpoint + long suffix
        # must land exactly where the never-evicting estimator stands
        assert scramble_estimator(victim, "agdp", random.Random(5))
        assert graph_state(victim) == graph_state(clean)
        (event,) = victim.recovery_events
        assert event.from_checkpoint
        assert event.replayed == len(victim._log.events) - taken.position > 4
        assert not victim.suspicion.is_evicted("b")
        # ... and checkpoints resume under the fresh ledger
        for est, source in zip((victim, clean), sources):
            ping(est, source, 10)
        assert victim._log.checkpoint.position == clean._log.checkpoint.position


def test_non_healing_estimators_take_no_checkpoint():
    with checkpoint_every(2):
        hardened = EfficientCSA("a", line3_spec(), suspicion=SuspicionPolicy())
        source = EfficientCSA("src", line3_spec())
        for round_no in range(4):
            ping(hardened, source, round_no)
        assert len(hardened._log.events) >= 8
        assert hardened._log.checkpoint is None


def test_replay_since_counts_flags_instead_of_comparing_positions():
    log = csa_module.ReplayLog()
    events = [make_event("a", seq, 10.0 + seq) for seq in range(5)]
    early, at_checkpoint, late = (make_event("b", seq, 1.0).eid for seq in range(3))
    log.append(events[0])
    log.append(events[1])
    log.flag(early)  # applied in the hook that ends at the checkpoint
    log.take_checkpoint(None, None, None, None)
    assert log.checkpoint[:3] == (2, 1, 0)
    log.flag(at_checkpoint)  # between hooks: carries the checkpoint's position
    assert log.flags[at_checkpoint] == log.flags[early] == 2
    log.append(events[2])
    log.append(events[3])
    log.flag(late)
    log.append(events[4])
    assert list(log.replay(log.checkpoint)) == [
        at_checkpoint, events[2], events[3], late, events[4]
    ]
    assert list(log.replay()) == [
        events[0], events[1], early, at_checkpoint, events[2], events[3], late, events[4]
    ]


# -- (d) copies share nothing mutable --------------------------------------------


def driven_estimator(backend):
    with checkpoint_every(10 ** 9):
        worlds = build_worlds(backend, SuspicionPolicy())
    return worlds.victim


def solver_dump(agdp):
    nodes = sorted(agdp.nodes)
    return nodes, [agdp.distance(x, y) for x in nodes for y in nodes], asdict(agdp.stats)


def tracker_dump(live):
    return (
        live.last_events(), live.undelivered_sends(), live.lost_flags,
        live.live_count(), live.events_observed, live.max_live,
    )


def history_dump(history):
    return (
        list(history._buffer), history._watermark, history._pending, history._lacking,
        history.knowledge_frontier(), history.loss_flags, history._loss_sent,
        history._loss_pending, asdict(history.stats),
    )


@pytest.mark.parametrize("backend", ["dict", "numpy"])
def test_copies_are_independent_of_the_original(backend):
    est = driven_estimator(backend)
    assert isinstance(est.agdp, AGDP if backend == "dict" else NumpyAGDP)
    copies = (est.agdp.copy(), est.live.copy(), est.history.copy())
    assert isinstance(copies[1], LiveTracker) and isinstance(copies[2], HistoryModule)
    assert type(copies[0]) is type(est.agdp)

    def dumps(agdp, live, history):
        return solver_dump(agdp), tracker_dump(live), history_dump(history)

    before = dumps(*copies)
    assert before == dumps(est.agdp, est.live, est.history)
    assert copies[2].pending_tokens() == 0 < est.history.pending_tokens()

    # scrambling or advancing the original leaves the copies alone
    for scope in CORRUPTION_SCOPES:
        assert scramble_estimator(est, scope, random.Random(1))
        assert dumps(*copies) == before
        est.estimate()  # heals
    seq = est.last_local_event.eid.seq
    out = send("q2", seq + 1, est.last_local_event.lt + 1.0, dest="q1")
    est.on_send(out)
    est.on_loss_detected(out.eid)
    assert dumps(*copies) == before
    assert dumps(est.agdp, est.live, est.history) != before

    # ... and vice versa
    reference = dumps(est.agdp, est.live, est.history)
    agdp, live, history = copies
    event = make_event("q0", live.last_seq("q0") + 1, 99.0)
    dead, pred, _ = live.observe(event)
    agdp.step(event.eid, [(event.eid, pred[0], 0.5), (pred[0], event.eid, 0.5)], dead)
    live.flag_lost(out.eid)
    history.adopt_events([event])
    history.record_loss(event.eid)
    payload, token = history.prepare_payload("q1")
    assert dumps(est.agdp, est.live, est.history) == reference
    assert dumps(*copies) != before


def test_numpy_copy_takes_the_block_not_the_capacity():
    solver = NumpyAGDP()
    for k in range(40):
        solver.add_node(k)
        if k:
            solver.insert_edge(k - 1, k, 1.0)
    for k in range(30):
        solver.kill(k)
    solver._matrix[solver._n :, :] = -7.0  # stale cells a real run leaves behind
    twin = solver.copy()
    assert twin.nodes == solver.nodes and len(twin) == 10
    n = twin._n
    assert math.isinf(twin._matrix[n:, :].min()) and math.isinf(twin._matrix[:, n:].min())
    twin.add_node("x")
    twin.insert_edge(39, "x", 2.0)
    assert twin.distance(30, "x") == 11.0
    assert "x" not in solver
