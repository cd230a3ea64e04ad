"""A recovery costs what was logged since the checkpoint, not the run.

ROADMAP item 1(b)'s regression test: the hardened ring of 8 at two run
lengths, seven state corruptions each.  Every recovery replays fewer than
``CHECKPOINT_EVERY`` logged events at both lengths, and the first payload
a healed node sends to a neighbor exceeds what its never-corrupted twin
ships in the same message by at most ``CHECKPOINT_EVERY`` records.  The
same runs pin the counters: nothing in ``stats()`` runs backwards across a
recovery.
"""

from dataclasses import asdict

import pytest

from repro.core import EfficientCSA, SuspicionPolicy
from repro.core.csa import CHECKPOINT_EVERY
from repro.sim import Simulation, standard_network, topologies
from repro.sim.faults import (
    CORRUPTION_SCOPES,
    FaultPlan,
    RetransmitPolicy,
    StateCorruption,
)
from repro.sim.schedule import Schedule, ScheduleHarness
from repro.sim.workloads import PeriodicGossip

#: simulated seconds of the short run; the long one is twice that
BASE_SECONDS = 90.0


class Recording(EfficientCSA):
    """Notes every payload it ships and checks its counters at every hook."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        #: ``(recoveries so far, destination, send id, records shipped)``
        self.sent = []
        self.backwards = []
        self._counters = asdict(self.stats())

    def _sample(self, hook):
        now = asdict(self.stats())
        for name, value in now.items():
            if value < self._counters[name]:
                self.backwards.append((hook, name, self._counters[name], value))
        self._counters = now

    def on_send(self, event):
        payload = super().on_send(event)
        self.sent.append((self.recoveries, event.dest, event.eid, len(payload.records)))
        self._sample("on_send")
        return payload

    def on_receive(self, event, payload):
        super().on_receive(event, payload)
        self._sample("on_receive")

    def on_internal(self, event):
        super().on_internal(event)
        self._sample("on_internal")


def hardened_ring(scale: int) -> Simulation:
    names, links = topologies.ring(8)
    network = standard_network(names, links, seed=0, loss_prob=0.02)
    end = BASE_SECONDS * scale
    victims = [name for name in names if name != network.source]
    corruptions = tuple(
        StateCorruption(
            victims[(k - 1) % len(victims)],
            end * k / 8,
            CORRUPTION_SCOPES[(k - 1) % len(CORRUPTION_SCOPES)],
        )
        for k in range(1, 8)
    )
    sim = Simulation(
        network,
        seed=0,
        faults=FaultPlan(seed=0, injections=corruptions),
        retransmit=RetransmitPolicy(timeout=1, backoff=2, max_retries=3),
    )
    sim.attach_estimators(
        "efficient",
        lambda proc, spec: Recording(
            proc, spec, reliable=False, self_heal=True, suspicion=SuspicionPolicy()
        ),
    )
    # the same estimator minus self-healing refuses every scramble: the
    # never-corrupted twin, fed the very same events
    sim.attach_estimators(
        "twin",
        lambda proc, spec: Recording(
            proc, spec, reliable=False, suspicion=SuspicionPolicy()
        ),
    )
    PeriodicGossip(period=2, seed=0).install(sim)
    sim.run_until(end)
    return sim


@pytest.fixture(scope="module", params=[1, 2], ids=["x1", "x2"])
def ring(request) -> Simulation:
    return hardened_ring(request.param)


def healed(sim):
    for proc in sorted(sim.processors):
        est = sim.estimator(proc, "efficient")
        if est.recoveries:
            yield est, sim.estimator(proc, "twin")


def test_every_recovery_replays_less_than_one_checkpoint_interval(ring):
    events = [e for est, _twin in healed(ring) for e in est.recovery_events]
    assert len(events) == ring.faults.injected["corruptions"] == 7
    # the run is several intervals long, so the log length would not pass
    longest = max(len(est._log.events) for est, _twin in healed(ring))
    assert longest > 4 * CHECKPOINT_EVERY
    for event in events:
        assert event.replayed < CHECKPOINT_EVERY, event
    assert sum(e.from_checkpoint for e in events) >= 6


def test_a_healed_node_re_ships_a_bounded_suffix(ring):
    checked = 0
    for est, twin in healed(ring):
        twin_ships = {eid: records for _n, _dest, eid, records in twin.sent}
        for nth in range(1, est.recoveries + 1):
            first = {}
            for recoveries, dest, eid, records in est.sent:
                if recoveries >= nth:
                    first.setdefault(dest, (eid, records))
            assert set(first) == set(est.history.neighbors)
            for dest, (eid, records) in first.items():
                assert twin_ships[eid] <= records <= CHECKPOINT_EVERY + twin_ships[eid]
                checked += 1
    assert checked == 14


def test_counters_never_run_backwards(ring):
    for proc in sorted(ring.processors):
        assert ring.estimator(proc, "efficient").backwards == []
    for est, twin in healed(ring):
        ours, theirs = asdict(est.stats()), asdict(twin.stats())
        # the replay's work comes on top of the run's, nothing is lost
        for name in ("records_sent", "events_observed", "agdp_pair_updates"):
            assert ours[name] >= theirs[name], name
        assert ours["max_live_points"] == theirs["max_live_points"]


def test_every_record_sent_is_a_record_received():
    """Loss-free ring, every message delivered before the run ends: what
    the senders count as shipped is what the receivers count as screened,
    recoveries or not (both counters used to restart at each one)."""
    edges = tuple((i, (i + 1) % 5) for i in range(5))
    directed = [(u, v) for u, v in edges] + [(v, u) for u, v in edges]
    steps = []
    for lap in range(12):
        for u, v in directed:
            steps.append(("send", u, v, 0.05))
        if lap in (3, 6, 9):
            steps.append(("corrupt", lap % 4 + 1, lap % 3, 0.01))
        for u, v in directed:
            steps.append(("deliver", u, v, 0.05))
    schedule = Schedule(
        rates=(1.0, 1.0001, 0.9999, 1.0002, 0.9998),
        edges=edges,
        steps=tuple(steps),
        lossy=True,
    )
    harness = ScheduleHarness(
        schedule,
        estimator_factory=lambda proc, spec: EfficientCSA(
            proc, spec, reliable=False, self_heal=True, suspicion=SuspicionPolicy()
        ),
        attach_full=False,
    )
    harness.run()
    estimators = list(harness.csas.values())
    assert sum(est.recoveries for est in estimators) == 3
    sent = sum(est.history.stats.records_sent for est in estimators)
    received = sum(est.history.stats.records_received for est in estimators)
    assert sent == received > 0
    assert sent == sum(est.stats().records_sent for est in estimators)
