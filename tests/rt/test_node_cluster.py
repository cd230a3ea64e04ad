"""Node daemons and the cluster harness, over loopback and real UDP.

The load-bearing assertions:

* live clusters converge to sound finite two-sided bounds;
* the merged trace + final estimates pass the *same* independent oracle
  checks (soundness and Theorem 2.1 optimality) as a simulator run of
  the same topology - the runtime/simulator parity contract;
* crash-and-restart keeps survivors sound and lets the restarted node
  re-converge (fail-stop with durable state, PR 1 semantics);
* an archived live run loads through repro.sim.serialize.load_run;
* injected loss triggers the ack-timeout/retransmission loop, and wire
  garbage lands in the estimator's suspicion ledger.

All async tests run via asyncio.run inside plain pytest functions
(pytest-asyncio is deliberately not a dependency).  Durations are kept
short; periods are scaled down to match.
"""

import asyncio
import math

import pytest

from repro.core.csa import EfficientCSA
from repro.core.errors import SimulationError
from repro.rt.clock import MonotonicClockSource, SkewedClockSource, TimeBase
from repro.rt.cluster import (
    ClusterConfig,
    CrashSchedule,
    build_spec,
    dump_rt_run,
    run_cluster_sync,
)
from repro.rt.node import Node, NodeConfig
from repro.rt.transport import LoopbackTransport
from repro.rt.wire import decode_frame, encode_frame, sync_frame
from repro.core.events import Event, EventId, EventKind
from repro.core.history import HistoryPayload
from repro.sim.faults import FaultPlan, PartitionWindow, RetransmitPolicy
from repro.sim.runner import run_workload, standard_network
from repro.sim.serialize import load_run, load_run_document
from repro.sim.workloads import PeriodicGossip
from repro.sim import topologies
from repro.testing.oracle import oracle_causal_past, oracle_external_bounds


LINE3 = (("n0", "n1"), ("n1", "n2"))

FAST_RETRANSMIT = RetransmitPolicy(timeout=0.3, backoff=1.5, max_retries=3)


def _line3_config(**overrides):
    defaults = dict(
        processors=("n0", "n1", "n2"),
        links=LINE3,
        duration=1.5,
        gossip_period=0.05,
        sample_period=0.15,
        clocks={
            "n1": SkewedClockSource(1.0 + 100e-6),
            "n2": SkewedClockSource(1.0 - 150e-6, offset=0.25),
        },
        retransmit=FAST_RETRANSMIT,
        seed=42,
    )
    defaults.update(overrides)
    return ClusterConfig(**defaults)


def _assert_oracle_parity(spec, trace, final_bounds, *, tol=1e-6):
    """Independent soundness + optimality verdicts on one finished run.

    For each processor's last event: the oracle interval over its causal
    past must contain the true source time (soundness), and the live
    estimator's own final interval must match the oracle's (Theorem 2.1
    optimality - the algorithm extracts everything its view contains).
    """
    events = [record.event for record in trace]
    rt_of = {record.event.eid: record.rt for record in trace}
    last = {}
    for event in events:
        prev = last.get(event.proc)
        if prev is None or event.seq > prev.seq:
            last[event.proc] = event
    for proc, event in last.items():
        past = oracle_causal_past(events, event.eid)
        oracle = oracle_external_bounds(past, spec, event.eid)
        assert oracle.contains(rt_of[event.eid], tolerance=tol), (
            f"oracle bound {oracle} at {event.eid} excludes rt {rt_of[event.eid]}"
        )
        if proc in final_bounds:
            ours = final_bounds[proc]
            assert ours.lower == pytest.approx(oracle.lower, abs=tol)
            if math.isinf(oracle.upper):
                assert math.isinf(ours.upper)
            else:
                assert ours.upper == pytest.approx(oracle.upper, abs=tol)


class TestLoopbackCluster:
    def test_converges_sound_and_oracle_optimal(self):
        result = run_cluster_sync(_line3_config())
        assert result.soundness_violations() == []
        for proc, stats in result.nodes.items():
            assert stats.converged, f"{proc} never reached finite bounds"
            assert stats.suspected == ()
        assert result.messages_sent > 0
        assert len(result.trace) > 0
        # estimator finals == oracle bounds at each node's last event
        _assert_oracle_parity(
            result.spec,
            result.trace,
            {proc: stats.event_bound for proc, stats in result.nodes.items()},
        )

    def test_simulator_run_passes_the_same_oracle_checks(self):
        """The parity counterpart: same topology/shape through the sim engine."""
        names, links = topologies.line(3)
        network = standard_network(names, links, seed=42, drift_ppm=150)
        result = run_workload(
            network,
            PeriodicGossip(period=2.0, seed=42),
            {"efficient": lambda p, s: EfficientCSA(p, s)},
            duration=30.0,
            seed=42,
            sample_period=10.0,
        )
        assert result.soundness_violations() == []
        finals = {
            proc: result.sim.estimator(proc, "efficient").estimate()
            for proc in names
        }
        _assert_oracle_parity(result.sim.spec, result.trace, finals, tol=1e-9)

    def test_source_clock_must_be_monotonic(self):
        with pytest.raises(SimulationError):
            _line3_config(clocks={"n0": SkewedClockSource(1.001)})

    def test_dump_round_trips_through_load_run(self, tmp_path):
        result = run_cluster_sync(_line3_config(duration=1.0))
        path = str(tmp_path / "live.json")
        dump_rt_run(result, path)
        spec, trace, samples = load_run(path)
        assert spec == result.spec
        assert len(trace) == len(result.trace)
        assert trace.lost_sends == result.trace.lost_sends
        assert len(samples) == len(result.samples)
        _spec, _trace, _samples, links = load_run_document(path)
        assert sum(row["sent"] for row in links.values()) == result.messages_sent

    def test_crash_and_restart(self):
        config = _line3_config(
            duration=2.4,
            crashes=(CrashSchedule("n2", stop_at=0.7, restart_at=1.3),),
        )
        result = run_cluster_sync(config)
        # survivors' samples never exclude the truth, before/during/after
        assert result.soundness_violations() == []
        # no samples are taken from a node while it is down
        down = [s for s in result.samples if s.proc == "n2" and 0.75 < s.rt < 1.25]
        assert down == []
        # the restarted node resumed its durable state and re-converged
        assert result.nodes["n2"].converged
        assert result.nodes["n1"].converged

    def test_partition_triggers_retransmission_and_stays_sound(self):
        plan = FaultPlan(seed=5, injections=(PartitionWindow("n1", "n2", 0.3, 0.8),))
        result = run_cluster_sync(_line3_config(duration=2.0, faults=plan))
        assert result.soundness_violations() == []
        n1 = result.nodes["n1"].links["n2"]
        n2 = result.nodes["n2"].links["n1"]
        assert n1.losses_signaled + n2.losses_signaled > 0
        assert n1.retransmissions + n2.retransmissions > 0
        assert result.nodes["n2"].converged  # recovered after the window


class TestUDPCluster:
    def test_converges_over_real_sockets(self):
        result = run_cluster_sync(
            _line3_config(transport="udp", duration=2.0, gossip_period=0.1)
        )
        assert result.soundness_violations() == []
        for proc, stats in result.nodes.items():
            assert stats.converged, f"{proc} unbounded over UDP"
        _assert_oracle_parity(
            result.spec,
            result.trace,
            {proc: stats.event_bound for proc, stats in result.nodes.items()},
        )


class TestNodeUnit:
    """Receive-path unit behaviour, no event loop needed."""

    def _node(self):
        config = _line3_config()
        spec = build_spec(config)
        transport = LoopbackTransport()  # not started: sends are no-ops
        return Node(
            NodeConfig(proc="n1", spec=spec, retransmit=FAST_RETRANSMIT),
            transport,
            clock=MonotonicClockSource(),
            time_base=TimeBase(),
        )

    @staticmethod
    def _sync_bytes(src, dst, seq, lt):
        event = Event(EventId(src, seq), lt, EventKind.SEND, dest=dst)
        payload = HistoryPayload(records=(event,))
        return encode_frame(sync_frame(event, payload))

    def test_duplicate_discarded_before_estimator(self):
        node = self._node()
        data = self._sync_bytes("n0", "n1", 0, 0.001)
        node._on_datagram(data)
        node._on_datagram(data)
        stats = node.stats["n0"]
        assert stats.received == 1
        assert stats.duplicates == 1
        # exactly one receive event was created for the two datagrams
        receives = [e for e, _rt in node.trace_log if e.is_receive]
        assert len(receives) == 1

    def test_garbage_bytes_feed_suspicion_ledger(self):
        node = self._node()
        # valid envelope, tampered payload: attributable to n0
        import json, struct
        from repro.rt.wire import MAGIC, WIRE_VERSION

        body = json.dumps({
            "type": "sync", "src": "n0", "dst": "n1", "seq": 0, "lt": 0.5,
            "payload": {"records": [{"proc": "n0", "seq": 0,
                                     "lt": 0.5, "kind": "teleport"}]},
        }).encode()
        node._on_datagram(struct.pack(">2sBI", MAGIC, WIRE_VERSION, len(body)) + body)
        assert node.stats["n0"].decode_errors == 1
        assert [f.kind for f in node.estimator.validation_failures] == ["malformed"]
        assert node.estimator.validation_failures[0].accused == ("n0",)

    def test_unattributable_garbage_only_counted(self):
        node = self._node()
        node._on_datagram(b"\x00" * 3)
        node._on_datagram(b"not a frame at all")
        assert node.unattributed_errors == 2
        assert node.estimator.validation_failures == []

    def test_frames_from_non_neighbors_rejected(self):
        node = self._node()
        # n2 is not adjacent to n1... it is, in a line.  n0<->n2 are not
        # adjacent, so impersonate a frame addressed to the wrong node.
        data = self._sync_bytes("n0", "n2", 0, 0.001)
        node._on_datagram(data)
        assert node.stats["n0"].received == 0
        assert node.stats["n0"].rejected_frames == 1


class _BloatedToward(EfficientCSA):
    """An estimator whose payloads toward one neighbor outgrow the frame cap."""

    FILLER = tuple(
        Event(EventId("n0", seq), 1.0 + seq, EventKind.INTERNAL) for seq in range(3000)
    )

    def on_send(self, event):
        payload = super().on_send(event)
        if event.dest != "n0":
            return payload
        return HistoryPayload(records=payload.records + self.FILLER)


class TestUnencodableSync:
    """ROADMAP item 1(c): a sync over ``MAX_BODY_BYTES`` is a lost message."""

    def test_gossip_survives_and_other_peers_are_served(self):
        spec = build_spec(_line3_config())
        losses = []

        def factory(config):
            estimator = _BloatedToward(config.proc, config.spec, reliable=False)
            on_loss = estimator.on_loss_detected
            estimator.on_loss_detected = lambda eid: (losses.append(eid), on_loss(eid))
            return estimator

        async def run():
            transport = LoopbackTransport()
            await transport.start()
            heard = {"n0": [], "n2": []}
            for peer, box in heard.items():
                transport.register(peer, box.append)
            node = Node(
                NodeConfig(
                    proc="n1",
                    spec=spec,
                    gossip_period=0.01,
                    retransmit=RetransmitPolicy(timeout=0.02, backoff=1.0, max_retries=1),
                    estimator_factory=factory,
                ),
                transport,
            )
            await node.start()
            await asyncio.sleep(0.12)
            alive = not node._gossip_task.done()
            await node.stop()
            await transport.stop()
            return node, heard, alive

        node, heard, alive = asyncio.run(run())
        assert alive, "the gossip task died on an unencodable sync"
        assert node.unencodable_syncs >= 3
        # every send event stands: logged, counted, and reported lost by
        # the ack timer (including from inside the timeout's own retry)
        assert node.stats["n0"].sent == node.unencodable_syncs
        assert node.stats["n0"].retransmissions >= 1
        unsent = {event.eid for event, _rt in node.trace_log if event.dest == "n0"}
        assert node.stats["n0"].losses_signaled == len(unsent.intersection(losses)) >= 1
        # nothing but the hello ever reached n0; n2 kept getting its syncs
        assert [decode_frame(data).frame.type for data in heard["n0"]] == ["hello"]
        assert sum(decode_frame(data).frame.type == "sync" for data in heard["n2"]) >= 3
        assert node.estimator_errors == 0
