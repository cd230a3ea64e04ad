"""Tests for the discrete-event engine: scheduling, FIFO, loss, hooks."""

import math

import pytest

from repro.core import EfficientCSA, EventId, SimulationError, TransitSpec
from repro.sim import LinkConfig, Network, PiecewiseDriftingClock, Simulation


def tiny_network(loss_prob=0.0, transit=(0.05, 0.2)):
    clocks = {"a": PiecewiseDriftingClock(1, offset=3.0)}
    links = [
        LinkConfig("s", "a", transit=TransitSpec(*transit), loss_prob=loss_prob)
    ]
    return Network(source="s", clocks=clocks, links=links)


class TestScheduling:
    def test_actions_run_in_time_order(self):
        sim = Simulation(tiny_network())
        order = []
        sim.schedule_at(2.0, lambda: order.append("b"))
        sim.schedule_at(1.0, lambda: order.append("a"))
        sim.schedule_at(3.0, lambda: order.append("c"))
        sim.run_until(10.0)
        assert order == ["a", "b", "c"]

    def test_ties_broken_by_insertion(self):
        sim = Simulation(tiny_network())
        order = []
        sim.schedule_at(1.0, lambda: order.append("first"))
        sim.schedule_at(1.0, lambda: order.append("second"))
        sim.run_until(10.0)
        assert order == ["first", "second"]

    def test_past_scheduling_rejected(self):
        sim = Simulation(tiny_network())
        sim.schedule_at(5.0, lambda: None)
        sim.run_until(5.0)
        with pytest.raises(SimulationError):
            sim.schedule_at(1.0, lambda: None)

    def test_run_until_stops_at_limit(self):
        sim = Simulation(tiny_network())
        fired = []
        sim.schedule_at(5.0, lambda: fired.append(1))
        sim.schedule_at(15.0, lambda: fired.append(2))
        executed = sim.run_until(10.0)
        assert executed == 1
        assert fired == [1]
        assert sim.now == 10.0
        assert sim.pending_actions() == 1

    def test_schedule_local_converts_clock(self):
        sim = Simulation(tiny_network())
        hits = []
        # a's clock starts at +3; local time 4.0 is about rt 1.0
        sim.schedule_local("a", 4.0, lambda: hits.append(sim.now))
        sim.run_until(10.0)
        assert len(hits) == 1
        assert hits[0] == pytest.approx(1.0, abs=0.01)

    def test_max_actions(self):
        sim = Simulation(tiny_network())
        for i in range(10):
            sim.schedule_at(float(i + 1), lambda: None)
        assert sim.run_until(100.0, max_actions=3) == 3

    def test_max_actions_leaves_now_at_the_executed_action(self):
        """Stopping early must not jump to the limit: due actions remain,
        and the next one would then move ``now`` backwards."""
        sim = Simulation(tiny_network())
        seen = []
        for i in range(3):
            sim.schedule_at(float(i + 1), lambda: seen.append(sim.now))
        assert sim.run_until(1e9, max_actions=1) == 1
        assert sim.now == 1.0
        sim.schedule_after(0.5, lambda: seen.append(sim.now))  # relative to 1.0
        while sim.pending_actions():
            before = sim.now
            sim.run_until(1e9, max_actions=1)
            assert sim.now >= before
        assert seen == [1.0, 1.5, 2.0, 3.0]
        assert sim.now == 3.0
        # budget left and the queue drained up to the limit: time advances
        assert sim.run_until(50.0, max_actions=1) == 0
        assert sim.now == 50.0

    def test_debug_mode_rejects_time_moving_backwards(self, monkeypatch):
        monkeypatch.setenv("REPRO_DEBUG", "1")
        sim = Simulation(tiny_network())
        sim.schedule_at(1.0, lambda: None)
        sim.now = 5.0  # what the old max_actions clamp used to do
        with pytest.raises(SimulationError):
            sim.run_until(10.0)


class TestEvents:
    def test_internal_event_recorded(self):
        sim = Simulation(tiny_network())
        event = sim.internal_event("a")
        assert event.eid == EventId("a", 0)
        assert len(sim.trace) == 1

    def test_event_lts_strictly_increase(self):
        sim = Simulation(tiny_network())
        first = sim.internal_event("a")
        second = sim.internal_event("a")  # same sim.now: engine nudges
        assert second.lt > first.lt
        assert second.eid.seq == 1

    def test_send_and_delivery(self):
        sim = Simulation(tiny_network())
        sim.attach_estimators("efficient", lambda p, s: EfficientCSA(p, s))
        sim.schedule_at(1.0, lambda: sim.send("s", "a"))
        sim.run_until(10.0)
        assert len(sim.trace) == 2
        receive = [r for r in sim.trace if r.event.is_receive][0]
        send = [r for r in sim.trace if r.event.is_send][0]
        delay = receive.rt - send.rt
        assert 0.05 <= delay <= 0.2

    def test_send_without_link_rejected(self):
        sim = Simulation(tiny_network())
        with pytest.raises(SimulationError):
            sim.send("s", "ghost")

    def test_duplicate_estimator_channel_rejected(self):
        sim = Simulation(tiny_network())
        sim.attach_estimators("x", lambda p, s: EfficientCSA(p, s))
        with pytest.raises(SimulationError):
            sim.attach_estimators("x", lambda p, s: EfficientCSA(p, s))


class TestFIFO:
    def test_per_direction_fifo(self):
        """Many rapid sends on one link always arrive in order."""
        sim = Simulation(tiny_network(transit=(0.05, 5.0)), seed=3)
        for i in range(40):
            sim.schedule_at(0.1 * (i + 1), lambda: sim.send("s", "a"))
        sim.run_until(100.0)
        receives = [r for r in sim.trace if r.event.is_receive]
        assert len(receives) == 40
        send_seqs = [r.event.send_eid.seq for r in receives]
        assert send_seqs == sorted(send_seqs)

    def test_fifo_delays_stay_in_spec(self):
        sim = Simulation(tiny_network(transit=(0.05, 5.0)), seed=3)
        for i in range(40):
            sim.schedule_at(0.1 * (i + 1), lambda: sim.send("s", "a"))
        sim.run_until(100.0)
        send_rt = {r.event.eid: r.rt for r in sim.trace if r.event.is_send}
        for record in sim.trace:
            if not record.event.is_receive:
                continue
            delay = record.rt - send_rt[record.event.send_eid]
            assert 0.05 - 1e-9 <= delay <= 5.0 + 1e-6


class TestLoss:
    def test_losses_occur_and_are_detected(self):
        sim = Simulation(tiny_network(loss_prob=0.5), seed=1, loss_detection_delay=1.0)
        detected = []
        sim.on_loss = lambda _sim, send_event, _info: detected.append(send_event.eid)
        for i in range(40):
            sim.schedule_at(0.5 * (i + 1), lambda: sim.send("s", "a"))
        sim.run_until(100.0)
        assert sim.messages_lost > 5
        assert len(detected) == sim.messages_lost
        assert sim.trace.lost_sends == set(detected)

    def test_no_receive_for_lost_messages(self):
        sim = Simulation(tiny_network(loss_prob=0.5), seed=1)
        for i in range(40):
            sim.schedule_at(0.5 * (i + 1), lambda: sim.send("s", "a"))
        sim.run_until(100.0)
        receives = sum(1 for r in sim.trace if r.event.is_receive)
        assert receives == sim.messages_sent - sim.messages_lost

    def test_delivery_confirmations(self):
        sim = Simulation(
            tiny_network(loss_prob=0.3), seed=2, confirm_deliveries=True
        )
        sim.attach_estimators(
            "efficient", lambda p, s: EfficientCSA(p, s, reliable=False)
        )
        for i in range(30):
            sim.schedule_at(0.5 * (i + 1), lambda: sim.send("s", "a"))
        sim.run_until(100.0)
        source_csa = sim.estimator("s", "efficient")
        # every token settled: confirmed on delivery or aborted on detection
        assert sim.messages_lost > 0
        assert source_csa.history.pending_tokens() == 0


class TestWorkloadHooks:
    def test_on_message_hook(self):
        sim = Simulation(tiny_network(), seed=0)
        seen = []
        sim.on_message = lambda _sim, event, info: seen.append((event.proc, info))
        sim.schedule_at(1.0, lambda: sim.send("s", "a", info="hello"))
        sim.run_until(10.0)
        assert seen == [("a", "hello")]


class RecordingCSA(EfficientCSA):
    """EfficientCSA that logs every hook invocation into a shared list."""

    def __init__(self, proc, spec, log):
        super().__init__(proc, spec, reliable=False)
        self.log = log

    def on_send(self, event):
        self.log.append(("send", self.proc, event.eid))
        return super().on_send(event)

    def on_receive(self, event, payload):
        self.log.append(("receive", self.proc, event.send_eid))
        super().on_receive(event, payload)

    def on_delivery_confirmed(self, send_eid):
        self.log.append(("confirm", self.proc, send_eid))
        super().on_delivery_confirmed(send_eid)

    def on_loss_detected(self, send_eid):
        self.log.append(("loss", self.proc, send_eid))
        super().on_loss_detected(send_eid)


class TestConfirmDeliveries:
    def test_confirmation_ordering(self):
        """Delivery path: receive at dest, then confirm at sender, then hook."""
        log = []
        sim = Simulation(tiny_network(), seed=0, confirm_deliveries=True)
        sim.attach_estimators("rec", lambda p, s: RecordingCSA(p, s, log))
        sim.on_message = lambda _sim, event, _info: log.append(
            ("hook", event.proc, event.send_eid)
        )
        sim.schedule_at(1.0, lambda: sim.send("s", "a"))
        sim.run_until(10.0)
        send_eid = EventId("s", 0)
        assert [entry[0] for entry in log] == ["send", "receive", "confirm", "hook"]
        assert log[1] == ("receive", "a", send_eid)
        assert log[2] == ("confirm", "s", send_eid)

    def test_no_confirmations_when_disabled(self):
        log = []
        sim = Simulation(tiny_network(), seed=0, confirm_deliveries=False)
        sim.attach_estimators("rec", lambda p, s: RecordingCSA(p, s, log))
        sim.schedule_at(1.0, lambda: sim.send("s", "a"))
        sim.run_until(10.0)
        assert not [entry for entry in log if entry[0] == "confirm"]

    def test_confirmation_settles_pending_token(self):
        log = []
        sim = Simulation(tiny_network(), seed=0, confirm_deliveries=True)
        sim.attach_estimators("rec", lambda p, s: RecordingCSA(p, s, log))
        sim.schedule_at(1.0, lambda: sim.send("s", "a"))
        source = sim.estimator("s", "rec")
        sim.run_until(0.999)
        assert source.history.pending_tokens() == 0
        sim.run_until(1.001)  # send happened, delivery still in flight
        assert source.history.pending_tokens() == 1
        sim.run_until(10.0)
        assert source.history.pending_tokens() == 0


class TestLossHookOrdering:
    def test_estimator_signal_precedes_workload_hook(self):
        """on_loss_detected fires at the sender's estimators before sim.on_loss."""
        log = []
        sim = Simulation(
            tiny_network(loss_prob=0.5), seed=1, loss_detection_delay=1.0
        )
        sim.attach_estimators("rec", lambda p, s: RecordingCSA(p, s, log))
        sim.on_loss = lambda _sim, send_event, _info: log.append(
            ("hook-loss", send_event.proc, send_event.eid)
        )
        for i in range(40):
            sim.schedule_at(0.5 * (i + 1), lambda: sim.send("s", "a"))
        sim.run_until(100.0)
        assert sim.messages_lost > 5
        loss_entries = [e for e in log if e[0] in ("loss", "hook-loss")]
        assert loss_entries, "expected loss signals"
        # signals come in (estimator, workload) pairs for the same send
        for estimator_entry, hook_entry in zip(
            loss_entries[0::2], loss_entries[1::2]
        ):
            assert estimator_entry[0] == "loss"
            assert hook_entry[0] == "hook-loss"
            assert estimator_entry[2] == hook_entry[2]

    def test_loss_signalled_at_sender_only(self):
        log = []
        sim = Simulation(
            tiny_network(loss_prob=0.5), seed=1, loss_detection_delay=1.0
        )
        sim.attach_estimators("rec", lambda p, s: RecordingCSA(p, s, log))
        for i in range(40):
            sim.schedule_at(0.5 * (i + 1), lambda: sim.send("s", "a"))
        sim.run_until(100.0)
        assert all(entry[1] == "s" for entry in log if entry[0] == "loss")


class TestLossAccounting:
    def test_drop_recorded_at_quiesce_inside_detection_window(self):
        """A drop within loss_detection_delay of the run end is still traced."""
        sim = Simulation(
            tiny_network(loss_prob=0.5), seed=1, loss_detection_delay=5.0
        )
        for i in range(40):
            sim.schedule_at(0.5 * (i + 1), lambda: sim.send("s", "a"))
        sim.run_until(20.2)  # inside the detection window of the last sends
        assert sim.messages_lost > 0
        # trace and counter agree at every instant, not only after detection
        assert len(sim.trace.lost_sends) == sim.messages_lost

    def test_per_link_counters_match_globals(self):
        sim = Simulation(tiny_network(loss_prob=0.4), seed=5)
        for i in range(30):
            sim.schedule_at(0.5 * (i + 1), lambda: sim.send("s", "a"))
        sim.run_until(100.0)
        counters = sim.link_stats[("s", "a")]
        assert counters.sent == sim.messages_sent == 30
        assert counters.lost == sim.messages_lost
        assert counters.delivered == sum(
            1 for r in sim.trace if r.event.is_receive
        )
        summary = sim.trace.link_summary()
        assert summary[("s", "a")]["sent"] == counters.sent
        assert summary[("s", "a")]["lost"] == counters.lost
