"""The serving tier under load, faults, and crashes.

The load-bearing assertions:

* admission control sheds explicitly (token bucket and queue bound) with
  honest ``retry_after`` hints - overload never degenerates into silence;
* every bound a client *accepts* contains true source time - fresh,
  degraded, faulted, or mid-failover, soundness is unconditional;
* degraded replies are widened, flagged, and still sound - a stressed
  server degrades loudly instead of lying;
* clients ride out a primary crash: accrual failover to a backup and
  re-convergence, all through FaultMiddleware burst loss + duplication;
* the CLIs die cleanly: ``--timeout`` and SIGINT produce a partial
  archived document and a non-zero exit, never a traceback or hang.

All async tests run via asyncio.run inside plain pytest functions.
"""

import asyncio
import json
import math
import os
import signal
import subprocess
import sys

import pytest

from repro.core.errors import SimulationError
from repro.rt.cli import main as rt_main
from repro.rt.client import AccrualHealth, ClientConfig, ServeClient
from repro.rt.clock import MonotonicClockSource, SkewedClockSource, TimeBase
from repro.rt.cluster import ClusterConfig, CrashSchedule, LiveCluster
from repro.rt.loadgen import (
    ServeLoadConfig,
    percentile,
    run_serve_load,
    run_serve_load_sync,
)
from repro.rt.serve import (
    ServeConfig,
    ServeNode,
    TokenBucket,
    serve_endpoint,
    serve_owner,
)
from repro.rt.serve_cli import main as serve_main
from repro.rt.wire import decode_frame, encode_frame, probe_frame
from repro.sim.faults import BurstLoss, Duplication, FaultPlan, RetransmitPolicy
from repro.sim.serialize import load_run

FAST_RETRANSMIT = RetransmitPolicy(timeout=0.3, backoff=1.5, max_retries=3)


def _cluster_config(**overrides):
    defaults = dict(
        processors=("n0", "n1", "n2"),
        links=(("n0", "n1"), ("n1", "n2"), ("n0", "n2")),
        duration=1.5,
        gossip_period=0.05,
        sample_period=0.2,
        clocks={
            "n1": SkewedClockSource(1.0 + 100e-6),
            "n2": SkewedClockSource(1.0 - 150e-6, offset=0.25),
        },
        retransmit=FAST_RETRANSMIT,
        seed=42,
    )
    defaults.update(overrides)
    return ClusterConfig(**defaults)


def _client_template(**overrides):
    defaults = dict(
        name="c",
        servers=("unset",),
        eps_max=0.02,
        probe_timeout=0.15,
        min_interval=0.01,
        max_interval=0.1,
        backoff_base=0.02,
        backoff_cap=0.2,
    )
    defaults.update(overrides)
    return ClientConfig(**defaults)


class TestTokenBucket:
    def test_burst_then_deny(self):
        bucket = TokenBucket(rate=10.0, burst=3.0)
        assert [bucket.try_take(0.0) for _ in range(4)] == [True, True, True, False]

    def test_refills_at_rate(self):
        bucket = TokenBucket(rate=10.0, burst=1.0)
        assert bucket.try_take(0.0)
        assert not bucket.try_take(0.05)  # half a token so far
        assert bucket.try_take(0.1)

    def test_retry_after_is_honest(self):
        bucket = TokenBucket(rate=4.0, burst=1.0)
        assert bucket.try_take(0.0)
        hint = bucket.retry_after(0.0)
        assert hint == pytest.approx(0.25)
        assert bucket.try_take(hint)

    def test_burst_caps_accumulation(self):
        bucket = TokenBucket(rate=100.0, burst=2.0)
        bucket.try_take(0.0)
        assert [bucket.try_take(1000.0) for _ in range(3)] == [True, True, False]

    def test_time_going_backwards_is_safe(self):
        bucket = TokenBucket(rate=10.0, burst=1.0)
        assert bucket.try_take(1.0)
        assert not bucket.try_take(0.0)  # no refill from a rewind
        assert bucket.try_take(1.1)

    def test_rejects_bad_parameters(self):
        for rate, burst in ((0.0, 1.0), (1.0, 0.0), (-1.0, 1.0)):
            with pytest.raises(SimulationError):
                TokenBucket(rate, burst)


class TestConfigValidation:
    def test_serve_config_rejects_nonsense(self):
        for kwargs in (
            dict(bucket_rate=0.0),
            dict(queue_limit=0),
            dict(service_time=-0.1),
            dict(stale_after=-1.0),
            dict(degraded_rho=-0.5),
            dict(unsynced_retry_after=-1.0),
        ):
            with pytest.raises(SimulationError):
                ServeConfig(**kwargs)

    def test_client_config_rejects_nonsense(self):
        for kwargs in (
            dict(servers=()),
            dict(servers=("s", "s")),
            dict(eps_max=0.0),
            dict(min_interval=0.5, max_interval=0.1),
            dict(probe_timeout=0.0),
            dict(backoff_base=0.0),
            dict(failover_threshold=0.0),
            dict(shed_failover_streak=0),
        ):
            merged = dict(name="c", servers=("s",))
            merged.update(kwargs)
            with pytest.raises(SimulationError):
                ClientConfig(**merged)

    def test_load_config_rejects_unknown_server(self):
        with pytest.raises(SimulationError):
            ServeLoadConfig(cluster=_cluster_config(), servers=("zz",))

    def test_sync_interval_follows_eps_over_two_rho(self):
        config = _client_template(eps_max=0.1, min_interval=0.001, max_interval=10.0)
        assert config.sync_interval(0.01) == pytest.approx(0.1 / 0.02)
        # clamped both ways; drift-free clients still probe for liveness
        assert config.sync_interval(1e9) == 0.001
        assert config.sync_interval(0.0) == 10.0

    def test_serve_endpoint_naming(self):
        assert serve_endpoint("n1") == "n1!serve"
        assert serve_owner("n1!serve") == "n1"
        assert serve_owner("n1") is None
        assert serve_owner("!serve") is None

    def test_percentile(self):
        assert percentile([], 99.0) is None
        assert percentile([5.0], 99.0) == 5.0
        values = [float(i) for i in range(1, 101)]
        assert percentile(values, 99.0) == 99.0
        assert percentile(values, 50.0) == 50.0


class TestAccrualHealth:
    def test_replies_learn_cadence_and_silence_raises_score(self):
        health = AccrualHealth()
        for t in (0.0, 0.1, 0.2, 0.3):
            health.on_reply(t)
        assert health.score(0.35) < 1.0
        assert health.score(1.0) > 3.0

    def test_failures_accumulate_and_sheds_clear_them(self):
        health = AccrualHealth()
        health.on_reply(0.0)
        for _ in range(3):
            health.on_failure()
        assert health.score(0.0) >= 3.0
        health.on_alive()
        assert health.score(0.0) < 1.0

    def test_reset_forgets_everything(self):
        health = AccrualHealth()
        health.on_reply(0.0)
        health.on_failure()
        health.reset()
        assert health.score(100.0) == 0.0


class _ServeRig:
    """A synchronous rig: source node + serve endpoint, no event loop."""

    def __init__(self, serve_config=None, proc="n0", prime=None):
        from repro.core.events import Event, EventId, EventKind
        from repro.rt.cluster import build_spec
        from repro.rt.node import Node, NodeConfig
        from repro.rt.transport import LoopbackTransport

        config = _cluster_config()
        self.time_base = TimeBase()
        self.transport = LoopbackTransport()
        self.node = Node(
            NodeConfig(proc=proc, spec=build_spec(config), retransmit=FAST_RETRANSMIT),
            self.transport,
            clock=MonotonicClockSource(),
            time_base=self.time_base,
        )
        # a node has no estimate until its first local event; the source
        # anchors on any internal tick (its lt *is* source time)
        if prime if prime is not None else proc == "n0":
            lt = self.node.clock.lt_at(self.time_base.elapsed())
            self.node.estimator.on_internal(Event(EventId(proc, 0), lt, EventKind.INTERNAL))
        self.serve = ServeNode(self.node, self.transport, serve_config)

    def probe(self, nonce=0, src="c0"):
        raw = self.serve.handle_probe_bytes(
            encode_frame(probe_frame(src, self.serve.endpoint, nonce))
        )
        return None if raw is None else decode_frame(raw).frame


class TestServeNodeSync:
    """The synchronous core: decode + admit + answer, no event loop."""

    def test_source_node_replies_soundly(self):
        rig = _ServeRig()
        frame = rig.probe(nonce=5)
        assert frame.type == "reply" and frame.nonce == 5
        # the source defines real time: its interval brackets elapsed now
        assert frame.bound.contains(rig.time_base.elapsed(), tolerance=0.05)
        assert rig.serve.stats.replies == 1

    def test_unsynced_node_sheds_instead_of_lying(self):
        rig = _ServeRig(proc="n1")  # never received a protocol event
        frame = rig.probe()
        assert frame.type == "shed" and frame.reason == "unsynced"
        assert frame.retry_after == ServeConfig().unsynced_retry_after
        assert rig.serve.stats.shed == {"unsynced": 1}

    def test_overload_shed_with_honest_hint(self):
        rig = _ServeRig(ServeConfig(bucket_rate=5.0, bucket_burst=1.0))
        assert rig.probe(nonce=0).type == "reply"
        shed = rig.probe(nonce=1)
        assert shed.type == "shed" and shed.reason == "overload"
        assert 0.0 < shed.retry_after <= 0.2 + 1e-6
        assert rig.serve.stats.shed_rate() == pytest.approx(0.5)

    def test_queue_shed_when_backlog_full(self):
        rig = _ServeRig(ServeConfig(queue_limit=2))
        backlog = probe_frame("cX", rig.serve.endpoint, 99)
        rig.serve._queue.extend([backlog, backlog])
        shed = rig.probe()
        assert shed.type == "shed" and shed.reason == "queue"
        assert shed.retry_after > 0

    def test_garbage_and_strays_counted_not_answered(self):
        rig = _ServeRig()
        assert rig.serve.handle_probe_bytes(b"\x00garbage") is None
        from repro.rt.wire import hello_frame

        assert rig.serve.handle_probe_bytes(
            encode_frame(hello_frame("a", rig.serve.endpoint))
        ) is None
        # a probe addressed to a different endpoint is a stray too
        assert rig.serve.handle_probe_bytes(
            encode_frame(probe_frame("c0", "n9!serve", 1))
        ) is None
        assert rig.serve.stats.decode_errors == 1
        assert rig.serve.stats.rejected_frames == 2
        assert rig.serve.stats.probes == 0


class TestDegradedReplies:
    def _stale_rig(self, serve_config):
        """A source node whose estimator saw its last event at rig build."""
        return _ServeRig(serve_config)

    def test_stale_state_degrades_widened_and_sound(self):
        import time

        rig = self._stale_rig(ServeConfig(stale_after=0.01, degraded_rho=0.5))
        time.sleep(0.05)
        frame = rig.probe()
        assert frame.type == "reply" and frame.degraded is True
        assert frame.age > 0.01
        assert rig.serve.stats.degraded_replies == 1
        # widened by rho*age on both sides, and still contains the truth
        assert frame.bound.width == pytest.approx(2 * 0.5 * frame.age, rel=0.2)
        assert frame.bound.contains(rig.time_base.elapsed(), tolerance=1e-6)

    def test_fresh_state_stays_crisp(self):
        rig = self._stale_rig(ServeConfig(stale_after=10.0))
        frame = rig.probe()
        assert frame.degraded is False
        assert rig.serve.stats.degraded_replies == 0


async def _serve_scenario(
    cluster_config,
    *,
    servers,
    client_template,
    clients=1,
    serve_config=None,
    warmup=0.3,
):
    config = ServeLoadConfig(
        cluster=cluster_config,
        servers=servers,
        serve=serve_config if serve_config is not None else ServeConfig(),
        clients=clients,
        client_template=client_template,
        warmup=warmup,
    )
    return await run_serve_load(config)


class TestServeLoopback:
    def test_clients_accept_only_sound_bounds(self):
        result = asyncio.run(
            _serve_scenario(
                _cluster_config(duration=1.2),
                servers=("n1", "n2"),
                client_template=_client_template(),
                clients=2,
            )
        )
        assert len(result.accepted_samples) > 0
        assert result.unsound_accepted == []
        assert result.served_qps() > 0
        for client in result.clients:
            assert client.stats.decode_errors == 0
            current = client.current_bound()
            if current is not None:
                rt, bound = current
                assert bound.contains(rt, tolerance=1e-6)

    def test_overload_sheds_and_clients_back_off(self):
        result = asyncio.run(
            _serve_scenario(
                _cluster_config(duration=1.2),
                servers=("n1",),
                serve_config=ServeConfig(bucket_rate=5.0, bucket_burst=1.0),
                client_template=_client_template(max_interval=0.02),
                clients=3,
            )
        )
        shed = sum(node.stats.shed_total for node in result.servers.values())
        assert shed > 0, "undersized bucket must shed"
        assert result.shed_rate() > 0
        assert result.unsound_accepted == []
        # sheds were explicit: clients saw them and know the reason
        assert sum(c.stats.sheds for c in result.clients) > 0
        reasons = {}
        for client in result.clients:
            for reason, count in client.stats.shed_reasons.items():
                reasons[reason] = reasons.get(reason, 0) + count
        assert reasons.get("overload", 0) > 0

    def test_dead_primary_times_out_then_fails_over(self):
        async def scenario():
            config = _cluster_config(duration=1.5)
            live = LiveCluster(
                config,
                extra_procs=(serve_endpoint("n2"), "c0"),
                extra_links=(
                    ("c0", serve_endpoint("n1")),
                    ("c0", serve_endpoint("n2")),
                ),
            )
            # n1 has no serving endpoint at all: probes to it vanish
            backup = ServeNode(live.by_name["n2"], live.transport)
            live.attach_companion("n2", backup)
            client = ServeClient(
                _client_template(
                    name="c0",
                    servers=(serve_endpoint("n1"), serve_endpoint("n2")),
                    probe_timeout=0.05,
                    failover_threshold=2.0,
                ),
                live.transport,
                live.time_base,
            )
            try:
                await live.start()
                await asyncio.sleep(0.3)
                await client.start()
                await live.run_sampling()
            finally:
                await client.stop()
                await live.finish()
            return client

        client = asyncio.run(scenario())
        assert client.stats.timeouts >= 2
        assert client.stats.failovers >= 1
        assert client.failover_events[0][1] == serve_endpoint("n1")
        assert client.failover_events[0][2] == serve_endpoint("n2")
        assert client.stats.accepted > 0, "the backup must take over"
        assert client.unsound_samples() == []


class TestServeChaos:
    """The acceptance gate: burst loss + duplication + primary crash."""

    def _chaos_config(self):
        client_names = tuple(f"c{i}" for i in range(4))
        injections = []
        for name in client_names:
            for server in ("n1", "n2"):
                endpoint = serve_endpoint(server)
                injections.append(
                    BurstLoss(name, endpoint, p_enter=0.15, p_exit=0.4, loss_bad=0.9)
                )
                injections.append(Duplication(name, endpoint, prob=0.25))
        return ServeLoadConfig(
            cluster=_cluster_config(
                duration=2.4,
                gossip_period=0.15,
                faults=FaultPlan(seed=7, injections=tuple(injections)),
                crashes=(CrashSchedule(proc="n1", stop_at=1.0, restart_at=1.8),),
            ),
            servers=("n1", "n2"),
            serve=ServeConfig(
                bucket_rate=40.0, bucket_burst=3.0, stale_after=0.05
            ),
            clients=4,
            client_template=_client_template(
                max_interval=0.03,
                probe_timeout=0.1,
                failover_threshold=2.0,
            ),
            warmup=0.4,
        )

    def test_chaos_run_is_sound_and_fails_over(self, tmp_path):
        result = run_serve_load_sync(self._chaos_config())
        # the headline guarantee: zero unsound accepted bounds, ever
        assert result.unsound_accepted == []
        assert len(result.accepted_samples) > 10
        # the tier was actually stressed: sheds and degraded replies happened
        assert sum(n.stats.shed_total for n in result.servers.values()) > 0
        assert sum(n.stats.degraded_replies for n in result.servers.values()) > 0
        # the primary crash drove at least one client to the backup
        assert any(src == serve_endpoint("n1") for _, _, src, _ in result.failover_events())
        reconv = result.reconvergence_times()
        assert reconv and all(math.isfinite(v) for v in reconv.values()), (
            f"a client never recovered: {reconv}"
        )
        # the document counts everything and round-trips through load_run
        doc = result.to_document()
        serving = doc["serving"]
        assert serving["unsound_accepted"] == 0
        assert serving["shed_rate"] > 0
        assert serving["failovers"]
        assert serving["p99_error_bound"] > 0
        path = tmp_path / "chaos_serve.json"
        path.write_text(json.dumps(doc))
        spec, trace, samples = load_run(str(path))
        assert len(samples) == len(result.cluster.samples)

    def test_duplicated_replies_are_at_most_once(self):
        config = self._chaos_config()
        result = run_serve_load_sync(config)
        # duplicated frames reached clients but never double-counted:
        # each probe yields at most one accepted sample
        for client in result.clients:
            assert client.stats.accepted <= client.stats.probes
        assert sum(c.stats.unmatched for c in result.clients) > 0


class TestCliRobustness:
    def test_serve_cli_happy_path(self, tmp_path, capsys):
        out = tmp_path / "serve.json"
        code = serve_main(
            [
                "--duration", "1.0", "--clients", "2", "--warmup", "0.2",
                "--eps-max", "0.02", "--out", str(out), "--require-sound",
            ]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert "partial" not in doc
        assert doc["serving"]["unsound_accepted"] == 0

    def test_serve_cli_timeout_partial_doc(self, tmp_path, capsys):
        out = tmp_path / "partial.json"
        code = serve_main(
            ["--duration", "60", "--clients", "1", "--timeout", "0.8",
             "--out", str(out)]
        )
        assert code == 124
        doc = json.loads(out.read_text())
        assert doc["partial"] is True
        assert "aborted (timeout)" in capsys.readouterr().err

    def test_rt_cli_timeout_partial_doc(self, tmp_path, capsys):
        out = tmp_path / "partial_rt.json"
        code = rt_main(["--duration", "60", "--timeout", "0.6", "--out", str(out)])
        assert code == 124
        assert json.loads(out.read_text())["partial"] is True

    def test_cli_rejects_bad_usage(self, capsys):
        assert serve_main(["--nodes", "1"]) == 2
        assert serve_main(["--timeout", "0"]) == 2
        assert serve_main(["--servers", "9"]) == 2
        assert rt_main(["--timeout", "-1"]) == 2
        capsys.readouterr()

    def test_sigint_exits_130_with_partial_archive(self, tmp_path):
        out = tmp_path / "sigint.json"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in ("src", env.get("PYTHONPATH")) if p
        )
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.rt.serve_cli",
             "--duration", "60", "--clients", "1", "--out", str(out)],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            import time

            time.sleep(1.6)
            proc.send_signal(signal.SIGINT)
            _stdout, stderr = proc.communicate(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
        assert proc.returncode == 130
        assert "Traceback" not in stderr
        assert json.loads(out.read_text())["partial"] is True
