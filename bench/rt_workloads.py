"""The two live-runtime (asyncio) workloads.

``rt-loopback-mixed`` is an **open loop**: the nodes' own gossip timers
offer ~225 exchanges/s whatever the system's speed, so the cost metric is
CPU per exchange and the loop's busy share is reported (it must stay well
below saturation for that cost to mean anything).  ``serve-probe-udp`` is
a **closed loop**: four outstanding Cristian probes, each re-issued when
its reply (or a 50 ms timeout) arrives, so a slower server is offered
less load and latency is the metric.
"""

from __future__ import annotations

import asyncio
import gc
import os
import random
import time
from typing import Callable, Dict, List, Optional

from repro.rt.clock import SkewedClockSource, TimeBase
from repro.rt.cluster import ClusterConfig, LiveCluster
from repro.rt.serve import ServeConfig, ServeNode, serve_endpoint
from repro.rt.transport import LoopbackTransport, Transport
from repro.rt.wire import decode_frame, encode_frame, probe_frame

from .oracle_check import oracle_parity
from .trace import Tracer, percentile

WARMUP_S = 1.0
SAMPLE_PERIOD_S = 0.1
PROBE_TIMEOUT_S = 0.05
OUTSTANDING = 4  # slots 0-2 probe in binary, slot 3 in JSON
#: synchronous ``handle_probe_bytes`` calls per path in the traced serve run
SERVE_MICRO_CALLS = 20000


class CountingTransport(Transport):
    """Pass-through that counts what is handed to ``send``.

    ``wire_bytes_per_exchange`` must not depend on a tracing hook, so the
    benchmark supplies its own transport (the public ``Transport``
    interface) around the loopback medium, traced run or not.
    """

    def __init__(self, inner: Transport):
        super().__init__()
        self.inner = inner
        self.bytes = 0
        self.datagrams = 0

    async def start(self) -> None:
        await self.inner.start()

    async def stop(self) -> None:
        await self.inner.stop()

    def register(self, name, handler) -> None:
        self.inner.register(name, handler)

    def unregister(self, name) -> None:
        self.inner.unregister(name)

    def send(self, src, dest, data: bytes) -> None:
        self.bytes += len(data)
        self.datagrams += 1
        self.inner.send(src, dest, data)


def _skewed_clocks(procs, rng: random.Random) -> Dict[str, SkewedClockSource]:
    """True rates within +/-120 ppm, advertised as a +/-300 ppm band."""
    return {
        proc: SkewedClockSource(
            1.0 + rng.uniform(-120e-6, 120e-6),
            offset=rng.uniform(-1.0, 1.0),
            advertised_band=(1.0 - 300e-6, 1.0 + 300e-6),
        )
        for proc in procs
    }


def _link_totals(cluster: LiveCluster) -> Dict[str, int]:
    totals = dict.fromkeys(
        ("sent", "acked", "retransmissions", "losses_signaled", "duplicates",
         "decode_errors", "datagrams", "coalesced"), 0)
    for node in cluster.nodes:
        for stats in node.stats.values():
            for key in totals:
                totals[key] += getattr(stats, key)
    totals["estimator_errors"] = sum(node.estimator_errors for node in cluster.nodes)
    totals["unattributed_errors"] = sum(node.unattributed_errors for node in cluster.nodes)
    totals["validation_failures"] = sum(
        len(getattr(node.estimator, "validation_failures", ())) for node in cluster.nodes
    )
    totals["recoveries"] = sum(getattr(node.estimator, "recoveries", 0) for node in cluster.nodes)
    return totals


def _delta(after: Dict[str, int], before: Dict[str, int]) -> Dict[str, int]:
    return {key: after[key] - before[key] for key in after}


def _node_layer_counters(delta: Dict[str, int], serve_decode_errors: int = 0) -> Dict[str, float]:
    frames = delta["datagrams"] + delta["coalesced"]
    return {
        "rt.node.exchanges": delta["acked"],
        "rt.node.retransmissions": delta["retransmissions"],
        "rt.node.duplicates": delta["duplicates"],
        "rt.node.estimator_errors": delta["estimator_errors"],
        "rt.transport.coalesced_ratio": delta["coalesced"] / frames if frames else 0.0,
        "rt.codec.decode_errors": delta["decode_errors"] + delta["unattributed_errors"]
        + serve_decode_errors,
        "core.validate.failures": delta["validation_failures"],
        "core.csa.recoveries": delta["recoveries"],
    }


def _final_bounds(cluster: LiveCluster) -> Dict[str, tuple]:
    finals = {}
    for node in cluster.nodes:
        bound = node.estimator.estimate()
        finals[node.proc] = (bound.lower, bound.upper)
    return finals


def _sample_summary(cluster: LiveCluster, first: int) -> Dict:
    window = cluster.samples[first:]
    widths = [s.width for s in window if s.bound.is_bounded]
    return {"widths": widths, "unsound": sum(1 for s in window if not s.sound)}


async def _loopback(seed, seconds, tracer, setup_done, setup_only, check) -> Dict:
    rng = random.Random(seed)
    procs = tuple(f"n{i}" for i in range(6))
    links = tuple((procs[i], procs[(i + 1) % 6]) for i in range(6))
    period = 0.05
    config = ClusterConfig(
        processors=procs,
        links=links,
        gossip_period=period,
        clocks=_skewed_clocks(procs[1:], rng),
        codecs={"n2": "json"},
        seed=seed,
        duration=seconds + WARMUP_S,
    )
    transport = CountingTransport(LoopbackTransport(seed=seed))
    cluster = LiveCluster(config, transport=transport, time_base=TimeBase())
    await transport.start()
    try:
        await cluster.start()
        await asyncio.sleep(WARMUP_S)
        setup_s = setup_done()
        if setup_only:
            return {"setup_s": setup_s}

        before = _link_totals(cluster)
        bytes0, first_sample = transport.bytes, len(cluster.samples)
        gc.collect()
        if tracer is not None:
            tracer.enabled = True
        cpu0, wall0 = time.process_time(), time.perf_counter()
        while time.perf_counter() - wall0 < seconds:
            await asyncio.sleep(SAMPLE_PERIOD_S)
            cluster.sample_once()
        wall1, cpu1 = time.perf_counter(), time.process_time()
        if tracer is not None:
            tracer.enabled = False
        delta = _delta(_link_totals(cluster), before)
        wire_bytes = transport.bytes - bytes0
        window_s, window_cpu_s = wall1 - wall0, cpu1 - cpu0
        finals_bounded = all(
            node.estimate_now().is_bounded for node in cluster.nodes
            if node.proc != config.source_proc
        )
    finally:
        await cluster.finish()
        await transport.stop()

    samples = _sample_summary(cluster, first_sample)
    exchanges = delta["acked"]
    busy = window_cpu_s / window_s
    # jittered period: each directed link fires every period * (1 + U(0, jitter))
    expected_rate = 2 * len(links) / (period * (1.0 + config.gossip_jitter / 2.0))
    checks = {
        "sound": samples["unsound"] == 0,
        "final_estimates_bounded": finals_bounded,
        "window_has_traffic": exchanges > 0 and bool(samples["widths"]),
        "no_estimator_errors": delta["estimator_errors"] == 0,
        # traced runs pay the tracer's CPU, untraced ones must leave headroom
        "loop_not_saturated": tracer is not None or busy < 0.60,
    }
    result = {
        "setup_s": setup_s,
        "window_s": window_s,
        "window_cpu_s": window_cpu_s,
        "loop_busy_share": busy,
        "ops_attempted": delta["sent"],
        "ops_failed": delta["losses_signaled"] + samples["unsound"],
        "checks": checks,
        "metrics": {
            "msgs_per_s": exchanges / window_s,
            "width_mean_s": sum(samples["widths"]) / max(len(samples["widths"]), 1),
            "cpu_ms_per_exchange": 1e3 * window_cpu_s / max(exchanges, 1),
            "wire_bytes_per_exchange": wire_bytes / max(exchanges, 1),
        },
        "sample_counts": {"width_mean_s": len(samples["widths"])},
        "open_loop": {
            "offered_per_s": delta["sent"] / window_s,
            "scheduled_per_s": expected_rate,
            # how late the timer-driven generator ran (1.0 = on schedule)
            "offered_ratio": delta["sent"] / window_s / expected_rate,
        },
    }
    if tracer is not None:
        result["layer_counters"] = _node_layer_counters(delta)
    if check:
        result["oracle"] = oracle_parity(cluster.result().trace, cluster.spec, _final_bounds(cluster))
    return result


class _ProbeClient:
    """The benchmark's own closed-loop Cristian client endpoint ``c0``."""

    def __init__(self, cluster: LiveCluster, server: str):
        self.name = "c0"
        self.server = server
        self.transport = cluster.transport
        self.time_base = cluster.time_base
        self.loop = asyncio.get_running_loop()
        self.nonce = 0
        #: nonce -> (slot, send instant, timeout handle, probe size)
        self.pending: Dict[int, tuple] = {}
        self.window_from: Optional[float] = None
        self.rtts: List[float] = []
        self.widths: List[float] = []
        self.failed = 0
        self.bytes = 0

    def issue(self, slot: int) -> None:
        self.nonce += 1
        data = encode_frame(
            probe_frame(self.name, self.server, self.nonce),
            "json" if slot == OUTSTANDING - 1 else "binary",
        )
        timer = self.loop.call_later(PROBE_TIMEOUT_S, self.on_timeout, self.nonce)
        sent_at = self.time_base.elapsed()
        self.pending[self.nonce] = (slot, sent_at, timer, len(data))
        self.transport.send(self.name, self.server, data)

    def _counts(self, sent_at: float) -> bool:
        return self.window_from is not None and sent_at >= self.window_from

    def on_timeout(self, nonce: int) -> None:
        entry = self.pending.pop(nonce, None)
        if entry is None:
            return
        slot, sent_at, _timer, _size = entry
        if self._counts(sent_at):
            self.failed += 1
        self.issue(slot)

    def on_datagram(self, data: bytes) -> None:
        received_at = self.time_base.elapsed()
        frame = decode_frame(data).frame
        if frame is None:
            if self.window_from is not None:
                self.failed += 1  # undecodable
            return
        entry = self.pending.pop(frame.nonce, None)
        if entry is None:
            return  # answer to a probe that already timed out (counted then)
        slot, sent_at, timer, probe_size = entry
        timer.cancel()
        if self._counts(sent_at):
            bound = frame.bound
            # sound iff the reply interval meets the probe's own send..receive window
            if frame.type != "reply" or bound.lower > received_at or bound.upper < sent_at:
                self.failed += 1
            else:
                self.rtts.append(received_at - sent_at)
                self.widths.append(bound.upper - bound.lower)
                self.bytes += probe_size + len(data)
        self.issue(slot)

    def stop(self) -> None:
        for _slot, _sent_at, timer, _size in self.pending.values():
            timer.cancel()
        self.pending.clear()


def _serve_micro(server: ServeNode, client: str) -> Dict[str, float]:
    """Per-call cost of the synchronous probe path: admit, shed, reject."""
    clock = time.perf_counter
    shedding = ServeNode(
        server.node, server.transport, ServeConfig(bucket_rate=1e-6, bucket_burst=1.0)
    )
    probe = encode_frame(probe_frame(client, server.endpoint, 1), "binary")
    garbage = bytes(random.Random(0).randrange(256) for _ in range(len(probe)))
    shedding.handle_probe_bytes(probe)  # drains the single token
    out = {}
    for key, target, data in (
        ("rt.serve.answer_us_per_probe", server, probe),
        ("rt.serve.shed_us_per_probe", shedding, probe),
        ("rt.serve.reject_us_per_garbage", server, garbage),
    ):
        begin = clock()
        for _ in range(SERVE_MICRO_CALLS):
            target.handle_probe_bytes(data)
        out[key] = (clock() - begin) / SERVE_MICRO_CALLS * 1e6
    return out


async def _serve(seed, seconds, tracer, setup_done, setup_only, check) -> Dict:
    rng = random.Random(seed)
    procs = ("n0", "n1", "n2")
    links = (("n0", "n1"), ("n1", "n2"))
    endpoint = serve_endpoint("n1")
    config = ClusterConfig(
        processors=procs,
        links=links,
        gossip_period=0.25,
        clocks=_skewed_clocks(procs[1:], rng),
        transport="udp",
        seed=seed,
        duration=seconds + WARMUP_S,
    )
    cluster = LiveCluster(config, extra_procs=(endpoint, "c0"), extra_links=(("c0", endpoint),))
    server = ServeNode(
        cluster.by_name["n1"],
        cluster.transport,
        ServeConfig(bucket_rate=1e9, bucket_burst=1e9, queue_limit=1_000_000),
    )
    cluster.attach_companion("n1", server)
    client = None
    try:
        await cluster.start()
        client = _ProbeClient(cluster, endpoint)
        cluster.transport.register(client.name, client.on_datagram)
        await cluster.transport.ensure_endpoint(client.name)
        await asyncio.sleep(WARMUP_S - 0.2)
        for slot in range(OUTSTANDING):
            client.issue(slot)
        await asyncio.sleep(0.2)
        setup_s = setup_done()
        if setup_only:
            return {"setup_s": setup_s}

        before = _link_totals(cluster)
        probes0, shed0 = server.stats.probes, server.stats.shed_total
        first_sample = len(cluster.samples)
        gc.collect()
        if tracer is not None:
            tracer.enabled = True
        sys0 = os.times().system
        cpu0, wall0 = time.process_time(), time.perf_counter()
        client.window_from = cluster.time_base.elapsed()
        marks = [(wall0, 0)]  # (instant, replies so far) once a second
        while time.perf_counter() - wall0 < seconds:
            await asyncio.sleep(SAMPLE_PERIOD_S)
            cluster.sample_once()
            if time.perf_counter() - marks[-1][0] >= 1.0:
                marks.append((time.perf_counter(), len(client.rtts)))
        wall1, cpu1 = time.perf_counter(), time.process_time()
        window_sys_s = os.times().system - sys0
        if tracer is not None:
            tracer.enabled = False
        delta = _delta(_link_totals(cluster), before)
        window_s, window_cpu_s = wall1 - wall0, cpu1 - cpu0
        served = server.stats.probes - probes0
        shed = server.stats.shed_total - shed0
        serve_decode_errors = server.stats.decode_errors
        micro = _serve_micro(server, client.name) if tracer is not None else {}
    finally:
        if client is not None:
            client.stop()
            cluster.transport.unregister(client.name)
        await cluster.finish()

    samples = _sample_summary(cluster, first_sample)
    ok = len(client.rtts)
    checks = {
        "sound": samples["unsound"] == 0,
        "window_has_traffic": ok > 0,
        "no_estimator_errors": delta["estimator_errors"] == 0,
    }
    result = {
        "setup_s": setup_s,
        "window_s": window_s,
        "window_cpu_s": window_cpu_s,
        "loop_busy_share": window_cpu_s / window_s,
        "ops_attempted": ok + client.failed,
        "ops_failed": client.failed + samples["unsound"],
        "checks": checks,
        "metrics": {
            "msgs_per_s": delta["acked"] / window_s,
            "width_mean_s": sum(client.widths) / max(ok, 1),
            "wire_bytes_per_exchange": client.bytes / max(ok, 1),
            "cpu_ms_per_exchange": 1e3 * window_cpu_s / max(ok, 1),
            "probes_per_s": ok / window_s,
            "probe_rtt_us_p50": (percentile(client.rtts, 50) or 0.0) * 1e6,
            "probe_rtt_us_p99": (percentile(client.rtts, 99) or 0.0) * 1e6,
        },
        "sample_counts": {"width_mean_s": ok, "probe_rtt_us_p50": ok, "probe_rtt_us_p99": ok},
        # context, not a metric: the rate second by second (a stall shows here)
        "slice_probes_per_s": [
            (b[1] - a[1]) / (b[0] - a[0]) for a, b in zip(marks, marks[1:])
        ],
        # kernel share of the window's CPU (socket calls)
        "window_sys_share": window_sys_s / window_cpu_s,
        "closed_loop": {"outstanding": OUTSTANDING, "timeout_s": PROBE_TIMEOUT_S},
    }
    if tracer is not None:
        result["layer_counters"] = {
            **_node_layer_counters(delta, serve_decode_errors),
            "rt.serve.max_queue_depth": server.stats.max_queue_depth,
            "rt.serve.shed_ratio": shed / served if served else 0.0,
            **micro,
        }
    if check:
        result["oracle"] = oracle_parity(cluster.result().trace, cluster.spec, _final_bounds(cluster))
    return result


_RUNNERS = {"rt-loopback-mixed": _loopback, "serve-probe-udp": _serve}


def run(
    name: str,
    seed: int,
    seconds: float,
    tracer: Optional[Tracer],
    setup_done: Callable[[], float],
    setup_only: bool = False,
    check: bool = False,
) -> Dict:
    """One run of asyncio workload ``name`` on a fresh event loop."""
    return asyncio.run(_RUNNERS[name](seed, seconds, tracer, setup_done, setup_only, check))
