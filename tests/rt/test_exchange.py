"""One Cristian exchange, two frame pairs: the conformance suite.

``probe``/``reply`` (the serving tier) and ``dreq``/``deleg`` (strata
delegation) are spoken by one bound server
(:class:`~repro.rt.serve.ServeNode`) and one bound client
(:class:`~repro.rt.client.ServeClient`); the delegation classes only
select the frame pair.  Every behaviour of the exchange is therefore
asserted once, over both pairs:

* server - junk, strays and a down node are counted, never answered and
  never raised; an unsynced, stale or quarantined estimator sheds or
  widens by ``rho * age`` instead of lying; admission sheds explicitly;
  answers echo the request's codec; ``deleg`` answers carry the ``K2``
  hop count; a raising answer costs one request, not the worker;
* client - only the first answer matching nonce *and* claimed source is
  adopted; timeouts rotate exactly at the accrual threshold, sheds are
  liveness; an adopted bound contains the truth for every clock rate
  inside the advertised band (Hypothesis), and keeps containing it when
  drift-advanced.

Time is a settable :class:`TimeBase`, so nothing here sleeps on the
wall clock except the two event-loop tests' millisecond timeouts.
"""

import asyncio
from dataclasses import dataclass
from typing import Callable

import pytest
from hypothesis import given, strategies as st

from repro.core.events import Event, EventId, EventKind
from repro.core.intervals import ClockBound
from repro.rt.client import ClientConfig, ServeClient
from repro.rt.clock import MonotonicClockSource, SkewedClockSource, TimeBase
from repro.rt.cluster import ClusterConfig, build_spec
from repro.rt.node import Node, NodeConfig
from repro.rt.serve import ServeConfig, ServeNode, serve_endpoint
from repro.rt.strata import (
    AnchorLink,
    DelegationServer,
    anchor_link_config,
    deleg_endpoint,
)
from repro.rt.transport import LoopbackTransport, Transport
from repro.rt.wire import (
    MAX_DELEGATION_HOPS,
    WIRE_VERSION,
    WIRE_VERSION_BINARY,
    decode_frame,
    deleg_frame,
    dreq_frame,
    encode_frame,
    hello_frame,
    probe_frame,
    reply_frame,
    shed_frame,
)


class _Clock(TimeBase):
    """A time base the test moves by hand."""

    def __init__(self, now: float = 10.0):
        super().__init__(origin=0.0)
        self.now = now

    def elapsed(self) -> float:
        return self.now


class _Wire(Transport):
    """Records every send; delivers nothing."""

    def __init__(self):
        super().__init__()
        self.sent = []

    def send(self, src, dest, data):
        self.sent.append((src, dest, data))


@dataclass(frozen=True)
class _Pair:
    """One frame pair and the classes that speak it."""

    request: Callable
    answer_type: str
    endpoint_of: Callable
    #: (node, transport, config, bound_source) -> server
    server: Callable
    #: (servers, transport, time_base, clock, **config) -> client
    client: Callable

    def answer(self, src, dst, nonce, bound, **fields):
        if self.answer_type == "reply":
            return reply_frame(src, dst, nonce, bound, **fields)
        return deleg_frame(src, dst, nonce, bound, hops=1, stratum=0, **fields)


def _serve_client(servers, transport, time_base, clock, **config):
    return ServeClient(
        ClientConfig(name="c0", servers=tuple(serve_endpoint(s) for s in servers), **config),
        transport,
        time_base,
        clock,
    )


def _anchor_link(servers, transport, time_base, clock, **config):
    return AnchorLink(
        anchor_link_config("b0", servers, **config),
        transport,
        time_base,
        clock,
        max_age=2.0,
        tier="tier1",
    )


PROBE = _Pair(
    request=probe_frame,
    answer_type="reply",
    endpoint_of=serve_endpoint,
    server=lambda node, transport, config, source: ServeNode(node, transport, config, source),
    client=_serve_client,
)
DREQ = _Pair(
    request=dreq_frame,
    answer_type="deleg",
    endpoint_of=deleg_endpoint,
    server=lambda node, transport, config, source: DelegationServer(
        node,
        stratum=0 if source is None else 1,
        transport=transport,
        config=config,
        bound_source=source,
    ),
    client=_anchor_link,
)

pairs = pytest.mark.parametrize(
    "pair", [pytest.param(PROBE, id="probe"), pytest.param(DREQ, id="dreq")]
)


class _Quarantined:
    """An estimator reporting quarantined constraints, otherwise the real one."""

    degraded = True

    def __init__(self, inner):
        self._inner = inner

    def __getattr__(self, name):
        return getattr(self._inner, name)


class _Rig:
    """A node + one bound server driven synchronously, on hand-moved time."""

    def __init__(self, pair, config=None, *, proc="n0", bound_source=None):
        cluster = ClusterConfig(
            processors=("n0", "n1", "n2"), links=(("n0", "n1"), ("n1", "n2"))
        )
        self.pair = pair
        self.clock = _Clock()
        self.wire = _Wire()
        self.node = Node(
            NodeConfig(proc=proc, spec=build_spec(cluster)),
            self.wire,
            clock=MonotonicClockSource(),
            time_base=self.clock,
        )
        if proc == "n0":
            # the source anchors on any internal tick: its lt *is* source time
            self.node.estimator.on_internal(
                Event(EventId(proc, 0), self.clock.now, EventKind.INTERNAL)
            )
        self.server = pair.server(self.node, self.wire, config, bound_source)
        # the receive path is driven directly, without start()
        self.node._running = True
        self.server._running = True

    def request(self, nonce=0, codec="json", dst=None):
        dst = self.server.endpoint if dst is None else dst
        return encode_frame(self.pair.request("c0", dst, nonce), codec)

    def ask(self, nonce=0, codec="json"):
        raw = self.server.handle_probe_bytes(self.request(nonce, codec))
        return None if raw is None else decode_frame(raw)


@pairs
class TestServerConformance:
    def test_junk_bytes_counted_never_answered(self, pair):
        rig = _Rig(pair)
        assert rig.server.handle_probe_bytes(b"\x00junk") is None
        assert rig.server.stats.decode_errors == 1
        assert rig.server.stats.probes == 0

    def test_wrong_dst_and_wrong_type_rejected(self, pair):
        rig = _Rig(pair)
        stray = rig.request(dst=pair.endpoint_of("n9"))
        assert rig.server.handle_probe_bytes(stray) is None
        other = DREQ if pair is PROBE else PROBE
        for frame in (
            hello_frame("a", rig.server.endpoint),
            other.request("c0", rig.server.endpoint, 1),
            pair.answer("x", rig.server.endpoint, 0, ClockBound(1.0, 2.0)),
        ):
            assert rig.server.handle_probe_bytes(encode_frame(frame)) is None
        assert rig.server.stats.rejected_frames == 4
        assert rig.server.stats.probes == 0

    def test_backing_node_down_drops_silently(self, pair):
        rig = _Rig(pair)
        rig.node._running = False
        rig.server._on_datagram(rig.request())
        assert rig.server.stats.probes == 1
        assert rig.server.stats.dropped_down == 1
        assert rig.wire.sent == [] and not rig.server._queue

    def test_unsynced_estimator_sheds_instead_of_lying(self, pair):
        rig = _Rig(pair, proc="n1")  # never received a protocol event
        frame = rig.ask(nonce=5).frame
        assert frame.type == "shed" and frame.reason == "unsynced"
        assert frame.nonce == 5
        assert frame.retry_after == ServeConfig().unsynced_retry_after
        assert rig.server.stats.shed == {"unsynced": 1}
        assert rig.server.stats.replies == 0

    def test_fresh_state_answers_crisp_and_sound(self, pair):
        rig = _Rig(pair, ServeConfig(stale_after=10.0))
        rig.clock.now += 1.0
        frame = rig.ask(nonce=7).frame
        assert frame.type == pair.answer_type and frame.nonce == 7
        assert frame.degraded is False and frame.age == pytest.approx(1.0)
        assert frame.bound.contains(rig.clock.now, tolerance=1e-9)
        assert rig.server.stats.replies == 1
        assert rig.server.stats.degraded_replies == 0

    @pytest.mark.parametrize("cause", ["stale", "quarantined"])
    def test_stale_or_quarantined_state_widens_by_rho_age(self, pair, cause):
        rho, age = 0.5, 0.25
        stale_after = 0.1 if cause == "stale" else 10.0
        rig = _Rig(pair, ServeConfig(stale_after=stale_after, degraded_rho=rho))
        rig.clock.now += age
        crisp = rig.node.estimate_now()
        if cause == "quarantined":
            rig.node.estimator = _Quarantined(rig.node.estimator)
        frame = rig.ask().frame
        assert frame.type == pair.answer_type and frame.degraded is True
        assert frame.age == pytest.approx(age)
        assert frame.bound.lower == pytest.approx(crisp.lower - rho * age)
        assert frame.bound.upper == pytest.approx(crisp.upper + rho * age)
        assert frame.bound.contains(rig.clock.now, tolerance=1e-9)
        assert rig.server.stats.degraded_replies == 1

    def test_overload_sheds_with_honest_hint(self, pair):
        rig = _Rig(pair, ServeConfig(bucket_rate=5.0, bucket_burst=1.0))
        assert rig.ask(nonce=0).frame.type == pair.answer_type
        shed = rig.ask(nonce=1).frame
        assert shed.type == "shed" and shed.reason == "overload"
        assert shed.retry_after == pytest.approx(0.2)
        assert rig.server.stats.shed_rate() == pytest.approx(0.5)
        rig.clock.now += shed.retry_after + 1e-6  # the hint was honest
        assert rig.ask(nonce=2).frame.type == pair.answer_type

    def test_queue_sheds_when_backlog_full(self, pair):
        rig = _Rig(pair, ServeConfig(queue_limit=2))
        for nonce in range(3):
            rig.server._on_datagram(rig.request(nonce))
        assert len(rig.server._queue) == 2
        assert rig.server.stats.max_queue_depth == 2
        (_src, dest, data), = rig.wire.sent
        shed = decode_frame(data).frame
        assert dest == "c0" and shed.nonce == 2
        assert shed.type == "shed" and shed.reason == "queue"
        assert shed.retry_after > 0

    @pytest.mark.parametrize(
        "codec, version", [("binary", WIRE_VERSION_BINARY), ("json", WIRE_VERSION)]
    )
    def test_answers_and_sheds_echo_the_request_codec(self, pair, codec, version):
        rig = _Rig(pair, ServeConfig(bucket_rate=5.0, bucket_burst=1.0))
        answer = rig.ask(nonce=0, codec=codec)
        shed = rig.ask(nonce=1, codec=codec)
        assert answer.frame.type == pair.answer_type and shed.frame.type == "shed"
        assert answer.version == version and shed.version == version

    def test_hops_and_stratum_follow_the_bound_source(self, pair):
        own = _Rig(pair).ask().frame
        sourced_rig = _Rig(
            pair, bound_source=lambda: (ClockBound(5.0, 5.2), True, 0.05)
        )
        sourced = sourced_rig.ask().frame
        assert sourced.bound == ClockBound(5.0, 5.2)
        assert sourced.degraded is True and sourced.age == pytest.approx(0.05)
        assert sourced_rig.server.stats.degraded_replies == 1
        if pair is PROBE:
            assert own.hops is None and sourced.hops is None
        else:
            assert (own.hops, own.stratum) == (1, 0)
            # a re-export is two indirections: the K2 ceiling
            assert (sourced.hops, sourced.stratum) == (MAX_DELEGATION_HOPS, 1)

    @pytest.mark.parametrize(
        "sourced", [None, (ClockBound.unbounded(), False, 0.0)], ids=["none", "unbounded"]
    )
    def test_bound_source_with_nothing_fresh_sheds(self, pair, sourced):
        rig = _Rig(pair, bound_source=lambda: sourced)
        frame = rig.ask().frame
        assert frame.type == "shed" and frame.reason == "unsynced"

    def test_raising_answer_costs_one_request_not_the_worker(self, pair):
        """The worker guard: a ``bound_source`` that raises once, then answers."""
        calls = []

        def flaky():
            calls.append(None)
            if len(calls) == 1:
                raise RuntimeError("estimator hiccup")
            return ClockBound(5.0, 5.2), False, 0.0

        async def scenario():
            rig = _Rig(pair, bound_source=flaky)
            transport = LoopbackTransport()
            rig.server.transport = transport
            rig.server._running = False
            answers = []
            transport.register("c0", answers.append)
            await transport.start()
            await rig.server.start()
            for nonce in (1, 2):
                transport.send("c0", rig.server.endpoint, rig.request(nonce))
            for _ in range(200):
                if answers:
                    break
                await asyncio.sleep(0.005)
            await asyncio.wait_for(rig.server.stop(), timeout=1.0)
            await transport.stop()
            return rig.server, answers

        server, answers = asyncio.run(scenario())
        assert server.stats.worker_errors == 1
        assert [decode_frame(raw).frame.nonce for raw in answers] == [2]
        assert decode_frame(answers[0]).frame.type == pair.answer_type

    def test_stop_tolerates_a_worker_that_already_died(self, pair):
        async def scenario():
            rig = _Rig(pair)
            rig.server._running = False
            await rig.server.start()

            async def boom():
                raise RuntimeError("dead worker")

            rig.server._worker.cancel()
            rig.server._worker = asyncio.get_running_loop().create_task(boom())
            await asyncio.sleep(0)
            await asyncio.wait_for(rig.server.stop(), timeout=1.0)
            return rig.server

        assert asyncio.run(scenario()).running is False


def _client(pair, servers=("s1", "s2"), clock=None, **config):
    wire, time_base = _Wire(), _Clock()
    client = pair.client(servers, wire, time_base, clock, **config)
    return client, wire, time_base


@pairs
class TestClientConformance:
    def test_only_the_first_matching_answer_is_adopted(self, pair):
        """Wrong claimed source, duplicates and expired nonces are ``unmatched``."""

        async def scenario():
            client, wire, _time = _client(pair, probe_timeout=0.02)
            first = asyncio.ensure_future(client._probe_once())
            await asyncio.sleep(0)
            (_src, server, raw), = wire.sent
            nonce = decode_frame(raw).frame.nonce
            assert decode_frame(raw).frame.type == pair.request("a", "b", 0).type
            bound = ClockBound(9.9, 10.1)
            impostor = encode_frame(pair.answer(client.config.servers[1], client.name, nonce, bound))
            genuine = encode_frame(pair.answer(server, client.name, nonce, bound))
            client._on_datagram(impostor)
            assert client.stats.unmatched == 1 and not first.done()
            client._on_datagram(genuine)
            client._on_datagram(genuine)  # a duplicated answer
            await first
            assert client.stats.accepted == 1 and client.stats.unmatched == 2
            # the next request times out; its late answer is an expired nonce
            await client._probe_once()
            late = decode_frame(wire.sent[1][2]).frame.nonce
            client._on_datagram(encode_frame(pair.answer(server, client.name, late, bound)))
            return client

        client = asyncio.run(scenario())
        assert client.stats.probes == 2 and client.stats.timeouts == 1
        assert client.stats.accepted == 1 and len(client.samples) == 1
        assert client.stats.unmatched == 3
        assert client._pending == {}

    def test_wrong_answer_type_and_junk_never_match(self, pair):
        client, _wire, _time = _client(pair)
        other = DREQ if pair is PROBE else PROBE
        client._on_datagram(b"\x00junk")
        client._on_datagram(
            encode_frame(other.answer(client.server, client.name, 0, ClockBound(1.0, 2.0)))
        )
        assert client.stats.decode_errors == 1 and client.stats.unmatched == 1

    def test_timeouts_rotate_exactly_at_the_accrual_threshold(self, pair):
        client, _wire, time_base = _client(pair, failover_threshold=3.0)
        first, second = client.config.servers
        for _ in range(2):
            client._on_timeout()
        assert client.server == first and client.stats.failovers == 0
        time_base.now += 1.0
        client._on_timeout()
        assert client.server == second
        assert client.stats.failovers == 1 and client.stats.timeouts == 3
        assert client.failover_events == [(time_base.now, first, second)]
        # rotation starts fresh: the new server gets its own three strikes
        for _ in range(2):
            client._on_timeout()
        assert client.server == second
        client._on_timeout()
        assert client.server == first  # wraps around the candidate list

    def test_single_candidate_never_rotates(self, pair):
        client, _wire, _time = _client(pair, servers=("s1",))
        for _ in range(20):
            client._on_timeout()
        assert client.stats.failovers == 0 and client.stats.timeouts == 20

    def test_sheds_are_liveness_and_clear_the_failure_streak(self, pair):
        client, _wire, _time = _client(pair, failover_threshold=3.0)
        shed = shed_frame(client.server, client.name, 0, retry_after=0.4, reason="unsynced")
        for _ in range(2):
            client._on_timeout()
        delay = client._on_shed(shed)
        assert delay >= 0.4, "never retry earlier than told"
        assert client.health.failures == 0
        assert client.stats.shed_reasons == {"unsynced": 1}
        for _ in range(2):
            client._on_timeout()
        assert client.stats.failovers == 0, "the streak restarted after the shed"

    @given(
        rate=st.floats(0.9, 1.1),
        below=st.floats(0.0, 0.05),
        above=st.floats(0.0, 0.05),
        offset=st.floats(-100.0, 100.0),
        t0=st.floats(0.0, 1000.0),
        rtt=st.floats(0.0, 5.0),
        at=st.floats(0.0, 1.0),
        slack_low=st.floats(0.0, 1.0),
        slack_high=st.floats(0.0, 1.0),
        later=st.floats(0.0, 100.0),
    )
    def test_adopted_bound_contains_truth(
        self, pair, rate, below, above, offset, t0, rtt, at, slack_low, slack_high, later
    ):
        """The one ``_adopt``: sound at adoption and when drift-advanced.

        Any client clock rate inside its advertised band, any server
        interval containing the truth at an instant inside the round
        trip, any round-trip time.  Source time *is* the time base.
        """
        clock = SkewedClockSource(
            rate, offset, advertised_band=(rate - below, rate + above)
        )
        client, _wire, time_base = _client(pair, clock=clock)
        instant = t0 + at * rtt  # when the server computed its interval
        frame = pair.answer(
            client.server,
            client.name,
            0,
            ClockBound(instant - slack_low, instant + slack_high),
        )
        time_base.now = t0 + rtt
        client._adopt(frame, clock.lt_at(t0))
        sample = client.samples[-1]
        assert sample.bound.contains(time_base.now, tolerance=1e-9)
        assert sample.bound.lower == frame.bound.lower  # only the upper end widens
        time_base.now += later
        rt, advanced = client.current_bound()
        assert rt == time_base.now
        assert advanced.contains(rt, tolerance=1e-9)


class TestExpiry:
    """``max_age`` is the one thing only the delegation client adds."""

    def test_expired_adoption_is_refused_and_the_re_export_sheds(self):
        link, _wire, time_base = _client(DREQ)
        frame = deleg_frame(
            link.server, link.name, 0, ClockBound(9.9, 10.1), hops=1, stratum=0
        )
        link._adopt(frame, link._now()[1])
        delegated = link.current()
        assert (delegated.hops, delegated.stratum, delegated.anchor) == (1, 0, "s1")
        assert delegated.anchor_lt == time_base.now
        border = _Rig(DREQ, bound_source=link.composed_now)
        assert border.ask().frame.hops == MAX_DELEGATION_HOPS

        time_base.now += link.max_age + 0.5
        assert link.current() is None and link.composed_now() is None
        assert link.stats.stale_refusals == 2
        assert border.ask().frame.reason == "unsynced"
        # the plain client keeps drift-advancing: expiry is a strata rule
        assert link.current_bound() is not None
