"""Transports: loopback delivery, fault middleware verdicts, UDP sockets.

No estimators here - raw byte frames through each medium, asserting the
datagram service contract (fire-and-forget, at-most-once per datagram,
crashed/partitioned traffic suppressed) that the node daemon builds on.
"""

import asyncio
import socket

import pytest

from repro.core.errors import SimulationError
from repro.rt.clock import TimeBase
from repro.rt.transport import (
    DRAIN_BUDGET,
    FaultMiddleware,
    LoopbackTransport,
    UDPTransport,
)
from repro.sim.faults import (
    BurstLoss,
    ByzantineProcessor,
    CrashWindow,
    DelayExcursion,
    DriftExcursion,
    Duplication,
    FaultPlan,
    LateJoin,
    PartitionWindow,
    StateCorruption,
)


def _collector(box, name):
    def handler(data):
        box.setdefault(name, []).append(data)

    return handler


async def _settle(seconds=0.05):
    await asyncio.sleep(seconds)


class TestLoopback:
    def test_immediate_delivery(self):
        async def run():
            transport = LoopbackTransport()
            await transport.start()
            box = {}
            transport.register("b", _collector(box, "b"))
            transport.send("a", "b", b"one")
            transport.send("a", "b", b"two")
            await _settle(0)
            await transport.stop()
            return box

        box = asyncio.run(run())
        assert box["b"] == [b"one", b"two"]

    def test_unregistered_destination_is_dropped(self):
        async def run():
            transport = LoopbackTransport()
            await transport.start()
            transport.send("a", "ghost", b"x")
            await _settle(0)
            await transport.stop()

        asyncio.run(run())  # must not raise

    def test_send_before_start_is_dropped(self):
        async def run():
            transport = LoopbackTransport()
            box = {}
            transport.register("b", _collector(box, "b"))
            transport.send("a", "b", b"early")
            await transport.start()
            await _settle(0)
            return box

        assert asyncio.run(run()) == {}

    def test_handler_exception_is_contained(self):
        async def run():
            transport = LoopbackTransport()
            await transport.start()
            transport.register("b", lambda data: 1 / 0)
            box = {}
            transport.register("c", _collector(box, "c"))
            transport.send("a", "b", b"boom")
            transport.send("a", "c", b"fine")
            await _settle(0)
            return transport, box

        transport, box = asyncio.run(run())
        assert transport.handler_errors == 1
        assert box["c"] == [b"fine"]

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            LoopbackTransport(delay=-0.1)

    def test_jittered_delivery_arrives(self):
        async def run():
            transport = LoopbackTransport(delay=0.01, jitter=0.02, seed=7)
            await transport.start()
            box = {}
            transport.register("b", _collector(box, "b"))
            for i in range(5):
                transport.send("a", "b", bytes([i]))
            await _settle(0.1)
            await transport.stop()
            return box

        box = asyncio.run(run())
        assert sorted(box["b"]) == [bytes([i]) for i in range(5)]


class TestFaultMiddleware:
    def _wrap(self, plan, time_base=None):
        inner = LoopbackTransport()
        return FaultMiddleware(
            inner,
            plan,
            time_base or TimeBase(),
            procs=["a", "b"],
            links=[("a", "b")],
            source="a",
        )

    def test_partition_drops_and_counts(self):
        async def run():
            plan = FaultPlan(seed=1, injections=(
                PartitionWindow("a", "b", 0.0, 60.0),
            ))
            transport = self._wrap(plan)
            await transport.start()
            box = {}
            transport.register("b", _collector(box, "b"))
            transport.send("a", "b", b"x")
            await _settle(0)
            await transport.stop()
            return transport, box

        transport, box = asyncio.run(run())
        assert box == {}
        assert transport.dropped == 1

    def test_crashed_sender_and_receiver_suppressed(self):
        async def run():
            plan = FaultPlan(seed=1, injections=(CrashWindow("b", 0.0, 60.0),))
            transport = self._wrap(plan)
            await transport.start()
            box = {}
            transport.register("a", _collector(box, "a"))
            transport.register("b", _collector(box, "b"))
            transport.send("a", "b", b"to-crashed")  # receiver down
            transport.send("b", "a", b"from-crashed")  # sender down
            await _settle(0)
            await transport.stop()
            return transport, box

        transport, box = asyncio.run(run())
        assert box == {}
        assert transport.dropped == 2

    def test_duplication_echoes(self):
        async def run():
            plan = FaultPlan(seed=3, injections=(
                Duplication("a", "b", prob=1.0, start=0.0, end=60.0),
            ))
            transport = self._wrap(plan)
            await transport.start()
            box = {}
            transport.register("b", _collector(box, "b"))
            transport.send("a", "b", b"x")
            await _settle(0.2)
            await transport.stop()
            return transport, box

        transport, box = asyncio.run(run())
        assert box["b"] == [b"x", b"x"]
        assert transport.duplicated == 1

    def test_clean_plan_passes_through(self):
        async def run():
            transport = self._wrap(FaultPlan(seed=0))
            await transport.start()
            box = {}
            transport.register("b", _collector(box, "b"))
            transport.send("a", "b", b"x")
            await _settle(0)
            await transport.stop()
            return transport, box

        transport, box = asyncio.run(run())
        assert box["b"] == [b"x"]
        assert (transport.dropped, transport.duplicated) == (0, 0)

    @pytest.mark.parametrize(
        "injection",
        [
            DriftExcursion("b", 0.0, 1.0),
            ByzantineProcessor("b"),
            StateCorruption("b", at=1.0),
            LateJoin("b", at=1.0, sponsor="a"),
        ],
        ids=lambda injection: type(injection).__name__,
    )
    def test_injections_above_the_transport_are_refused(self, injection):
        plan = FaultPlan(seed=0, injections=(injection,))
        with pytest.raises(SimulationError, match=type(injection).__name__):
            self._wrap(plan)

    def test_transport_level_plan_binds(self):
        plan = FaultPlan(seed=0, injections=(
            CrashWindow("b", 0.0, 1.0),
            PartitionWindow("a", "b", 1.0, 2.0),
            BurstLoss("a", "b"),
            Duplication("a", "b"),
            DelayExcursion("a", "b", 2.0, 3.0),
        ))
        assert self._wrap(plan).active.plan is plan

    def test_unknown_processor_in_plan_rejected(self):
        plan = FaultPlan(seed=0, injections=(CrashWindow("zz", 0.0, 1.0),))
        with pytest.raises(SimulationError):
            self._wrap(plan)


class TestUDP:
    def test_round_trip_over_real_sockets(self):
        async def run():
            transport = UDPTransport({
                "a": ("127.0.0.1", 0), "b": ("127.0.0.1", 0),
            })
            box = {}
            transport.register("a", _collector(box, "a"))
            transport.register("b", _collector(box, "b"))
            await transport.start()
            # port 0 was resolved to real ephemeral ports at start
            assert all(port != 0 for _host, port in transport.addresses.values())
            transport.send("a", "b", b"ping")
            await _settle(0.1)
            transport.send("b", "a", b"pong")
            await _settle(0.1)
            await transport.stop()
            return box

        box = asyncio.run(run())
        assert box["b"] == [b"ping"]
        assert box["a"] == [b"pong"]

    def test_unconfigured_endpoint_rejected(self):
        transport = UDPTransport({"a": ("127.0.0.1", 0)})
        with pytest.raises(SimulationError):
            transport.register("zz", lambda data: None)

    def test_unregister_closes_socket_and_drops_traffic(self):
        async def run():
            transport = UDPTransport({
                "a": ("127.0.0.1", 0), "b": ("127.0.0.1", 0),
            })
            box = {}
            transport.register("a", _collector(box, "a"))
            transport.register("b", _collector(box, "b"))
            await transport.start()
            transport.unregister("b")
            transport.send("a", "b", b"into-the-void")
            await _settle(0.05)
            await transport.stop()
            return box

        box = asyncio.run(run())
        assert "b" not in box

    def test_port_zero_resolves_into_the_shared_address_map(self):
        async def run():
            addresses = {"a": ("127.0.0.1", 0), "late": ("127.0.0.1", 0)}
            transport = UDPTransport(addresses)
            assert transport.addresses is addresses
            transport.register("a", lambda data: None)
            await transport.start()
            # only open endpoints are resolved; a late one on ensure_endpoint
            assert addresses["a"][1] != 0 and addresses["late"] == ("127.0.0.1", 0)
            transport.register("late", lambda data: None)
            await transport.ensure_endpoint("late")
            resolved = dict(addresses)
            await transport.ensure_endpoint("late")  # already open: a no-op
            await transport.stop()
            return addresses, resolved

        addresses, resolved = asyncio.run(run())
        assert addresses == resolved
        assert all(host == "127.0.0.1" and port != 0 for host, port in resolved.values())

    def test_hostname_resolves_off_the_loop_thread(self, monkeypatch):
        blocking = socket.getaddrinfo

        def numeric_only(host, port, *args, flags=0, **kwargs):
            assert flags & socket.AI_NUMERICHOST, "a blocking lookup on the loop thread"
            return blocking(host, port, *args, flags=flags, **kwargs)

        async def run():
            transport = UDPTransport({"a": ("sync.test", 0), "gone": ("gone.test", 0)})
            asked = []

            async def resolver(host, port, **kwargs):
                asked.append(host)
                if host == "gone.test":
                    transport.unregister("gone")  # while its lookup is in flight
                return blocking("127.0.0.1", port, **kwargs)

            monkeypatch.setattr("repro.rt.transport.socket.getaddrinfo", numeric_only)
            monkeypatch.setattr(asyncio.get_running_loop(), "getaddrinfo", resolver)
            transport.register("a", lambda data: None)
            transport.register("gone", lambda data: None)
            await transport.start()
            opened = dict(transport._socks)
            await transport.stop()
            return asked, list(opened), transport.addresses

        asked, opened, addresses = asyncio.run(run())
        assert asked == ["sync.test", "gone.test"]
        assert opened == ["a"]  # no socket for an endpoint that left meanwhile
        assert addresses["a"][0] == "sync.test" and addresses["a"][1] != 0
        assert addresses["gone"] == ("gone.test", 0)

    def test_burst_over_the_drain_budget_is_delivered_without_starving_others(self):
        burst = [b"%d" % i for i in range(3 * DRAIN_BUDGET)]

        async def run():
            transport = UDPTransport({name: ("127.0.0.1", 0) for name in "abc"})
            order = []
            transport.register("a", lambda data: None)
            transport.register("b", lambda data: order.append(("b", data)))
            transport.register("c", lambda data: order.append(("c", data)))
            await transport.start()
            for data in burst:
                transport.send("a", "b", data)
            transport.send("a", "c", b"me too")
            await _settle(0.1)
            await transport.stop()
            return order, transport.socket_errors

        order, socket_errors = asyncio.run(run())
        assert socket_errors == 0
        assert [data for name, data in order if name == "b"] == burst
        # c was read after b's first budget, not after b's whole backlog
        assert DRAIN_BUDGET <= order.index(("c", b"me too")) < len(burst)

    def test_handler_unregistering_its_endpoint_stops_the_drain(self):
        async def run():
            loop = asyncio.get_running_loop()
            transport = UDPTransport({"a": ("127.0.0.1", 0), "b": ("127.0.0.1", 0)})
            got = []

            def once(data):
                got.append(data)
                transport.unregister("b")

            transport.register("a", lambda data: None)
            transport.register("b", once)
            await transport.start()
            fd = transport._socks["b"].fileno()
            for i in range(5):
                transport.send("a", "b", b"%d" % i)
            await _settle(0.05)
            # the socket is closed and the loop no longer watches its fd
            still_watched = loop.remove_reader(fd)
            await transport.stop()
            return got, "b" in transport._socks, still_watched

        got, still_open, still_watched = asyncio.run(run())
        assert got == [b"0"]
        assert not still_open and not still_watched

    def test_stop_removes_every_reader(self):
        async def run():
            loop = asyncio.get_running_loop()
            transport = UDPTransport({name: ("127.0.0.1", 0) for name in "abc"})
            for name in "abc":
                transport.register(name, lambda data: None)
            await transport.start()
            socks = list(transport._socks.values())
            fds = [sock.fileno() for sock in socks]
            await transport.stop()
            return [loop.remove_reader(fd) for fd in fds], [sock.fileno() for sock in socks]

        watched, fds = asyncio.run(run())
        assert watched == [False] * 3
        assert fds == [-1] * 3  # closed

    def test_socket_errors_are_counted_never_raised(self, monkeypatch):
        class Flaky(socket.socket):
            recv_failures = 0
            send_error = None

            def recvfrom(self, size):
                if Flaky.recv_failures:
                    Flaky.recv_failures -= 1
                    raise OSError("injected receive failure")
                return super().recvfrom(size)

            def sendto(self, data, addr):
                if Flaky.send_error is not None:
                    raise Flaky.send_error
                return super().sendto(data, addr)

        async def run():
            monkeypatch.setattr("repro.rt.transport.socket.socket", Flaky)
            transport = UDPTransport({"a": ("127.0.0.1", 0), "b": ("127.0.0.1", 0)})
            box = {}
            transport.register("a", _collector(box, "a"))
            transport.register("b", _collector(box, "b"))
            await transport.start()
            monkeypatch.undo()
            Flaky.recv_failures = 2
            transport.send("a", "b", b"survives")
            await _settle(0.05)
            after_receive = transport.socket_errors
            # a full send buffer (would-block) is one more way to lose a datagram
            for Flaky.send_error in (OSError("injected send failure"), BlockingIOError()):
                transport.send("a", "b", b"lost")
            Flaky.send_error = None
            await _settle(0.05)
            await transport.stop()
            return box, after_receive, transport.socket_errors

        box, after_receive, total = asyncio.run(run())
        # the failed reads left the datagram in the kernel: delivered after
        assert box == {"b": [b"survives"]}
        assert after_receive == 2
        assert total == 4
