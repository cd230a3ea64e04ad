"""Serving-tier wire frames: round trips, rejection paths, garbage fuzz.

The probe/reply/shed extension keeps the codec's core contract: decode
never raises on any byte string, malformed frames become structured
``WireError``\\ s attributed to the claimed sender, and constructors
refuse to emit locally what the decoder would reject remotely (an
unbounded reply, a negative retry hint).
"""

import json
import math
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import ProtocolError
from repro.core.intervals import ClockBound
from repro.rt.wire import (
    FRAME_TYPES,
    MAGIC,
    MAX_BODY_BYTES,
    SERVE_FRAME_TYPES,
    WIRE_VERSION,
    ack_frame,
    decode_frame,
    encode_frame,
    hello_frame,
    probe_frame,
    reply_frame,
    shed_frame,
)


def _reframe(data, mutate):
    """Decode a frame's body, mutate the dict, re-frame the bytes."""
    body = json.loads(data[7:])
    mutate(body)
    encoded = json.dumps(body).encode()
    return struct.pack(">2sBI", MAGIC, WIRE_VERSION, len(encoded)) + encoded


def _reply_bytes(**overrides):
    kwargs = dict(degraded=False, age=0.0)
    kwargs.update(overrides)
    return encode_frame(
        reply_frame("n1!serve", "c0", 7, ClockBound(1.25, 1.75), **kwargs)
    )


class TestServeRoundTrips:
    def test_probe(self):
        result = decode_frame(encode_frame(probe_frame("c0", "n1!serve", 42)))
        assert result.ok
        frame = result.frame
        assert (frame.type, frame.src, frame.dst, frame.nonce) == (
            "probe", "c0", "n1!serve", 42,
        )

    def test_reply(self):
        result = decode_frame(_reply_bytes(degraded=True, age=0.5))
        assert result.ok
        frame = result.frame
        assert frame.type == "reply"
        assert frame.nonce == 7
        assert frame.bound == ClockBound(1.25, 1.75)
        assert frame.degraded is True
        assert frame.age == pytest.approx(0.5)

    def test_shed(self):
        data = encode_frame(
            shed_frame("n1!serve", "c0", 9, retry_after=0.25, reason="queue")
        )
        frame = decode_frame(data).frame
        assert (frame.type, frame.nonce) == ("shed", 9)
        assert frame.retry_after == pytest.approx(0.25)
        assert frame.reason == "queue"

    def test_point_interval_reply(self):
        frame = decode_frame(
            encode_frame(reply_frame("s", "c", 0, ClockBound(2.0, 2.0)))
        ).frame
        assert frame.bound.lower == frame.bound.upper == 2.0

    def test_serve_types_are_registered(self):
        assert set(SERVE_FRAME_TYPES) <= set(FRAME_TYPES)


class TestServeConstructorValidation:
    """Never emit locally what a peer's decoder would reject."""

    def test_reply_refuses_unbounded(self):
        for bad in (ClockBound.unbounded(), ClockBound(1.0, math.inf)):
            with pytest.raises(ProtocolError):
                reply_frame("s", "c", 0, bad)

    def test_reply_refuses_negative_age(self):
        with pytest.raises(ProtocolError):
            reply_frame("s", "c", 0, ClockBound(1.0, 2.0), age=-0.1)

    def test_shed_refuses_bad_retry_after(self):
        for bad in (-0.5, math.inf, math.nan):
            with pytest.raises(ProtocolError):
                shed_frame("s", "c", 0, retry_after=bad)

    def test_shed_refuses_empty_reason(self):
        with pytest.raises(ProtocolError):
            shed_frame("s", "c", 0, retry_after=0.1, reason="")

    def test_bad_nonces(self):
        for bad in (-1, True, 1.5, "seven", None):
            with pytest.raises(ProtocolError):
                probe_frame("c", "s", bad)


class TestServeRejectionPaths:
    """Tampered serve frames decode to attributed WireErrors."""

    def decode_error(self, data):
        result = decode_frame(data)
        assert not result.ok and result.frame is None
        return result.error

    def test_probe_missing_nonce(self):
        data = encode_frame(probe_frame("c0", "s", 1))
        error = self.decode_error(_reframe(data, lambda b: b.pop("nonce")))
        assert error.code == "bad-frame"
        assert error.src == "c0"  # attribution survives tampering

    def test_bad_nonce_values(self):
        data = encode_frame(probe_frame("c0", "s", 1))
        for bad in (-1, True, 1.5, "x", None):
            error = self.decode_error(
                _reframe(data, lambda b, v=bad: b.__setitem__("nonce", v))
            )
            assert error.code == "bad-frame"

    def test_reply_inverted_interval(self):
        error = self.decode_error(
            _reframe(_reply_bytes(), lambda b: b.__setitem__("lower", 99.0))
        )
        assert error.code == "bad-frame"
        assert error.src == "n1!serve"

    def test_reply_non_finite_endpoints(self):
        for key, bad in (("lower", "1e999"), ("upper", "nan")):
            # json.loads accepts bare nan/inf; the decoder must not
            body = json.loads(_reply_bytes()[7:])
            body[key] = float(bad)
            encoded = json.dumps(body, allow_nan=True).encode()
            data = struct.pack(">2sBI", MAGIC, WIRE_VERSION, len(encoded)) + encoded
            assert self.decode_error(data).code == "bad-frame"

    def test_reply_missing_bound(self):
        for key in ("lower", "upper"):
            error = self.decode_error(
                _reframe(_reply_bytes(), lambda b, k=key: b.pop(k))
            )
            assert error.code == "bad-frame"

    def test_reply_bad_degraded_and_age(self):
        for mutate in (
            lambda b: b.__setitem__("degraded", "yes"),
            lambda b: b.__setitem__("age", -1.0),
            lambda b: b.__setitem__("age", "old"),
        ):
            assert self.decode_error(_reframe(_reply_bytes(), mutate)).code == "bad-frame"

    def test_shed_bad_retry_and_reason(self):
        data = encode_frame(shed_frame("s", "c", 2, retry_after=0.5))
        for mutate in (
            lambda b: b.pop("retry_after"),
            lambda b: b.__setitem__("retry_after", -0.1),
            lambda b: b.__setitem__("reason", ""),
            lambda b: b.__setitem__("reason", 7),
        ):
            assert self.decode_error(_reframe(data, mutate)).code == "bad-frame"

    def test_shed_missing_reason_defaults_to_overload(self):
        # reason is advisory; an absent one reads as the generic verdict
        data = encode_frame(shed_frame("s", "c", 2, retry_after=0.5))
        result = decode_frame(_reframe(data, lambda b: b.pop("reason")))
        assert result.ok and result.frame.reason == "overload"

    def test_old_frame_types_unaffected(self):
        # the additive extension leaves existing frames untouched
        assert decode_frame(encode_frame(hello_frame("a", "b"))).ok
        assert decode_frame(encode_frame(ack_frame("b", "a", 3))).ok


def _valid_corpus():
    return [
        encode_frame(probe_frame("c0", "n0!serve", 5)),
        _reply_bytes(),
        _reply_bytes(degraded=True, age=2.5),
        encode_frame(shed_frame("n0!serve", "c0", 5, retry_after=0.1, reason="overload")),
        encode_frame(hello_frame("a", "b")),
        encode_frame(ack_frame("b", "a", 12)),
    ]


class TestWireGarbageFuzz:
    """decode_frame over hostile bytes: never raise, always classify."""

    @given(st.binary(max_size=256))
    @settings(max_examples=300, deadline=None)
    def test_random_bytes_never_raise(self, data):
        result = decode_frame(data)
        assert result.ok == (result.error is None)
        if not result.ok:
            assert result.error.code

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_truncations_never_raise(self, data):
        corpus = _valid_corpus()
        frame_bytes = data.draw(st.sampled_from(corpus))
        cut = data.draw(st.integers(min_value=0, max_value=len(frame_bytes)))
        result = decode_frame(frame_bytes[:cut])
        if cut < len(frame_bytes):
            assert not result.ok
            assert result.error.code in ("short-frame", "length-mismatch", "oversized")

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_single_byte_corruption_never_raises(self, data):
        corpus = _valid_corpus()
        frame_bytes = bytearray(data.draw(st.sampled_from(corpus)))
        index = data.draw(st.integers(min_value=0, max_value=len(frame_bytes) - 1))
        value = data.draw(st.integers(min_value=0, max_value=255))
        frame_bytes[index] = value
        result = decode_frame(bytes(frame_bytes))
        assert result.ok == (result.error is None)

    def test_oversized_serve_frame_declared_length(self):
        header = struct.pack(">2sBI", MAGIC, WIRE_VERSION, MAX_BODY_BYTES + 1)
        result = decode_frame(header + b"x" * 10)
        assert result.error.code == "oversized"

    @given(st.binary(min_size=0, max_size=64))
    @settings(max_examples=200, deadline=None)
    def test_garbage_after_valid_header_never_raises(self, tail):
        header = struct.pack(">2sBI", MAGIC, WIRE_VERSION, len(tail))
        result = decode_frame(header + tail)
        assert result.ok == (result.error is None)


class TestClockHygiene:
    """The serving tier never consults the wall clock."""

    def test_no_wall_clock_reads(self):
        import ast
        import inspect

        from repro.rt import cli, client, loadgen, serve

        banned = {("time", "time"), ("datetime", "now"), ("datetime", "utcnow")}
        for module in (serve, client, loadgen, cli):
            tree = ast.parse(inspect.getsource(module))
            for node in ast.walk(tree):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
                    pair = (func.value.id, func.attr)
                    assert pair not in banned, (
                        f"{module.__name__} line {node.lineno} reads the wall clock"
                    )
