"""Wire codec benchmarks - JSON vs binary on the gossip hot path.

The binary codec's reason to exist is protocol overhead: every gossip
round pays one encode on the sender and one decode on the receiver, and
at cluster scale that marshalling dominated the committed bench
trajectory.  ``test_sync_encode_decode[binary]`` vs ``[json]`` is the
within-run speedup gate (``bench-compare`` pins binary >= 2.75x on the
sync-frame round trip); the coalesced-flush benchmark covers the
many-frames-per-datagram path that `Node._flush_outbox` emits and
``decode_frames`` consumes.

The 48-record payload mirrors a busy gossip period: six processors,
interleaved sequences, one loss flag - large enough that the payload
body dominates, small enough to stay under the coalescing threshold.

Payload-heavy frames hide the *per-frame* cost (type dispatch, field
rules, frame materialisation), which is all a serving-tier probe pays:
``test_probe_marshalling`` times the six frame operations of one
probe/reply exchange and ``test_ack_round_trip`` the smallest gossip
frame, so a slower walk of the frame schema shows up in
``bench-compare`` instead of only in the end-to-end benchmark.
"""

import pytest

from repro.core.events import Event, EventId, EventKind
from repro.core.history import HistoryPayload
from repro.core.intervals import ClockBound
from repro.rt.wire import (
    ack_frame,
    decode_frame,
    decode_frames,
    encode_frame,
    probe_frame,
    reply_frame,
    sync_frame,
)


def _sync_frame(n_records=48, n_procs=6):
    records = tuple(
        Event(
            eid=EventId(f"p{i % n_procs}", i // n_procs),
            lt=100.0 + i * 0.25 + (i * 0.137) % 0.01,
            kind=EventKind.INTERNAL,
        )
        for i in range(n_records)
    )
    payload = HistoryPayload(records=records, loss_flags=(EventId("p1", 0),))
    send = Event(eid=EventId("n1", 7), lt=142.5, kind=EventKind.SEND, dest="n2")
    return sync_frame(send, payload)


@pytest.mark.parametrize("codec", ["json", "binary"])
def test_sync_encode_decode(benchmark, codec):
    """One full gossip marshalling round: encode + decode a 48-record sync."""
    frame = _sync_frame()
    blob = encode_frame(frame, codec)

    def round_trip():
        return decode_frame(encode_frame(frame, codec))

    # 10 round trips per timing: scheduler preemptions land in one
    # sample instead of skewing the per-op mean the speedup gate reads
    result = benchmark.pedantic(round_trip, iterations=10, rounds=300, warmup_rounds=5)

    assert result.ok and result.frame == frame
    # the size win is part of the claim: binary must not regress to JSON girth
    if codec == "binary":
        assert len(blob) < len(encode_frame(frame, "json")) / 2


@pytest.mark.parametrize("codec", ["json", "binary"])
def test_coalesced_flush_decode(benchmark, codec):
    """Decode one datagram carrying eight coalesced small sync frames."""
    frames = [_sync_frame(n_records=6) for _ in range(8)]
    datagram = b"".join(encode_frame(frame, codec) for frame in frames)

    def drain():
        count = 0
        for result in decode_frames(datagram):
            assert result.ok
            count += 1
        return count

    assert benchmark.pedantic(drain, iterations=10, rounds=200, warmup_rounds=5) == 8


@pytest.mark.parametrize("codec", ["json", "binary"])
def test_probe_marshalling(benchmark, codec):
    """The frame work of one Cristian exchange, client and server side:
    build, encode and decode the probe, then the same for its reply."""
    bound = ClockBound(1.25, 1.75)

    def exchange():
        probe = decode_frame(encode_frame(probe_frame("c0", "n1!serve", 42), codec)).frame
        answer = reply_frame(probe.dst, probe.src, probe.nonce, bound, age=0.5)
        return decode_frame(encode_frame(answer, codec))

    result = benchmark.pedantic(exchange, iterations=50, rounds=300, warmup_rounds=5)
    assert result.ok and (result.frame.nonce, result.frame.bound) == (42, bound)


@pytest.mark.parametrize("codec", ["json", "binary"])
def test_ack_round_trip(benchmark, codec):
    """Build + encode + decode the smallest gossip frame."""

    def round_trip():
        return decode_frame(encode_frame(ack_frame("n2", "n1", 17), codec))

    result = benchmark.pedantic(round_trip, iterations=100, rounds=300, warmup_rounds=5)
    assert result.ok and result.frame.seq == 17


def test_binary_wire_size_ratio():
    """Not a timing bench: record the size win so regressions are loud."""
    frame = _sync_frame()
    json_size = len(encode_frame(frame, "json"))
    binary_size = len(encode_frame(frame, "binary"))
    assert binary_size * 3 < json_size
