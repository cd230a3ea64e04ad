"""The struct-packed binary body format (wire version 3).

The framing header (magic, version byte, u32 body length) is shared with
the JSON codec (:mod:`repro.rt.wire`); this module packs and parses the
*body* of version-3 frames.  Wire version 3 exists because the profile of
real gossip traffic is a few hot field shapes repeated thousands of
times: JSON spends most of each sync frame re-spelling key names and
decimal-printing floats, and :func:`json.loads` dominates the node's
receive path.  The binary body removes both costs:

``body := flags u8 | packed...`` where bit 0 of ``flags`` marks a
zlib-compressed remainder, and ``packed`` is::

    type u8                     index into FRAME_TYPES
    strings                     varint count, then varint-length utf8 each
    src varint, dst varint      string-table indices
    <per-type fields>           the schema's, in order
    meta                        varint-length strict-JSON blob ('' = {})

Integers are unsigned LEB128 varints; signed quantities use zigzag.
``<per-type fields>`` are the fields of :data:`repro.rt.wire.FRAME_SCHEMA`
in table order, each in the binary spelling of its kind (``_BINARY``
below; the rendered table is in ``docs/RUNTIME.md``, "Frame fields").
There are no keys and no optional fields - only ``boot`` has an absent
form, a zero presence byte.

The history payload is where the compaction pays: records are a packed
event array with **delta-encoded** ``seq`` (zigzag varint of the running
difference) and **losslessly delta-encoded** ``lt``: the zigzag of the
difference between consecutive IEEE-754 bit patterns, emitted as one
byte when it fits in 7 bits, else as ``0x80|n`` followed by the ``n``
big-endian magnitude bytes.  Neighbouring gossip timestamps share
exponent and high mantissa bits, so the deltas are short, and
bit-pattern arithmetic makes the round trip exact; the length-prefixed
form parses in a single ``int.from_bytes`` instead of a per-byte varint
loop.  Loss flags are packed ``(proc index, seq)`` varint pairs.

Bodies larger than :data:`COMPRESS_THRESHOLD` are zlib-compressed when
that actually helps; decompression is bounded by ``MAX_BODY_BYTES`` so a
hostile peer cannot smuggle a decompression bomb past the frame cap.

**Decoding never raises** and shares the JSON decoder's taxonomy, because
it applies the same field rules: structural failures and refused fields
are ``bad-frame`` (with the claimed ``src`` once the string table and
envelope parsed), payload records that fail validation are
``bad-payload``, snapshot blobs ``bad-boot``.  Encode/decode is
strictly symmetric: ``decode(encode(f)).frame == f`` for every frame the
constructors in :mod:`repro.rt.wire` can build, which the differential
fuzz suite (:mod:`tests.rt.test_codec`) enforces against the JSON round
trip.
"""

from __future__ import annotations

import json
import math
import struct
import zlib
from itertools import groupby
from typing import Dict, List, Optional, Tuple

from ..core.bootstrap import BootstrapSnapshot
from ..core.errors import ProtocolError
from ..core.events import Event, EventId, EventKind
from ..core.history import HistoryPayload
from .wire import (
    FRAME_SCHEMA,
    FRAME_TYPES,
    MAX_BODY_BYTES,
    WIRE_VERSION_BINARY,
    DecodeResult,
    FieldRefused,
    Frame,
    bound_of,
    framed,
    make_frame,
    rejected,
    resolve_schema,
    strict_json,
)

__all__ = [
    "COMPRESS_THRESHOLD",
    "encode_frame_binary",
    "decode_body_binary",
]

#: bodies above this size are zlib-compressed (when compression shrinks
#: them); small frames skip the codec round trip entirely
COMPRESS_THRESHOLD = 1024

_F64 = struct.Struct(">d")
_F64_PAIR = struct.Struct(">dd")

#: flags-byte bits
_FLAG_ZLIB = 0x01

_INF = math.inf
_NEG_INF = -math.inf


# -- primitives ------------------------------------------------------------------------


def _put_varint(out: bytearray, value: int) -> None:
    if value < 0:  # the loop below would never terminate
        raise ProtocolError(f"a varint is unsigned, got {value}")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


class _Truncated(Exception):
    """Internal decode failure; converted to a WireError, never escapes."""


class _Reader:
    __slots__ = ("data", "pos", "end", "strings")

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0
        self.end = len(data)
        #: the frame's string table, once parsed
        self.strings: List[str] = []

    def varint(self) -> int:
        data, pos, end = self.data, self.pos, self.end
        result = 0
        shift = 0
        while True:
            if pos >= end:
                raise _Truncated("truncated varint")
            byte = data[pos]
            pos += 1
            result |= (byte & 0x7F) << shift
            if not byte & 0x80:
                break
            shift += 7
            if shift > 70:
                raise _Truncated("varint overflow")
        self.pos = pos
        return result

    def u8(self) -> int:
        if self.pos >= self.end:
            raise _Truncated("truncated byte")
        value = self.data[self.pos]
        self.pos += 1
        return value

    def f64(self) -> float:
        if self.pos + 8 > self.end:
            raise _Truncated("truncated f64")
        (value,) = _F64.unpack_from(self.data, self.pos)
        self.pos += 8
        return value

    def raw(self, length: int) -> bytes:
        if length < 0 or self.pos + length > self.end:
            raise _Truncated(f"truncated field of {length} bytes")
        chunk = self.data[self.pos : self.pos + length]
        self.pos += length
        return chunk

    def blob(self) -> bytes:
        return self.raw(self.varint())

    def string(self) -> str:
        return _string_at(self.strings, self.varint())

    def done(self) -> bool:
        return self.pos == self.end


# -- payload and blobs: encode ---------------------------------------------------------


class _StringTable:
    """Collects the distinct strings of a frame; emitted once, referenced

    by varint index.  Processor names repeat heavily inside payloads, so
    interning them is most of the sync-frame size win after the key-name
    removal."""

    __slots__ = ("index", "names")

    def __init__(self):
        self.index: Dict[str, int] = {}
        self.names: List[str] = []

    def add(self, name: str) -> int:
        idx = self.index.get(name)
        if idx is None:
            idx = self.index[name] = len(self.names)
            self.names.append(name)
        return idx

    def emit(self, out: bytearray) -> None:
        _put_varint(out, len(self.names))
        for name in self.names:
            encoded = name.encode("utf-8")
            _put_varint(out, len(encoded))
            out.extend(encoded)


def _pack_payload(out: bytearray, table: _StringTable, payload: HistoryPayload) -> None:
    # fully inlined: this loop runs once per record of every sync frame a
    # node emits, so varint emission is open-coded for the one-byte common
    # case instead of calling _put_varint per field (zigzag folded in),
    # and the event kind is resolved by identity (enum __hash__ is a
    # Python-level call and shows up hot under profile)
    append = out.append
    extend = out.extend
    index = table.index
    names = table.names
    f64_pack = _F64.pack
    internal_kind = EventKind.INTERNAL
    send_kind = EventKind.SEND
    _put_varint(out, len(payload.records))
    prev_seq = 0
    prev_bits = 0
    for event in payload.records:
        eid = event.eid
        ekind = event.kind
        kind = 2 if ekind is internal_kind else (0 if ekind is send_kind else 1)
        append(kind)
        proc = eid.proc
        idx = index.get(proc)
        if idx is None:
            idx = index[proc] = len(names)
            names.append(proc)
        if idx < 128:
            append(idx)
        else:
            _put_varint(out, idx)
        seq = eid.seq
        delta = seq - prev_seq
        prev_seq = seq
        zz = (delta << 1) if delta >= 0 else ((-delta) << 1) - 1
        if zz < 128:
            append(zz)
        else:
            _put_varint(out, zz)
        bits = int.from_bytes(f64_pack(event.lt), "big")
        delta = bits - prev_bits
        prev_bits = bits
        zz = (delta << 1) if delta >= 0 else ((-delta) << 1) - 1
        if zz < 128:
            append(zz)
        else:
            chunk = zz.to_bytes((zz.bit_length() + 7) >> 3, "big")
            append(0x80 | len(chunk))
            extend(chunk)
        if kind == 0:
            dest = event.dest
            idx = index.get(dest)
            if idx is None:
                idx = index[dest] = len(names)
                names.append(dest)
            _put_varint(out, idx)
        elif kind == 1:
            send_eid = event.send_eid
            sproc = send_eid.proc
            idx = index.get(sproc)
            if idx is None:
                idx = index[sproc] = len(names)
                names.append(sproc)
            _put_varint(out, idx)
            _put_varint(out, send_eid.seq)
    _put_varint(out, len(payload.loss_flags))
    for flag in payload.loss_flags:
        _put_varint(out, table.add(flag.proc))
        _put_varint(out, flag.seq)


def _json_blob(out: bytearray, document) -> None:
    encoded = strict_json(document)
    _put_varint(out, len(encoded))
    out.extend(encoded)


# -- payload: decode --------------------------------------------------------------------


#: interned :class:`EventId` values.  An event id is a pure value - the
#: pair fully determines the object - so sharing instances across decoded
#: frames is observably transparent, and gossip traffic re-reports the
#: same ids to every neighbor.  Bounded: the cache is simply dropped when
#: full (ids age out naturally as the execution advances).
_EID_CACHE: Dict[Tuple[str, int], EventId] = {}
_EID_CACHE_MAX = 1 << 16


def _intern_eid(proc: str, seq: int) -> EventId:
    cache = _EID_CACHE
    key = (proc, seq)
    eid = cache.get(key)
    if eid is None:
        if len(cache) >= _EID_CACHE_MAX:
            cache.clear()
        eid = cache[key] = EventId(proc, seq)
    return eid


#: interned decoded :class:`Event` records, keyed by their full field
#: tuple (with ``lt`` as its raw bit pattern, so a hit skips the float
#: conversion too).  An event is a frozen pure value and gossip
#: re-reports the same records to every neighbor of every hop, so in
#: steady state nearly every record of a sync frame is a hit.  Key
#: lengths disambiguate the kind: internal ``(proc, seq, bits)``, send
#: ``(proc, seq, bits, dest)``, receive
#: ``(proc, seq, bits, send_proc, send_seq)``.
_EVENT_CACHE: Dict[tuple, Event] = {}
_EVENT_CACHE_MAX = 1 << 16


def _unpack_payload(
    reader: _Reader, strings: List[str]
) -> Tuple[Optional[HistoryPayload], Optional[str]]:
    """Parse the packed payload; returns ``(payload, error_detail)``.

    The record loop is the receive hot path of every gossip node, so it
    is open-coded: varints are parsed inline against local bindings, and
    records are materialised through ``__new__`` plus a ``__dict__`` swap
    - the exact field set (including the derived ``link``) that
    :class:`Event`'s constructor would produce, with every constructor
    validation replicated inline, minus the per-field ``__setattr__``
    round trips.
    """
    data = reader.data
    pos = reader.pos
    end = reader.end
    count = reader.varint()
    pos = reader.pos
    if count > MAX_BODY_BYTES:
        return None, f"implausible record count {count}"
    records: List[Event] = []
    append = records.append
    event_new = Event.__new__
    set_raw = object.__setattr__
    event_cache = _EVENT_CACHE
    cache_get = event_cache.get
    f64_unpack = _F64.unpack
    send_kind = EventKind.SEND
    receive_kind = EventKind.RECEIVE
    internal_kind = EventKind.INTERNAL
    n_strings = len(strings)
    prev_seq = 0
    prev_bits = 0
    try:
        for _ in range(count):
            if pos >= end:
                raise _Truncated("truncated record")
            kind_code = data[pos]
            pos += 1
            # proc index varint (one byte in the common case)
            byte = data[pos]
            pos += 1
            if byte < 128:
                idx = byte
            else:
                idx = byte & 0x7F
                shift = 7
                while True:
                    byte = data[pos]
                    pos += 1
                    idx |= (byte & 0x7F) << shift
                    if not byte & 0x80:
                        break
                    shift += 7
            if idx >= n_strings:
                raise _Truncated(f"string index {idx} out of range")
            proc = strings[idx]
            if not proc:
                return None, "event record needs a non-empty proc"
            # seq zigzag delta
            byte = data[pos]
            pos += 1
            if byte < 128:
                raw = byte
            else:
                raw = byte & 0x7F
                shift = 7
                while True:
                    byte = data[pos]
                    pos += 1
                    raw |= (byte & 0x7F) << shift
                    if not byte & 0x80:
                        break
                    shift += 7
            seq = prev_seq + ((raw >> 1) if not raw & 1 else -((raw + 1) >> 1))
            if seq < 0:
                return None, f"event record needs a non-negative seq, got {seq}"
            prev_seq = seq
            # lt bit-pattern delta: one byte, or 0x80|n then n magnitude bytes
            byte = data[pos]
            pos += 1
            if byte < 128:
                raw = byte
            else:
                n = byte & 0x7F
                nxt = pos + n
                if nxt > end:
                    raise _Truncated("truncated lt delta")
                raw = int.from_bytes(data[pos:nxt], "big")
                pos = nxt
            bits = (
                prev_bits + ((raw >> 1) if not raw & 1 else -((raw + 1) >> 1))
            ) & 0xFFFFFFFFFFFFFFFF
            prev_bits = bits
            if kind_code == 2:
                key = (proc, seq, bits)
                event = cache_get(key)
                if event is None:
                    (lt,) = f64_unpack(bits.to_bytes(8, "big"))
                    if lt != lt or lt == _INF or lt == _NEG_INF:
                        return None, f"event local time must be finite, got {lt!r}"
                    event = event_new(Event)
                    set_raw(
                        event,
                        "__dict__",
                        {
                            "eid": _intern_eid(proc, seq),
                            "lt": lt,
                            "kind": internal_kind,
                            "dest": None,
                            "send_eid": None,
                            "link": None,
                        },
                    )
                    if len(event_cache) >= _EVENT_CACHE_MAX:
                        event_cache.clear()
                    event_cache[key] = event
            elif kind_code == 0:
                byte = data[pos]
                pos += 1
                if byte < 128:
                    idx = byte
                else:
                    idx = byte & 0x7F
                    shift = 7
                    while True:
                        byte = data[pos]
                        pos += 1
                        idx |= (byte & 0x7F) << shift
                        if not byte & 0x80:
                            break
                        shift += 7
                if idx >= n_strings:
                    raise _Truncated(f"string index {idx} out of range")
                dest = strings[idx]
                key = (proc, seq, bits, dest)
                event = cache_get(key)
                if event is None:
                    (lt,) = f64_unpack(bits.to_bytes(8, "big"))
                    if lt != lt or lt == _INF or lt == _NEG_INF:
                        return None, f"event local time must be finite, got {lt!r}"
                    if not dest:
                        return None, "send record needs a non-empty dest"
                    if dest == proc:
                        return None, f"a link must join two distinct processors, got {proc!r} twice"
                    event = event_new(Event)
                    set_raw(
                        event,
                        "__dict__",
                        {
                            "eid": _intern_eid(proc, seq),
                            "lt": lt,
                            "kind": send_kind,
                            "dest": dest,
                            "send_eid": None,
                            "link": (proc, dest) if proc <= dest else (dest, proc),
                        },
                    )
                    if len(event_cache) >= _EVENT_CACHE_MAX:
                        event_cache.clear()
                    event_cache[key] = event
            elif kind_code == 1:
                byte = data[pos]
                pos += 1
                if byte < 128:
                    idx = byte
                else:
                    idx = byte & 0x7F
                    shift = 7
                    while True:
                        byte = data[pos]
                        pos += 1
                        idx |= (byte & 0x7F) << shift
                        if not byte & 0x80:
                            break
                        shift += 7
                if idx >= n_strings:
                    raise _Truncated(f"string index {idx} out of range")
                send_proc = strings[idx]
                byte = data[pos]
                pos += 1
                if byte < 128:
                    send_seq = byte
                else:
                    send_seq = byte & 0x7F
                    shift = 7
                    while True:
                        byte = data[pos]
                        pos += 1
                        send_seq |= (byte & 0x7F) << shift
                        if not byte & 0x80:
                            break
                        shift += 7
                key = (proc, seq, bits, send_proc, send_seq)
                event = cache_get(key)
                if event is None:
                    (lt,) = f64_unpack(bits.to_bytes(8, "big"))
                    if lt != lt or lt == _INF or lt == _NEG_INF:
                        return None, f"event local time must be finite, got {lt!r}"
                    if not send_proc:
                        return None, "receive record needs a non-empty send proc"
                    if send_proc == proc:
                        return None, (
                            f"receive event {proc}#{seq} cannot receive from its own processor"
                        )
                    event = event_new(Event)
                    set_raw(
                        event,
                        "__dict__",
                        {
                            "eid": _intern_eid(proc, seq),
                            "lt": lt,
                            "kind": receive_kind,
                            "dest": None,
                            "send_eid": _intern_eid(send_proc, send_seq),
                            "link": (proc, send_proc)
                            if proc <= send_proc
                            else (send_proc, proc),
                        },
                    )
                    if len(event_cache) >= _EVENT_CACHE_MAX:
                        event_cache.clear()
                    event_cache[key] = event
            else:
                return None, f"unknown event kind code {kind_code}"
            append(event)
    except IndexError:
        return None, "truncated record"
    except _Truncated as exc:
        return None, str(exc)
    reader.pos = pos
    flag_count = reader.varint()
    if flag_count > MAX_BODY_BYTES:
        return None, f"implausible loss-flag count {flag_count}"
    flags = []
    try:
        for _ in range(flag_count):
            proc = _string_at(strings, reader.varint())
            if not proc:
                return None, "loss flag needs a non-empty proc"
            flags.append(_intern_eid(proc, reader.varint()))
    except _Truncated as exc:
        return None, str(exc)
    return HistoryPayload(records=tuple(records), loss_flags=tuple(flags)), None


def _string_at(strings: List[str], index: int) -> Optional[str]:
    if index >= len(strings):
        raise _Truncated(f"string index {index} out of range")
    return strings[index]


# -- the binary spelling of each kind: put(out, table, value), get(reader) ---------------


def _put_uint(out: bytearray, table: _StringTable, value: int) -> None:
    _put_varint(out, value)


def _put_u8(out: bytearray, table: _StringTable, value: int) -> None:
    out.append(value)


def _put_f64(out: bytearray, table: _StringTable, value: float) -> None:
    out.extend(_F64.pack(value))


def _put_name(out: bytearray, table: _StringTable, value: str) -> None:
    _put_varint(out, table.add(value))


def _put_bound(out: bytearray, table: _StringTable, value) -> None:
    out.extend(_F64_PAIR.pack(value.lower, value.upper))


def _put_boot(out: bytearray, table: _StringTable, value: Optional[BootstrapSnapshot]) -> None:
    # bootstrap snapshots ride one frame per join handshake - a cold path -
    # so they stay JSON inside the binary body rather than doubling the
    # packed surface
    if value is None:
        out.append(0)
    else:
        out.append(1)
        _json_blob(out, value.to_dict())


def _get_bool(reader: _Reader) -> bool:
    return bool(reader.u8())


def _get_bound(reader: _Reader):
    return bound_of(reader.f64(), reader.f64())


def _get_payload(reader: _Reader) -> HistoryPayload:
    payload, detail = _unpack_payload(reader, reader.strings)
    if payload is None:
        raise FieldRefused(detail, "bad-payload")
    return payload


def _get_boot(reader: _Reader) -> Optional[BootstrapSnapshot]:
    if not reader.u8():
        return None
    try:
        return BootstrapSnapshot.from_dict(json.loads(reader.blob()))
    except (ValueError, UnicodeDecodeError) as exc:
        raise FieldRefused(str(exc), "bad-boot") from None


_BINARY = {
    "uint": (_put_uint, _Reader.varint),
    "hops": (_put_u8, _Reader.u8),
    "f64": (_put_f64, _Reader.f64),
    "f64>=0": (_put_f64, _Reader.f64),
    "bool": (_put_u8, _get_bool),
    "name": (_put_name, _Reader.string),
    "bound": (_put_bound, _get_bound),
    "payload": (_pack_payload, _get_payload),
    "boot": (_put_boot, _get_boot),
}

_FIELDS = resolve_schema(_BINARY)


# -- compiled rows: the scalar frame types ------------------------------------------------

#: the fixed-width scalar kinds as ``(struct format, spread, take)``:
#: ``spread(args, value)`` appends the value's numbers to the pack
#: arguments, ``take(numbers)`` builds the value back from the iterator
#: over the unpacked ones.  With the varint ``uint`` these are the kinds
#: a compiled row can hold.
_FIXED = {
    "hops": ("B", list.append, next),
    "f64": ("d", list.append, next),
    "f64>=0": ("d", list.append, next),
    "bool": ("B", list.append, lambda numbers: bool(next(numbers))),
    "bound": (
        "dd",
        lambda args, bound: args.extend((bound.lower, bound.upper)),
        lambda numbers: bound_of(next(numbers), next(numbers)),
    ),
}


def _varint_segment(attr: str, rule):
    def pack(frame: Frame, out: bytearray) -> None:
        value = rule(getattr(frame, attr))
        if value < 128:
            out.append(value)
        else:
            _put_varint(out, value)

    def unpack(body: bytes, pos: int, values: Dict) -> int:
        # _Reader.varint without the reader (and with its overflow rule)
        value = shift = 0
        while True:
            byte = body[pos]
            pos += 1
            value |= (byte & 0x7F) << shift
            if byte < 128:
                break
            shift += 7
            if shift > 70:
                raise _Truncated("varint overflow")
        values[attr] = rule(value)
        return pos

    return pack, unpack


def _fixed_segment(fields: List[tuple]):
    """One ``struct.Struct`` over a run of fixed-width ``(attr, kind, rule)``."""
    layout = struct.Struct(">" + "".join(_FIXED[kind][0] for _, kind, _ in fields))
    size = layout.size
    packers = [(attr, rule, _FIXED[kind][1]) for attr, kind, rule in fields]
    takers = [(attr, rule, _FIXED[kind][2]) for attr, kind, rule in fields]

    def pack(frame: Frame, out: bytearray) -> None:
        args: List = []
        for attr, rule, spread in packers:
            spread(args, rule(getattr(frame, attr)))
        out += layout.pack(*args)

    def unpack(body: bytes, pos: int, values: Dict) -> int:
        numbers = iter(layout.unpack_from(body, pos))
        for attr, rule, take in takers:
            values[attr] = rule(take(numbers))
        return pos + size

    return pack, unpack


def _compile_row(ftype: str):
    """``(encode, decode)`` for a frame type whose fields are all of scalar kinds, else ``None``.

    Derived from the schema row alone: each ``uint`` is a varint segment,
    each maximal run of fixed-width kinds one struct segment; every value
    still passes its rule.  Both functions answer ``None`` for anything
    that is not the plain well-formed case - a refused field, a meta, a
    truncated or over-long tail - and the generic loop takes the frame
    from the start, so it stays the one place errors are attributed.
    """
    fields = [
        (attr, kind, rule)
        for (attr, kind, _), (_, _, rule, _, _) in zip(FRAME_SCHEMA[ftype], _FIELDS[ftype])
    ]
    # hello and join have no fields, and a meta on every frame
    if not fields or any(kind != "uint" and kind not in _FIXED for _, kind, _ in fields):
        return None
    segments: List[tuple] = []
    for fixed, run in groupby(fields, lambda field: field[1] in _FIXED):
        if fixed:
            segments.append(_fixed_segment(list(run)))
        else:
            segments.extend(_varint_segment(attr, rule) for attr, _, rule in run)
    packers = [pack for pack, _ in segments]
    unpackers = [unpack for _, unpack in segments]
    code = FRAME_TYPES.index(ftype)

    def encode(frame: Frame) -> Optional[bytes]:
        if frame.meta:
            return None
        key = (code, frame.src, frame.dst)
        prelude = _PRELUDES.get(key)
        if prelude is None:
            table = _StringTable()
            prelude = b"\0" + _envelope(code, table, table.add(frame.src), table.add(frame.dst))
            _memoize(_PRELUDES, key, prelude)
        body = bytearray(prelude)
        try:
            for pack in packers:
                pack(frame, body)
        except FieldRefused:
            return None
        body.append(0)  # no meta
        if len(body) > COMPRESS_THRESHOLD:
            return None
        return framed(WIRE_VERSION_BINARY, body)

    def decode(body: bytes, pos: int) -> Optional[Dict]:
        values: Dict = {}
        try:
            for unpack in unpackers:
                pos = unpack(body, pos, values)
            if body[pos] or pos + 1 != len(body):
                return None  # a meta blob or trailing bytes
        except (IndexError, struct.error, _Truncated, FieldRefused):
            return None
        return values

    return encode, decode


#: (type code, src, dst) -> the body up to the first field: zero flags,
#: type code, string table, src/dst indexes
_PRELUDES: Dict[tuple, bytes] = {}
#: those same bytes off the wire -> ``(ftype, src, dst, compiled decode)``,
#: learned from frames the generic decoder accepted whose envelope is in
#: the encoder's shape (:func:`_fields_at`); a key is 261 bytes at most
_ENVELOPES: Dict[bytes, tuple] = {}
_MEMO_MAX = 1 << 12


def _memoize(memo: Dict, key, value) -> None:
    """Bounded like ``_EID_CACHE``: dropped when full."""
    if len(memo) >= _MEMO_MAX:
        memo.clear()
    memo[key] = value


#: frame type -> its compiled ``(encode, decode)``
_COMPILED = {ftype: row for ftype in FRAME_TYPES if (row := _compile_row(ftype)) is not None}
_COMPILED_CODES = frozenset(FRAME_TYPES.index(ftype) for ftype in _COMPILED)


def _fields_at(body: bytes) -> Optional[int]:
    """Where the fields start after an envelope in the encoder's shape, else ``None``.

    That shape is what a frame without table strings gets: at most two
    strings (src, dst), and the count, every length and both indexes
    one-byte varints.  Nothing else is memoized or looked up, so the
    sender of a padded string table chooses neither the size of a memo
    key nor an entry the fast path would never read.  ``IndexError`` if
    the body ends inside the envelope.
    """
    if body[2] > 2:
        return None
    pos = 3
    for _ in range(body[2]):
        if body[pos] > 127:
            return None
        pos += 1 + body[pos]
    if body[pos] > 127 or body[pos + 1] > 127:
        return None
    return pos + 2


def _decode_compiled(body: bytes) -> Optional[DecodeResult]:
    """The frame of a compiled type whose envelope was seen before, else ``None``."""
    try:
        if body[1] not in _COMPILED_CODES:
            return None
        pos = _fields_at(body)
    except IndexError:
        return None
    envelope = _ENVELOPES.get(body[:pos]) if pos else None
    if envelope is None:
        return None
    ftype, src, dst, decode = envelope
    values = decode(body, pos)
    if values is None:
        return None
    return DecodeResult(
        frame=make_frame(ftype, src, dst, {}, values), version=WIRE_VERSION_BINARY
    )


# -- frames ----------------------------------------------------------------------------


def _envelope(code: int, table: _StringTable, src_idx: int, dst_idx: int) -> bytearray:
    packed = bytearray((code,))
    table.emit(packed)
    _put_varint(packed, src_idx)
    _put_varint(packed, dst_idx)
    return packed


def encode_frame_binary(frame: Frame) -> bytes:
    """Serialize ``frame`` as a version-3 binary frame.

    Raises :class:`ProtocolError` on local misuse (a field its rule
    refuses, an oversized body, a non-JSON-safe meta) exactly like the
    JSON encoder.
    """
    compiled = _COMPILED.get(frame.type)
    if compiled is not None:
        data = compiled[0](frame)
        if data is not None:
            return data
    return _encode_generic(frame)


def _encode_generic(frame: Frame) -> bytes:
    ftype = frame.type
    rows = _FIELDS.get(ftype)
    if rows is None:
        raise ProtocolError(f"unknown frame type {ftype!r}")
    table = _StringTable()
    src_idx = table.add(frame.src)
    dst_idx = table.add(frame.dst)
    fields = bytearray()
    try:
        for attr, _, rule, put, _ in rows:
            put(fields, table, rule(getattr(frame, attr)))
    except FieldRefused as exc:
        raise ProtocolError(f"{ftype} {attr}: {exc}") from None
    # string table first (it is only complete once the fields packed)
    packed = _envelope(FRAME_TYPES.index(ftype), table, src_idx, dst_idx)
    packed.extend(fields)
    if frame.meta:
        _json_blob(packed, dict(frame.meta))
    else:
        _put_varint(packed, 0)
    body = bytes(packed)
    flags = 0
    if len(body) > COMPRESS_THRESHOLD:
        squeezed = zlib.compress(body, 6)
        if len(squeezed) < len(body):
            body = squeezed
            flags |= _FLAG_ZLIB
    return framed(WIRE_VERSION_BINARY, bytes([flags]) + body)


def _bad(detail: str, src: Optional[str] = None) -> DecodeResult:
    return rejected("bad-frame", detail, src, WIRE_VERSION_BINARY)


def decode_body_binary(body: bytes) -> DecodeResult:
    """Parse an untrusted version-3 body into a frame or a structured error.

    Every field passes the rule the JSON decoder applies to it; the
    result's ``version`` is always :data:`~repro.rt.wire.WIRE_VERSION_BINARY`
    so stateless endpoints can echo the codec.
    """
    return _decode_compiled(body) or _decode_generic(body)


def _decode_generic(body: bytes) -> DecodeResult:
    src: Optional[str] = None
    try:
        if not body:
            return _bad("empty body")
        flags = body[0]
        rest = body[1:]
        if flags & _FLAG_ZLIB:
            try:
                # cap decompression at the frame limit: anything larger
                # could never have been encoded by a conforming peer
                rest = zlib.decompressobj().decompress(rest, MAX_BODY_BYTES + 1)
            except zlib.error as exc:
                return _bad(f"bad zlib stream: {exc}")
            if len(rest) > MAX_BODY_BYTES:
                return rejected(
                    "oversized", "decompressed body exceeds cap", version=WIRE_VERSION_BINARY
                )
        reader = _Reader(rest)
        type_code = reader.u8()
        if type_code >= len(FRAME_TYPES):
            return _bad(f"unknown type code {type_code}")
        ftype = FRAME_TYPES[type_code]
        string_count = reader.varint()
        if string_count > MAX_BODY_BYTES:
            return _bad(f"implausible string count {string_count}")
        strings = reader.strings
        for _ in range(string_count):
            raw = reader.blob()
            try:
                strings.append(raw.decode("utf-8"))
            except UnicodeDecodeError as exc:
                return _bad(f"bad utf-8 in string table: {exc}")
        src = reader.string()
        dst = reader.string()
        if not src or not dst:
            return _bad("missing or non-string src/dst", src=src or None)
        fields_at = 1 + reader.pos
        values = {}
        for attr, _, rule, _, get in _FIELDS[ftype]:
            values[attr] = rule(get(reader))
        meta_blob = reader.blob()
        if meta_blob:
            try:
                meta = json.loads(meta_blob)
            except (ValueError, UnicodeDecodeError) as exc:
                return _bad(f"bad meta blob: {exc}", src=src)
            if not isinstance(meta, dict):
                return _bad("meta is not an object", src=src)
        else:
            meta = {}
        if not reader.done():
            return _bad(f"{reader.end - reader.pos} trailing bytes after body", src=src)
    except _Truncated as exc:
        return _bad(str(exc), src=src)
    except FieldRefused as exc:
        return rejected(exc.code, f"{ftype} {attr}: {exc}", src, WIRE_VERSION_BINARY)
    if not flags and ftype in _COMPILED and _fields_at(body) == fields_at:
        # an envelope of a compiled type, validated by the walk above
        _memoize(_ENVELOPES, body[:fields_at], (ftype, src, dst, _COMPILED[ftype][1]))
    return DecodeResult(
        frame=make_frame(ftype, src, dst, meta, values), version=WIRE_VERSION_BINARY
    )
