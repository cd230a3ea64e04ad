"""The frame schema: golden bytes, rejection parity and compiled rows generated from it.

``repro.rt.wire.FRAME_SCHEMA`` is the one place a frame type's fields are
spelled; every constructor, encoder and decoder walks it.  This module
pins the two things that table must never silently change:

* **the bytes** - ``golden_frames.json`` holds the corpus of
  ``tests/rt/test_codec.py::_corpus()`` as encoded (both codecs) by the
  commit *before* the schema existed; encoding must reproduce it byte for
  byte and decoding must map it back.  Regenerate the file only for an
  intentional, versioned wire-format change.
* **the verdicts** - for every (frame type, field) and every hostile
  value its kind admits, the constructor raises ``ProtocolError``, both
  encoders refuse a hand-built frame carrying it, and a valid JSON body
  (and, where v3 can spell the value, a valid binary body) mutated to it
  decodes to a structured error naming the claimed sender.  The cases
  are derived from the table, so a new field of an existing kind is
  covered the moment it is added, and a new kind fails
  ``test_every_kind_has_hostile_values`` until it gets its own.
* **the fast path** - the binary codec compiles the rows of every type
  made of scalar kinds only; compiled and generic encode/decode must
  agree on every frame, memo miss or hit (``TestCompiledRows``).
"""

import contextlib
import dataclasses
import json
import math
import pathlib
import signal
import struct
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import ProtocolError
from repro.core.history import HistoryPayload
from repro.core.intervals import ClockBound
from repro.rt import codec, wire
from repro.rt.wire import (
    FRAME_SCHEMA,
    FRAME_TYPES,
    MAGIC,
    MAX_DELEGATION_HOPS,
    WIRE_VERSION,
    WIRE_VERSION_BINARY,
    Frame,
    decode_frame,
    encode_frame,
    sync_frame,
)

from .test_codec import _corpus

GOLDEN = pathlib.Path(__file__).with_name("golden_frames.json")
CODECS = ("json", "binary")

# -- golden bytes ------------------------------------------------------------------------


def _golden():
    entries = json.loads(GOLDEN.read_text())["frames"]
    corpus = _corpus()
    assert len(entries) == len(corpus)
    return [
        pytest.param(frame, entry, id=f"{index}-{entry['id']}")
        for index, (frame, entry) in enumerate(zip(corpus, entries))
    ]


class TestGoldenBytes:
    """The wire format is what the parent commit put on the wire."""

    @pytest.mark.parametrize("codec", CODECS)
    @pytest.mark.parametrize("frame, entry", _golden())
    def test_encode_reproduces_golden(self, frame, entry, codec):
        assert encode_frame(frame, codec).hex() == entry[codec]

    @pytest.mark.parametrize("codec", CODECS)
    @pytest.mark.parametrize("frame, entry", _golden())
    def test_decode_maps_golden_back(self, frame, entry, codec):
        result = decode_frame(bytes.fromhex(entry[codec]))
        assert result.ok and result.frame == frame
        assert result.version == (WIRE_VERSION if codec == "json" else WIRE_VERSION_BINARY)

    def test_golden_spans_every_type_in_code_order(self):
        # the binary type code is the position in FRAME_TYPES, and byte 8
        # of a v3 frame (after the 7-byte header and the flags byte) is it
        seen = {}
        for param in _golden():
            frame, entry = param.values
            seen[frame.type] = bytes.fromhex(entry["binary"])[8]
        assert seen == {ftype: code for code, ftype in enumerate(FRAME_TYPES)}


# -- valid and hostile values, per kind ----------------------------------------------------

#: one valid value per kind; the floats are distinct 8-byte patterns with
#: no zero byte, so the binary suite can find (and overwrite) them - and
#: the run of zero bytes that ends an empty sync - in an encoded body
VALID = {
    "uint": 5,
    "hops": 1,
    "f64": 2.7,
    "f64>=0": 0.7,
    "bool": True,
    "name": "queue",
    "bound": ClockBound(1.3, 1.7),
    "payload": HistoryPayload(records=()),
    "boot": None,
}

_NOT_A_NUMBER = ("noon", None, True, [1.0])
_NON_FINITE = (math.nan, math.inf, -math.inf, 10**400)  # 10**400: float() overflows
_NOT_A_UINT = ("7", None, True, 1.5, -1)
_BAD_RECORD = {"records": [{"proc": "a", "seq": 0, "lt": 1.0, "kind": "teleport"}]}

#: kind -> values the rule must refuse wherever they show up in memory:
#: as a constructor argument, or on a hand-built frame handed to an encoder
HOSTILE = {
    "uint": _NOT_A_UINT,
    "hops": _NOT_A_UINT + (0, MAX_DELEGATION_HOPS + 1),
    "f64": _NOT_A_NUMBER + _NON_FINITE,
    "f64>=0": _NOT_A_NUMBER + _NON_FINITE + (-0.5,),
    "bool": ("yes", 1, None),
    "name": ("", 7, None),
    "bound": (ClockBound.unbounded(), ClockBound(1.0, math.inf), (1.0, 2.0), None),
    "payload": ({}, None),
    "boot": ({}, "snapshot"),
}

#: kind -> JSON documents the decoder must reject when found under the
#: field's key.  Scalars travel as themselves, so these are HOSTILE again;
#: the document kinds have their own malformations (and their own codes)
HOSTILE_JSON = dict(
    HOSTILE,
    payload=(_BAD_RECORD, None, [], 3),
    boot=({}, None, [], "snapshot"),
)
del HOSTILE_JSON["bound"]  # spelled as two keys: see _bound_mutations

ERROR_CODE = {"payload": "bad-payload", "boot": "bad-boot"}

_MISSING = object()


def _fields():
    for ftype, rows in FRAME_SCHEMA.items():
        for attr, kind, default in rows:
            yield ftype, attr, kind, default


def _label(value):
    return "missing" if value is _MISSING else repr(value)[:24]


def _valid_values(ftype):
    return {attr: VALID[kind] for attr, kind, _ in FRAME_SCHEMA[ftype]}


def _construct(ftype, values):
    """Call the public constructor of ``ftype`` with ``values`` by name."""
    if ftype == "sync":
        # seq/lt reach sync_frame inside a send event, and a real Event
        # would refuse the hostile ones first: stand one in
        event = SimpleNamespace(
            is_send=True, kind="send", proc="a", dest="b", seq=values["seq"], lt=values["lt"]
        )
        return sync_frame(event, values["payload"], values["boot"])
    return getattr(wire, f"{ftype}_frame")("a", "b", **values)


def _valid_frame(ftype):
    return _construct(ftype, _valid_values(ftype))


def _reframe(version, body):
    return struct.pack(">2sBI", MAGIC, version, len(body)) + body


def _mutated_json(ftype, mutate):
    body = json.loads(encode_frame(_valid_frame(ftype), "json")[7:])
    mutate(body)
    # allow_nan: json.loads takes bare NaN/Infinity, so a peer can send them
    return _reframe(WIRE_VERSION, json.dumps(body, allow_nan=True).encode())


def _assert_rejected(data, code):
    result = decode_frame(data)
    assert not result.ok and result.frame is None
    assert result.error.code == code, result.error
    assert result.error.src == "a"  # the claimed sender survives
    return result


@contextlib.contextmanager
def _promptly(seconds=5.0):
    """Fail (instead of hanging the suite) if the body runs away."""

    def expired(signum, frame):
        raise AssertionError(f"did not finish within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


# -- the generated suites ---------------------------------------------------------------


def test_every_kind_has_hostile_values():
    kinds = {kind for _, _, kind, _ in _fields()}
    assert kinds == set(VALID) == set(HOSTILE)
    assert kinds - {"bound"} == set(HOSTILE_JSON)
    assert {ftype for ftype, *_ in _fields()} | {"hello", "join"} == set(FRAME_TYPES)


@pytest.mark.parametrize("ftype", FRAME_TYPES)
def test_valid_frame_round_trips(ftype):
    frame = _valid_frame(ftype)
    for codec in CODECS:
        assert decode_frame(encode_frame(frame, codec)).frame == frame


def _in_memory_cases():
    for ftype, attr, kind, _ in _fields():
        for value in HOSTILE[kind]:
            yield pytest.param(ftype, attr, value, id=f"{ftype}.{attr}={_label(value)}")


class TestRulesInMemory:
    """What a decoder would reject, no local path emits."""

    @pytest.mark.parametrize("ftype, attr, value", _in_memory_cases())
    def test_constructor_refuses(self, ftype, attr, value):
        values = _valid_values(ftype)
        values[attr] = value
        with pytest.raises(ProtocolError):
            _construct(ftype, values)

    @pytest.mark.parametrize("codec", CODECS)
    @pytest.mark.parametrize("ftype, attr, value", _in_memory_cases())
    def test_encoders_refuse_hand_built_frames(self, ftype, attr, value, codec):
        values = _valid_values(ftype)
        values[attr] = value
        frame = Frame(type=ftype, src="a", dst="b", **values)
        with _promptly(), pytest.raises(ProtocolError):
            encode_frame(frame, codec)

    @pytest.mark.parametrize("codec", CODECS)
    def test_unknown_type_refused(self, codec):
        with pytest.raises(ProtocolError):
            encode_frame(Frame(type="warp", src="a", dst="b"), codec)


def _json_cases():
    for ftype, attr, kind, default in _fields():
        if kind == "bound":
            continue
        hostile = HOSTILE_JSON[kind]
        if default is None and kind != "boot":
            hostile += (_MISSING,)  # no default: the field is required
        for value in hostile:
            code = ERROR_CODE.get(kind, "bad-frame")
            yield pytest.param(ftype, attr, value, code, id=f"{ftype}.{attr}={_label(value)}")


def _bound_mutations():
    for ftype, attr, kind, _ in _fields():
        if kind != "bound":
            continue
        for key in ("lower", "upper"):
            for value in _NOT_A_NUMBER + _NON_FINITE + (_MISSING,):
                yield pytest.param(ftype, key, value, id=f"{ftype}.{key}={_label(value)}")
        yield pytest.param(ftype, "lower", 99.0, id=f"{ftype}.lower>upper")


def _set_or_drop(key, value):
    def mutate(body):
        if value is _MISSING:
            del body[key]
        else:
            body[key] = value

    return mutate


class TestJsonRejection:
    """A v2 body mutated to a hostile value: structured error, never a raise."""

    @pytest.mark.parametrize("ftype, attr, value, code", _json_cases())
    def test_field(self, ftype, attr, value, code):
        _assert_rejected(_mutated_json(ftype, _set_or_drop(attr, value)), code)

    @pytest.mark.parametrize("ftype, key, value", _bound_mutations())
    def test_bound_endpoints(self, ftype, key, value):
        _assert_rejected(_mutated_json(ftype, _set_or_drop(key, value)), "bad-frame")

    @pytest.mark.parametrize(
        "ftype, attr, default",
        [
            pytest.param(ftype, attr, default, id=f"{ftype}.{attr}")
            for ftype, attr, kind, default in _fields()
            if default is not None or kind == "boot"
        ],
    )
    def test_absent_key_reads_as_the_schema_default(self, ftype, attr, default):
        # the JSON-only leniencies: degraded, age, reason, payload, boot
        result = decode_frame(_mutated_json(ftype, lambda body: body.pop(attr, None)))
        assert result.ok
        got = getattr(result.frame, attr)
        assert got == (HistoryPayload(records=()) if attr == "payload" else default)

    @pytest.mark.parametrize("ftype", ["warp", None, 7, ["sync"], {"a": 1}])
    def test_unknown_or_unhashable_type(self, ftype):
        _assert_rejected(_mutated_json("ack", _set_or_drop("type", ftype)), "bad-frame")


def _f64(value):
    return struct.pack(">d", value)


def _patched(body, old, new):
    assert body.count(old) == 1, "the patch target must be unambiguous"
    return body.replace(old, new)


def _binary_cases():
    """Hostile values v3 can spell, as ``(old bytes, new bytes)`` patches.

    A varint is a non-negative int and any byte is a bool, so ``uint`` and
    ``bool`` have no hostile v3 spelling; a float field takes any 8 bytes,
    ``hops`` any byte, a name any string-table entry.
    """
    for ftype, attr, kind, _ in _fields():
        ident = f"{ftype}.{attr}"
        if kind in ("f64", "f64>=0"):
            hostile = (math.nan, math.inf, -math.inf) + ((-0.5,) if kind == "f64>=0" else ())
            for value in hostile:
                yield pytest.param(
                    ftype, _f64(VALID[kind]), _f64(value), "bad-frame", id=f"{ident}={value!r}"
                )
        elif kind == "bound":
            lower, upper = _f64(VALID[kind].lower), _f64(VALID[kind].upper)
            for value in (math.nan, math.inf, -math.inf):
                yield pytest.param(ftype, lower, _f64(value), "bad-frame", id=f"{ident}.lower={value!r}")
                yield pytest.param(ftype, upper, _f64(value), "bad-frame", id=f"{ident}.upper={value!r}")
            yield pytest.param(ftype, lower, _f64(99.0), "bad-frame", id=f"{ident}.lower>upper")
        elif kind == "hops":
            # the valid deleg ends: ... hops=1, stratum=5, empty meta
            for value in (0, MAX_DELEGATION_HOPS + 1, 255):
                yield pytest.param(
                    ftype, b"\x01\x05\x00", bytes((value, 5, 0)), "bad-frame", id=f"{ident}={value}"
                )
        elif kind == "name":
            yield pytest.param(ftype, b"\x05queue", b"\x00", "bad-frame", id=f"{ident}=''")
        elif kind == "payload":
            # the valid sync ends: 0 records, 0 flags, no boot, empty meta;
            # claim one record of an unknown kind instead
            yield pytest.param(
                ftype, b"\x00\x00\x00\x00", b"\x01\x07\x00\x00\x00\x00\x00\x00", "bad-payload",
                id=f"{ident}=unknown-record-kind",
            )
        elif kind == "boot":
            yield pytest.param(
                ftype, b"\x00\x00\x00\x00", b"\x00\x00\x01\x02{}\x00", "bad-boot", id=f"{ident}={{}}"
            )


class TestBinaryRejection:
    """The same verdicts on a v3 body, wherever v3 can spell the value."""

    @pytest.mark.parametrize("ftype, old, new, code", _binary_cases())
    def test_field(self, ftype, old, new, code):
        body = encode_frame(_valid_frame(ftype), "binary")[7:]
        assert body[0] == 0  # small frames travel uncompressed
        result = _assert_rejected(_reframe(WIRE_VERSION_BINARY, _patched(body, old, new)), code)
        assert result.version == WIRE_VERSION_BINARY


# -- the hang that motivated "rule before packing" ---------------------------------------


class TestNegativeIntegerEncode:
    """A negative int used to spin ``_put_varint`` until memory ran out.

    Hand-built frames with a negative ``seq``/``nonce``/``stratum``/``hops``
    are the ``=-1`` cases of ``TestRulesInMemory`` above (and a non-finite
    ``sync.lt`` off the wire the ``sync.lt=nan``/``inf`` cases of the two
    decoder suites); this is the constructor-built reproducer and the
    primitive's own guard.
    """

    @pytest.mark.parametrize("codec", CODECS)
    def test_ack_with_negative_seq(self, codec):
        with _promptly(), pytest.raises(ProtocolError):
            encode_frame(wire.ack_frame("a", "b", -1), codec)

    def test_varint_primitive_refuses_negatives(self):
        from repro.rt.codec import _put_varint

        with _promptly(), pytest.raises(ProtocolError):
            _put_varint(bytearray(), -1)


# -- compiled rows -----------------------------------------------------------------------

#: the kinds a compiled row may hold (ISSUE 21): a varint and the fixed-width ones
SCALAR_KINDS = {"uint", "hops", "f64", "f64>=0", "bool", "bound"}

_finite = st.floats(allow_nan=False, allow_infinity=False)

#: kind -> valid values, including the widths a fast path could get wrong
#: (multi-byte varints, a varint the decoder refuses as overflowing)
SCALAR_VALUES = {
    "uint": st.one_of(st.integers(0, 300), st.integers(0, 2**64), st.just(2**90)),
    "hops": st.integers(1, MAX_DELEGATION_HOPS),
    "f64": _finite,
    "f64>=0": st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
    "bool": st.booleans(),
    "bound": st.tuples(_finite, _finite).map(lambda ends: ClockBound(min(ends), max(ends))),
}

#: endpoint names: plain, non-ASCII, and long enough (>= 128 utf-8 bytes)
#: that the string table needs a two-byte length
_names = st.one_of(
    st.sampled_from(["a", "n1!serve", "c0"]),
    st.text(min_size=1, max_size=12),
    st.text(alphabet="aé時", min_size=128, max_size=140),
)
_metas = st.one_of(st.just({}), st.just({"wire": 2, "codecs": ["json"]}))


def _compilable():
    return {
        ftype
        for ftype, rows in FRAME_SCHEMA.items()
        if rows and {kind for _, kind, _ in rows} <= SCALAR_KINDS
    }


@st.composite
def _scalar_frames(draw):
    ftype = draw(st.sampled_from(sorted(_compilable())))
    src = draw(_names)
    dst = draw(st.one_of(st.just(src), _names))
    values = {attr: draw(SCALAR_VALUES[kind]) for attr, kind, _ in FRAME_SCHEMA[ftype]}
    frame = getattr(wire, f"{ftype}_frame")(src, dst, **values)
    return dataclasses.replace(frame, meta=draw(_metas))


class TestCompiledRows:
    """The compiled rows are the generic loop, faster - never different."""

    def test_every_scalar_type_is_compiled_and_nothing_else(self):
        # derived from the table: a new type of scalar kinds needs no new code
        assert set(codec._COMPILED) == _compilable()
        assert _compilable() == {"ack", "probe", "reply", "dreq", "deleg"}

    @settings(max_examples=300, deadline=None)
    @given(frame=_scalar_frames())
    def test_compiled_equals_generic_on_miss_and_hit(self, frame):
        codec._PRELUDES.clear()
        codec._ENVELOPES.clear()
        data = codec._encode_generic(frame)
        assert codec.encode_frame_binary(frame) == data  # prelude memo miss
        assert codec.encode_frame_binary(frame) == data  # ... and hit
        body = data[7:]
        expected = codec._decode_generic(body)
        # (a uint too wide for the varint reader is a frame both refuse alike)
        assert expected.ok or 2**90 in vars(frame).values()
        codec._ENVELOPES.clear()
        assert codec.decode_body_binary(body) == expected  # envelope memo miss
        assert codec.decode_body_binary(body) == expected  # ... and hit
        assert decode_frame(data) == expected

    @pytest.mark.parametrize("ftype", sorted(_compilable()))
    def test_the_plain_case_takes_the_compiled_path(self, ftype):
        # guards the property above against a fast path that never fires
        frame = _valid_frame(ftype)
        data = encode_frame(frame, "binary")
        compiled_encode, _ = codec._COMPILED[ftype]
        assert compiled_encode(frame) == data
        assert decode_frame(data).frame == frame  # the generic walk learns the envelope
        assert codec._decode_compiled(data[7:]).frame == frame

    @pytest.mark.parametrize("ftype", sorted(_compilable()))
    def test_what_the_compiled_path_declines(self, ftype):
        frame = _valid_frame(ftype)
        body = encode_frame(frame, "binary")[7:]
        assert decode_frame(_reframe(WIRE_VERSION_BINARY, body)).ok
        with_meta = dataclasses.replace(frame, meta={"k": 1})
        compiled_encode, _ = codec._COMPILED[ftype]
        assert compiled_encode(with_meta) is None
        for declined in (
            encode_frame(with_meta, "binary")[7:],
            body + b"\x00",  # trailing bytes
            body[:-1],  # truncated
        ):
            assert codec._decode_compiled(declined) is None

    @pytest.mark.parametrize("ftype", sorted(_compilable()))
    def test_only_envelopes_in_the_encoder_shape_are_memoized(self, ftype):
        # the envelope memo is learned from untrusted frames: a sender must
        # not choose the size of a key (a padded string table is valid, and
        # can be as long as the body cap) nor plant entries no lookup reads
        frame = _valid_frame(ftype)  # src "a", dst "b"
        body = encode_frame(frame, "binary")[7:]
        fields = body[codec._fields_at(body) :]
        assert body[:3] == bytes((0, FRAME_TYPES.index(ftype), 2))
        head, names = body[:2], b"\x01a\x01b"
        long_name = "n" * 128  # a two-byte length
        padding = bytearray()
        codec._put_varint(padding, 50_000)
        padding = bytes(padding) + b"p" * 50_000  # most of the body cap, referred to by nobody
        codec._ENVELOPES.clear()
        for envelope, dst in (
            (head + b"\x03" + names + padding + b"\x00\x01", "b"),  # unused string
            (head + b"\x03" + padding + names + b"\x01\x02", "b"),
            (head + b"\x82\x00" + names + b"\x00\x01", "b"),  # over-long varints
            (head + b"\x02" + names + b"\x80\x00\x01", "b"),
            (head + b"\x02" + names + b"\x00\x81\x00", "b"),
            (head + b"\x02\x81\x00a\x01b\x00\x01", "b"),
            (head + b"\x02\x01a\x80\x01" + long_name.encode() + b"\x00\x01", long_name),
        ):
            result = decode_frame(_reframe(WIRE_VERSION_BINARY, envelope + fields))
            assert result.frame == dataclasses.replace(frame, dst=dst), result.error
            assert not codec._ENVELOPES
        # ... and the shape the encoder writes is one short key, src == dst too
        assert decode_frame(_reframe(WIRE_VERSION_BINARY, body)).frame == frame
        self_addressed = head + b"\x01\x01a\x00\x00" + fields
        assert decode_frame(_reframe(WIRE_VERSION_BINARY, self_addressed)).frame.dst == "a"
        assert sorted(codec._ENVELOPES) == sorted([body[: -len(fields)], self_addressed[:7]])

    def test_memos_are_bounded(self, monkeypatch):
        monkeypatch.setattr(codec, "_MEMO_MAX", 4)
        codec._PRELUDES.clear()
        codec._ENVELOPES.clear()
        for i in range(20):
            frame = wire.ack_frame(f"n{i}", "b", i)
            assert decode_frame(encode_frame(frame, "binary")).frame == frame
            assert len(codec._PRELUDES) <= 4 and len(codec._ENVELOPES) <= 4
