"""The versioned wire protocol of the real-time runtime.

Every datagram is one *frame*:

    +-------+---------+------------------+------------ ... -+
    | magic | version | body length (u32)| body             |
    | 2 B   | 1 B     | 4 B big-endian   | <= MAX_BODY bytes|
    +-------+---------+------------------+------------ ... -+

The length prefix makes truncation and trailing garbage detectable even
on datagram transports (and lets the same framing run over streams
later).  The version byte selects the body codec per frame: 1 and 2 are
strict JSON (``allow_nan=False``, extending the conventions of
:mod:`repro.sim.serialize`), 3 is the struct-packed body of
:mod:`repro.rt.codec`.

**One schema.**  :data:`FRAME_SCHEMA` lists, per frame type, the fields
a frame carries beyond its ``type``/``src``/``dst``/``meta`` envelope:
``(Frame attribute, kind, JSON default)`` in wire order.  Each *kind*
has one rule and one spelling per codec (``_KINDS`` here,
``codec._BINARY`` there); the frame constructors, both encoders and
both decoders walk the table and apply that rule and nothing else, so a
value a constructor refuses is a value every decoder rejects, and the
reverse.  The field table itself is rendered in ``docs/RUNTIME.md``
("Frame fields"); what the nine types are *for*:

* ``hello`` - peer liveness/discovery; its meta advertises codecs.
* ``sync``  - one gossip message: the send event plus the piggybacked
  :class:`~repro.core.history.HistoryPayload` (Fig 2).  A sync answering
  a ``join`` additionally carries the sponsor's
  :class:`~repro.core.bootstrap.BootstrapSnapshot` taken right after the
  send - the late-joiner handoff of Lemmas 3.4/3.5.
* ``ack``   - delivery confirmation for one ``sync``; drives the
  sender's Sec 3.3 delivery-detection hooks.
* ``join``  - a fresh node asking a sponsor neighbor for a bootstrap;
  seq-less like ``hello`` (the *answer* is an ordinary sync and rides
  the normal at-most-once machinery, so joins may repeat freely).
* ``probe``/``reply`` - the *serving tier* (Sec 4's Cristian
  application, :mod:`repro.rt.serve`): one stateless round trip,
  correlated by a client-chosen nonce instead of the gossip ``seq``
  machinery, so the server keeps no per-client state at all.  The reply
  holds source-time bounds valid at the instant the server computed
  them, flagged ``degraded`` when they include an extra staleness/
  quarantine drift allowance.
* ``shed``  - explicit load-shedding refusal: the server cannot (token
  bucket or queue full) or will not (no bounded estimate yet) answer.
  An overloaded server that *says so* keeps clients honest - silence is
  indistinguishable from loss and would be retried immediately.
* ``dreq``/``deleg`` - the *stratum hierarchy*
  (:mod:`repro.rt.strata`): a downstream tier's border node asks an
  upstream anchor for delegated bounds, with the same nonce discipline.
  ``hops`` counts the indirections between the bounds and the answering
  tier's own time authority (``1``: a core node serving its own
  estimator, ``2``: a border re-exporting an adopted bound); refusals
  reuse ``shed`` (reason ``unsynced``), so an unsynced anchor stays
  loudly alive.

**Decoding never raises.**  Bytes off the wire are adversarial input:
:func:`decode_frame` returns a :class:`DecodeResult` whose ``error`` is a
structured :class:`WireError` for malformed input - short or truncated
frames, wrong magic or version, oversized bodies, broken JSON, a field
its rule refuses, or a payload section :meth:`HistoryPayload.from_dict`
rejects.  When the envelope (src/dst/type) survives but a field does
not, the error still carries the claimed sender, so the node daemon can
feed the anomaly into the existing suspicion machinery
(:meth:`~repro.core.csa.EfficientCSA.report_anomaly`) exactly like
sim-path tampering.
"""

from __future__ import annotations

import json
import struct
import sys
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from ..core.bootstrap import BootstrapSnapshot
from ..core.errors import ProtocolError, SpecificationError
from ..core.events import Event, ProcessorId
from ..core.history import HistoryPayload
from ..core.intervals import ClockBound

__all__ = [
    "WIRE_VERSION",
    "WIRE_VERSION_BINARY",
    "WIRE_CODECS",
    "MAGIC",
    "MAX_BODY_BYTES",
    "FRAME_TYPES",
    "SERVE_FRAME_TYPES",
    "STRATA_FRAME_TYPES",
    "MAX_DELEGATION_HOPS",
    "Frame",
    "WireError",
    "DecodeResult",
    "encode_frame",
    "decode_frame",
    "decode_frames",
    "hello_frame",
    "sync_frame",
    "ack_frame",
    "join_frame",
    "probe_frame",
    "reply_frame",
    "shed_frame",
    "dreq_frame",
    "deleg_frame",
]

#: current JSON wire format version; bump on any incompatible body change.
#: Version 1 frames (identical JSON bodies) are still accepted on decode.
WIRE_VERSION = 2

#: the struct-packed binary body format (:mod:`repro.rt.codec`); selected
#: per *frame* by the version byte, so mixed-codec traffic coexists on
#: one socket
WIRE_VERSION_BINARY = 3

#: codec names a node may advertise in ``hello``/``join`` meta; peers fall
#: back to JSON for any peer that does not advertise ``binary``
WIRE_CODECS = ("json", "binary")

#: frame preamble - two magic bytes, so stray datagrams fail fast
MAGIC = b"RS"

_HEADER = struct.Struct(">2sBI")

#: hard cap on the body; keeps frames inside one UDP datagram and bounds
#: what a hostile peer can make a node parse
MAX_BODY_BYTES = 60_000

#: the paper's ``K2``: delegated bounds may be at most this many
#: indirections from the answering tier's own time authority
MAX_DELEGATION_HOPS = 2


@dataclass(frozen=True)
class Frame:
    """One decoded wire frame."""

    type: str
    src: ProcessorId
    dst: ProcessorId
    #: sync: the sender's send-event sequence number; ack: the confirmed one
    seq: Optional[int] = None
    #: sync only: the send event's claimed local time
    lt: Optional[float] = None
    #: sync only: the piggybacked history payload
    payload: Optional[HistoryPayload] = None
    #: sync answering a join: the sponsor's bootstrap snapshot
    boot: Optional[BootstrapSnapshot] = None
    #: probe/reply/shed: the client-chosen correlation token
    nonce: Optional[int] = None
    #: reply only: finite source-time bounds at the server's reply instant
    bound: Optional[ClockBound] = None
    #: reply only: bounds carry an extra staleness/quarantine allowance
    degraded: bool = False
    #: reply only: server local seconds since its estimator's last event
    age: Optional[float] = None
    #: shed only: suggested client wait before re-probing (seconds)
    retry_after: Optional[float] = None
    #: shed only: why the server refused (``overload``/``queue``/``unsynced``)
    reason: Optional[str] = None
    #: deleg only: indirections from the answering tier's time authority
    hops: Optional[int] = None
    #: deleg only: the answering tier's stratum depth (0 = core)
    stratum: Optional[int] = None
    #: hello extras (advertised wire version, etc.)
    meta: Dict = field(default_factory=dict)


@dataclass(frozen=True)
class WireError:
    """A structured decode rejection (never an exception).

    ``code`` is one of ``short-frame``, ``bad-magic``, ``bad-version``,
    ``oversized``, ``length-mismatch``, ``bad-json``, ``bad-frame``,
    ``bad-payload``, ``bad-boot``.  ``src`` is the *claimed* sender when the envelope
    decoded far enough to name one - attribution input for the suspicion
    ledger, not established fact.
    """

    code: str
    detail: str
    src: Optional[ProcessorId] = None


@dataclass(frozen=True)
class DecodeResult:
    """Outcome of :func:`decode_frame`: exactly one of frame/error is set.

    ``version`` is the wire version byte of the decoded frame (when the
    header parsed far enough to read one); stateless endpoints echo their
    answer in the codec the request arrived in.
    """

    frame: Optional[Frame] = None
    error: Optional[WireError] = None
    version: Optional[int] = None

    @property
    def ok(self) -> bool:
        return self.frame is not None


def rejected(code: str, detail: str, src=None, version=None) -> DecodeResult:
    return DecodeResult(error=WireError(code, detail, src), version=version)


# -- field kinds: one rule each --------------------------------------------------------


class FieldRefused(ValueError):
    """A field rule's verdict on one value.

    Constructors and encoders re-raise it as :class:`ProtocolError` (local
    misuse), decoders turn it into a :class:`WireError` carrying ``code``
    and the claimed sender (hostile input); it never leaves this package.
    """

    def __init__(self, detail: str, code: str = "bad-frame"):
        super().__init__(detail)
        self.code = code


_F64_MAX = sys.float_info.max


def _uint(value):
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise FieldRefused(f"needs a non-negative int, got {value!r}")
    return value


def _hops(value):
    # the K2 <= 2 indirection bound is part of the wire contract: a frame
    # claiming deeper indirection is rejected, not widened
    if not 1 <= _uint(value) <= MAX_DELEGATION_HOPS:
        raise FieldRefused(f"must be in [1, {MAX_DELEGATION_HOPS}], got {value!r}")
    return value


def _finite(value):
    # the range test also refuses NaN (every comparison with it is false)
    # and an int too large for float() to convert
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise FieldRefused(f"needs a number, got {value!r}")
    if not -_F64_MAX <= value <= _F64_MAX:
        raise FieldRefused(f"needs a finite number, got {value!r}")
    return float(value)


def _nonneg(value):
    value = _finite(value)
    if value < 0:
        raise FieldRefused(f"must be non-negative, got {value!r}")
    return value


def _bool(value):
    if not isinstance(value, bool):
        raise FieldRefused(f"needs a bool, got {value!r}")
    return value


def _name(value):
    if not isinstance(value, str) or not value:
        raise FieldRefused(f"needs a non-empty string, got {value!r}")
    return value


def _bound(value):
    # only *finite* bounds travel: an unsynced server must shed (reason
    # ``unsynced``) instead - an infinite endpoint is not strict-JSON-
    # representable and carries no information a client could act on
    if not isinstance(value, ClockBound) or not value.is_bounded:
        raise FieldRefused(f"needs a finite ClockBound (shed instead), got {value!r}")
    return value


def _payload(value):
    if not isinstance(value, HistoryPayload):
        raise FieldRefused(f"needs a HistoryPayload, got {value!r}")
    return value


def _boot(value):
    if value is not None and not isinstance(value, BootstrapSnapshot):
        raise FieldRefused(f"needs a BootstrapSnapshot or None, got {value!r}")
    return value


def bound_of(lower: float, upper: float) -> ClockBound:
    """The bound two endpoints off the wire spell; an empty one is refused."""
    try:
        return ClockBound(lower, upper)
    except SpecificationError as exc:
        raise FieldRefused(str(exc)) from None


# -- the JSON spelling of a kind: put(body, key, value), get(body, key, default) --------


def _bool_to_json(body, key, value):
    if value:  # a flag travels only when set
        body[key] = True


def _bound_to_json(body, key, value):
    body["lower"] = value.lower
    body["upper"] = value.upper


def _bound_from_json(body, key, default):
    return bound_of(_finite(body.get("lower")), _finite(body.get("upper")))


def _document_to_json(body, key, value):
    if value is not None:
        body[key] = value.to_dict()


def _document_from_json(cls, code):
    def from_json(body, key, default):
        if default is None and key not in body:
            return None
        try:
            return cls.from_dict(body.get(key, default))
        except ValueError as exc:
            raise FieldRefused(str(exc), code) from None

    return from_json


_scalar = (dict.__setitem__, dict.get)

#: kind -> (rule, JSON put, JSON get).  A rule returns the checked (and
#: normalised) value or raises :class:`FieldRefused`; the binary spelling
#: of each kind is ``codec._BINARY``
_KINDS = {
    "uint": (_uint, *_scalar),
    "hops": (_hops, *_scalar),
    "f64": (_finite, *_scalar),
    "f64>=0": (_nonneg, *_scalar),
    "bool": (_bool, _bool_to_json, dict.get),
    "name": (_name, *_scalar),
    "bound": (_bound, _bound_to_json, _bound_from_json),
    "payload": (_payload, _document_to_json, _document_from_json(HistoryPayload, "bad-payload")),
    "boot": (_boot, _document_to_json, _document_from_json(BootstrapSnapshot, "bad-boot")),
}


# -- the schema ------------------------------------------------------------------------

_NONCE = ("nonce", "uint", None)
_ANSWER = (_NONCE, ("bound", "bound", None), ("degraded", "bool", False), ("age", "f64>=0", 0.0))

#: frame type -> its fields as ``(Frame attribute, kind, JSON default)``,
#: in the order both codecs put them on the wire.  The default is what
#: the JSON decoder reads for an absent key (``None``: nothing - every
#: kind but ``boot`` refuses it, which is what makes a field required);
#: the binary body has no keys, so every field is always present there.
#: The position of a type in this table is its binary type code.
FRAME_SCHEMA = {
    "hello": (),
    "sync": (
        ("seq", "uint", None),
        ("lt", "f64", None),
        ("payload", "payload", {}),
        ("boot", "boot", None),
    ),
    "ack": (("seq", "uint", None),),
    "join": (),
    "probe": (_NONCE,),
    "reply": _ANSWER,
    "shed": (_NONCE, ("retry_after", "f64>=0", None), ("reason", "name", "overload")),
    "dreq": (_NONCE,),
    "deleg": _ANSWER + (("hops", "hops", None), ("stratum", "uint", None)),
}

FRAME_TYPES = tuple(FRAME_SCHEMA)

#: frame types of the stateless serving tier (nonce-correlated, seq-less)
SERVE_FRAME_TYPES = ("probe", "reply", "shed")

#: frame types of the stratum hierarchy's delegation channel
STRATA_FRAME_TYPES = ("dreq", "deleg")


def resolve_schema(binary: Optional[Dict[str, tuple]] = None) -> Dict[str, Tuple[tuple, ...]]:
    """The schema bound to one codec, once, at import.

    Maps each frame type to rows of ``(attr, default, rule, put, get)`` -
    ``put``/``get`` being each kind's JSON spelling, or the one ``binary``
    gives it - so the per-frame loops do no lookup beyond their own type's.
    """

    def row(attr, kind, default):
        rule, put, get = _KINDS[kind]
        if binary is not None:
            put, get = binary[kind]
        return attr, default, rule, put, get

    return {
        ftype: tuple(row(*field) for field in fields) for ftype, fields in FRAME_SCHEMA.items()
    }


_FIELDS = resolve_schema()


def make_frame(ftype: str, src: ProcessorId, dst: ProcessorId, meta: Dict, values: Dict) -> Frame:
    """Materialise a frame from field ``values`` that passed their rules.

    One ``__dict__`` swap instead of the frozen dataclass's sixteen
    ``__setattr__`` round trips (the trick ``codec._unpack_payload`` uses
    for ``Event``); fields the type does not carry read the class-level
    defaults.
    """
    values["type"] = ftype
    values["src"] = src
    values["dst"] = dst
    values["meta"] = meta
    frame = object.__new__(Frame)
    object.__setattr__(frame, "__dict__", values)
    return frame


# -- construction ----------------------------------------------------------------------


def _build(ftype: str, src: ProcessorId, dst: ProcessorId, args=(), meta=None) -> Frame:
    """``args`` are the type's field values in schema order."""
    values = {}
    try:
        for (attr, _, rule, _, _), value in zip(_FIELDS[ftype], args):
            values[attr] = rule(value)
    except FieldRefused as exc:
        raise ProtocolError(f"{ftype} {attr}: {exc}") from None
    return make_frame(ftype, src, dst, {} if meta is None else meta, values)


def _advert(codecs: Optional[tuple]) -> Dict:
    return {"wire": WIRE_VERSION, "codecs": list(WIRE_CODECS if codecs is None else codecs)}


def hello_frame(
    src: ProcessorId, dst: ProcessorId, *, codecs: Optional[tuple] = None
) -> Frame:
    """Peer liveness/discovery; meta advertises the sender's codec support.

    A peer that advertises ``binary`` may be sent version-3 frames; anyone
    else (including version-1 nodes, whose hello carries no ``codecs`` at
    all) is spoken to in JSON.
    """
    return _build("hello", src, dst, meta=_advert(codecs))


def sync_frame(
    send_event: Event,
    payload: HistoryPayload,
    boot: Optional[BootstrapSnapshot] = None,
) -> Frame:
    """The gossip frame for one send event and its piggybacked payload."""
    if not send_event.is_send:
        raise ProtocolError(f"sync frames wrap send events, got {send_event.kind}")
    fields = (send_event.seq, send_event.lt, payload, boot)
    return _build("sync", send_event.proc, send_event.dest, fields)


def ack_frame(src: ProcessorId, dst: ProcessorId, seq: int) -> Frame:
    return _build("ack", src, dst, (seq,))


def join_frame(
    src: ProcessorId, dst: ProcessorId, *, codecs: Optional[tuple] = None
) -> Frame:
    """A fresh node's bootstrap request to its sponsor neighbor."""
    return _build("join", src, dst, meta=_advert(codecs))


def probe_frame(src: ProcessorId, dst: ProcessorId, nonce: int) -> Frame:
    """A lightweight client's Cristian probe to a serving endpoint."""
    return _build("probe", src, dst, (nonce,))


def reply_frame(
    src: ProcessorId,
    dst: ProcessorId,
    nonce: int,
    bound: ClockBound,
    *,
    degraded: bool = False,
    age: float = 0.0,
) -> Frame:
    """The server's answer to one probe (finite bounds only, else shed)."""
    return _build("reply", src, dst, (nonce, bound, degraded, age))


def shed_frame(
    src: ProcessorId,
    dst: ProcessorId,
    nonce: int,
    *,
    retry_after: float,
    reason: str = "overload",
) -> Frame:
    """An explicit load-shedding refusal of one probe."""
    return _build("shed", src, dst, (nonce, retry_after, reason))


def dreq_frame(src: ProcessorId, dst: ProcessorId, nonce: int) -> Frame:
    """A border node's delegation request to an upstream anchor endpoint."""
    return _build("dreq", src, dst, (nonce,))


def deleg_frame(
    src: ProcessorId,
    dst: ProcessorId,
    nonce: int,
    bound: ClockBound,
    *,
    hops: int,
    stratum: int,
    degraded: bool = False,
    age: float = 0.0,
) -> Frame:
    """An anchor's delegated source-time bounds for one ``dreq``.

    Like ``reply``, only finite bounds travel (shed ``unsynced``
    otherwise).  ``hops`` must respect the paper's ``K2`` bound: ``1`` (a
    core node serving its own estimator) or ``2`` (a border re-exporting
    an adopted bound).
    """
    return _build("deleg", src, dst, (nonce, bound, degraded, age, hops, stratum))


# -- encode ----------------------------------------------------------------------------


def encode_frame(frame: Frame, codec: str = "json") -> bytes:
    """Serialize a frame; raises :class:`ProtocolError` on local misuse.

    ``codec`` selects the body format: ``"json"`` (wire version 2, the
    interoperable default) or ``"binary"`` (version 3, the struct-packed
    hot-path format of :mod:`repro.rt.codec`).  Both apply every field's
    rule before packing it.  Encoding errors are *our* bugs or limits (an
    oversized payload), not remote input, hence the exception - callers
    on the send path treat it like a lost message.
    """
    if codec == "binary":
        return _codec.encode_frame_binary(frame)
    if codec != "json":
        raise ProtocolError(f"unknown wire codec {codec!r}")
    ftype = frame.type
    rows = _FIELDS.get(ftype)
    if rows is None:
        raise ProtocolError(f"unknown frame type {ftype!r}")
    body: Dict = {"type": ftype, "src": frame.src, "dst": frame.dst}
    try:
        for attr, _, rule, to_json, _ in rows:
            to_json(body, attr, rule(getattr(frame, attr)))
    except FieldRefused as exc:
        raise ProtocolError(f"{ftype} {attr}: {exc}") from None
    if frame.meta:
        body["meta"] = dict(frame.meta)
    return framed(WIRE_VERSION, strict_json(body))


def strict_json(document) -> bytes:
    try:
        return json.dumps(document, separators=(",", ":"), allow_nan=False).encode()
    except ValueError as exc:
        raise ProtocolError(f"frame body is not strict-JSON-safe: {exc}") from None


def framed(version: int, body: bytes) -> bytes:
    if len(body) > MAX_BODY_BYTES:
        raise ProtocolError(f"frame body of {len(body)} bytes exceeds the {MAX_BODY_BYTES} cap")
    return _HEADER.pack(MAGIC, version, len(body)) + body


# -- decode ----------------------------------------------------------------------------


def _decode_body_json(body_bytes: bytes, version: int) -> DecodeResult:
    try:
        body = json.loads(body_bytes)
    except (ValueError, UnicodeDecodeError) as exc:
        return rejected("bad-json", str(exc))
    if not isinstance(body, dict):
        return rejected("bad-frame", "body is not an object")
    src = body.get("src")
    if not isinstance(src, str) or not src:
        src = None
    ftype = body.get("type")
    rows = _FIELDS.get(ftype) if isinstance(ftype, str) else None
    if rows is None:
        return rejected("bad-frame", f"unknown type {ftype!r}", src)
    dst = body.get("dst")
    if src is None or not isinstance(dst, str) or not dst:
        return rejected("bad-frame", "missing or non-string src/dst", src)
    meta = body.get("meta", {})
    if not isinstance(meta, dict):
        return rejected("bad-frame", "meta is not an object", src)
    values = {}
    try:
        for attr, default, rule, _, from_json in rows:
            values[attr] = rule(from_json(body, attr, default))
    except FieldRefused as exc:
        return rejected(exc.code, f"{ftype} {attr}: {exc}", src)
    return DecodeResult(frame=make_frame(ftype, src, dst, meta, values), version=version)


def _decode_at(data: bytes, offset: int, exact: bool):
    """Decode the frame that starts at ``offset`` -> ``(result, end)``.

    ``end`` is the offset just past the frame, or ``None`` when its
    header cannot be trusted to delimit it: short input, bad magic, an
    oversized declaration, a truncated body (or, when the frame must be
    ``exact``ly the rest of ``data``, a padded one).
    """
    total = len(data)
    if total - offset < _HEADER.size:
        return rejected("short-frame", f"{total - offset} bytes < {_HEADER.size}-byte header"), None
    magic, version, length = _HEADER.unpack_from(data, offset)
    if magic != MAGIC:
        return rejected("bad-magic", f"preamble {magic!r}"), None
    start = offset + _HEADER.size
    end = start + length
    if length > MAX_BODY_BYTES or end > total or (exact and end != total):
        end = None
    if version not in (1, WIRE_VERSION, WIRE_VERSION_BINARY):
        detail = f"wire version {version}, expected <= {WIRE_VERSION_BINARY}"
        return rejected("bad-version", detail), end
    if length > MAX_BODY_BYTES:
        detail = f"declared body of {length} bytes exceeds cap"
        return rejected("oversized", detail, version=version), None
    if end is None:
        detail = f"declared {length} body bytes, got {total - start} (truncated or padded)"
        return rejected("length-mismatch", detail, version=version), None
    body = data[start:end]
    if version == WIRE_VERSION_BINARY:
        return _codec.decode_body_binary(body), end
    return _decode_body_json(body, version), end


def decode_frame(data: bytes) -> DecodeResult:
    """Parse untrusted bytes into a frame or a structured error.

    The version byte selects the body decoder per frame: 1 and 2 are the
    JSON body (unchanged between those versions), 3 is the binary codec.
    """
    return _decode_at(data, 0, True)[0]


def decode_frames(data: bytes):
    """Iterate the frames of one datagram (coalesced-flush receive path).

    A datagram may carry several concatenated self-framed frames; each is
    decoded independently (so one bad frame does not poison its
    neighbors) and yielded as a :class:`DecodeResult`.  When the header of
    the next frame cannot be trusted to delimit it - short or truncated
    input, bad magic, an oversized declaration - the structured error is
    yielded and iteration stops: there is no sound way to find the next
    boundary.
    """
    offset = 0
    while offset is not None and offset < len(data):
        result, offset = _decode_at(data, offset, False)
        yield result


# the binary codec builds on everything above (schema, rules, Frame), and
# encode_frame/decode_frame dispatch into it: import it last
from . import codec as _codec  # noqa: E402
