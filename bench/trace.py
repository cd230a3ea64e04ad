"""In-memory span tracer, the declarative hook table, and the ledger.

Spans are recorded from this file only: :func:`install` wraps the public
functions of each layer *at class/module level* inside the traced
subprocess, so objects re-created mid-run (self-heal rebuilds) stay
hooked.  A span is ``(layer, name, start, end, parent_id, op_id)`` held
in parallel arrays; :meth:`Tracer.ledger` turns them into per-layer self
time, share and call counts, and :meth:`Tracer.write_jsonl` dumps them.

Design points:

* a call into a layer from inside the same layer (``step_batch`` ->
  ``step`` -> ``add_node``) opens no span, so nothing is counted twice
  and a layer's ``calls`` are its entries *from outside*;
* a hook target that no longer exists degrades: it is listed in
  :attr:`Tracer.missing`, its layer's metrics read ``None``, nothing
  raises - later refactors may not edit ``bench/``;
* work/waste counters are read from the public ``stats`` objects as
  deltas around each outermost span, so they are exact across rebuilds
  that replace the solver or the history module.
"""

from __future__ import annotations

import importlib
import json
import math
import time
from array import array
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from .spec import LAYERS

_clock = time.perf_counter

#: layer -> (summed stats fields, max-tracked stats fields)
STAT_FIELDS: Dict[str, Tuple[Tuple[str, ...], Tuple[str, ...]]] = {
    "core.agdp": (("pair_updates", "edges_inserted", "nodes_added"), ("max_nodes",)),
    "core.history": (
        ("records_sent", "records_received", "duplicate_records_received"),
        ("max_buffer", "max_payload"),
    ),
    "core.live": ((), ("max_live",)),
}

_AGDP = ("step", "step_batch", "insert_edge", "add_node", "kill",
         "distance", "distances_from", "distances_to")

#: (layer, "module:Class" or "module", attribute names, kind)
HOOKS: Sequence[Tuple[str, str, Tuple[str, ...], str]] = (
    ("core.csa", "repro.core.csa:EfficientCSA",
     ("on_send", "on_receive", "on_internal", "on_delivery_confirmed",
      "on_loss_detected", "estimate", "estimate_now"), "call"),
    ("core.history", "repro.core.history:HistoryModule",
     ("record_local", "prepare_payload", "prepare_payloads", "ingest_payload",
      "confirm_delivery", "abort_delivery", "record_loss"), "stats"),
    ("core.live", "repro.core.live:LiveTracker", ("observe", "flag_lost"), "stats"),
    ("core.agdp", "repro.core.agdp:AGDP", _AGDP, "stats"),
    ("core.agdp", "repro.core.agdp_numpy:NumpyAGDP", _AGDP, "stats"),
    ("core.validate", "repro.core.csa", ("validate_payload",), "call"),
    ("sim.clock", "repro.sim.clock:ClockModel", ("lt", "rt", "lt_batch"), "subclasses"),
    ("rt.codec", "repro.rt.node", ("encode_frame",), "encode"),
    ("rt.codec", "repro.rt.serve", ("encode_frame",), "encode"),
    ("rt.codec", "repro.rt.serve", ("decode_frame",), "decode"),
    ("rt.codec", "repro.rt.node", ("decode_frames",), "decode_iter"),
    ("rt.transport", "repro.rt.transport:LoopbackTransport", ("send",), "send"),
    ("rt.transport", "repro.rt.transport:UDPTransport", ("send",), "send"),
    ("rt.transport", "repro.rt.transport:Transport", ("register",), "register"),
)

#: ``Transport.register`` opens the handler span in the layer that owns
#: the handler (decided by the bound object's module, not endpoint names)
HANDLER_LAYERS = {"repro.rt.node": "rt.node", "repro.rt.serve": "rt.serve"}


class Tracer:
    """Span store + wrappers.  One instance per traced subprocess."""

    def __init__(self) -> None:
        self.enabled = False
        self.layer_ids = {name: i for i, name in enumerate(LAYERS)}
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.layer = array("b")
        self.name = array("h")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self._stack: List[int] = []
        self._next_op = 0
        self.missing: List[str] = []
        self.sums: Dict[str, Dict[str, int]] = {
            layer: dict.fromkeys(fields[0], 0) for layer, fields in STAT_FIELDS.items()
        }
        self.maxima: Dict[str, Dict[str, int]] = {
            layer: dict.fromkeys(fields[1], 0) for layer, fields in STAT_FIELDS.items()
        }
        #: transport.send: bytes handed over while enabled
        self.sent_bytes = 0
        #: encoded sync frames while enabled: codec -> [frames, bytes]
        self.sync_bytes: Dict[str, List[int]] = {"binary": [0, 0], "json": [0, 0]}

    # -- recording ---------------------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, layer_id: int, name_id: int) -> int:
        stack = self._stack
        idx = len(self.start)
        if stack:
            parent = stack[-1]
            # the root span (sim.engine's run_until) is not an operation:
            # each call made directly under it starts one
            if self.parent[parent] == -1 and self.op[parent] == -1:
                op = self._next_op
                self._next_op += 1
            else:
                op = self.op[parent]
        else:
            parent = -1
            op = self._next_op
            self._next_op += 1
        self.layer.append(layer_id)
        self.name.append(name_id)
        self.parent.append(parent)
        self.op.append(op)
        self.end.append(0.0)
        stack.append(idx)
        self.start.append(_clock())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = _clock()
        self._stack.pop()

    def _nested(self, layer_id: int) -> bool:
        stack = self._stack
        return bool(stack) and self.layer[stack[-1]] == layer_id

    @contextmanager
    def root(self, layer: str, name: str):
        """The benchmark's own span around its call into the engine.

        Enables recording for its extent; the root carries ``op == -1`` so
        that every call directly beneath it opens a fresh operation.
        """
        idx = len(self.start)
        self.layer.append(self.layer_ids[layer])
        self.name.append(self.name_id(name))
        self.parent.append(-1)
        self.op.append(-1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.enabled = True
        self.start.append(_clock())
        try:
            yield
        finally:
            self.end[idx] = _clock()
            self.enabled = False
            self._stack.pop()

    # -- wrappers ----------------------------------------------------------------

    def wrap_call(self, fn: Callable, layer: str, name: str) -> Callable:
        layer_id, name_id = self.layer_ids[layer], self.name_id(name)

        def traced(*args, **kwargs):
            if not self.enabled or self._nested(layer_id):
                return fn(*args, **kwargs)
            idx = self._open(layer_id, name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return traced

    def wrap_stats(self, fn: Callable, layer: str, name: str) -> Callable:
        """Like :meth:`wrap_call` for methods of objects carrying counters.

        ``self.stats`` (or the object itself when it has no ``stats``) is
        read before and after each outermost span; summed fields
        accumulate their delta, max-tracked fields their running maximum.
        ``step_batch`` additionally gets its lazy ``steps`` argument
        wrapped so the generator's time lands in ``core.csa`` (it is the
        estimator's ``_reported_steps``), not in the solver.
        """
        layer_id, name_id = self.layer_ids[layer], self.name_id(name)
        sum_fields, max_fields = STAT_FIELDS[layer]
        sums, maxima = self.sums[layer], self.maxima[layer]
        lazy_steps = name == "step_batch"

        def traced(obj, *args, **kwargs):
            if not self.enabled or self._nested(layer_id):
                return fn(obj, *args, **kwargs)
            stats = getattr(obj, "stats", obj)
            before = [getattr(stats, f, 0) for f in sum_fields]
            if lazy_steps and args:
                args = (self.iter_spans(args[0], "core.csa", "reported_steps"),) + args[1:]
            idx = self._open(layer_id, name_id)
            try:
                return fn(obj, *args, **kwargs)
            finally:
                self._close(idx)
                for f, b in zip(sum_fields, before):
                    sums[f] += getattr(stats, f, 0) - b
                for f in max_fields:
                    value = getattr(stats, f, 0)
                    if value > maxima[f]:
                        maxima[f] = value

        return traced

    def iter_spans(self, iterable: Iterable, layer: str, name: str,
                   rename: Optional[Callable[[object], int]] = None):
        """Iterate ``iterable`` with one span per ``next`` (generator time).

        ``rename(item)`` may give the span its final name id once the item
        is known (a decoded frame's type).  The exhausting ``next`` is a
        span too: the generator's epilogue runs there.
        """
        layer_id, name_id = self.layer_ids[layer], self.name_id(name)
        iterator = iter(iterable)
        while True:
            recording = self.enabled and not self._nested(layer_id)
            idx = self._open(layer_id, name_id) if recording else -1
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                if recording:
                    self._close(idx)
            if recording and rename is not None:
                self.name[idx] = rename(item)
            yield item

    def wrap_encode(self, fn: Callable, layer: str, name: str) -> Callable:
        """``encode_frame(frame, codec)``: span named by frame type, sync sizes kept."""
        layer_id = self.layer_ids[layer]
        sync_id, other_id = self.name_id("encode.sync"), self.name_id("encode.other")

        def traced(frame, codec="json"):
            if not self.enabled or self._nested(layer_id):
                return fn(frame, codec)
            is_sync = getattr(frame, "type", None) == "sync"
            idx = self._open(layer_id, sync_id if is_sync else other_id)
            try:
                data = fn(frame, codec)
            finally:
                self._close(idx)
            if is_sync and codec in self.sync_bytes:
                entry = self.sync_bytes[codec]
                entry[0] += 1
                entry[1] += len(data)
            return data

        return traced

    def _decode_name(self, result) -> int:
        frame = getattr(result, "frame", None)
        kind = "sync" if getattr(frame, "type", None) == "sync" else "other"
        return self.name_id("decode." + kind)

    def wrap_decode(self, fn: Callable, layer: str, name: str) -> Callable:
        layer_id, pending = self.layer_ids[layer], self.name_id("decode.other")

        def traced(data):
            if not self.enabled or self._nested(layer_id):
                return fn(data)
            idx = self._open(layer_id, pending)
            try:
                result = fn(data)
            finally:
                self._close(idx)
            self.name[idx] = self._decode_name(result)
            return result

        return traced

    def wrap_decode_iter(self, fn: Callable, layer: str, name: str) -> Callable:
        """``decode_frames`` is a generator: its work happens inside ``next``."""
        return lambda data: self.iter_spans(fn(data), layer, "decode.other", self._decode_name)

    def wrap_send(self, fn: Callable, layer: str, name: str) -> Callable:
        inner = self.wrap_call(fn, layer, name)

        def traced(transport, src, dest, data):
            if self.enabled:
                self.sent_bytes += len(data)
            return inner(transport, src, dest, data)

        return traced

    def wrap_register(self, fn: Callable, layer: str, name: str) -> Callable:
        """``Transport.register``: wrap the handler so each delivered
        datagram opens a span in the layer owning the handler."""

        def traced(transport, endpoint, handler):
            owner = getattr(handler, "__self__", None)
            handler_layer = HANDLER_LAYERS.get(type(owner).__module__)
            if handler_layer is not None:
                handler = self.wrap_call(handler, handler_layer, "on_datagram")
            return fn(transport, endpoint, handler)

        return traced

    # -- installation ------------------------------------------------------------

    def install(self, hooks: Sequence[Sequence]) -> None:
        """Apply the hook table; unknown targets go to :attr:`missing`."""
        wrappers = {
            "call": self.wrap_call, "stats": self.wrap_stats, "encode": self.wrap_encode,
            "decode": self.wrap_decode, "decode_iter": self.wrap_decode_iter,
            "send": self.wrap_send, "register": self.wrap_register,
        }
        for layer, target, attrs, kind in hooks:
            module_name, _, class_name = target.partition(":")
            try:
                owner = importlib.import_module(module_name)
                if class_name:
                    owner = getattr(owner, class_name)
            except (ImportError, AttributeError):
                self.missing.extend(f"{layer}:{target}.{a}" for a in attrs)
                continue
            if kind == "subclasses":
                self._install_subclasses(layer, target, owner, attrs)
                continue
            for attr in attrs:
                fn = getattr(owner, attr, None)
                if not callable(fn):
                    self.missing.append(f"{layer}:{target}.{attr}")
                    continue
                setattr(owner, attr, wrappers[kind](fn, layer, attr))

    def _install_subclasses(self, layer, target, base, attrs) -> None:
        """Wrap ``attrs`` wherever a class of ``base``'s module defines them."""
        module = importlib.import_module(base.__module__)
        classes = [
            c for c in vars(module).values()
            if isinstance(c, type) and issubclass(c, base)
        ]
        found = set()
        for cls in classes:
            for attr in attrs:
                fn = cls.__dict__.get(attr)
                if callable(fn) and not getattr(fn, "__isabstractmethod__", False):
                    setattr(cls, attr, self.wrap_call(fn, layer, attr))
                    found.add(attr)
        self.missing.extend(f"{layer}:{target}.{a}" for a in attrs if a not in found)

    def missing_layers(self) -> List[str]:
        return sorted({entry.split(":", 1)[0] for entry in self.missing})

    # -- the ledger --------------------------------------------------------------

    def self_times(self) -> List[float]:
        """Per span: duration minus the part covered by child spans."""
        n = len(self.start)
        own = [self.end[i] - self.start[i] for i in range(n)]
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                own[p] -= self.end[i] - self.start[i]
        return own

    def ledger(self, window_s: float) -> Dict[str, Optional[float]]:
        """``<layer>.self_s/.share/.calls`` for every layer, over ``window_s``.

        ``window_s`` is the traced window's CPU time.  When a root span
        was recorded (sim workloads) its duration replaces ``window_s``:
        the root covers the whole window, so shares sum to exactly 1.
        Layers with a missing hook read ``None``.
        """
        own = self.self_times()
        for i in range(len(self.op)):
            if self.op[i] == -1:
                window_s = self.end[i] - self.start[i]
                break
        self_s = [0.0] * len(LAYERS)
        calls = [0] * len(LAYERS)
        for i, layer_id in enumerate(self.layer):
            self_s[layer_id] += own[i]
            if self.op[i] != -1:  # the root span is ours, not a call
                calls[layer_id] += 1
        broken = set(self.missing_layers())
        out: Dict[str, Optional[float]] = {}
        traced = 0.0
        for layer, lid in self.layer_ids.items():
            if layer in broken:
                out[f"{layer}.self_s"] = out[f"{layer}.share"] = out[f"{layer}.calls"] = None
                continue
            traced += self_s[lid]
            out[f"{layer}.self_s"] = self_s[lid]
            out[f"{layer}.share"] = self_s[lid] / window_s if window_s > 0 else 0.0
            out[f"{layer}.calls"] = calls[lid]
        out["trace.untraced_share"] = max(0.0, 1.0 - traced / window_s) if window_s > 0 else 0.0
        out["trace.missing_hooks"] = len(self.missing)
        return out

    def durations_by_name(self) -> Dict[str, List[float]]:
        """Inclusive span durations keyed ``"<layer>:<name>"``."""
        grouped: Dict[Tuple[int, int], List[float]] = {}
        for i in range(len(self.start)):
            grouped.setdefault((self.layer[i], self.name[i]), []).append(
                self.end[i] - self.start[i]
            )
        layers = list(self.layer_ids)
        return {f"{layers[lid]}:{self.names[nid]}": v for (lid, nid), v in grouped.items()}

    def write_jsonl(self, path: str) -> int:
        """One span per line; returns the number written."""
        layers = list(self.layer_ids)
        with open(path, "w") as handle:
            for i in range(len(self.start)):
                handle.write(json.dumps({
                    "id": i, "layer": layers[self.layer[i]], "name": self.names[self.name[i]],
                    "start": self.start[i], "end": self.end[i],
                    "parent": self.parent[i], "op": self.op[i],
                }) + "\n")
        return len(self.start)


def percentile(values: Sequence[float], q: float) -> Optional[float]:
    """Nearest-rank percentile (``q`` in [0, 100]); ``None`` on no samples."""
    if not values:
        return None
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]
