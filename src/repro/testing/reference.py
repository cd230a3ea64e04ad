"""Pre-optimization reference implementations, kept as differential oracles.

The hot-path optimization pass (compacted zero-copy :class:`NumpyAGDP`,
indexed :class:`HistoryModule`) must be *observationally identical* to the
code it replaced: same distances, same payload contents and order, same
Lemma 3.2 report-once and Lemma 3.3 buffer behaviour, same unreliable-mode
token semantics.  This module preserves the replaced implementations
verbatim (minus the optimization, plus nothing) so property tests can
drive old and new side by side and diff every observable surface - see
``tests/testing/test_reference_parity.py``.

These classes are frozen: do not optimise them, do not fix latent bugs in
only one copy.  They intentionally keep the old costs (full-buffer dict
rebuild per GC, full-buffer scan per send, sorted slot list plus two
fancy-indexed block copies per edge).

One known, intentional divergence: :class:`ReferenceNumpyAGDP` charges
``pair_updates`` for the full active block (``n^2`` per improving edge)
where production backends count only finite relaxation candidates - the
counter-parity bug the optimization pass fixed.  Distance surfaces are
what these oracles are for; do not compare ``pair_updates`` against them.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Dict, Hashable, Iterable, List, Optional, Set, Tuple

import numpy as np

from ..core.agdp import AGDPStats
from ..core.errors import InconsistentSpecificationError, ProtocolError
from ..core.events import Event, EventId, ProcessorId
from ..core.history import HistoryPayload, HistoryStats

__all__ = ["PerEdgeAGDP", "ReferenceHistoryModule", "ReferenceNumpyAGDP"]

INF = math.inf

NodeKey = Hashable

_INITIAL_CAPACITY = 16


class ReferenceNumpyAGDP:
    """The pre-compaction dense AGDP backend (free-list slots, block copies)."""

    def __init__(self, source: Optional[NodeKey] = None, *, gc_enabled: bool = True):
        self._capacity = _INITIAL_CAPACITY
        self._matrix = np.full((self._capacity, self._capacity), np.inf)
        self._slot: Dict[NodeKey, int] = {}
        self._key_of: Dict[int, NodeKey] = {}
        self._free: List[int] = list(range(self._capacity - 1, -1, -1))
        self._source = source
        self._gc_enabled = gc_enabled
        self._dead: Set[NodeKey] = set()
        self.stats = AGDPStats()
        self.invariant_hook = None
        if source is not None:
            self.add_node(source)

    @property
    def source(self) -> Optional[NodeKey]:
        return self._source

    @property
    def gc_enabled(self) -> bool:
        return self._gc_enabled

    def __contains__(self, node: NodeKey) -> bool:
        return node in self._slot

    def __len__(self) -> int:
        return len(self._slot)

    @property
    def nodes(self) -> Set[NodeKey]:
        return set(self._slot)

    @property
    def live_nodes(self) -> Set[NodeKey]:
        return set(self._slot) - self._dead

    def _slot_of(self, node: NodeKey) -> int:
        try:
            return self._slot[node]
        except KeyError:
            raise KeyError(f"node {node!r} is not tracked by this AGDP") from None

    def distance(self, x: NodeKey, y: NodeKey) -> float:
        return float(self._matrix[self._slot_of(x), self._slot_of(y)])

    def distances_from(self, x: NodeKey) -> Dict[NodeKey, float]:
        row = self._matrix[self._slot_of(x)]
        return {key: float(row[i]) for key, i in self._slot.items()}

    def distances_to(self, y: NodeKey) -> Dict[NodeKey, float]:
        col = self._matrix[:, self._slot_of(y)]
        return {key: float(col[i]) for key, i in self._slot.items()}

    def _grow(self) -> None:
        new_capacity = self._capacity * 2
        grown = np.full((new_capacity, new_capacity), np.inf)
        grown[: self._capacity, : self._capacity] = self._matrix
        self._free.extend(range(new_capacity - 1, self._capacity - 1, -1))
        self._matrix = grown
        self._capacity = new_capacity

    def add_node(self, node: NodeKey) -> None:
        if node in self._slot:
            raise ValueError(f"node {node!r} already present")
        if not self._free:
            self._grow()
        index = self._free.pop()
        self._matrix[index, :] = np.inf
        self._matrix[:, index] = np.inf
        self._matrix[index, index] = 0.0
        self._slot[node] = index
        self._key_of[index] = node
        self.stats.nodes_added += 1
        self.stats.max_nodes = max(self.stats.max_nodes, len(self._slot))

    def insert_edge(self, x: NodeKey, y: NodeKey, weight: float) -> None:
        xi = self._slot_of(x)
        yi = self._slot_of(y)
        if math.isnan(weight):
            raise ValueError("edge weight must not be NaN")
        if math.isinf(weight):
            return
        if x == y:
            if weight < 0:
                raise InconsistentSpecificationError(f"negative self-loop at {x!r}")
            return
        self.stats.edges_inserted += 1
        back = self._matrix[yi, xi]
        if back + weight < -1e-9:
            raise InconsistentSpecificationError(
                f"inserting ({x!r} -> {y!r}, {weight}) closes a negative cycle "
                f"(d({y!r}, {x!r}) = {back})",
                edge=(x, y, weight),
            )
        if weight >= self._matrix[xi, yi]:
            return
        active = sorted(self._slot.values())
        idx = np.array(active)
        block = self._matrix[np.ix_(idx, idx)]
        to_x = self._matrix[idx, xi]
        from_y = self._matrix[yi, idx]
        candidate = to_x[:, None] + weight + from_y[None, :]
        self.stats.pair_updates += idx.size * idx.size
        np.minimum(block, candidate, out=block)
        self._matrix[np.ix_(idx, idx)] = block
        if self.invariant_hook is not None:
            self.invariant_hook(self)

    def kill(self, node: NodeKey) -> None:
        if node not in self._slot:
            raise KeyError(f"node {node!r} is not present")
        if self._source is not None and node == self._source:
            raise ValueError("the source node is live forever")
        self.stats.nodes_killed += 1
        if not self._gc_enabled:
            self._dead.add(node)
        else:
            index = self._slot.pop(node)
            del self._key_of[index]
            self._matrix[index, :] = np.inf
            self._matrix[:, index] = np.inf
            self._free.append(index)
        if self.invariant_hook is not None:
            self.invariant_hook(self)

    def step(
        self,
        node: NodeKey,
        edges: Iterable[Tuple[NodeKey, NodeKey, float]],
        kills: Iterable[NodeKey] = (),
    ) -> None:
        self.add_node(node)
        for x, y, w in edges:
            if node not in (x, y):
                raise ValueError(
                    f"AGDP step for {node!r} may only insert incident edges, got ({x!r}, {y!r})"
                )
            self.insert_edge(x, y, w)
        for victim in kills:
            self.kill(victim)

    def matrix_size(self) -> int:
        return len(self._slot) * len(self._slot)


class PerEdgeAGDP(ReferenceNumpyAGDP):
    """``step`` as it was before it went node-wise, on the frozen backend:
    ``add_node``, then one ``insert_edge`` per edge - collecting the
    inconsistent ones when the caller quarantines.  The oracle for the
    production backends' node-wise ``step(..., refused)``."""

    def step(
        self,
        node: NodeKey,
        edges: Iterable[Tuple[NodeKey, NodeKey, float]],
        kills: Iterable[NodeKey] = (),
        refused: Optional[List[InconsistentSpecificationError]] = None,
    ) -> None:
        self.add_node(node)
        for x, y, w in edges:
            if node not in (x, y):
                raise ValueError(
                    f"AGDP step for {node!r} may only insert incident edges, got ({x!r}, {y!r})"
                )
            try:
                self.insert_edge(x, y, w)
            except InconsistentSpecificationError as exc:
                if refused is None:
                    raise
                exc.edge = (x, y, w)  # the frozen backend names no self-loop
                refused.append(exc)
        for victim in kills:
            self.kill(victim)


@dataclass
class _DeliveryToken:
    token_id: int
    neighbor: ProcessorId
    marks: Dict[ProcessorId, int]
    loss_flags: Tuple[EventId, ...]
    settled: bool = False


class ReferenceHistoryModule:
    """The pre-indexing Figure 2 module (rebuild-GC, full-buffer sends)."""

    def __init__(
        self,
        proc: ProcessorId,
        neighbors: Iterable[ProcessorId],
        *,
        reliable: bool = True,
        track_reports: bool = False,
        gc_enabled: bool = True,
    ):
        self.proc = proc
        self.neighbors: Tuple[ProcessorId, ...] = tuple(sorted(set(neighbors)))
        if proc in self.neighbors:
            raise ProtocolError(f"processor {proc!r} cannot neighbor itself")
        self._buffer: Dict[EventId, Event] = {}
        self._learn_order: Dict[EventId, int] = {}
        self._learn_counter = 0
        self._watermark: Dict[ProcessorId, Dict[ProcessorId, int]] = {
            u: {} for u in self.neighbors
        }
        self._known: Dict[ProcessorId, int] = {}
        self._loss_known: Set[EventId] = set()
        self._loss_sent: Dict[ProcessorId, Set[EventId]] = {
            u: set() for u in self.neighbors
        }
        self.reliable = reliable
        self._gc_enabled = gc_enabled
        self._tokens: Dict[int, _DeliveryToken] = {}
        self._token_ids = itertools.count()
        self.stats = HistoryStats(reports={} if track_reports else None)

    def known_seq(self, proc: ProcessorId) -> int:
        return self._known.get(proc, -1)

    def knows(self, eid: EventId) -> bool:
        return eid.seq <= self.known_seq(eid.proc)

    def watermark(self, neighbor: ProcessorId, proc: ProcessorId) -> int:
        try:
            return self._watermark[neighbor].get(proc, -1)
        except KeyError:
            raise ProtocolError(f"{neighbor!r} is not a neighbor of {self.proc!r}") from None

    def buffer_size(self) -> int:
        return len(self._buffer)

    def buffered_events(self) -> List[Event]:
        return sorted(self._buffer.values(), key=lambda e: self._learn_order[e.eid])

    @property
    def loss_flags(self) -> Set[EventId]:
        return set(self._loss_known)

    def pending_tokens(self) -> int:
        return len(self._tokens)

    def record_local(self, event: Event) -> None:
        if event.proc != self.proc:
            raise ProtocolError(
                f"module of {self.proc!r} given local event of {event.proc!r}"
            )
        self._learn(event)

    def record_loss(self, send_eid: EventId) -> bool:
        if send_eid in self._loss_known:
            return False
        self._loss_known.add(send_eid)
        return True

    def _learn(self, event: Event) -> None:
        eid = event.eid
        expected = self.known_seq(eid.proc) + 1
        if eid.seq != expected:
            raise ProtocolError(
                f"{self.proc!r} learned {eid} out of order (expected seq {expected})"
            )
        self._known[eid.proc] = eid.seq
        self._learn_order[eid] = self._learn_counter
        self._learn_counter += 1
        if any(
            eid.seq > self._watermark[u].get(eid.proc, -1) for u in self.neighbors
        ):
            self._buffer[eid] = event
            self.stats.max_buffer = max(self.stats.max_buffer, len(self._buffer))

    def prepare_payload(self, neighbor: ProcessorId) -> Tuple[HistoryPayload, int]:
        if neighbor not in self._watermark:
            raise ProtocolError(f"{neighbor!r} is not a neighbor of {self.proc!r}")
        marks = self._watermark[neighbor]
        fresh = [
            event
            for eid, event in self._buffer.items()
            if eid.seq > marks.get(eid.proc, -1)
        ]
        fresh.sort(key=lambda e: self._learn_order[e.eid])
        advance: Dict[ProcessorId, int] = {}
        for event in fresh:
            if event.seq > advance.get(event.proc, -1):
                advance[event.proc] = event.seq
            if self.stats.reports is not None:
                key = (event.eid, neighbor)
                self.stats.reports[key] = self.stats.reports.get(key, 0) + 1
        flags = tuple(sorted(self._loss_known - self._loss_sent[neighbor]))
        payload = HistoryPayload(records=tuple(fresh), loss_flags=flags)
        token = _DeliveryToken(
            token_id=next(self._token_ids),
            neighbor=neighbor,
            marks=advance,
            loss_flags=flags,
        )
        self.stats.payloads_sent += 1
        self.stats.records_sent += len(fresh)
        self.stats.max_payload = max(self.stats.max_payload, payload.size)
        if self.reliable:
            self._settle(token, confirmed=True)
        else:
            self._tokens[token.token_id] = token
        return payload, token.token_id

    def confirm_delivery(self, token_id: int) -> None:
        self._settle(self._take_token(token_id), confirmed=True)

    def abort_delivery(self, token_id: int) -> None:
        self._settle(self._take_token(token_id), confirmed=False)

    def _take_token(self, token_id: int) -> _DeliveryToken:
        token = self._tokens.pop(token_id, None)
        if token is None:
            raise ProtocolError(
                f"unknown or already settled delivery token {token_id} at {self.proc!r}"
            )
        return token

    def _settle(self, token: _DeliveryToken, *, confirmed: bool) -> None:
        if token.settled:
            raise ProtocolError(f"delivery token {token.token_id} settled twice")
        token.settled = True
        if not confirmed:
            return
        marks = self._watermark[token.neighbor]
        for proc, seq in token.marks.items():
            if seq > marks.get(proc, -1):
                marks[proc] = seq
        self._loss_sent[token.neighbor].update(token.loss_flags)
        self._gc()

    def ingest_payload(
        self, neighbor: ProcessorId, payload: HistoryPayload
    ) -> Tuple[List[Event], List[EventId]]:
        if neighbor not in self._watermark:
            raise ProtocolError(f"{neighbor!r} is not a neighbor of {self.proc!r}")
        marks = self._watermark[neighbor]
        new_events: List[Event] = []
        self.stats.payloads_received += 1
        for event in payload.records:
            self.stats.records_received += 1
            w = event.proc
            if event.seq > marks.get(w, -1):
                marks[w] = event.seq
            if self.knows(event.eid):
                self.stats.duplicate_records_received += 1
                continue
            self._learn(event)
            new_events.append(event)
        new_flags = [f for f in payload.loss_flags if f not in self._loss_known]
        self._loss_known.update(new_flags)
        self._loss_sent[neighbor].update(payload.loss_flags)
        self._gc()
        return new_events, new_flags

    def _gc(self) -> None:
        if not self._gc_enabled:
            return
        keep: Dict[EventId, Event] = {}
        for eid, event in self._buffer.items():
            if any(
                eid.seq > self._watermark[u].get(eid.proc, -1)
                for u in self.neighbors
            ):
                keep[eid] = event
        self._buffer = keep
