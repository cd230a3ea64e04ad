"""Shortest-path machinery for synchronization graphs.

Synchronization-graph edge weights may be negative (message lower bounds
contribute ``virt_del - lower``), so we need Bellman-Ford-style algorithms
with negative-cycle detection.  A negative cycle certifies that the view's
timestamps contradict the real-time specification
(:class:`~repro.core.errors.InconsistentSpecificationError`).

The graph type here is deliberately minimal and self-contained: node keys
are arbitrary hashables, parallel edges are collapsed to their minimum
weight (only shortest paths matter), and reverse adjacency is maintained so
distances *to* a target are as cheap as distances *from* a source.
"""

from __future__ import annotations

import math
from typing import Dict, Hashable, Iterable, Iterator, List, Optional, Tuple

from .errors import InconsistentSpecificationError

__all__ = [
    "INF",
    "WeightedDigraph",
    "bellman_ford_from",
    "bellman_ford_to",
    "find_negative_cycle",
    "floyd_warshall",
]

INF = math.inf

NodeKey = Hashable


class WeightedDigraph:
    """A directed graph with real edge weights and min-collapsed parallel edges."""

    def __init__(self):
        self._succ: Dict[NodeKey, Dict[NodeKey, float]] = {}
        self._pred: Dict[NodeKey, Dict[NodeKey, float]] = {}

    # -- construction ----------------------------------------------------------

    def add_node(self, node: NodeKey) -> None:
        if node not in self._succ:
            self._succ[node] = {}
            self._pred[node] = {}

    def add_edge(self, u: NodeKey, v: NodeKey, weight: float) -> None:
        """Insert edge ``u -> v``; keeps the minimum weight over duplicates.

        Infinite weights encode "no information" and are dropped.
        """
        if math.isinf(weight) and weight > 0:
            self.add_node(u)
            self.add_node(v)
            return
        if math.isnan(weight):
            raise ValueError(f"edge ({u!r}, {v!r}) has NaN weight")
        self.add_node(u)
        self.add_node(v)
        current = self._succ[u].get(v, INF)
        if weight < current:
            self._succ[u][v] = weight
            self._pred[v][u] = weight

    def remove_node(self, node: NodeKey) -> None:
        for v in list(self._succ.get(node, ())):
            del self._pred[v][node]
        for u in list(self._pred.get(node, ())):
            del self._succ[u][node]
        self._succ.pop(node, None)
        self._pred.pop(node, None)

    # -- queries -----------------------------------------------------------------

    def __contains__(self, node: NodeKey) -> bool:
        return node in self._succ

    def __len__(self) -> int:
        return len(self._succ)

    @property
    def nodes(self) -> Iterator[NodeKey]:
        return iter(self._succ)

    def edges(self) -> Iterator[Tuple[NodeKey, NodeKey, float]]:
        for u, nbrs in self._succ.items():
            for v, w in nbrs.items():
                yield (u, v, w)

    def edge_count(self) -> int:
        return sum(len(nbrs) for nbrs in self._succ.values())

    def weight(self, u: NodeKey, v: NodeKey) -> float:
        """Weight of edge ``u -> v``, or ``inf`` if absent."""
        return self._succ.get(u, {}).get(v, INF)

    def successors(self, u: NodeKey) -> Dict[NodeKey, float]:
        return dict(self._succ.get(u, {}))

    def predecessors(self, v: NodeKey) -> Dict[NodeKey, float]:
        return dict(self._pred.get(v, {}))

    def reversed(self) -> "WeightedDigraph":
        out = WeightedDigraph()
        out._succ = {u: dict(nbrs) for u, nbrs in self._pred.items()}
        out._pred = {u: dict(nbrs) for u, nbrs in self._succ.items()}
        return out

    def copy(self) -> "WeightedDigraph":
        out = WeightedDigraph()
        out._succ = {u: dict(nbrs) for u, nbrs in self._succ.items()}
        out._pred = {u: dict(nbrs) for u, nbrs in self._pred.items()}
        return out

    def total_absolute_weight(self) -> float:
        """Sum of |weight| over all edges; used to build 'safely huge' constants."""
        return sum(abs(w) for _u, _v, w in self.edges())

    def __repr__(self):  # pragma: no cover - cosmetic
        return f"WeightedDigraph({len(self)} nodes, {self.edge_count()} edges)"


def _extract_cycle(
    adjacency: Dict[NodeKey, Dict[NodeKey, float]],
    pred: Dict[NodeKey, NodeKey],
    start: NodeKey,
) -> List[Tuple[NodeKey, NodeKey, float]]:
    """Walk predecessor pointers back from ``start`` until a node repeats,
    then read off the cycle as ``(u, v, weight)`` edges."""
    # over-relaxed nodes may hang off the cycle; walk far enough to enter it
    node = start
    for _ in range(len(adjacency) + 1):
        node = pred[node]
    anchor = node
    nodes = [anchor]
    node = pred[anchor]
    while node != anchor:
        nodes.append(node)
        node = pred[node]
    nodes.reverse()  # pred-order walk yields the cycle backwards
    cycle = []
    for i, u in enumerate(nodes):
        v = nodes[(i + 1) % len(nodes)]
        cycle.append((u, v, adjacency[u].get(v, INF)))
    return cycle


def _bellman_ford(
    adjacency: Dict[NodeKey, Dict[NodeKey, float]],
    source: NodeKey,
) -> Dict[NodeKey, float]:
    """SPFA-style Bellman-Ford over an adjacency dict, with cycle detection."""
    if source not in adjacency:
        raise KeyError(f"source {source!r} not in graph")
    dist: Dict[NodeKey, float] = {source: 0.0}
    in_queue = {source}
    queue: List[NodeKey] = [source]
    #: number of relaxations per node; > |V| means a negative cycle
    passes: Dict[NodeKey, int] = {}
    #: relaxation parent pointers, for negative-cycle extraction
    pred: Dict[NodeKey, NodeKey] = {}
    limit = len(adjacency) + 1
    head = 0
    while head < len(queue):
        u = queue[head]
        head += 1
        in_queue.discard(u)
        if head > 1024 and head * 2 > len(queue):
            # compact the processed prefix to bound memory
            queue = queue[head:]
            head = 0
        du = dist[u]
        for v, w in adjacency[u].items():
            candidate = du + w
            if candidate < dist.get(v, INF) - 1e-18:
                dist[v] = candidate
                pred[v] = u
                passes[v] = passes.get(v, 0) + 1
                if passes[v] > limit:
                    raise InconsistentSpecificationError(
                        "negative cycle reachable from "
                        f"{source!r}: the view violates its real-time specification",
                        cycle=_extract_cycle(adjacency, pred, v),
                    )
                if v not in in_queue:
                    in_queue.add(v)
                    queue.append(v)
    return dist


def bellman_ford_from(graph: WeightedDigraph, source: NodeKey) -> Dict[NodeKey, float]:
    """Distances from ``source`` to every reachable node.

    Raises :class:`InconsistentSpecificationError` on a reachable negative
    cycle.  Unreachable nodes are absent from the result (conceptually at
    ``+inf``).
    """
    return _bellman_ford(graph._succ, source)


def bellman_ford_to(graph: WeightedDigraph, target: NodeKey) -> Dict[NodeKey, float]:
    """Distances from every node to ``target`` (Bellman-Ford on the reverse)."""
    return _bellman_ford(graph._pred, target)


def find_negative_cycle(
    graph: WeightedDigraph,
) -> Optional[List[Tuple[NodeKey, NodeKey, float]]]:
    """A negative cycle of ``graph`` as ``(u, v, weight)`` edges, or ``None``.

    Runs Bellman-Ford from a virtual super-source connected to every node
    with weight 0, so cycles anywhere in the graph are found, not just ones
    reachable from a particular node.
    """
    adjacency = graph._succ
    if not adjacency:
        return None
    dist: Dict[NodeKey, float] = {node: 0.0 for node in adjacency}
    pred: Dict[NodeKey, NodeKey] = {}
    passes: Dict[NodeKey, int] = {}
    in_queue = set(adjacency)
    queue: List[NodeKey] = list(adjacency)
    limit = len(adjacency) + 1
    head = 0
    while head < len(queue):
        u = queue[head]
        head += 1
        in_queue.discard(u)
        if head > 1024 and head * 2 > len(queue):
            queue = queue[head:]
            head = 0
        du = dist[u]
        for v, w in adjacency[u].items():
            candidate = du + w
            if candidate < dist[v] - 1e-18:
                dist[v] = candidate
                pred[v] = u
                passes[v] = passes.get(v, 0) + 1
                if passes[v] > limit:
                    return _extract_cycle(adjacency, pred, v)
                if v not in in_queue:
                    in_queue.add(v)
                    queue.append(v)
    return None


def floyd_warshall(graph: WeightedDigraph) -> Dict[NodeKey, Dict[NodeKey, float]]:
    """All-pairs distances; oracle-grade, O(n^3).

    Raises :class:`InconsistentSpecificationError` if any negative cycle
    exists.  The result has an entry for every ordered pair, with ``inf``
    for unreachable pairs.
    """
    keys = list(graph.nodes)
    dist: Dict[NodeKey, Dict[NodeKey, float]] = {
        u: {v: INF for v in keys} for u in keys
    }
    for u in keys:
        dist[u][u] = 0.0
    for u, v, w in graph.edges():
        if w < dist[u][v]:
            dist[u][v] = w
    for k in keys:
        dk = dist[k]
        for i in keys:
            dik = dist[i][k]
            if math.isinf(dik):
                continue
            di = dist[i]
            for j in keys:
                candidate = dik + dk[j]
                if candidate < di[j]:
                    di[j] = candidate
    for u in keys:
        if dist[u][u] < -1e-9:
            raise InconsistentSpecificationError(
                f"negative cycle through {u!r}: the view violates its specification"
            )
    return dist
