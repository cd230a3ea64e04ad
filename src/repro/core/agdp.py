"""The Accumulated Graph Distance Problem (AGDP) and its solver (Sec 3.2).

AGDP abstracts the on-line synchronization problem as a dynamic graph
problem:

* initially the graph has one node, the *source*, marked live;
* each step adds one new node (marked live) plus edges joining it to live
  nodes, then unmarks ("kills") some endpoints of the new edges;
* the task is to know, at all times, distances between live nodes (in
  particular from the source).

The solver maintains a *complete* weighted digraph ``G`` over the non-dead
nodes whose edge weights equal exact distances in the accumulated graph
(Lemma 3.4).  The Ausiello et al. incremental all-pairs-shortest-paths
update inserts edge ``(x, y, w)`` with

    ``d'(r, s) = min(d(r, s), d(r, x) + w + d(y, s))``

for every pair ``(r, s)``: ``O(L^2)`` time per edge for ``L`` live nodes
(Lemma 3.5) - :meth:`AGDP.insert_edge`.  An input step, though, adds one
node ``p`` whose edges are *all* incident to it, so :meth:`AGDP.step`
inserts per node, not per edge: ``d(., p)`` and ``d(p, .)`` are min-plus
products of the old matrix with ``p``'s in- and out-edges (``O(L * deg)``)
and the old pairs close through ``p`` once,

    ``d'(r, s) = min(d(r, s), d(r, p) + d(p, s))``,

``O(L^2)`` per *step*.  Each edge is tested for closing a negative cycle
before anything is written, so a caller may collect the inconsistent ones
and keep the rest (degraded mode).  Killing a node simply deletes its row
and column; Lemma 3.4 guarantees no live-live distance is lost.

For the garbage-collection ablation (experiment A1) the solver can be run
with ``gc_enabled=False``: dead nodes are then retained, which preserves
answers trivially but lets the matrix grow with the execution length -
exactly the blow-up the paper's construction avoids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Hashable, Iterable, List, Optional, Set, Tuple

from .errors import InconsistentSpecificationError

__all__ = ["AGDP", "AGDPStats"]

INF = math.inf

NodeKey = Hashable


@dataclass
class AGDPStats:
    """Operation counters for complexity experiments (E4, E6, E7, A1)."""

    nodes_added: int = 0
    nodes_killed: int = 0
    edges_inserted: int = 0
    #: total pair-relaxation candidates examined: per closure, the pairs
    #: with finite ``col[r]`` and ``row[s]`` - once per node on the ``step``
    #: path, once per edge through ``insert_edge``; every backend counts
    #: this same quantity, so complexity plots are backend-independent
    pair_updates: int = 0
    #: largest node-set size ever held (live + in-flight insertions)
    max_nodes: int = 0

    def matrix_cells(self) -> int:
        """Peak memory proxy: cells of the largest distance matrix held."""
        return self.max_nodes * self.max_nodes


def negative_cycle_error(x, y, weight, back) -> InconsistentSpecificationError:
    return InconsistentSpecificationError(
        f"inserting ({x!r} -> {y!r}, {weight}) closes a negative cycle "
        f"(d({y!r}, {x!r}) = {back})",
        edge=(x, y, weight),
    )


def negative_self_loop_error(x, weight) -> InconsistentSpecificationError:
    return InconsistentSpecificationError(
        f"negative self-loop at {x!r}", edge=(x, x, weight)
    )


def not_incident_error(node, x, y) -> ValueError:
    return ValueError(
        f"AGDP step for {node!r} may only insert incident edges, got ({x!r}, {y!r})"
    )


def refuse(
    refused: Optional[List[InconsistentSpecificationError]],
    error: InconsistentSpecificationError,
) -> None:
    """Collect an inconsistent edge (quarantining callers) or raise it."""
    if refused is None:
        raise error
    refused.append(error)


class AGDP:
    """Incremental all-pairs distances over the live nodes of a growing graph.

    Node keys are arbitrary hashables.  Weights may be negative; a negative
    cycle (impossible for views of real executions) raises
    :class:`InconsistentSpecificationError`.
    """

    def __init__(self, source: Optional[NodeKey] = None, *, gc_enabled: bool = True):
        self._dist: Dict[NodeKey, Dict[NodeKey, float]] = {}
        self._source = source
        self._gc_enabled = gc_enabled
        #: retained only when gc is disabled, to answer is_live queries
        self._dead: Set[NodeKey] = set()
        self.stats = AGDPStats()
        #: debug-mode callback invoked with ``self`` after every mutating
        #: edge insertion and kill (see repro.testing.invariants); None in
        #: production - the checks are O(n^3) per call
        self.invariant_hook = None
        if source is not None:
            self.add_node(source)

    # -- inspection --------------------------------------------------------------

    @property
    def source(self) -> NodeKey:
        return self._source

    @property
    def gc_enabled(self) -> bool:
        return self._gc_enabled

    def __contains__(self, node: NodeKey) -> bool:
        return node in self._dist

    def __len__(self) -> int:
        return len(self._dist)

    @property
    def nodes(self) -> Set[NodeKey]:
        return set(self._dist)

    @property
    def live_nodes(self) -> Set[NodeKey]:
        return set(self._dist) - self._dead

    def distance(self, x: NodeKey, y: NodeKey) -> float:
        """Exact distance from ``x`` to ``y`` in the accumulated graph.

        ``inf`` when ``y`` is unreachable from ``x``.  Both nodes must be
        present (live, or dead-but-retained when gc is disabled).
        """
        try:
            return self._dist[x][y]
        except KeyError:
            raise KeyError(f"node {x!r} or {y!r} is not tracked by this AGDP") from None

    def distances_from(self, x: NodeKey) -> Dict[NodeKey, float]:
        return dict(self._dist[x])

    def distances_to(self, y: NodeKey) -> Dict[NodeKey, float]:
        if y not in self._dist:
            raise KeyError(f"node {y!r} is not tracked by this AGDP")
        return {x: row[y] for x, row in self._dist.items()}

    # -- mutation ----------------------------------------------------------------

    def add_node(self, node: NodeKey) -> None:
        """Insert a new isolated live node (one AGDP input step starts here)."""
        if node in self._dist:
            raise ValueError(f"node {node!r} already present")
        for row in self._dist.values():
            row[node] = INF
        self._dist[node] = {other: INF for other in self._dist}
        self._dist[node][node] = 0.0
        self.stats.nodes_added += 1
        self.stats.max_nodes = max(self.stats.max_nodes, len(self._dist))

    def insert_edge(self, x: NodeKey, y: NodeKey, weight: float) -> None:
        """Insert edge ``x -> y`` and restore all-pairs exactness.

        Per the AGDP specification at least one endpoint is the newly added
        node and the other is live, but the update is correct for any
        present endpoints; the relaxed precondition is convenient for the
        ablation modes.
        """
        if x not in self._dist or y not in self._dist:
            raise KeyError(f"edge endpoints {x!r}, {y!r} must be present")
        if math.isnan(weight):
            raise ValueError("edge weight must not be NaN")
        if math.isinf(weight):
            return  # a TOP bound carries no information
        if x == y:
            if weight < 0:
                raise negative_self_loop_error(x, weight)
            return
        self.stats.edges_inserted += 1
        back = self._dist[y][x]
        if back + weight < -1e-9:
            raise negative_cycle_error(x, y, weight, back)
        if weight >= self._dist[x][y]:
            return  # no path improves
        # Ausiello et al. update: any strictly shorter path uses the new edge
        # exactly once (no negative cycles), so it decomposes r ~> x -> y ~> s.
        # Stored distances are finite or +inf (never NaN/-inf), so ``!= INF``
        # is the finiteness test.
        col = {r: d + weight for r, row in self._dist.items() if (d := row[x]) != INF}
        row = {s: d for s, d in self._dist[y].items() if d != INF}
        self._close(col, row)
        if self.invariant_hook is not None:
            self.invariant_hook(self)

    def _close(self, col: Dict[NodeKey, float], row: Dict[NodeKey, float]) -> None:
        """``d(r, s) = min(d(r, s), col[r] + row[s])`` over the finite entries.

        The one closure routine: :meth:`step` calls it once per node with
        the new node's distance column/row, :meth:`insert_edge` once per
        edge with ``d(., x) + w`` and ``d(y, .)``.  ``pair_updates`` is
        charged here as the number of finite relaxation candidates - the
        backend-independent cost unit (the numpy backend charges the
        identical quantity and sums in the identical order).
        """
        self.stats.pair_updates += len(col) * len(row)
        dist = self._dist
        candidates = list(row.items())
        for r, d_r in col.items():
            out = dist[r]
            for s, d_s in candidates:
                candidate = d_r + d_s
                if candidate < out[s]:
                    out[s] = candidate

    def kill(self, node: NodeKey) -> None:
        """Unmark ``node`` as live; with gc enabled, drop its row and column."""
        if node not in self._dist:
            raise KeyError(f"node {node!r} is not present")
        if self._source is not None and node == self._source:
            raise ValueError("the source node is live forever")
        self.stats.nodes_killed += 1
        if not self._gc_enabled:
            self._dead.add(node)
        else:
            del self._dist[node]
            for row in self._dist.values():
                del row[node]
        if self.invariant_hook is not None:
            self.invariant_hook(self)

    def step(
        self,
        node: NodeKey,
        edges: Iterable[Tuple[NodeKey, NodeKey, float]],
        kills: Iterable[NodeKey] = (),
        refused: Optional[List[InconsistentSpecificationError]] = None,
    ) -> None:
        """One AGDP input step: add ``node``, insert ``edges``, kill ``kills``.

        Every edge must have ``node`` as one endpoint (the AGDP contract:
        new edges connect live nodes to the new node), which is what makes
        the step cost one closure instead of one per edge: ``node`` starts
        with no edges, so a shortest path ends (starts) at it through
        exactly one in-edge (out-edge) and is otherwise a path of the old
        graph.  Its distance column ``d(., node)`` and row ``d(node, .)``
        are therefore min-plus products of the *old* matrix with the in-
        and out-edges - ``O(L)`` per edge - and the old pairs close through
        it once, ``d(r, s) = min(d(r, s), d(r, node) + d(node, s))``:
        ``O(L^2)`` per step (Lemma 3.5).

        Each edge is tested for closing a negative cycle against the
        row/column built from the edges accepted before it, and nothing is
        written until every edge has been tested.  An inconsistent edge
        raises :class:`InconsistentSpecificationError` - or, when the
        caller passes a ``refused`` list, is appended to it (the error,
        carrying ``edge``) and skipped, so a quarantining caller keeps the
        rest of the step.  The edges accepted before a raise are applied,
        exactly as if they had been inserted one by one.
        """
        self.add_node(node)
        dist = self._dist
        col: Dict[NodeKey, float] = {}  # finite d(r, node) over the old nodes
        row: Dict[NodeKey, float] = {}  # finite d(node, s) over the old nodes
        try:
            for x, y, w in edges:
                if node not in (x, y):
                    raise not_incident_error(node, x, y)
                if x not in dist or y not in dist:
                    raise KeyError(f"edge endpoints {x!r}, {y!r} must be present")
                if math.isnan(w):
                    raise ValueError("edge weight must not be NaN")
                if math.isinf(w):
                    continue  # a TOP bound carries no information
                if x == y:
                    if w < 0:
                        refuse(refused, negative_self_loop_error(x, w))
                    continue
                self.stats.edges_inserted += 1
                # the only paths between node and its peer so far are the
                # row/column built from the edges accepted before this one
                if x == node:
                    back = col.get(y, INF)
                    if back + w < -1e-9:
                        refuse(refused, negative_cycle_error(x, y, w, back))
                        continue
                    for s, d in dist[y].items():
                        if d != INF and d + w < row.get(s, INF):
                            row[s] = d + w
                else:
                    back = row.get(x, INF)
                    if back + w < -1e-9:
                        refuse(refused, negative_cycle_error(x, y, w, back))
                        continue
                    for r, out in dist.items():
                        d = out[x]
                        if d != INF and d + w < col.get(r, INF):
                            col[r] = d + w
        finally:
            dist[node].update(row)
            for r, d in col.items():
                dist[r][node] = d
            if col and row:
                self._close(col, row)
            if self.invariant_hook is not None:
                self.invariant_hook(self)
        for victim in kills:
            self.kill(victim)

    def step_batch(
        self,
        steps: Iterable[
            Tuple[NodeKey, Iterable[Tuple[NodeKey, NodeKey, float]], Iterable[NodeKey]]
        ],
    ) -> None:
        """Apply many input steps in order (the batch-delivery hot path).

        One delivered payload of ``k`` events becomes one call carrying
        ``k`` ``(node, edges, kills)`` steps; observable behaviour (matrix
        contents, stats counters, invariant-hook firing order, failure
        points) is identical to ``k`` sequential :meth:`step` calls.
        """
        for node, edges, kills in steps:
            self.step(node, edges, kills)

    def matrix_size(self) -> int:
        """Current number of matrix cells held (space proxy for Lemma 3.5)."""
        return len(self._dist) * len(self._dist)
