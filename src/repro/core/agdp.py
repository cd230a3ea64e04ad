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

    ``d'(r, s) = min(d(r, s), d(r, p) + d(p, s))``.

A *timeline event* - a send or internal event, whose only edges are the
drift pair to its processor's previous event ``q`` - needs no closure at
all: every detour through ``p`` is ``q -> p -> q``, a cycle of weight
``(beta - alpha) * delta >= 0``, so no old pair improves and the step is
``d(., p) = d(., q) + w_in``, ``d(p, .) = d(q, .) + w_out``.  A step
therefore costs ``O(L^2)`` per receive, ``O(L)`` per timeline event.
Each edge is tested for closing a negative cycle before anything is
written, so a caller may collect the inconsistent ones and keep the rest
(degraded mode).  Killing a node simply deletes its row and column - a
step that kills writes its new node over the first victim instead of
beside it; Lemma 3.4 guarantees no live-live distance is lost.

For the garbage-collection ablation (experiment A1) the solver can be run
with ``gc_enabled=False``: dead nodes are then retained, which preserves
answers trivially but lets the matrix grow with the execution length -
exactly the blow-up the paper's construction avoids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
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
    #: with finite ``col[r]`` and ``row[s]`` - once per node with two or
    #: more peers on the ``step`` path (a single-peer node closes nothing),
    #: once per edge through ``insert_edge``; every backend counts this
    #: same quantity, so complexity plots are backend-independent
    pair_updates: int = 0
    #: largest node-set size ever held (a node that takes over the place
    #: of one its step kills is never held beside it)
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

    def copy(self) -> "AGDP":
        """An independent solver holding the same distances and counters."""
        twin = AGDP(gc_enabled=self._gc_enabled)
        twin._source = self._source
        twin._dist = {node: dict(row) for node, row in self._dist.items()}
        twin._dead = set(self._dead)
        twin.stats = replace(self.stats)
        twin.invariant_hook = self.invariant_hook
        return twin

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

        The one closure routine: :meth:`step` calls it once per node that
        has more than one peer, with the node's distance column/row,
        :meth:`insert_edge` once per edge with ``d(., x) + w`` and ``d(y,
        .)``.  ``pair_updates`` is charged here as the number of finite
        relaxation candidates - the backend-independent cost unit (the
        numpy backend charges the identical quantity and sums in the
        identical order).
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
        if node not in self._dist or node in self._dead:
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
        ``O(L^2)`` per receive (Lemma 3.5).

        **One peer, no closure.**  While every accepted edge joins ``node``
        to the same old node ``q`` (a send or internal event: the drift
        pair to its processor's previous event) only the scalars ``w_in =
        min w(q -> node)`` and ``w_out = min w(node -> q)`` are kept, and
        the step finishes with ``d(., node) = d(., q) + w_in``, ``d(node,
        .) = d(q, .) + w_out`` and no closure: every detour through
        ``node`` is ``q -> node -> q``, a cycle the refusal test keeps
        non-negative, so no old pair can improve.  ``O(L)``, no
        ``pair_updates``.  The row/column path starts when a second peer
        appears.

        **Take-over.**  When the step kills, ``node`` is written straight
        into the first victim's place instead of being added and the
        victim deleted after; :meth:`kill` handles the victims beyond it.

        Each edge is tested for closing a negative cycle against the
        scalars or row/column built from the edges accepted before it, and
        nothing is written until every edge has been tested.  An
        inconsistent edge raises :class:`InconsistentSpecificationError` -
        or, when the caller passes a ``refused`` list, is appended to it
        (the error, carrying ``edge``) and skipped, so a quarantining
        caller keeps the rest of the step.  The edges accepted before a
        raise are applied, exactly as if they had been inserted one by
        one, and no kill is.
        """
        dist = self._dist
        if node in dist:
            raise ValueError(f"node {node!r} already present")
        stats = self.stats
        stats.nodes_added += 1
        peer = None  # the only old node the accepted edges touch so far
        w_in = w_out = INF  # min w(peer -> node), min w(node -> peer)
        # once a second peer appears: the finite d(r, node) and d(node, s)
        col: Optional[Dict[NodeKey, float]] = None
        row: Optional[Dict[NodeKey, float]] = None
        victim = None  # the first kill, whose place node takes over
        try:
            for x, y, w in edges:
                if x == node:
                    other = y
                elif y == node:
                    other = x
                else:
                    raise not_incident_error(node, x, y)
                if other != node and other not in dist:
                    raise KeyError(f"edge endpoints {x!r}, {y!r} must be present")
                if math.isnan(w):
                    raise ValueError("edge weight must not be NaN")
                if math.isinf(w):
                    continue  # a TOP bound carries no information
                if other == node:
                    if w < 0:
                        refuse(refused, negative_self_loop_error(x, w))
                    continue
                stats.edges_inserted += 1
                # the only paths between node and its peer so far are the
                # edges accepted before this one: the two scalars, or the
                # row/column built from them
                if col is None:
                    if peer is None or other == peer:
                        peer = other
                        if x == node:
                            if w_in + w < -1e-9:
                                refuse(refused, negative_cycle_error(x, y, w, w_in))
                            elif w < w_out:
                                w_out = w
                        elif w_out + w < -1e-9:
                            refuse(refused, negative_cycle_error(x, y, w, w_out))
                        elif w < w_in:
                            w_in = w
                        continue
                    col = {r: d for r, out in dist.items() if (d := out[peer] + w_in) != INF}
                    row = {s: d for s, c in dist[peer].items() if (d := c + w_out) != INF}
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
            kills = list(kills)
            if (
                kills
                and self._gc_enabled
                and kills[0] in dist
                and (self._source is None or kills[0] != self._source)
            ):
                victim = kills.pop(0)
        finally:
            # d(node, .) and d(., node) over every old node
            if col is not None:
                if col and row:
                    self._close(col, row)
                reach = {s: row.get(s, INF) for s in dist}
                back_to = {r: col.get(r, INF) for r in dist}
            elif peer is not None:
                reach = {s: d + w_out for s, d in dist[peer].items()}
                back_to = {r: out[peer] + w_in for r, out in dist.items()}
            else:
                reach = dict.fromkeys(dist, INF)
                back_to = dict(reach)
            if victim is not None:
                stats.nodes_killed += 1
                del dist[victim], reach[victim]
            for r, out in dist.items():
                out.pop(victim, None)
                out[node] = back_to[r]
            reach[node] = 0.0
            dist[node] = reach
            if len(dist) > stats.max_nodes:
                stats.max_nodes = len(dist)
            if self.invariant_hook is not None:
                self.invariant_hook(self)
        for later in kills:
            self.kill(later)

    def step_batch(
        self,
        steps: Iterable[
            Tuple[NodeKey, Iterable[Tuple[NodeKey, NodeKey, float]], Iterable[NodeKey]]
        ],
    ) -> None:
        """Apply many ``(node, edges, kills)`` steps in order.

        Observable behaviour (matrix contents, stats counters,
        invariant-hook firing order, failure points) is identical to
        sequential :meth:`step` calls.  The estimator steps once per
        learned event itself; this stays because the layered benchmark's
        hook table (``bench/trace.py``) names it.
        """
        for node, edges, kills in steps:
            self.step(node, edges, kills)

    def matrix_size(self) -> int:
        """Current number of matrix cells held (space proxy for Lemma 3.5)."""
        return len(self._dist) * len(self._dist)
