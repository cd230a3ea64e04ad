"""A vectorised AGDP backend (numpy dense matrix, compacted slots).

Drop-in alternative to :class:`repro.core.agdp.AGDP` with the same
algorithm and observable behaviour: an input step inserts its new node
``p`` *node-wise* - the distance column ``d(., p)`` and row ``d(p, .)``
are one vector ``add`` + ``minimum`` per incident edge against the old
block, and the old pairs close through ``p`` with

    ``d'(r, s) = min(d(r, s), d(r, p) + d(p, s))``

as a single outer-sum + elementwise-min over a dense ``float64`` matrix;
a node whose edges all go to one old node ``q`` (a timeline event: a send
or internal event and its drift pair) is two vector adds on ``q``'s row
and column and no closure.  ``O(L^2)`` per receive, ``O(L)`` per timeline
event.

**Compacted-slot invariant.**  The present nodes always occupy the
contiguous slot prefix ``[0, n)`` of the matrix, so the active block is
the plain view ``matrix[:n, :n]`` - no sorted slot list, no fancy-indexed
block copies.  A step that kills writes its new node straight into the
first victim's slot (in place, when the victim is that ``q``: the live
point slides along its processor's timeline); one that kills nobody
appends at slot ``n`` (amortised O(n) with capacity doubling).
:meth:`kill` - victims beyond the first, and direct callers - vacates a
slot by swapping the last occupied row/column into it (two row/column
copies, O(n)) and shrinking the prefix.  The closure runs as an in-place
``np.minimum`` against an outer sum written into a preallocated scratch
block - over the whole rows ``matrix[:n]``, which are contiguous where
the ``n x n`` view is not; the row operand is padded with ``+inf``, so
the cells right of the block keep whatever they held (they are never
read as distances).

``pair_updates`` counts exactly what the dict backend counts - the finite
relaxation candidates ``finite(col) * finite(row)`` of each closure,
single-peer steps charging none - so complexity plots are
backend-independent, and floats are summed in the same order, so
distances are bit-identical.

The contract (and the Lemma 3.4/3.5 semantics) is identical to the dict
solver; the equivalence is enforced property-based in
``tests/core/test_agdp_numpy.py`` and the speed difference measured in
``benchmarks/bench_e4_agdp.py``.  The previous (uncompacted, per-edge)
backend is preserved as :class:`repro.testing.reference.ReferenceNumpyAGDP`
- the oracle ``tests/core/test_agdp_nodewise.py`` holds the node-wise
step to, refusals included.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Dict, Hashable, Iterable, List, Optional, Set, Tuple

import numpy as np

from .agdp import (
    AGDPStats,
    negative_cycle_error,
    negative_self_loop_error,
    not_incident_error,
    refuse,
)
from .errors import InconsistentSpecificationError

__all__ = ["NumpyAGDP"]

INF = math.inf

NodeKey = Hashable

_INITIAL_CAPACITY = 16


class NumpyAGDP:
    """Dense-matrix AGDP solver; see :class:`repro.core.agdp.AGDP`."""

    def __init__(
        self,
        source: Optional[NodeKey] = None,
        *,
        gc_enabled: bool = True,
    ):
        self._source = source
        self._gc_enabled = gc_enabled
        self._dead: Set[NodeKey] = set()
        self.stats = AGDPStats()
        #: debug-mode callback invoked with ``self`` after every mutating
        #: edge insertion and kill (see repro.testing.invariants); None in
        #: production - the checks are O(n^3) per call
        self.invariant_hook = None
        self._allocate(_INITIAL_CAPACITY)
        self._n = 0
        self._slot: Dict[NodeKey, int] = {}
        self._keys: List[NodeKey] = []  # slot index -> node key
        if source is not None:
            self.add_node(source)

    def _allocate(self, capacity: int) -> None:
        self._capacity = capacity
        # cells outside the active prefix are never read as distances,
        # but the whole-row closure takes ``min(cell, +inf)`` of the
        # ones right of it: the store starts as +inf so that no NaN
        # left in fresh memory ever meets that ``minimum``
        self._matrix = np.full((capacity, capacity), np.inf)
        #: reusable buffers of the closure, grown with the matrix and
        #: always written before they are read: the candidates (outer
        #: sum) and the row operand padded to a whole row
        self._scratch = np.empty((capacity, capacity))
        self._padded = np.empty(capacity)

    def copy(self) -> "NumpyAGDP":
        """An independent solver holding the same distances and counters.

        Only the active block is copied; the cells around it start as
        ``+inf`` again, as in a solver that grew to this capacity.
        """
        twin = NumpyAGDP(gc_enabled=self._gc_enabled)
        twin._source = self._source
        if twin._capacity != self._capacity:
            twin._allocate(self._capacity)
        n = twin._n = self._n
        twin._matrix[:n, :n] = self._matrix[:n, :n]
        twin._slot = dict(self._slot)
        twin._keys = list(self._keys)
        twin._dead = set(self._dead)
        twin.stats = replace(self.stats)
        twin.invariant_hook = self.invariant_hook
        return twin

    # -- inspection --------------------------------------------------------------

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
        return self.nodes - self._dead

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

    # -- mutation ----------------------------------------------------------------

    def _grow(self) -> None:
        n = self._n
        block = self._matrix[:n, :n]
        self._allocate(self._capacity * 2)
        self._matrix[:n, :n] = block

    def add_node(self, node: NodeKey) -> None:
        if node in self:
            raise ValueError(f"node {node!r} already present")
        if self._n == self._capacity:
            self._grow()
        index = self._n
        self._n += 1
        m = self._matrix
        m[index, : self._n] = np.inf
        m[: self._n, index] = np.inf
        m[index, index] = 0.0
        self._slot[node] = index
        self._keys.append(node)
        self.stats.nodes_added += 1
        self.stats.max_nodes = max(self.stats.max_nodes, len(self))

    def insert_edge(self, x: NodeKey, y: NodeKey, weight: float) -> None:
        """Single-edge primitive (bootstrap snapshots, ablations).

        The per-event hot path is :meth:`step`, which pays one closure per
        *node*; this pays one per edge.
        """
        xi = self._slot_of(x)
        yi = self._slot_of(y)
        if math.isnan(weight):
            raise ValueError("edge weight must not be NaN")
        if math.isinf(weight):
            return
        if x == y:
            if weight < 0:
                raise negative_self_loop_error(x, weight)
            return
        self.stats.edges_inserted += 1
        n = self._n
        matrix = self._matrix
        back = matrix[yi, xi]
        if back + weight < -1e-9:
            raise negative_cycle_error(x, y, weight, back)
        if weight >= matrix[xi, yi]:
            return
        # any strictly shorter path is r ~> x -> y ~> s (Ausiello et al.)
        self._close(n, matrix[:n, xi] + weight, matrix[yi, :n])
        if self.invariant_hook is not None:
            self.invariant_hook(self)

    def _close(self, m: int, col, row) -> None:
        """``matrix[r, s] = min(matrix[r, s], col[r] + row[s])`` for ``r, s < m``.

        The one closure routine: :meth:`step` calls it once per node that
        has more than one peer, with the node's distance column/row,
        :meth:`insert_edge` once per edge with ``d(., x) + w`` and ``d(y,
        .)``.  It works on whole rows: ``matrix[:m]`` and ``scratch[:m]``
        are contiguous ``m x capacity`` blocks where the ``m x m`` views
        are not (numpy would run ``m`` inner loops of ``m``), so the row
        operand is padded to ``capacity`` with ``+inf`` - the cells right
        of the active block only ever see ``min(x, +inf)`` and keep what
        they held.

        ``pair_updates`` is charged here, where the work happens, as the
        number of finite relaxation candidates (stored distances are
        finite or +inf, never NaN/-inf, so ``< inf`` is the finiteness
        test); the dict backend counts the identical quantity and sums in
        the identical order, so both produce bit-identical floats.
        """
        self.stats.pair_updates += np.count_nonzero(col < np.inf) * np.count_nonzero(
            row < np.inf
        )
        padded = self._padded
        padded[:m] = row
        padded[m:] = np.inf
        block = self._matrix[:m]
        scratch = self._scratch[:m]
        np.add.outer(col, padded, out=scratch)
        np.minimum(block, scratch, out=block)

    def kill(self, node: NodeKey) -> None:
        if node not in self or node in self._dead:
            raise KeyError(f"node {node!r} is not present")
        if self._source is not None and node == self._source:
            raise ValueError("the source node is live forever")
        self.stats.nodes_killed += 1
        if not self._gc_enabled:
            self._dead.add(node)
        else:
            index = self._slot.pop(node)
            n = self._n
            last = n - 1
            if index != last:
                # swap-with-last keeps the occupied slots a contiguous
                # prefix; the vacated row/column need no clearing because
                # add_node re-initialises slot ``n`` on reuse
                m = self._matrix
                m[index, :n] = m[last, :n]
                m[:n, index] = m[:n, last]
                moved = self._keys[last]
                self._slot[moved] = index
                self._keys[index] = moved
            self._keys.pop()
            self._n = last
        if self.invariant_hook is not None:
            self.invariant_hook(self)

    def step(
        self,
        node: NodeKey,
        edges: Iterable[Tuple[NodeKey, NodeKey, float]],
        kills: Iterable[NodeKey] = (),
        refused: Optional[List[InconsistentSpecificationError]] = None,
    ) -> None:
        """One AGDP input step, inserted node-wise; see :meth:`AGDP.step`.

        Nothing is written before every edge has been tested, and what was
        accepted is written even when a later edge raises.  While the
        accepted edges touch one old node ``q`` only two scalars are kept
        and the step ends in two vector adds, ``d(., node) = d(., q) +
        w_in`` and ``d(node, .) = d(q, .) + w_out``, with no closure; from
        the second peer on, the distance column/row over the old nodes are
        min-plus products of the *old* block with the in-/out-edges (one
        vector ``add`` + ``minimum`` per edge) and the old pairs close
        through ``node`` with a single outer sum.  Either way the result
        goes straight into the slot of the first node the step kills
        (in place on ``q``'s own row and column when that is ``q``), or
        into slot ``n`` when it kills none.
        """
        slot = self._slot
        if node in slot:
            raise ValueError(f"node {node!r} already present")
        m = self._n
        slot[node] = m  # until the step knows whose slot it takes over
        stats = self.stats
        stats.nodes_added += 1
        matrix = self._matrix
        peer = None  # slot of the only old node the accepted edges touch so far
        w_in = w_out = INF  # min w(peer -> node), min w(node -> peer)
        # once a second peer appears: d(., node) / d(node, .) over the old nodes
        col = row = None
        take = None  # slot of the first kill, which node takes over
        try:
            for x, y, w in edges:
                # the caller's edges name the new node by the object it
                # passed as ``node``: identity spares a hash and a compare
                if x is node:
                    xi = m
                    yi = slot.get(y)
                elif y is node:
                    xi = slot.get(x)
                    yi = m
                else:
                    xi = slot.get(x)
                    yi = slot.get(y)
                    if xi != m and yi != m:
                        raise not_incident_error(node, x, y)
                if xi is None or yi is None:
                    raise KeyError(f"edge endpoints {x!r}, {y!r} must be present")
                if not -INF < w < INF:
                    if w != w:
                        raise ValueError("edge weight must not be NaN")
                    continue  # a TOP bound carries no information
                if xi == yi:
                    if w < 0:
                        refuse(refused, negative_self_loop_error(x, w))
                    continue
                stats.edges_inserted += 1
                # the only paths between node and its peer so far are the
                # edges accepted before this one: the two scalars, or the
                # row/column built from them
                if col is None:
                    other = yi if xi == m else xi
                    if peer is None or other == peer:
                        peer = other
                        if xi == m:
                            if w_in + w < -1e-9:
                                refuse(refused, negative_cycle_error(x, y, w, w_in))
                            elif w < w_out:
                                w_out = w
                        elif w_out + w < -1e-9:
                            refuse(refused, negative_cycle_error(x, y, w, w_out))
                        elif w < w_in:
                            w_in = w
                        continue
                    col = matrix[:m, peer] + w_in
                    row = matrix[peer, :m] + w_out
                if xi == m:
                    back = col[yi]
                    if back + w < -1e-9:
                        refuse(refused, negative_cycle_error(x, y, w, back))
                        continue
                    np.minimum(row, matrix[yi, :m] + w, out=row)
                else:
                    back = row[xi]
                    if back + w < -1e-9:
                        refuse(refused, negative_cycle_error(x, y, w, back))
                        continue
                    np.minimum(col, matrix[:m, xi] + w, out=col)
            kills = list(kills)
            if kills and self._gc_enabled:
                take = slot.get(kills[0])
                if take == m or (self._source is not None and kills[0] == self._source):
                    take = None
        finally:
            if take is None:
                if m == self._capacity:
                    self._grow()
                    matrix = self._matrix
                take = m
                self._keys.append(node)
                self._n = m + 1
                if m >= stats.max_nodes:
                    stats.max_nodes = m + 1
            else:
                stats.nodes_killed += 1
                del slot[kills.pop(0)]
                slot[node] = take
                self._keys[take] = node
            if col is not None:
                self._close(m, col, row)
                matrix[take, :m] = row
                matrix[:m, take] = col
            elif peer is not None:
                np.add(matrix[peer, :m], w_out, out=matrix[take, :m])
                np.add(matrix[:m, peer], w_in, out=matrix[:m, take])
            else:
                matrix[take, :m] = INF
                matrix[:m, take] = INF
            matrix[take, take] = 0.0
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
        """Apply many input steps in order; see :meth:`AGDP.step_batch`."""
        for node, edges, kills in steps:
            self.step(node, edges, kills)

    def matrix_size(self) -> int:
        """Current number of distance cells held (space proxy, Lemma 3.5)."""
        return len(self._slot) * len(self._slot)
