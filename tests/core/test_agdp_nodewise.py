"""Node-wise ``step`` == the frozen per-edge reference, refusals included.

Both production backends insert one *node* per input step (row/column as
min-plus products of the old matrix, one closure; two scalars and no
closure while the node has a single peer) and write it into the place of
the first node the step kills.  The oracle is the sequence it replaced:
``add_node`` + one ``insert_edge`` per edge + one ``kill`` per victim on
:class:`repro.testing.ReferenceNumpyAGDP`
(:class:`repro.testing.PerEdgeAGDP`).  The scripts are the feasible ones
of the backend-parity suites with some constraints made infeasible and
some edges malformed, so the comparison covers *which* edges are refused
and what is left behind by a refusal or a mid-step raise; and
``timeline_scripts``, built around the single-peer and take-over cases.
"""

import math
import random
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import AGDP, InconsistentSpecificationError, NumpyAGDP
from repro.testing import PerEdgeAGDP, check_agdp_invariants

from .test_agdp import agdp_scripts
from .test_agdp_numpy import heavy_churn_scripts

class PollutedNumpyAGDP(NumpyAGDP):
    """The numpy backend with its unused memory made hostile before every
    mutation: finite garbage in every cell outside the active block (the
    whole-row closure runs over the cells right of it), NaN in the
    closure's two scratch buffers (written before they are read).  No
    floating-point warning may fire, no NaN may reach the block, and the
    cells outside it keep what they held."""

    def __init__(self, *args, **kwargs):
        self._garbage = np.random.default_rng(0)
        self._nested = False
        super().__init__(*args, **kwargs)

    def _hostile(self, mutate, *args, **kwargs):
        if self._nested:  # a step killing its later victims
            return mutate(*args, **kwargs)
        self._nested = True
        n, matrix = self._n, self._matrix
        garbage = self._garbage.uniform(-1e6, 1e6, matrix.shape)
        matrix[n:, :] = garbage[n:, :]
        matrix[:n, n:] = garbage[:n, n:]
        self._scratch.fill(np.nan)
        self._padded.fill(np.nan)
        try:
            with np.errstate(all="raise"), warnings.catch_warnings():
                warnings.simplefilter("error")
                return mutate(*args, **kwargs)
        finally:
            self._nested = False
            after = self._n
            assert not np.isnan(self._matrix[:after, :after]).any()
            if self._matrix is matrix:  # (a grown store starts over as +inf)
                n = max(n, after)
                assert np.array_equal(matrix[n:, :], garbage[n:, :])
                assert np.array_equal(matrix[:n, n:], garbage[:n, n:])

    def step(self, *args, **kwargs):
        return self._hostile(super().step, *args, **kwargs)

    def insert_edge(self, *args, **kwargs):
        return self._hostile(super().insert_edge, *args, **kwargs)

    def kill(self, *args, **kwargs):
        return self._hostile(super().kill, *args, **kwargs)


BACKENDS = pytest.mark.parametrize("backend", [AGDP, NumpyAGDP, PollutedNumpyAGDP])


@st.composite
def hostile_scripts(draw, malformed=True):
    """A feasible script with constraints tightened past consistency.

    Tightened weights undercut the script's potentials by at least 0.5,
    so whether an edge closes a negative cycle never hangs on the 1e-9
    refusal tolerance.  A tightened edge is not necessarily refused - with
    no return path yet it is accepted and a later, honest edge closes the
    cycle instead.
    """
    steps = draw(st.one_of(agdp_scripts(), heavy_churn_scripts()))
    rng = random.Random(draw(st.integers(min_value=0, max_value=10_000)))
    tighten = draw(st.sampled_from([0.0, 0.1, 0.4]))
    hostile = []
    present = ["s"]
    for node, edges, kills in steps:
        edges = [
            (x, y, w - rng.uniform(2.5, 6.0) if rng.random() < tighten else w)
            for x, y, w in edges
        ]
        if malformed and rng.random() < 0.15:
            peer = rng.choice(present)
            junk = rng.choice(
                [
                    (node, peer, math.nan),
                    (node, peer, math.inf),
                    (peer, node, -math.inf),
                    (node, node, -1.0),
                    (node, node, 1.0),
                    (node, "ghost", 1.0),
                    (peer, rng.choice(present), 1.0),  # not incident to node
                ]
            )
            edges.insert(rng.randrange(len(edges) + 1), junk)
        hostile.append((node, edges, kills))
        present = [p for p in present if p not in kills] + [node]
    return hostile


def _outcome(call):
    try:
        call()
    except (InconsistentSpecificationError, ValueError, KeyError) as exc:
        return type(exc)
    return None


def _assert_same_matrix(new, ref):
    assert new.nodes == ref.nodes
    assert new.live_nodes == ref.live_nodes
    for x in ref.nodes:
        for y in ref.nodes:
            expected = ref.distance(x, y)
            if math.isinf(expected):
                assert math.isinf(new.distance(x, y)), (x, y)
            else:
                assert new.distance(x, y) == pytest.approx(expected, abs=1e-9), (x, y)
    for field in ("nodes_added", "nodes_killed", "edges_inserted"):
        assert getattr(new.stats, field) == getattr(ref.stats, field), field
    # the reference holds node and victim side by side; a take-over does not
    assert len(new) <= new.stats.max_nodes <= ref.stats.max_nodes


@BACKENDS
@settings(max_examples=60, deadline=None)
@given(hostile_scripts())
def test_quarantining_step_matches_per_edge_reference(backend, steps):
    """With a ``refused`` list: same refusals, same distances, same raises.

    ``clean`` is fed only what the reference accepted, in strict mode: a
    refused edge must leave every stored distance untouched, so it has to
    end up *bit*-identical to the quarantining solver.
    """
    new, clean = backend(source="s"), backend(source="s")
    ref = PerEdgeAGDP(source="s")
    for node, edges, kills in steps:
        refused, expected = [], []
        raised = _outcome(lambda: new.step(node, edges, kills, refused))
        assert raised == _outcome(lambda: ref.step(node, edges, kills, expected))
        expected = [error.edge for error in expected]
        assert [error.edge for error in refused] == expected
        assert all("negative" in str(error) for error in refused)
        _assert_same_matrix(new, ref)
        if raised is not None:
            return  # a malformed edge: the step is spent, compared as left
        clean.step(node, [edge for edge in edges if edge not in expected], kills)
        assert clean.nodes == new.nodes
        for x in new.nodes:
            assert clean.distances_from(x) == new.distances_from(x)


@BACKENDS
@settings(max_examples=60, deadline=None)
@given(hostile_scripts())
def test_strict_step_matches_per_edge_reference(backend, steps):
    """Without one: the same edge raises, after the same edges were applied."""
    new = backend(source="s")
    ref = PerEdgeAGDP(source="s")
    for node, edges, kills in steps:
        try:
            new.step(node, edges, kills)
        except InconsistentSpecificationError as exc:
            with pytest.raises(InconsistentSpecificationError) as ref_exc:
                ref.step(node, edges, kills)
            # (the frozen backend does not name a negative self-loop)
            assert ref_exc.value.edge in (exc.edge, None)
            _assert_same_matrix(new, ref)
            return
        except (ValueError, KeyError) as exc:
            with pytest.raises(type(exc)):
                ref.step(node, edges, kills)
            _assert_same_matrix(new, ref)
            return
        ref.step(node, edges, kills)
        _assert_same_matrix(new, ref)


@settings(max_examples=60, deadline=None)
@given(hostile_scripts(malformed=False))
def test_backends_agree_bit_for_bit_under_refusals(steps):
    """One algorithm, one float association, one ``pair_updates`` unit."""
    dict_agdp = AGDP(source="s")
    np_agdps = NumpyAGDP(source="s"), PollutedNumpyAGDP(source="s")
    for node, edges, kills in steps:
        dict_refused = []
        dict_agdp.step(node, edges, kills, dict_refused)
        for np_agdp in np_agdps:
            np_refused = []
            np_agdp.step(node, edges, kills, np_refused)
            assert [e.edge for e in np_refused] == [e.edge for e in dict_refused]
    for np_agdp in np_agdps:
        for x in dict_agdp.nodes:
            assert np_agdp.distances_from(x) == dict_agdp.distances_from(x)
        assert np_agdp.stats == dict_agdp.stats


@BACKENDS
def test_refusal_is_tested_against_the_edges_accepted_so_far(backend):
    """The second edge of a step can be refused because of the first."""
    agdp = backend(source="s")
    refused = []
    agdp.step("a", [("s", "a", 1.0), ("a", "s", -2.0), ("a", "s", 0.5)], (), refused)
    assert [error.edge for error in refused] == [("a", "s", -2.0)]
    assert refused[0].edge == ("a", "s", -2.0)
    assert agdp.distance("s", "a") == 1.0
    assert agdp.distance("a", "s") == 0.5
    with pytest.raises(InconsistentSpecificationError):
        agdp.step("b", [("b", "a", 1.0), ("s", "b", -3.0)])
    # the accepted first edge landed, as if inserted one by one
    assert agdp.distance("b", "s") == 1.5
    assert math.isinf(agdp.distance("s", "b"))


@BACKENDS
def test_pair_updates_charged_once_per_node(backend):
    """finite(col) * finite(row) of the closure - nothing without both."""
    agdp = backend(source="s")
    agdp.step("a", [("s", "a", 1.0)])  # no out-edge: no closure
    assert agdp.stats.pair_updates == 0
    agdp.step("b", [("a", "b", 1.0), ("b", "a", 1.0)])  # one peer: no closure
    assert agdp.stats.pair_updates == 0
    assert agdp.distance("s", "b") == 2.0
    assert math.isinf(agdp.distance("b", "s"))
    agdp.step("c", [("a", "c", 1.0), ("c", "s", 1.0)])
    # col = d(., c) finite for {s, a, b}; row = d(c, .) finite for {s, a, b}
    assert agdp.stats.pair_updates == 9
    assert agdp.distance("b", "s") == 3.0


# -- timeline events: one peer, no closure; take over the victim's place -------

#: exactly representable and far below the solver's 1e-9 cycle tolerance
EPS = 2.0**-44


@st.composite
def timeline_scripts(draw):
    """``(gc_enabled, arm_hook, steps)`` with ``steps`` of ``(node, edges,
    kills, quarantine)``, most of them timeline events: all edges to one
    peer (the source included), in one direction only or both, parallel,
    TOP, a cycle of weight exactly 0, an infeasible second edge, the peer
    among the kills or not - between receives with two or three peers,
    isolated nodes, malformed edges and unkillable victims.

    Weights are potential differences plus slack on a 1/8 grid, so every
    sum is exact and the solvers must agree with the per-edge reference
    to the last bit.  At most once, where the hook is not armed, a
    single-peer cycle weighs ``-EPS``: inside the tolerance, accepted by
    all, closed by the reference only.
    """
    rng = random.Random(draw(st.integers(min_value=0, max_value=100_000)))
    gc_enabled = draw(st.booleans())
    arm_hook = draw(st.booleans())
    eps_step = None if arm_hook else draw(st.sampled_from([None, 1, 3, 5]))
    n_steps = draw(st.integers(min_value=1, max_value=10))

    def grid(lo, hi):
        return rng.randint(lo * 8, hi * 8) / 8.0

    potential = {"s": 0.0}
    live = ["s"]
    steps = []
    for i in range(n_steps):
        node = f"n{i}"
        potential[node] = grid(-4, 4)

        def edge(x, y, slack):
            return (x, y, potential[y] - potential[x] + slack)

        kind = rng.random()
        n_peers = 0 if kind < 0.1 else 1 if kind < 0.7 else rng.randint(2, 3)
        peers = rng.sample(live, min(n_peers, len(live)))
        edges = []
        for peer in peers:
            shape = rng.choice(["both", "both", "zero-cycle", "in", "out"])
            if shape in ("both", "in"):
                edges.append(edge(peer, node, grid(0, 2)))
            if shape in ("both", "out"):
                edges.append(edge(node, peer, grid(0, 2)))
            if shape == "zero-cycle":
                edges += [edge(peer, node, 0.0), edge(node, peer, 0.0)]
                if len(peers) == 1 and i == eps_step:
                    x, y, w = edges.pop()
                    edges.append((x, y, w - EPS))
            for _ in range(rng.randint(0, 2)):  # parallel, TOP, infeasible
                x, y = rng.choice([(peer, node), (node, peer)])
                extra = rng.choice(
                    [edge(x, y, grid(0, 2)), (x, y, math.inf), edge(x, y, -grid(1, 4))]
                )
                edges.insert(rng.randint(1, len(edges)), extra)
        if rng.random() < 0.1:  # a raise mid-step
            junk = rng.choice(
                [
                    (node, rng.choice(live), math.nan),
                    (node, "ghost", 1.0),
                    (rng.choice(live), "s", 1.0),  # not incident to node
                    (node, node, -1.0),
                ]
            )
            edges.insert(rng.randint(0, len(edges)), junk)
        killable = [p for p in live if p != "s"]
        kills = []
        fate = rng.random()
        if fate < 0.5 and peers and peers[0] != "s":
            kills.append(peers[0])
        elif fate < 0.7 and killable:
            kills.append(rng.choice(killable))
        if kills and rng.random() < 0.3:
            kills += [p for p in rng.sample(killable, 1) if p not in kills]
        if rng.random() < 0.08:
            kills.insert(rng.randint(0, len(kills)), rng.choice(["s", "ghost"]))
        steps.append((node, edges, kills, rng.random() < 0.5))
        live = [p for p in live if p not in kills] + [node]
    return gc_enabled, arm_hook, steps


@settings(max_examples=200, deadline=None)
@given(timeline_scripts())
def test_timeline_steps_match_per_edge_reference(script):
    """Same raises, refusals, survivors and counters as the reference; its
    distances to the bit while all arithmetic is exact, within the cycle
    tolerance once a ``-EPS`` cycle went unclosed; numpy == dict always."""
    gc_enabled, arm_hook, steps = script
    dict_agdp = AGDP(source="s", gc_enabled=gc_enabled)
    np_agdp = NumpyAGDP(source="s", gc_enabled=gc_enabled)
    polluted = PollutedNumpyAGDP(source="s", gc_enabled=gc_enabled)
    ref = PerEdgeAGDP(source="s", gc_enabled=gc_enabled)
    if arm_hook:
        for agdp in (dict_agdp, np_agdp, polluted):
            agdp.invariant_hook = check_agdp_invariants
    tolerance = 0.0
    peak = 1
    for node, edges, kills, quarantine in steps:
        before = ref.live_nodes
        expected = [] if quarantine else None
        raised = _outcome(lambda: ref.step(node, edges, kills, expected))
        for agdp in (dict_agdp, np_agdp, polluted):
            refused = [] if quarantine else None
            assert _outcome(lambda: agdp.step(node, edges, kills, refused)) == raised
            if quarantine:
                assert [e.edge for e in refused] == [e.edge for e in expected]
        if any(w - round(w * 8) / 8 == -EPS for _, _, w in edges if math.isfinite(w)):
            tolerance = 1e-9
        # whoever the reference killed before a raise is gone here too,
        # whoever it did not is still alive
        assert dict_agdp.nodes == np_agdp.nodes == polluted.nodes == ref.nodes
        assert dict_agdp.live_nodes == np_agdp.live_nodes == ref.live_nodes
        assert polluted.live_nodes == ref.live_nodes
        for x in ref.nodes:
            assert np_agdp.distances_from(x) == dict_agdp.distances_from(x)
            assert polluted.distances_from(x) == dict_agdp.distances_from(x)
            for y, d in ref.distances_from(x).items():
                assert dict_agdp.distance(x, y) == pytest.approx(d, abs=tolerance)
        took_over = gc_enabled and bool(kills) and kills[0] in before - ref.nodes
        peak = max(peak, len(before) + (not took_over))
        assert np_agdp.stats == polluted.stats == dict_agdp.stats
        assert dict_agdp.stats.max_nodes == (peak if gc_enabled else len(ref))
        for field in ("nodes_added", "nodes_killed", "edges_inserted"):
            assert getattr(dict_agdp.stats, field) == getattr(ref.stats, field), field


@BACKENDS
def test_new_node_slides_into_its_peers_place(backend):
    """Single peer, killed by the step: the peer's row and column become
    the node's, shifted by the two edge weights; nothing is closed."""
    agdp = backend(source="s")
    agdp.step("a", [("s", "a", 2.0), ("a", "s", -1.0)])
    agdp.step("b", [("s", "b", 5.0), ("b", "s", 1.0), ("a", "b", 1.0)])
    agdp.step("c", [("a", "c", 0.5), ("c", "a", 0.25)], kills=["a"])
    assert agdp.nodes == {"s", "b", "c"}
    assert agdp.distances_from("c") == {"s": -0.75, "b": 1.25, "c": 0.0}
    assert agdp.distances_to("c") == {"s": 2.5, "b": 3.5, "c": 0.0}
    assert agdp.distance("s", "b") == 3.0
    assert agdp.stats.max_nodes == 3
    assert agdp.stats.nodes_killed == 1


@BACKENDS
def test_a_step_that_raises_keeps_its_edges_and_kills_nobody(backend):
    agdp = backend(source="s")
    agdp.step("a", [("s", "a", 1.0), ("a", "s", 1.0)])
    with pytest.raises(InconsistentSpecificationError):
        agdp.step("b", [("a", "b", 1.0), ("b", "a", -3.0)], kills=["a"])
    assert agdp.nodes == {"s", "a", "b"}
    assert agdp.distance("s", "b") == 2.0
    assert math.isinf(agdp.distance("b", "s"))
    assert agdp.stats.nodes_killed == 0
    with pytest.raises(ValueError):  # an unkillable first victim: no take-over
        agdp.step("c", [("b", "c", 1.0)], kills=["s", "a"])
    assert agdp.nodes == {"s", "a", "b", "c"}
    assert agdp.distance("s", "c") == 3.0


@BACKENDS
def test_killing_a_dead_node_raises_with_gc_off(backend):
    """With gc on the second kill finds no node; with it off it found a
    retained dead one and counted it again."""
    for gc_enabled in (True, False):
        agdp = backend(source="s", gc_enabled=gc_enabled)
        agdp.add_node("a")
        agdp.kill("a")
        with pytest.raises(KeyError):
            agdp.kill("a")
        assert agdp.stats.nodes_killed == 1
        with pytest.raises(KeyError):
            agdp.step("b", [("s", "b", 1.0)], kills=["a"])
        assert agdp.stats.nodes_killed == 1


# -- the closure runs over whole rows: what lies right of the block is padding --


def test_whole_row_closure_through_grow_kill_and_slot_reuse():
    """Grow past the initial capacity, kill several nodes in one step (one
    take-over, two swap-with-last), reuse the vacated slots: every closure
    runs over padding that holds garbage, stale rows of dead nodes, or the
    fresh half of a grown matrix - and distances, refusals and every
    counter stay those of the dict backend, bit for bit."""
    rng = random.Random(5)
    solvers = [AGDP(source="s"), NumpyAGDP(source="s"), PollutedNumpyAGDP(source="s")]
    ref = PerEdgeAGDP(source="s")
    potential = {"s": 0.0}
    live = ["s"]

    def step(node, peers, kills=()):
        potential[node] = rng.randint(-32, 32) / 8.0
        edges = []
        for peer in peers:
            gap = potential[node] - potential[peer]
            edges.append((peer, node, gap + rng.randint(0, 16) / 8.0))
            edges.append((node, peer, -gap + rng.randint(0, 16) / 8.0))
        edges.append((node, peers[0], potential[peers[0]] - potential[node] - 3.0))
        outcomes = []
        for agdp in solvers + [ref]:
            refused = []
            agdp.step(node, edges, kills, refused)
            outcomes.append([error.edge for error in refused])
        assert outcomes[0] == outcomes[1] == outcomes[2] == outcomes[3] != []
        live[:] = [p for p in live if p not in kills] + [node]

    for i in range(20):  # 21 nodes: one grow, 16 -> 32
        step(f"a{i}", rng.sample(live, min(len(live), 3)))
    assert solvers[1]._capacity == 32
    step("b0", ["a3", "a7"], kills=["a3", "a19", "a11"])
    for i in range(1, 6):  # slots 21, 20 and then fresh ones again
        step(f"b{i}", rng.sample(live, 2), kills=rng.sample(live[1:-1], i % 2))
    for i in range(16):  # and past the second grow
        step(f"c{i}", rng.sample(live, 3))
    assert solvers[1]._capacity == 64
    dict_agdp = solvers[0]
    for np_agdp in solvers[1:]:
        assert np_agdp.stats == dict_agdp.stats
        for x in dict_agdp.nodes:
            assert np_agdp.distances_from(x) == dict_agdp.distances_from(x)
    _assert_same_matrix(dict_agdp, ref)
    assert dict_agdp.stats.pair_updates > 0 and dict_agdp.stats.nodes_killed == 6
