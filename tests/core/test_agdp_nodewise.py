"""Node-wise ``step`` == the frozen per-edge reference, refusals included.

Both production backends insert one *node* per input step (row/column as
min-plus products of the old matrix, one closure).  The oracle is the
sequence it replaced: ``add_node`` + one ``insert_edge`` per edge on
:class:`repro.testing.ReferenceNumpyAGDP`
(:class:`repro.testing.PerEdgeAGDP`).  The scripts are the feasible ones
of the backend-parity suites with some constraints made infeasible and
some edges malformed, so the comparison covers *which* edges are refused
and what is left behind by a refusal or a mid-step raise.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import AGDP, InconsistentSpecificationError, NumpyAGDP
from repro.testing import PerEdgeAGDP

from .test_agdp import agdp_scripts
from .test_agdp_numpy import heavy_churn_scripts

BACKENDS = pytest.mark.parametrize("backend", [AGDP, NumpyAGDP])


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
    for field in ("nodes_added", "nodes_killed", "edges_inserted", "max_nodes"):
        assert getattr(new.stats, field) == getattr(ref.stats, field), field


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
    dict_agdp, np_agdp = AGDP(source="s"), NumpyAGDP(source="s")
    for node, edges, kills in steps:
        dict_refused, np_refused = [], []
        dict_agdp.step(node, edges, kills, dict_refused)
        np_agdp.step(node, edges, kills, np_refused)
        assert [e.edge for e in np_refused] == [e.edge for e in dict_refused]
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
    agdp.step("b", [("a", "b", 1.0), ("b", "s", 1.0)])
    # col = d(., b) finite for {s, a}; row = d(b, .) finite for {s, a}
    assert agdp.stats.pair_updates == 4
    assert agdp.distance("a", "s") == 2.0
