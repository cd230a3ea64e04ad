"""Micro-benchmarks of the core data structures.

Not tied to one experiment: these size the primitive costs that the
experiment-level numbers are built from - view bookkeeping, sync-graph
construction, shortest paths on harvested views, payload filtering.
"""

import pytest

from repro.core import (
    EfficientCSA,
    Event,
    EventId,
    EventKind,
    View,
    bellman_ford_from,
    build_sync_graph,
    external_bounds,
    extremal_execution,
    source_point,
)
from repro.core.history import HistoryModule
from repro.sim import run_workload, standard_network, topologies
from repro.sim.workloads import PeriodicGossip


@pytest.fixture(scope="module")
def harvested():
    names, links = topologies.ring(6)
    network = standard_network(names, links, seed=17, drift_ppm=200)
    result = run_workload(
        network,
        PeriodicGossip(period=4.0, seed=17),
        {"efficient": lambda p, s: EfficientCSA(p, s)},
        duration=120.0,
        seed=17,
    )
    view = result.trace.global_view()
    return result, view, network.spec


def test_view_rebuild(benchmark, harvested):
    result, view, _spec = harvested

    def rebuild():
        fresh = View()
        for record in result.trace:
            fresh.add(record.event)
        return fresh

    rebuilt = benchmark(rebuild)
    assert len(rebuilt) == len(view)


def test_view_from_point(benchmark, harvested):
    _result, view, _spec = harvested
    point = view.last_event("p3").eid
    sub = benchmark(view.view_from, point)
    assert point in sub


def test_sync_graph_build(benchmark, harvested):
    _result, view, spec = harvested
    graph = benchmark(build_sync_graph, view, spec)
    assert len(graph) == len(view)


def test_bellman_ford_on_view(benchmark, harvested):
    _result, view, spec = harvested
    graph = build_sync_graph(view, spec)
    start = view.last_event("p3").eid
    dist = benchmark(bellman_ford_from, graph, start)
    assert dist[start] == 0.0


def test_external_bounds_query(benchmark, harvested):
    _result, view, spec = harvested
    graph = build_sync_graph(view, spec)
    point = view.last_event("p4").eid
    bound = benchmark(external_bounds, view, spec, point, graph)
    assert bound.is_bounded


def test_extremal_execution_build(benchmark, harvested):
    _result, view, spec = harvested
    graph = build_sync_graph(view, spec)
    point = view.last_event("p2").eid
    sp = source_point(view, spec)
    rt = benchmark(extremal_execution, view, spec, point, sp, "upper", graph)
    assert len(rt) == len(view)


def test_history_gossip_rounds(benchmark):
    """Full-mesh history gossip: sends must cost O(|payload|), not O(|H_v|).

    Eight processors, each round every processor records an internal event
    then sends to every neighbor in turn (reliable mode).  This is the hot
    path the pending index optimises: with the old full-buffer scan the
    cost per send grew with the buffer, independent of what the neighbor
    actually lacked.
    """
    procs = [f"p{i}" for i in range(8)]

    def gossip(rounds=12):
        modules = {
            p: HistoryModule(p, [q for q in procs if q != p]) for p in procs
        }
        seq = {p: 0 for p in procs}
        lt = 0.0
        for _ in range(rounds):
            for p in procs:
                lt += 1.0
                modules[p].record_local(
                    Event(eid=EventId(p, seq[p]), lt=lt, kind=EventKind.INTERNAL)
                )
                seq[p] += 1
                for q in procs:
                    if q == p:
                        continue
                    payload, _token = modules[p].prepare_payload(q)
                    modules[q].ingest_payload(p, payload)
        return modules

    modules = benchmark(gossip)
    # full mesh: every event reached every processor within its round
    assert all(
        m.known_seq(q) == 11 for m in modules.values() for q in procs
    )
