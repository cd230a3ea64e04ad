"""E1 benchmark - cost of optimal synchronization (Theorem 2.1 / Sec 3).

Benchmarks the from-scratch oracle computation (full view + Bellman-Ford)
on a gossip execution - the per-query price the AGDP machinery amortises
away.  What the efficient CSA itself costs on such a run is measured end
to end by the layered benchmark (``python -m bench``, workload
``sim-line12-gossip``).  The experiment table (soundness, equality,
tightness checks) is printed once.
"""

from repro.core import EfficientCSA, build_sync_graph, external_bounds

from conftest import build_gossip_sim, print_experiment_once


def run_with_efficient_csa():
    sim = build_gossip_sim(
        topology="ring",
        n=5,
        estimators={"efficient": lambda p, s: EfficientCSA(p, s)},
    )
    sim.run_until(60.0)
    return sim


def test_oracle_from_scratch_query(benchmark, request):
    """Price of one optimal query recomputed from the whole view - the
    baseline cost the AGDP machinery amortises away."""
    print_experiment_once(request, "e1-optimality", duration=40.0)
    sim = run_with_efficient_csa()
    view = sim.trace.global_view()
    spec = sim.spec
    point = view.last_event("p3").eid

    def query():
        graph = build_sync_graph(view, spec)
        return external_bounds(view, spec, point, graph)

    bound = benchmark(query)
    assert bound.is_bounded
