"""Shared builders for the benchmark harness.

Each ``bench_e*``/``bench_a*`` module belongs to one DESIGN.md experiment:
it prints the experiment's rows (the "table") once per session and
benchmarks the primitive whose cost the corresponding paper claim is
about.  Whole simulated runs are timed by the layered benchmark
(``python -m bench``), not here.  Run with::

    pytest benchmarks/ --benchmark-only
"""

from __future__ import annotations

import pytest

from repro.core import EfficientCSA, FullInformationCSA
from repro.sim import Simulation, standard_network, topologies
from repro.sim.workloads import PeriodicGossip, RandomTraffic


def build_gossip_sim(
    *,
    topology="ring",
    n=5,
    seed=0,
    drift_ppm=200.0,
    period=4.0,
    estimators=None,
):
    """A ready-to-run gossip simulation (not yet executed)."""
    if topology == "ring":
        names, links = topologies.ring(n)
    elif topology == "line":
        names, links = topologies.line(n)
    elif topology == "star":
        names, links = topologies.star(n)
    else:
        raise ValueError(f"unknown topology {topology!r}")
    network = standard_network(names, links, seed=seed, drift_ppm=drift_ppm)
    sim = Simulation(network, seed=seed)
    for name, factory in (estimators or {}).items():
        sim.attach_estimators(name, factory)
    PeriodicGossip(period=period, seed=seed).install(sim)
    return sim


def print_experiment_once(request, name, **params):
    """Render an experiment's table once per pytest session."""
    key = f"_printed_{name}"
    cache = request.config
    if getattr(cache, key, False):
        return
    setattr(cache, key, True)
    from repro.experiments import get_experiment

    result = get_experiment(name)(**params)
    print()
    print(result.render())
    assert result.all_passed, f"{name} checks failed"
