"""Sanity properties of the Hypothesis strategy library itself.

A strategy that silently generates degenerate inputs (disconnected
topologies, out-of-band rates, schedules that never deliver) would turn
every downstream property test vacuous, so the generators get their own
contract tests.
"""

from hypothesis import given
from hypothesis import strategies as st

from repro.sim.faults import BYZANTINE_MODES, FaultPlan
from repro.sim.schedule import Schedule
from repro.testing.strategies import (
    Topology,
    byzantine_processors,
    fault_plans,
    schedules,
    system_specs,
    topologies,
)


def _connected(topo: Topology) -> bool:
    adjacency = {i: set() for i in range(topo.n_procs)}
    for u, v in topo.edges:
        adjacency[u].add(v)
        adjacency[v].add(u)
    seen = {0}
    frontier = [0]
    while frontier:
        node = frontier.pop()
        for peer in adjacency[node]:
            if peer not in seen:
                seen.add(peer)
                frontier.append(peer)
    return len(seen) == topo.n_procs


@given(topologies())
def test_topologies_are_connected_and_simple(topo):
    assert _connected(topo)
    assert len(set(topo.edges)) == len(topo.edges)
    for u, v in topo.edges:
        assert u != v
        assert 0 <= u < topo.n_procs and 0 <= v < topo.n_procs


@given(system_specs())
def test_system_specs_are_well_formed(spec):
    assert spec.source in spec.drift
    for drift in spec.drift.values():
        assert 0 < drift.alpha <= 1 <= drift.beta


@given(schedules(lossy=True, tamper=True))
def test_schedules_are_valid_and_round_trip(schedule):
    # Schedule.__post_init__ validated ops/indices already; check the rest
    assert schedule.rates[0] == 1.0
    assert schedule.tamper is not None
    assert schedule.tamper.proc in schedule.names[1:]
    assert set(schedule.tamper.modes) <= BYZANTINE_MODES
    assert Schedule.from_json(schedule.to_json()) == schedule


@given(schedules())
def test_reliable_schedules_never_drop(schedule):
    assert not schedule.lossy
    assert all(op != "drop" for op, *_ in schedule.steps)


@given(st.data())
def test_byzantine_processors_target_a_non_source_liar(data):
    n = data.draw(st.integers(min_value=2, max_value=6))
    names = [f"q{i}" for i in range(n)]
    spec = data.draw(byzantine_processors(names[1:], duration=None))
    assert spec.proc in names[1:]
    assert 0 < spec.rate <= 1 and spec.magnitude > 0


@given(st.data())
def test_fault_plans_construct_valid_plans(data):
    names = ["s", "a", "b"]
    links = [("s", "a"), ("a", "b")]
    plan = data.draw(fault_plans(names, links, byzantine=True))
    assert isinstance(plan, FaultPlan)  # __post_init__ validated injections
    for injection in plan.injections:
        proc = getattr(injection, "proc", None)
        if proc is not None:
            assert proc != "s" or type(injection).__name__ not in (
                "CrashWindow",
                "ByzantineProcessor",
            )
