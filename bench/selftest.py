"""Self-test of the benchmark itself.

Run as ``python -m pytest bench/selftest.py -q`` from the repo root.  Not
part of tier-1 (whose ``testpaths`` is ``tests``): it spawns real workers.
"""

from __future__ import annotations

import json
import os
import re

import pytest

from bench import ROOT, runner, spec
from bench import trace as trace_module
from bench.compare import compare, judge
from bench.trace import HOOKS, Tracer

TINY_SECONDS = 0.3
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def test_benchmark_json_is_the_declared_surface(declared):
    assert declared == spec.benchmark_json()
    assert set(declared) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    names = [w["name"] for w in declared["workloads"]]
    names += [m["name"] for m in declared["end_to_end"] + declared["per_layer"]]
    assert len(names) == len(set(names)) and all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"]) for m in declared["end_to_end"] + declared["per_layer"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in declared["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in declared["end_to_end"])
    assert len(declared["per_layer"]) == 77
    setup = [m for m in declared["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"] for m in declared["end_to_end"])}]


@pytest.mark.parametrize("workload", list(spec.WORKLOADS))
def test_every_workload_emits_exactly_the_declared_names(workload, declared, monkeypatch):
    monkeypatch.setattr(runner, "SETUP_REPEATS", 1)
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        line = runner.contract_line(workload, 0, TINY_SECONDS, trace)
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] and line["attempted"] >= 1 and line["failed"] == 0
        assert list(line["metrics"]) == [m["name"] for m in declared[key]]
        for metric in declared[key]:
            value = line["metrics"][metric["name"]]
            assert value["unit"] == metric["unit"]
            assert isinstance(value["value"], (int, float))
        if trace:
            assert line["metrics"]["trace.missing_hooks"]["value"] == 0
            assert line["metrics"]["trace.overhead_ratio"]["value"] > 0
        else:
            assert all(v["value"] > 0 for v in line["metrics"].values())


# -- tracer arithmetic on synthetic spans ------------------------------------------


@pytest.fixture
def ticking(monkeypatch):
    """A tracer on a fake clock that advances 1.0 per read."""
    ticks = iter(range(10_000))
    monkeypatch.setattr(trace_module, "_clock", lambda: float(next(ticks)))
    tracer = Tracer()
    tracer.enabled = True
    return tracer


def test_self_time_excludes_children_and_siblings_add_up(ticking):
    tracer = ticking
    leaf = tracer.wrap_call(lambda: None, "core.live", "observe")
    middle = tracer.wrap_call(lambda: (leaf(), leaf()), "core.csa", "on_receive")
    with tracer.root("sim.engine", "run_until"):
        middle()
        leaf()
    # clock reads: root 0, middle 1, leaf 2-3, leaf 4-5, middle 6, leaf 7-8, root 9
    ledger = tracer.ledger(window_s=123.0)  # ignored: a root span was recorded
    assert ledger["core.live.self_s"] == 3.0 and ledger["core.live.calls"] == 3
    assert ledger["core.csa.self_s"] == 5.0 - 2.0 and ledger["core.csa.calls"] == 1
    assert ledger["sim.engine.self_s"] == 9.0 - 5.0 - 1.0 and ledger["sim.engine.calls"] == 0
    shares = [v for k, v in ledger.items() if k.endswith(".share")]
    assert sum(shares) == pytest.approx(1.0) and ledger["trace.untraced_share"] == 0.0
    # one operation per call made directly under the root; children inherit it
    assert list(tracer.op) == [-1, 0, 0, 0, 1]


def test_same_layer_nesting_is_not_counted_twice(ticking):
    tracer = ticking
    add_node = tracer.wrap_call(lambda: None, "core.agdp", "add_node")
    step = tracer.wrap_call(lambda: add_node(), "core.agdp", "step")
    step_batch = tracer.wrap_call(lambda: (step(), step()), "core.agdp", "step_batch")
    step_batch()
    assert len(tracer.start) == 1  # only the entry from outside is a span
    ledger = tracer.ledger(window_s=2.0)
    assert ledger["core.agdp.calls"] == 1 and ledger["core.agdp.self_s"] == 1.0
    assert ledger["core.agdp.share"] == 0.5 and ledger["trace.untraced_share"] == 0.5


def test_generator_time_lands_in_the_generators_layer(ticking):
    tracer = ticking
    observe = tracer.wrap_call(lambda: None, "core.live", "observe")

    class Solver:
        stats = None

        def step_batch(self, steps):
            return [item for item in steps]

    def steps():
        for i in range(2):
            observe()
            yield i

    Solver.step_batch = tracer.wrap_stats(Solver.step_batch, "core.agdp", "step_batch")
    assert Solver().step_batch(steps()) == [0, 1]
    by_name = tracer.durations_by_name()
    assert len(by_name["core.csa:reported_steps"]) == 3  # two items + exhaustion
    assert len(by_name["core.live:observe"]) == 2
    ledger = tracer.ledger(window_s=100.0)
    assert ledger["core.agdp.calls"] == 1 and ledger["core.csa.calls"] == 3


def test_a_bogus_hook_target_degrades_to_null_not_an_exception():
    hooks = [list(h) for h in HOOKS] + [
        ["core.agdp", "repro.core.agdp_numpy:NumpyAGDP", ["no_such_method"], "stats"],
        ["rt.serve", "repro.rt.no_such_module:Gone", ["handle"], "call"],
    ]
    result = runner.run_worker("sim-line12-gossip", 0, TINY_SECONDS, trace=True, hooks=hooks)
    assert result["correct"]
    assert result["missing_hooks"] == [
        "core.agdp:repro.core.agdp_numpy:NumpyAGDP.no_such_method",
        "rt.serve:repro.rt.no_such_module:Gone.handle",
    ]
    layers = result["layers"]
    assert layers["trace.missing_hooks"] == 2
    for name, value in layers.items():
        broken = name.startswith(("core.agdp.", "rt.serve."))
        assert (value is None) == (broken or name == "trace.overhead_ratio"), name
    assert layers["core.csa.self_s"] > 0


# -- compare ------------------------------------------------------------------------


def _side(*values):
    ordered = sorted(values)
    return {"median": ordered[len(ordered) // 2], "min": ordered[0], "max": ordered[-1]}


def test_compare_verdicts():
    rate = next(m for m in spec.END_TO_END if m.name == "msgs_per_s")  # higher, 0.10
    cost = next(m for m in spec.END_TO_END if m.name == "cpu_ms_per_exchange")  # lower, 0.10
    assert judge(rate, _side(100, 101, 102), _side(95, 96, 97), 0.10)[0] == "ok"
    assert judge(rate, _side(100, 101, 102), _side(80, 81, 82), 0.10)[0] == "worse"
    assert judge(cost, _side(1.0, 1.01, 1.02), _side(1.2, 1.21, 1.22), 0.10)[0] == "worse"
    assert judge(cost, _side(1.0, 1.01, 1.02), _side(0.5, 0.51, 0.52), 0.10)[0] == "ok"
    # spread beyond the bound with overlapping ranges: cannot say ok
    assert judge(cost, _side(1.0, 1.1, 1.3), _side(0.9, 1.15, 1.25), 0.10)[0] == "unresolved"
    # ... unless every run of one side beats every run of the other
    assert judge(cost, _side(1.0, 1.1, 1.3), _side(0.5, 0.6, 0.7), 0.10)[0] == "ok"
    assert judge(cost, _side(1.0, 1.1, 1.3), _side(1.5, 1.6, 1.9), 0.10)[0] == "worse"
    # setup_s: the absolute floor absorbs a small slip on a small base
    setup = next(m for m in spec.END_TO_END if m.name == "setup_s")
    assert judge(setup, _side(0.10, 0.10, 0.10), _side(0.16, 0.16, 0.16), setup.bound)[0] == "ok"
    assert judge(setup, _side(0.10, 0.10, 0.10), _side(0.20, 0.20, 0.20), setup.bound)[0] == "worse"
    # fail_ratio: absolute bound 0
    assert judge(spec.FAIL_RATIO, _side(0.0), _side(0.0), 0.0)[0] == "ok"
    assert judge(spec.FAIL_RATIO, _side(0.0), _side(0.001), 0.0)[0] == "worse"


def test_compare_holds_sim_width_to_the_same_seed_bound():
    def doc(width, digest):
        metrics = {m.name: _side(1.0) for m in spec.END_TO_END + [spec.FAIL_RATIO]}
        metrics["width_mean_s"] = _side(width)
        run = {"seed": 0, "seconds": 10, "metrics": metrics, "digest": digest, "counters": {}}
        return {"workloads": {"sim-line12-gossip": run, "rt-loopback-mixed": run}}

    rows, notes = compare(doc(0.0650, "aa"), doc(0.0651, "bb"))
    verdict = {(r["workload"], r["metric"]): r["verdict"] for r in rows}
    assert verdict[("sim-line12-gossip", "width_mean_s")] == "worse"  # 1e-9 at equal seeds
    # only the metrics the issue names for a workload are judged
    assert ("rt-loopback-mixed", "width_mean_s") not in verdict
    assert verdict[("rt-loopback-mixed", "cpu_ms_per_exchange")] == "ok"
    assert notes == ["sim-line12-gossip: digest differs"]


# -- the seed reaches the generators ---------------------------------------------------


def test_same_seed_same_digest_other_seed_other_digest():
    first = runner.run_worker("sim-churn-hardened", 0, TINY_SECONDS)
    again = runner.run_worker("sim-churn-hardened", 0, TINY_SECONDS)
    other = runner.run_worker("sim-churn-hardened", 1, TINY_SECONDS)
    assert first["digest"] == again["digest"] and first["counters"] == again["counters"]
    assert other["digest"] != first["digest"]
    summary = runner.aggregate("sim-churn-hardened", [first, other])
    assert not summary["checks"]["repeats_identical"] and not summary["correct"]
