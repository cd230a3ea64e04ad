"""E8 benchmark - per-algorithm processing cost on identical traffic.

The width comparison (who is tighter) is the experiment's table, printed
once; the benchmark measures what each baseline estimator costs to run
over the same execution.  The optimal estimator's own cost - the practical
price of optimality - is what the layered benchmark measures end to end
(``python -m bench``, workload ``sim-line12-gossip``).
"""

import pytest

from repro.baselines import CristianCSA, DriftFreeFudgeCSA, NTPFilterCSA

from conftest import build_gossip_sim, print_experiment_once

FACTORIES = {
    "driftfree-fudge": lambda p, s: DriftFreeFudgeCSA(p, s, window=30.0),
    "cristian": lambda p, s: CristianCSA(p, s),
    "ntp": lambda p, s: NTPFilterCSA(p, s),
}


@pytest.mark.parametrize("channel", sorted(FACTORIES))
def test_estimator_run_cost(benchmark, channel, request):
    print_experiment_once(request, "e8-width-vs-baselines", duration=150.0)

    def run():
        sim = build_gossip_sim(
            topology="line",
            n=5,
            estimators={channel: FACTORIES[channel]},
            period=4.0,
        )
        sim.run_until(80.0)
        # include the cost of querying, which differs wildly per algorithm
        for proc in sim.network.processors:
            sim.estimator(proc, channel).estimate()
        return sim

    sim = benchmark(run)
    assert len(sim.trace) > 50
