"""E4 benchmark - AGDP per-insertion cost scaling (Lemma 3.5).

The paper's bound: O(L^2) time per edge insertion at L live nodes.  We
benchmark a steady-state AGDP workload at several live-set sizes; the
timing series should grow ~quadratically in L (the machine-independent
pair-update counters are asserted by the experiment itself, printed once).
"""

import pytest

from repro.core import NumpyAGDP
from repro.experiments.e4_agdp import steady_state_agdp

from conftest import print_experiment_once

SIZES = [8, 16, 32, 64]


@pytest.mark.parametrize("live", SIZES)
def test_agdp_steady_state_insertions(benchmark, live, request):
    print_experiment_once(
        request, "e4-agdp-cost", live_sizes=(8, 16, 32), steps=60
    )
    result = benchmark(steady_state_agdp, live, 60, degree=3, seed=1)
    # sanity on the benchmarked object: the live target was respected
    assert len(result) <= live + 2
    per_insert = result.stats.pair_updates / result.stats.edges_inserted
    # the L^2 envelope with a generous constant
    assert per_insert <= 4 * (live + 2) ** 2


# what the estimator's own steps look like, which ``steady_state_agdp``
# (three random peers per node) is not: every event carries the drift pair
# to its processor's previous point and kills it; a receive adds the
# transit pair to the send it answers
DRIFT = 2e-4  # (beta - 1) * delta = (1 - alpha) * delta, events one time unit apart
TIMELINE_EVENTS = 512


def _timelines(live):
    """``live`` processors' current points, each one drift pair off the source."""
    agdp = NumpyAGDP(source=("p0", 0))
    heads = [("p0", 0)]
    for proc in range(1, live):
        head = (f"p{proc}", 0)
        agdp.step(head, [(("p0", 0), head, 0.5), (head, ("p0", 0), 0.5)])
        heads.append(head)
    return agdp, heads


def _advance(agdp, heads, proc, send=None):
    """One event on ``proc``'s timeline; a receive when given its ``send``."""
    prev = heads[proc]
    head = heads[proc] = (prev[0], prev[1] + 1)
    edges = [(prev, head, DRIFT), (head, prev, DRIFT)]
    if send is not None:
        edges += [(send, head, 0.25), (head, send, 0.75)]  # transit in [0.25, 1.25]
    agdp.step(head, edges, [prev])
    return head


def timeline_chain(live):
    """Sends and internal events only: single-peer steps, each killing its peer."""
    agdp, heads = _timelines(live)
    for event in range(TIMELINE_EVENTS):
        _advance(agdp, heads, 1 + event % (live - 1))
    return agdp


def send_receive_mix(live):
    """Alternating sends (one peer) and the receives that answer them (two);
    the send stays live as its processor's current point."""
    agdp, heads = _timelines(live)
    for event in range(TIMELINE_EVENTS // 2):
        send = _advance(agdp, heads, 1 + event % (live - 1))
        _advance(agdp, heads, 1 + (event + 1) % (live - 1), send)
    return agdp


@pytest.mark.parametrize("live", [16, 64])
def test_agdp_timeline_chain(benchmark, live):
    agdp = benchmark(timeline_chain, live)
    assert len(agdp) == live
    assert agdp.stats.pair_updates == 0  # no step had a second peer
    assert agdp.stats.max_nodes == live  # every event took over its peer's slot


@pytest.mark.parametrize("live", [16, 64])
def test_agdp_send_receive_mix(benchmark, live):
    agdp = benchmark(send_receive_mix, live)
    assert len(agdp) == live
    # only the receives close, each over the live nodes it found
    assert 0 < agdp.stats.pair_updates <= TIMELINE_EVENTS // 2 * live**2


@pytest.mark.parametrize("live", [16, 64])
def test_agdp_closure(benchmark, live):
    """One closure as a receive pays it, over whole rows: with the live set
    one short of the capacity an ``m x m`` view of the matrix would not be
    contiguous (numpy then runs ``m`` inner loops of ``m``), the ``m x
    capacity`` block of rows is."""
    agdp, heads = _timelines(live)
    agdp.kill(heads[-1])
    m = len(agdp)
    assert m == live - 1 < agdp._capacity
    col = agdp._matrix[:m, 1] + 0.25
    row = agdp._matrix[1, :m] + 0.75
    benchmark(agdp._close, m, col, row)
    # the operands _close hands to numpy
    assert agdp._matrix[:m].flags.c_contiguous
    assert agdp._scratch[:m].flags.c_contiguous
    assert agdp._padded.shape == (agdp._capacity,)
    assert agdp.distance(heads[1], heads[2]) == 1.0  # through the source, untouched


# the edge-insertion speedup gate: `make bench-compare` asserts the
# compacted numpy backend beats dict by >= 2x at live >= 128 (these ids
# are referenced by the Makefile's --assert-speedup flags)
COMPARISON = [
    pytest.param(live, backend, id=f"{live}-{backend}")
    for live in (96, 128)
    for backend in ("dict", "numpy")
]


@pytest.mark.parametrize("live,backend", COMPARISON)
def test_agdp_backend_comparison(benchmark, live, backend):
    """Backend shoot-out at large live-set sizes.

    ``steps = live + 32`` so the workload actually reaches the live target
    and spends a steady-state phase there (pure pool growth would cap the
    active block well below ``live``).  The dict backend gets pinned
    rounds (it runs hundreds of ms per call; calibration would make the
    suite crawl) while the numpy backend uses normal calibration - three
    rounds of a ~5 ms function is all jitter.
    """
    args = (live, live + 32)
    kwargs = dict(degree=3, seed=1, backend=backend)
    if backend == "dict":
        result = benchmark.pedantic(
            steady_state_agdp, args=args, kwargs=kwargs, rounds=3, iterations=1
        )
    else:
        result = benchmark(steady_state_agdp, *args, **kwargs)
    assert len(result) <= live + 2
