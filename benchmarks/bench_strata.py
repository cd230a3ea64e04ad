"""Stratum hierarchy benchmarks - delegation hot paths.

Two costs matter for the federation's scaling story:

* the **delegation answer path** (decode ``dreq`` + source the bound +
  encode ``deleg``), which an anchor pays per downstream border per
  ``sync_period`` - low-rate, but it rides the core nodes' receive
  path, so it must stay cheap;
* ``compose_delegated``, which every downstream node pays on *every*
  internal sample to derive its external bound - it runs orders of
  magnitude more often than the network path, so the perf gate pins it
  to stay well under the answer path's cost (the ``bench-compare``
  speedup floor).

``test_delegation_reply_throughput`` is the committed-baseline perf
gate for the subsystem; a regression means anchors serve fewer borders
per core.
"""

import pytest

from repro.core.intervals import ClockBound
from repro.core.specs import DriftSpec
from repro.rt.clock import MonotonicClockSource, TimeBase
from repro.rt.cluster import ClusterConfig, build_spec
from repro.rt.node import Node, NodeConfig
from repro.rt.serve import ServeConfig
from repro.rt.strata import DelegatedBound, DelegationServer, compose_delegated
from repro.rt.transport import LoopbackTransport
from repro.rt.wire import decode_frame, dreq_frame, encode_frame


def _delegation_rig(bound_source):
    """A delegation server over a primed node, no event loop.

    The bucket is sized so the tight loop measures answers, not sheds.
    """
    config = ClusterConfig(
        processors=("c0", "c1", "c2"),
        links=(("c0", "c1"), ("c1", "c2")),
    )
    node = Node(
        NodeConfig(proc="c1", spec=build_spec(config)),
        LoopbackTransport(),
        clock=MonotonicClockSource(),
        time_base=TimeBase(),
    )
    return DelegationServer(
        node,
        stratum=1,
        config=ServeConfig(bucket_rate=1e9, bucket_burst=1e9),
        bound_source=bound_source,
    )


def test_delegation_reply_throughput(benchmark):
    """decode + bound lookup + encode for one answered ``dreq``."""
    server = _delegation_rig(lambda: (ClockBound(5.0, 5.002), False, 0.05))
    dreq = encode_frame(dreq_frame("t1n0!anchor", server.endpoint, 7))

    result = benchmark(server.handle_probe_bytes, dreq)

    frame = decode_frame(result).frame
    assert frame.type == "deleg" and frame.nonce == 7
    assert server.stats.replies > 0 and server.stats.shed_total == 0


def test_delegation_shed_fast_path(benchmark):
    """An unsynced anchor must refuse cheaply (liveness without progress)."""
    server = _delegation_rig(lambda: None)
    dreq = encode_frame(dreq_frame("t1n0!anchor", server.endpoint, 3))

    result = benchmark(server.handle_probe_bytes, dreq)

    frame = decode_frame(result).frame
    assert frame.type == "shed" and frame.reason == "unsynced"


def test_compose_delegated_throughput(benchmark):
    """The per-sample external-bound composition (pure interval math)."""
    delegated = DelegatedBound(
        bound=ClockBound(10.0, 10.003),
        anchor_lt=9.5,
        anchor_rt=9.5,
        hops=2,
        stratum=1,
        anchor="c1",
        degraded=False,
    )
    internal = ClockBound(10.2, 10.204)
    drift = DriftSpec(alpha=1.0 - 200e-6, beta=1.0 + 200e-6)

    # pure interval math at ~1us per call: measure 200 compositions per
    # timing so the per-op mean is above timer resolution and the
    # bench-compare speedup floor against the reply path is meaningful
    result = benchmark.pedantic(
        compose_delegated, args=(internal, delegated, drift),
        iterations=200, rounds=100, warmup_rounds=2,
    )

    assert result.is_bounded and result.lower <= result.upper
