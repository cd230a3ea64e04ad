"""Real-time runtime: EfficientCSA over real sockets and wall clocks.

The simulator (:mod:`repro.sim`) owns time and delivers messages by
fiat; this package runs the *same estimators* against reality - asyncio
transports, a versioned wire protocol, hardware-clock abstractions, and
node daemons - and emits evidence in the same format, so one analysis
pipeline serves both execution engines.

Layers (bottom up):

* :mod:`repro.rt.clock` - :class:`TimeBase` and :class:`ClockSource`:
  atomic ``(rt, lt)`` reads off real monotonic time, with skewed and
  drifting synthetic clocks that advertise honest drift specs.
* :mod:`repro.rt.wire` - length-prefixed, versioned JSON frames; decode
  never raises, malformed bytes become structured :class:`WireError`\\ s
  that feed the suspicion machinery.
* :mod:`repro.rt.transport` - named-endpoint datagram service: in-process
  :class:`LoopbackTransport`, real-socket :class:`UDPTransport`, and
  :class:`FaultMiddleware` applying simulator
  :class:`~repro.sim.faults.FaultPlan`\\ s to live traffic.
* :mod:`repro.rt.node` - the asyncio daemon: gossip, ack/retransmit
  (Sec 3.3), at-most-once delivery, crash/restart with durable state.
* :mod:`repro.rt.cluster` - N-node harness producing
  :mod:`repro.sim.serialize`-compatible run documents.
* :mod:`repro.rt.serve` / :mod:`repro.rt.client` - the Cristian serving
  tier: stateless probe/reply endpoints with admission control, load
  shedding, and sound degraded bounds; swarm clients with backoff and
  accrual-style failover.
* :mod:`repro.rt.loadgen` - the serving-tier load generator and its
  run-document scorecard.
* :mod:`repro.rt.strata` - the stratum hierarchy: federated multi-tier
  clusters (optionally spanning OS processes over UDP) with anchor
  delegation, crash-driven re-election, and gradient sync metrics.
* :mod:`repro.rt.cli` - ``repro-rt``, the one entry point: subcommands
  ``cluster``, ``serve`` and ``strata`` (plus the internal ``tier``
  child of ``strata --procs``) under one clean-death contract.
"""

from .client import (
    AcceptedSample,
    AccrualHealth,
    ClientConfig,
    ClientStats,
    ServeClient,
)

from .clock import (
    ClockSource,
    ModelClockSource,
    MonotonicClockSource,
    SkewedClockSource,
    TimeBase,
)
from .cluster import (
    ClusterConfig,
    CrashSchedule,
    JoinSchedule,
    LiveCluster,
    RtRunResult,
    build_spec,
    dump_rt_run,
    run_cluster,
    run_cluster_sync,
)
from .loadgen import (
    ServeLoadConfig,
    ServeLoadResult,
    run_serve_load,
    run_serve_load_sync,
)
from .node import LinkStats, Node, NodeConfig, NodeStats
from .serve import (
    ServeConfig,
    ServeNode,
    ServeStats,
    TokenBucket,
    serve_endpoint,
    serve_owner,
)
from .transport import FaultMiddleware, LoopbackTransport, Transport, UDPTransport
from .wire import (
    MAX_BODY_BYTES,
    WIRE_VERSION,
    DecodeResult,
    Frame,
    WireError,
    ack_frame,
    decode_frame,
    encode_frame,
    hello_frame,
    join_frame,
    probe_frame,
    reply_frame,
    shed_frame,
    sync_frame,
)

__all__ = [
    "ClockSource",
    "ModelClockSource",
    "MonotonicClockSource",
    "SkewedClockSource",
    "TimeBase",
    "ClusterConfig",
    "CrashSchedule",
    "JoinSchedule",
    "LiveCluster",
    "RtRunResult",
    "build_spec",
    "dump_rt_run",
    "run_cluster",
    "run_cluster_sync",
    "AcceptedSample",
    "AccrualHealth",
    "ClientConfig",
    "ClientStats",
    "ServeClient",
    "ServeConfig",
    "ServeNode",
    "ServeStats",
    "TokenBucket",
    "serve_endpoint",
    "serve_owner",
    "ServeLoadConfig",
    "ServeLoadResult",
    "run_serve_load",
    "run_serve_load_sync",
    "LinkStats",
    "Node",
    "NodeConfig",
    "NodeStats",
    "FaultMiddleware",
    "LoopbackTransport",
    "Transport",
    "UDPTransport",
    "MAX_BODY_BYTES",
    "WIRE_VERSION",
    "DecodeResult",
    "Frame",
    "WireError",
    "ack_frame",
    "decode_frame",
    "encode_frame",
    "hello_frame",
    "join_frame",
    "probe_frame",
    "reply_frame",
    "shed_frame",
    "sync_frame",
]
