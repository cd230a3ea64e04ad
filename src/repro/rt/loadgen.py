"""Async load generator for the serving tier: swarm, measure, archive.

:func:`run_serve_load` stands up a :class:`~repro.rt.cluster.LiveCluster`,
attaches a :class:`~repro.rt.serve.ServeNode` to each designated server
processor (as a crash companion: the serving endpoint dies and recovers
with its host node), and unleashes a swarm of
:class:`~repro.rt.client.ServeClient` probers with rotated failover
lists.  Everything - gossip, probes, replies, sheds - rides one
transport, so a :class:`~repro.sim.faults.FaultPlan` and crash schedule
stress the serving path exactly like the protocol path.

The result document is the cluster's :mod:`repro.sim.serialize` v2
document (it loads through :func:`~repro.sim.serialize.load_run`
unchanged) with one extra ``serving`` section carrying the tier's
scorecard: offered/served queries per second, shed rate by reason,
accepted-bound soundness counts, the p99 client error bound, failover
events and per-client re-convergence times after the first crash.
"""

from __future__ import annotations

import asyncio
import math
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.errors import SimulationError
from ..core.events import ProcessorId
from .client import AcceptedSample, ClientConfig, ServeClient
from .clock import ClockSource
from .cluster import ClusterConfig, LiveCluster, RtRunResult
from .serve import ServeConfig, ServeNode, serve_endpoint

__all__ = [
    "ServeLoadConfig",
    "ServeLoadResult",
    "percentile",
    "run_serve_load",
    "run_serve_load_sync",
]


def percentile(values: Sequence[float], q: float) -> Optional[float]:
    """Nearest-rank percentile (``q`` in [0, 100]).

    Empty input yields the documented ``None`` sentinel - never an
    exception - so scorecard math stays total even when a processor or
    client produced zero samples (crashed before its first estimate,
    shed on every probe, filtered down to nothing).  Consumers must
    treat ``None`` as "no evidence", not as zero.
    """
    if not values:
        return None
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


@dataclass(frozen=True)
class ServeLoadConfig:
    """One load-test scenario: a cluster, its servers, and a swarm."""

    cluster: ClusterConfig
    #: processors that run serving endpoints; default: every processor.
    #: Index 0 is every client's primary (modulo rotation).
    servers: Tuple[ProcessorId, ...] = ()
    serve: ServeConfig = field(default_factory=ServeConfig)
    #: swarm size; clients are named ``c0..cN-1``
    clients: int = 4
    #: template for every client; ``name``/``servers``/``seed`` are
    #: overridden per client, and failover lists are rotated per client
    #: so load spreads across the tier
    client_template: ClientConfig = field(
        default_factory=lambda: ClientConfig(name="c", servers=("unset",))
    )
    #: per-client hardware clocks, keyed by client name
    client_clocks: Dict[str, ClockSource] = field(default_factory=dict)
    #: seconds of cluster gossip before the swarm starts probing
    warmup: float = 0.5

    def __post_init__(self):
        if self.clients < 1:
            raise SimulationError(f"need at least one client, got {self.clients}")
        if self.warmup < 0:
            raise SimulationError(f"warmup must be non-negative, got {self.warmup}")
        for proc in self.servers:
            if proc not in self.cluster.processors:
                raise SimulationError(f"server {proc!r} is not a cluster processor")
        if len(set(self.servers)) != len(self.servers):
            raise SimulationError("duplicate server processors")
        for name in self.client_clocks:
            if name not in self.client_names:
                raise SimulationError(f"clock configured for unknown client {name!r}")

    @property
    def server_procs(self) -> Tuple[ProcessorId, ...]:
        return self.servers if self.servers else tuple(self.cluster.processors)

    @property
    def client_names(self) -> Tuple[str, ...]:
        return tuple(f"c{i}" for i in range(self.clients))

    def client_config(self, index: int) -> ClientConfig:
        """The concrete config of client ``index``: rotated failover list."""
        endpoints = [serve_endpoint(proc) for proc in self.server_procs]
        rotation = index % len(endpoints)
        rotated = tuple(endpoints[rotation:] + endpoints[:rotation])
        return replace(
            self.client_template,
            name=self.client_names[index],
            servers=rotated,
            seed=self.client_template.seed + index,
        )


@dataclass
class ServeLoadResult:
    """A finished load run: the cluster's evidence plus the tier's."""

    config: ServeLoadConfig
    cluster: RtRunResult
    servers: Dict[ProcessorId, ServeNode]
    clients: List[ServeClient]
    #: total run time on the shared time base
    elapsed: float
    aborted: bool = False

    # -- swarm-level metrics -----------------------------------------------------

    @property
    def accepted_samples(self) -> List[AcceptedSample]:
        return [sample for client in self.clients for sample in client.samples]

    @property
    def unsound_accepted(self) -> List[AcceptedSample]:
        return [s for s in self.accepted_samples if not s.sound]

    def offered_qps(self) -> float:
        probes = sum(client.stats.probes for client in self.clients)
        return probes / self.elapsed if self.elapsed > 0 else 0.0

    def served_qps(self) -> float:
        replies = sum(node.stats.replies for node in self.servers.values())
        return replies / self.elapsed if self.elapsed > 0 else 0.0

    def shed_rate(self) -> float:
        """Fraction of well-formed probes the tier answered with a shed."""
        probes = sum(node.stats.probes for node in self.servers.values())
        shed = sum(node.stats.shed_total for node in self.servers.values())
        return shed / probes if probes else 0.0

    def p99_error_bound(self) -> Optional[float]:
        """99th-percentile worst-case error over every accepted bound.

        ``None`` (the :func:`percentile` sentinel) when no client ever
        got a bound accepted - e.g. every probe shed or every server
        crashed before answering.
        """
        return percentile([s.error_bound for s in self.accepted_samples], 99.0)

    def failover_events(self) -> List[Tuple[float, str, ProcessorId, ProcessorId]]:
        events = [
            (rt, client.name, src, dst)
            for client in self.clients
            for rt, src, dst in client.failover_events
        ]
        events.sort()
        return events

    def reconvergence_times(self) -> Dict[str, float]:
        """Per client: crash -> first accepted bound afterwards (seconds).

        Measured from the first scheduled crash to each affected
        client's next accepted reply (from any server) - the outage a
        swarm member actually experienced, failover included.  ``inf``
        when a client never recovered; empty without a crash schedule.
        """
        if not self.config.cluster.crashes:
            return {}
        crash_at = min(crash.stop_at for crash in self.config.cluster.crashes)
        times: Dict[str, float] = {}
        for client in self.clients:
            after = [s.rt for s in client.samples if s.rt >= crash_at]
            times[client.name] = min(after) - crash_at if after else float("inf")
        return times

    def to_document(self) -> Dict:
        """The cluster's serialize-v2 document plus a ``serving`` section."""
        document = self.cluster.to_document()
        if self.aborted:
            document["partial"] = True
        reconv = self.reconvergence_times()
        document["serving"] = {
            "elapsed": self.elapsed,
            "clients": len(self.clients),
            "offered_qps": self.offered_qps(),
            "served_qps": self.served_qps(),
            "shed_rate": self.shed_rate(),
            "p99_error_bound": self.p99_error_bound(),
            "accepted": len(self.accepted_samples),
            "unsound_accepted": len(self.unsound_accepted),
            "failovers": [
                {"rt": rt, "client": client, "from": src, "to": dst}
                for rt, client, src, dst in self.failover_events()
            ],
            "reconvergence": {
                name: (value if math.isfinite(value) else None)
                for name, value in reconv.items()
            },
            "server_stats": {
                proc: node.stats.to_dict() for proc, node in sorted(self.servers.items())
            },
            "client_stats": {
                client.name: client.stats.to_dict() for client in self.clients
            },
        }
        return document


async def _wait_or_abort(delay: float, abort: Optional[asyncio.Event]) -> bool:
    """Sleep ``delay`` seconds; True if ``abort`` fired first."""
    if delay <= 0:
        return bool(abort is not None and abort.is_set())
    if abort is None:
        await asyncio.sleep(delay)
        return False
    try:
        await asyncio.wait_for(abort.wait(), timeout=delay)
        return True
    except asyncio.TimeoutError:
        return False


async def run_serve_load(
    config: ServeLoadConfig, *, abort: Optional[asyncio.Event] = None
) -> ServeLoadResult:
    """Run one serving-tier load test to completion (or abort).

    ``abort`` ends the run at the next period edge with whatever
    evidence exists; the document is then marked ``"partial": true``.
    """
    client_names = config.client_names
    extra_procs = tuple(serve_endpoint(p) for p in config.server_procs) + client_names
    extra_links = tuple(
        (name, serve_endpoint(proc))
        for name in client_names
        for proc in config.server_procs
    )
    live = LiveCluster(config.cluster, extra_procs=extra_procs, extra_links=extra_links)
    servers: Dict[ProcessorId, ServeNode] = {}
    for proc in config.server_procs:
        node = ServeNode(live.by_name[proc], live.transport, config.serve)
        servers[proc] = node
        live.attach_companion(proc, node)
    clients = [
        ServeClient(
            config.client_config(index),
            live.transport,
            live.time_base,
            clock=config.client_clocks.get(client_names[index]),
        )
        for index in range(config.clients)
    ]
    aborted = False
    try:
        await live.start()
        aborted = await _wait_or_abort(config.warmup, abort)
        if not aborted:
            for client in clients:
                await client.start()
            aborted = await live.run_sampling(abort)
    finally:
        for client in clients:
            await client.stop()
        # let in-flight replies drain before the books close
        await asyncio.sleep(0)
        elapsed = live.time_base.elapsed()
        await live.finish()
    return ServeLoadResult(
        config=config,
        cluster=live.result(aborted=aborted),
        servers=servers,
        clients=clients,
        elapsed=elapsed,
        aborted=aborted,
    )


def run_serve_load_sync(config: ServeLoadConfig) -> ServeLoadResult:
    """Blocking wrapper: run the load test on a fresh event loop."""
    return asyncio.run(run_serve_load(config))
