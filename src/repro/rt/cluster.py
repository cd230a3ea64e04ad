"""Cluster harness: launch, sample, crash, and archive N live nodes.

:func:`run_cluster` stands up one :class:`~repro.rt.node.Node` per
configured processor on a shared transport (in-process loopback or real
UDP sockets), lets them gossip for ``duration`` seconds of wall time,
samples every node's :meth:`~repro.rt.node.Node.estimate_now` on a fixed
period, optionally injects a :class:`~repro.sim.faults.FaultPlan` through
:class:`~repro.rt.transport.FaultMiddleware` and crash/restart schedules
through :meth:`Node.stop`/:meth:`Node.start`, and finally merges every
node's local event log into one :class:`~repro.sim.trace.ExecutionTrace`.

The result is deliberately shaped like the simulator's
:class:`~repro.sim.runner.RunResult`: same sample records, same trace
type, and :meth:`RtRunResult.to_document` emits the exact
:mod:`repro.sim.serialize` version-2 document, so an archived live run
loads through :func:`~repro.sim.serialize.load_run` and flows into the
same oracles, claim checkers, and analysis CLI as a simulated one.  That
is the parity story of this subsystem: two execution engines, one
evidence format.

The source processor's clock is pinned to
:class:`~repro.rt.clock.MonotonicClockSource` - the source *defines*
real time, so sample truths are the shared time base's elapsed reading.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..core.errors import SimulationError
from ..core.events import ProcessorId
from ..core.specs import DriftSpec, SystemSpec, TransitSpec
from ..sim.faults import FaultPlan, RetransmitPolicy
from ..sim.runner import EstimateSample
from ..sim.serialize import (
    FORMAT_VERSION,
    samples_to_dicts,
    spec_to_dict,
    trace_to_dict,
)
from ..sim.trace import ExecutionTrace
from .clock import ClockSource, MonotonicClockSource, TimeBase
from .node import Node, NodeConfig, NodeStats
from .transport import Transport
from .wire import WIRE_CODECS

__all__ = [
    "CrashSchedule",
    "JoinSchedule",
    "ClusterConfig",
    "LiveCluster",
    "RtRunResult",
    "build_spec",
    "run_cluster",
    "run_cluster_sync",
    "dump_rt_run",
]


@dataclass(frozen=True)
class CrashSchedule:
    """Fail-stop ``proc`` at ``stop_at`` (elapsed s); restart at ``restart_at``."""

    proc: ProcessorId
    stop_at: float
    restart_at: Optional[float] = None

    def __post_init__(self):
        if self.stop_at < 0:
            raise SimulationError(f"stop_at must be non-negative, got {self.stop_at}")
        if self.restart_at is not None and self.restart_at <= self.stop_at:
            raise SimulationError("restart_at must come after stop_at")


@dataclass(frozen=True)
class JoinSchedule:
    """Hold ``proc`` out of the cluster until ``at`` (elapsed s), then start
    it with ``sponsor`` as its bootstrap neighbor."""

    proc: ProcessorId
    at: float
    sponsor: ProcessorId

    def __post_init__(self):
        if self.at < 0:
            raise SimulationError(f"join time must be non-negative, got {self.at}")
        if self.sponsor == self.proc:
            raise SimulationError(f"{self.proc!r} cannot sponsor itself")


@dataclass(frozen=True)
class ClusterConfig:
    """Everything needed to stand up one live cluster."""

    processors: Tuple[ProcessorId, ...]
    links: Tuple[Tuple[ProcessorId, ProcessorId], ...]
    source: Optional[ProcessorId] = None  # default: first processor
    duration: float = 3.0
    gossip_period: float = 0.25
    sample_period: float = 0.25
    #: advertised per-direction transit bounds (real networks: lower 0)
    transit: TransitSpec = field(default_factory=TransitSpec)
    #: per-processor hardware clocks; missing entries get a monotonic clock
    clocks: Mapping[ProcessorId, ClockSource] = field(default_factory=dict)
    retransmit: RetransmitPolicy = field(default_factory=RetransmitPolicy)
    transport: str = "loopback"  # or "udp"
    #: loopback-only delivery delay/jitter
    loopback_delay: float = 0.0
    loopback_jitter: float = 0.0
    #: live fault injection through FaultMiddleware
    faults: Optional[FaultPlan] = None
    crashes: Tuple[CrashSchedule, ...] = ()
    #: late joiners: held out until their join time, then sponsored in
    joins: Tuple[JoinSchedule, ...] = ()
    gossip_jitter: float = 0.1
    seed: int = 0
    #: default wire codec for every node ("binary" self-negotiates down
    #: to JSON per peer, so mixing is always safe)
    codec: str = "binary"
    #: per-processor codec overrides, e.g. one legacy JSON node in an
    #: otherwise binary cluster
    codecs: Mapping[ProcessorId, str] = field(default_factory=dict)

    def __post_init__(self):
        if self.codec not in WIRE_CODECS:
            raise SimulationError(f"unknown wire codec {self.codec!r}")
        for proc, codec in self.codecs.items():
            if proc not in self.processors:
                raise SimulationError(f"codec configured for unknown processor {proc!r}")
            if codec not in WIRE_CODECS:
                raise SimulationError(f"unknown wire codec {codec!r} for {proc!r}")
        if len(self.processors) < 2:
            raise SimulationError("a cluster needs at least two processors")
        if self.transport not in ("loopback", "udp"):
            raise SimulationError(f"unknown transport kind {self.transport!r}")
        if self.duration <= 0 or self.sample_period <= 0:
            raise SimulationError("duration and sample_period must be positive")
        src = self.source_proc
        clock = self.clocks.get(src)
        if clock is not None and not isinstance(clock, MonotonicClockSource):
            raise SimulationError(
                f"the source {src!r} defines real time; its clock must be monotonic"
            )
        for proc in self.clocks:
            if proc not in self.processors:
                raise SimulationError(f"clock configured for unknown processor {proc!r}")
        for crash in self.crashes:
            if crash.proc == src:
                raise SimulationError("crashing the source leaves truth undefined")
            if crash.proc not in self.processors:
                raise SimulationError(f"crash schedule names unknown {crash.proc!r}")
        joiners = set()
        links = {tuple(sorted(edge)) for edge in self.links}
        for join in self.joins:
            if join.proc == src:
                raise SimulationError("the source cannot be a late joiner")
            for name in (join.proc, join.sponsor):
                if name not in self.processors:
                    raise SimulationError(f"join schedule names unknown {name!r}")
            if tuple(sorted((join.proc, join.sponsor))) not in links:
                raise SimulationError(
                    f"sponsor {join.sponsor!r} is not a neighbor of {join.proc!r}"
                )
            if join.proc in joiners:
                raise SimulationError(f"{join.proc!r} has two join schedules")
            joiners.add(join.proc)

    @property
    def source_proc(self) -> ProcessorId:
        return self.source if self.source is not None else self.processors[0]

    def clock_for(self, proc: ProcessorId) -> ClockSource:
        clock = self.clocks.get(proc)
        return clock if clock is not None else MonotonicClockSource()

    def codec_for(self, proc: ProcessorId) -> str:
        return self.codecs.get(proc, self.codec)


def build_spec(config: ClusterConfig) -> SystemSpec:
    """The advertised :class:`SystemSpec` of a cluster: clocks tell the truth.

    Each processor advertises exactly its configured clock's drift band,
    so every recorded execution is in-spec by construction and
    Theorem 2.1's soundness/optimality preconditions hold.
    """
    drift: Dict[ProcessorId, DriftSpec] = {
        proc: config.clock_for(proc).advertised for proc in config.processors
    }
    return SystemSpec.build(
        source=config.source_proc,
        processors=config.processors,
        links=config.links,
        drift=drift,
        default_transit=config.transit,
    )


@dataclass
class RtRunResult:
    """A finished live run, shaped like the simulator's RunResult."""

    spec: SystemSpec
    trace: ExecutionTrace
    samples: List[EstimateSample]
    #: final per-node snapshots, keyed by processor
    nodes: Dict[ProcessorId, NodeStats]
    messages_sent: int
    messages_lost: int
    #: serialize-v2 ``links`` rows: per-directed-link sent/lost/duplicated,
    #: plus the extra ``unencodable`` key (syncs lost unsent over the cap)
    link_rows: List[Dict]
    #: the run was cut short (SIGINT / --timeout); evidence is partial
    aborted: bool = False
    #: per-node configured wire codec (what each node *advertises*; actual
    #: per-link traffic is whatever negotiation settled on)
    node_codecs: Dict[ProcessorId, str] = field(default_factory=dict)

    def soundness_violations(self) -> List[EstimateSample]:
        return [s for s in self.samples if not s.sound]

    def samples_for(
        self, proc: ProcessorId, channel: Optional[str] = None
    ) -> List[EstimateSample]:
        return [
            s
            for s in self.samples
            if s.proc == proc and (channel is None or s.channel == channel)
        ]

    def recoveries(self) -> Dict[ProcessorId, int]:
        """Per node: self-stabilization recoveries its estimator performed."""
        return {
            proc: stats.recoveries
            for proc, stats in self.nodes.items()
            if stats.recoveries
        }

    def reconvergence_after(
        self, rt0: float, proc: ProcessorId, channel: Optional[str] = None
    ) -> Tuple[float, int]:
        """Re-convergence after a disruption at elapsed time ``rt0``.

        Returns ``(rt_delta, samples_examined)`` exactly like the
        simulator's :meth:`~repro.sim.runner.RunResult.reconvergence_after`:
        the lag from ``rt0`` to the first sample of ``proc`` from which
        every remaining sample is sound and bounded, or ``(inf, n)`` if
        the tail never settles.  ``channel`` restricts the verdict to one
        sample channel (e.g. ``"strata"`` for federation-level bounds).

        Edge sentinel: a processor with **zero** samples after ``rt0``
        (crashed before its first estimate, or filtered out by
        ``channel``) yields ``(inf, 0)`` - never an exception.  Treat an
        infinite lag with a zero tail as "no evidence", not "diverged".
        """
        tail = [s for s in self.samples_for(proc, channel) if s.rt >= rt0]
        settled_from: Optional[float] = None
        for sample in tail:
            good = sample.sound and sample.bound.is_bounded
            if good and settled_from is None:
                settled_from = sample.rt
            elif not good:
                settled_from = None
        if settled_from is None:
            return float("inf"), len(tail)
        return settled_from - rt0, len(tail)

    def to_document(self) -> Dict:
        """The :mod:`repro.sim.serialize` v2 document of this run."""
        document = {
            "version": FORMAT_VERSION,
            "spec": spec_to_dict(self.spec),
            "trace": trace_to_dict(self.trace),
            "samples": samples_to_dicts(self.samples),
            "messages_sent": self.messages_sent,
            "messages_lost": self.messages_lost,
            "links": self.link_rows,
        }
        if self.node_codecs:
            # extra key, passes through load_run untouched; the wire-smoke
            # gate reads it to assert the mixed-codec shape actually ran
            document["codecs"] = dict(self.node_codecs)
        if self.aborted:
            # extra keys pass through load_run untouched; readers that
            # care (CI gates) can tell a clean run from a truncated one
            document["partial"] = True
        return document


def dump_rt_run(result: RtRunResult, path: str) -> None:
    """Archive a live run; loads back via :func:`repro.sim.serialize.load_run`."""
    with open(path, "w") as handle:
        json.dump(result.to_document(), handle)


def _make_transport(
    config: ClusterConfig,
    time_base: TimeBase,
    *,
    extra_procs: Sequence[ProcessorId] = (),
    extra_links: Sequence[Tuple[ProcessorId, ProcessorId]] = (),
    directory=None,
):
    """The cluster transport, optionally extended with serve-tier endpoints.

    ``extra_procs``/``extra_links`` register non-protocol endpoints (serve
    sockets, load clients) with the UDP address book and the fault
    topology, so a :class:`FaultPlan` can target client<->server links the
    same way it targets gossip links.

    The heavy lifting lives in :mod:`repro.rt.strata.membership` now: a
    single cluster is the one-tier instantiation of the federation's
    membership layer.  Pass a pre-populated
    :class:`~repro.rt.strata.membership.PeerDirectory` to share one
    address book (and hence one UDP address space) across clusters.
    """
    # imported here, not at module top: strata rides on this module, and
    # the lazy import keeps the cluster <-> strata dependency acyclic
    from .strata.membership import PeerDirectory, build_transport

    if directory is None:
        directory = PeerDirectory()
    for name in tuple(config.processors) + tuple(extra_procs):
        if name not in directory:
            directory.register(name)
    return build_transport(
        config.transport,
        directory,
        time_base=time_base,
        links=tuple(config.links) + tuple(extra_links),
        faults=config.faults,
        source=config.source_proc,
        loopback_delay=config.loopback_delay,
        loopback_jitter=config.loopback_jitter,
        seed=config.seed,
    ), directory


def _merge_trace(nodes: Sequence[Node]) -> ExecutionTrace:
    """One chronological trace from every node's local event log.

    Entries are ordered by shared-time-base real time; at equal readings
    (clock resolution) sends sort before receives so a message never
    appears to arrive before it left.
    """
    entries = []
    for node in nodes:
        entries.extend(node.trace_log)
    entries.sort(key=lambda pair: (pair[1], pair[0].is_receive, pair[0].proc, pair[0].seq))
    trace = ExecutionTrace()
    received = set()
    for event, rt in entries:
        trace.record(event, rt)
        if event.is_receive:
            received.add(event.send_eid)
    # a send with no matching receive anywhere is a lost message
    for event, _rt in entries:
        if event.is_send and event.eid not in received:
            trace.record_lost(event.eid)
    return trace


def _link_rows(nodes: Sequence[Node]) -> List[Dict]:
    rows = []
    for node in sorted(nodes, key=lambda n: n.proc):
        for peer in node.peers:
            stats = node.stats[peer]
            rows.append(
                {
                    "src": node.proc,
                    "dest": peer,
                    "sent": stats.sent,
                    "lost": stats.losses_signaled,
                    "duplicated": stats.duplicates,
                    "unencodable": stats.unencodable,
                }
            )
    return rows


class LiveCluster:
    """A live cluster as a reusable object: nodes, transport, schedules.

    :func:`run_cluster` is a thin wrapper around this class.  Exposing
    the pieces lets the serving tier (:mod:`repro.rt.loadgen`) ride the
    same harness: attach :class:`~repro.rt.serve.ServeNode` companions
    that crash and restart with their host node, register extra
    fault-injectable endpoints, and interleave its own client traffic
    with the sampling loop.

    Lifecycle: ``await start()``; then ``await run_sampling(abort)``
    (or drive sampling yourself with :meth:`sample_once`); then
    ``await finish()``; finally read :meth:`result`.  ``finish`` must
    run even after an exception - it stops the transport.
    """

    def __init__(
        self,
        config: ClusterConfig,
        *,
        extra_procs: Sequence[ProcessorId] = (),
        extra_links: Sequence[Tuple[ProcessorId, ProcessorId]] = (),
        transport: Optional[Transport] = None,
        time_base: Optional[TimeBase] = None,
        directory=None,
    ):
        self.config = config
        self.spec = build_spec(config)
        self.time_base = time_base if time_base is not None else TimeBase()
        #: whether this cluster built (and therefore starts/stops) its
        #: transport; a federation injects one shared transport into many
        #: clusters and owns its lifecycle itself
        self.owns_transport = transport is None
        if transport is None:
            self.transport, self.directory = _make_transport(
                config,
                self.time_base,
                extra_procs=extra_procs,
                extra_links=extra_links,
                directory=directory,
            )
        else:
            self.transport = transport
            self.directory = directory
        #: hooks called as ``hook(node, rt, bound)`` for every recorded
        #: sample; the strata tier runner derives federation-channel
        #: samples from the same atomic reading
        self.on_sample: List = []
        self.sponsors = {join.proc: join.sponsor for join in config.joins}
        self.nodes = [
            Node(
                NodeConfig(
                    proc=proc,
                    spec=self.spec,
                    gossip_period=config.gossip_period,
                    jitter=config.gossip_jitter,
                    retransmit=config.retransmit,
                    seed=config.seed + index,
                    sponsor=self.sponsors.get(proc),
                    codec=config.codec_for(proc),
                ),
                self.transport,
                clock=config.clock_for(proc),
                time_base=self.time_base,
            )
            for index, proc in enumerate(config.processors)
        ]
        self.by_name = {node.proc: node for node in self.nodes}
        self.samples: List[EstimateSample] = []
        #: per-processor companions (e.g. ServeNodes) started/stopped
        #: in lockstep with their host node by the crash driver
        self._companions: Dict[ProcessorId, List] = {}
        self._driver_tasks: List[asyncio.Task] = []
        self._started = False

    def attach_companion(self, proc: ProcessorId, companion) -> None:
        """Tie ``companion`` (``.start()``/``.stop()``) to ``proc``'s fate.

        When a :class:`CrashSchedule` fail-stops the host node, its
        companions stop first (a dead server answers nothing) and
        restart after the node does.  Must be called before
        :meth:`start`; started companions are stopped by
        :meth:`finish`.
        """
        if self._started:
            raise SimulationError("companions must attach before the cluster starts")
        if proc not in self.by_name:
            raise SimulationError(f"no node {proc!r} to attach a companion to")
        self._companions.setdefault(proc, []).append(companion)

    async def _crash_driver(self, crash: CrashSchedule) -> None:
        node = self.by_name[crash.proc]
        companions = self._companions.get(crash.proc, [])
        await asyncio.sleep(max(0.0, crash.stop_at - self.time_base.elapsed()))
        for companion in companions:
            await companion.stop()
        await node.stop()
        if crash.restart_at is not None:
            await asyncio.sleep(
                max(0.0, crash.restart_at - self.time_base.elapsed())
            )
            await node.start()
            for companion in companions:
                await companion.start()

    async def _join_driver(self, join: JoinSchedule) -> None:
        await asyncio.sleep(max(0.0, join.at - self.time_base.elapsed()))
        await self.by_name[join.proc].start()

    async def start(self) -> None:
        """Start transport, non-joiner nodes and companions, and drivers."""
        self._started = True
        if self.owns_transport:
            await self.transport.start()
        for node in self.nodes:
            if node.proc not in self.sponsors:
                await node.start()
        for proc, companions in self._companions.items():
            if proc not in self.sponsors:
                for companion in companions:
                    await companion.start()
        loop = asyncio.get_running_loop()
        self._driver_tasks = [
            loop.create_task(self._crash_driver(crash))
            for crash in self.config.crashes
        ] + [
            loop.create_task(self._join_driver(join)) for join in self.config.joins
        ]

    def sample_once(self) -> None:
        """Record one estimate sample from every running node."""
        for node in self.nodes:
            if not node.running:
                continue  # a crashed processor estimates nothing
            # one atomic reading serves as both sampling instant and
            # truth: the source clock defines real time
            rt, bound = node.estimate_at_now()
            self.samples.append(
                EstimateSample(rt=rt, proc=node.proc, channel="rt", bound=bound, truth=rt)
            )
            for hook in self.on_sample:
                hook(node, rt, bound)

    async def run_sampling(self, abort: Optional[asyncio.Event] = None) -> bool:
        """Sample on the configured period until ``duration`` elapses.

        Setting ``abort`` cuts the run short at the next period edge;
        returns True when that happened (the run is partial).
        """
        config = self.config
        while self.time_base.elapsed() < config.duration:
            if abort is not None and abort.is_set():
                return True
            wait = min(config.sample_period, config.duration - self.time_base.elapsed())
            if abort is None:
                await asyncio.sleep(wait)
            else:
                try:
                    await asyncio.wait_for(abort.wait(), timeout=wait)
                    return True
                except asyncio.TimeoutError:
                    pass
            self.sample_once()
        return False

    async def finish(self) -> None:
        """Cancel drivers, stop companions and nodes, stop the transport."""
        try:
            for task in self._driver_tasks:
                task.cancel()
            for task in self._driver_tasks:
                try:
                    await task
                except asyncio.CancelledError:
                    pass
            for companions in self._companions.values():
                for companion in companions:
                    await companion.stop()
            for node in self.nodes:
                await node.stop()
            # drain in-flight loopback deliveries so the trace is settled
            await asyncio.sleep(0)
        finally:
            if self.owns_transport:
                await self.transport.stop()

    def result(self, *, aborted: bool = False) -> RtRunResult:
        """Assemble the evidence collected so far into an RtRunResult."""
        trace = _merge_trace(self.nodes)
        sent = sum(s.sent for node in self.nodes for s in node.stats.values())
        return RtRunResult(
            spec=self.spec,
            trace=trace,
            samples=self.samples,
            nodes={node.proc: node.snapshot() for node in self.nodes},
            messages_sent=sent,
            messages_lost=len(trace.lost_sends),
            link_rows=_link_rows(self.nodes),
            aborted=aborted,
            node_codecs={
                node.proc: node.config.codec for node in self.nodes
            },
        )


async def run_cluster(
    config: ClusterConfig, *, abort: Optional[asyncio.Event] = None
) -> RtRunResult:
    """Run one live cluster to completion and collect the evidence.

    ``abort`` (e.g. set from a SIGINT handler or timeout watchdog) ends
    the run early; the result is then marked ``aborted`` and its
    document carries ``"partial": true``.
    """
    cluster = LiveCluster(config)
    aborted = False
    try:
        await cluster.start()
        aborted = await cluster.run_sampling(abort)
    finally:
        await cluster.finish()
    return cluster.result(aborted=aborted)


def run_cluster_sync(config: ClusterConfig) -> RtRunResult:
    """Blocking wrapper: run the cluster on a fresh event loop."""
    return asyncio.run(run_cluster(config))
