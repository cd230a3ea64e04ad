"""One tier of the hierarchy: a live cluster wearing its stratum role.

A :class:`TierRunner` wraps a :class:`~repro.rt.cluster.LiveCluster`
(with the federation's shared transport, time base, and address book
injected) and attaches the stratum machinery as ordinary crash-coupled
companions:

* every ``exports`` node gets a
  :class:`~repro.rt.strata.delegation.DelegationServer` - core nodes
  export their own estimator (``hops=1``), a downstream border
  re-exports its adopted bound (``hops=2``);
* a downstream tier's border gets an
  :class:`~repro.rt.strata.delegation.AnchorLink` holding the adopted
  upstream bound and running re-election.

The tier's *internal* protocol is completely unchanged: the border is
simply the tier's internal source (its clock must be monotonic, which
over a shared :class:`~repro.rt.clock.TimeBase` makes border local time
equal federation real time - so intra-tier ``"rt"`` samples remain
truthful as-is).  What the stratum adds is a second sample channel:
for every internal sample the runner derives an **external** estimate on
channel ``"strata"`` by composing the internal bound (which bounds
border local time) with the border's adopted upstream bound through
:func:`~repro.rt.strata.delegation.compose_delegated`.  On the core the
external estimate *is* the internal one - stratum 0 holds the source.
Both channels land in the same sample list with ``truth=rt``, so the
standard soundness accounting applies unchanged to federation-level
claims.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

import asyncio

from ...core.errors import SimulationError
from ...core.events import ProcessorId
from ...core.intervals import ClockBound
from ...core.specs import TransitSpec
from ...sim.serialize import _num
from ...sim.faults import RetransmitPolicy
from ...sim.runner import EstimateSample
from ..client import ClientStats
from ..clock import ClockSource, TimeBase
from ..cluster import ClusterConfig, CrashSchedule, LiveCluster, RtRunResult
from ..node import Node
from ..serve import ServeConfig, ServeStats
from ..transport import Transport
from .delegation import (
    AnchorLink,
    DelegatedBound,
    DelegationServer,
    ElectionEvent,
    anchor_link_config,
    compose_delegated,
)
from .membership import TierSpec

__all__ = ["TierConfig", "TierResult", "TierRunner"]

#: sample channel carrying federation-level (external) estimates
STRATA_CHANNEL = "strata"


@dataclass(frozen=True)
class TierConfig:
    """Everything needed to run one tier inside a federation."""

    tier: TierSpec
    #: deadline in *shared time-base elapsed seconds* (federation time)
    duration: float = 3.0
    gossip_period: float = 0.25
    sample_period: float = 0.25
    transit: TransitSpec = field(default_factory=TransitSpec)
    #: per-processor hardware clocks; the border's must stay monotonic
    clocks: Mapping[ProcessorId, ClockSource] = field(default_factory=dict)
    retransmit: RetransmitPolicy = field(default_factory=RetransmitPolicy)
    crashes: Tuple[CrashSchedule, ...] = ()
    #: the delegation endpoints' serving knobs (admission, staleness)
    delegation: ServeConfig = field(default_factory=ServeConfig)
    #: anchor-link knobs (stratum > 0 tiers)
    sync_period: float = 0.25
    probe_timeout: float = 0.25
    failover_threshold: float = 3.0
    max_age: float = 2.0
    gossip_jitter: float = 0.1
    seed: int = 0
    #: recorded in the cluster config; the actual transport is injected
    transport_kind: str = "loopback"

    def cluster_config(self) -> ClusterConfig:
        """The tier as a plain cluster: border = internal source."""
        return ClusterConfig(
            processors=self.tier.processors,
            links=self.tier.links,
            source=self.tier.border_proc,
            duration=self.duration,
            gossip_period=self.gossip_period,
            sample_period=self.sample_period,
            transit=self.transit,
            clocks=self.clocks,
            retransmit=self.retransmit,
            transport=self.transport_kind,
            crashes=self.crashes,
            gossip_jitter=self.gossip_jitter,
            seed=self.seed,
        )


@dataclass
class TierResult:
    """One tier's evidence: the cluster run plus the stratum story."""

    name: str
    stratum: int
    border: ProcessorId
    run: RtRunResult
    elections: List[ElectionEvent]
    anchor_stats: Optional[ClientStats]
    delegation_stats: Dict[ProcessorId, ServeStats]
    #: each node's final event-anchored bound - survives the trip through
    #: a child process's STRATA-DOC, so Theorem 2.1 oracle parity can be
    #: checked against the merged evidence in the parent
    final_bounds: Dict[ProcessorId, ClockBound] = field(default_factory=dict)

    def to_dict(self) -> Dict:
        """The tier's row in a run document's ``strata`` section."""
        external = [
            s for s in self.run.samples if s.channel == STRATA_CHANNEL
        ]
        return {
            "name": self.name,
            "stratum": self.stratum,
            "border": self.border,
            "processors": list(self.run.spec.processors),
            "external_samples": len(external),
            "external_bounded": sum(1 for s in external if s.bound.is_bounded),
            "external_violations": sum(1 for s in external if not s.sound),
            "elections": [event.to_dict() for event in self.elections],
            "final_bounds": {
                proc: [_num(bound.lower), _num(bound.upper)]
                for proc, bound in sorted(self.final_bounds.items())
            },
            "anchor": self.anchor_stats.to_dict() if self.anchor_stats else None,
            "delegation": {
                proc: stats.to_dict()
                for proc, stats in sorted(self.delegation_stats.items())
            },
        }


class TierRunner:
    """Run one tier over a federation's shared transport and time base."""

    def __init__(
        self,
        config: TierConfig,
        *,
        transport: Transport,
        time_base: TimeBase,
        directory=None,
    ):
        self.config = config
        self.tier = config.tier
        self.cluster = LiveCluster(
            config.cluster_config(),
            transport=transport,
            time_base=time_base,
            directory=directory,
        )
        self.anchor_link: Optional[AnchorLink] = None
        if self.tier.stratum > 0:
            border = self.tier.border_proc
            self.anchor_link = AnchorLink(
                anchor_link_config(
                    border,
                    self.tier.anchors,
                    sync_period=config.sync_period,
                    probe_timeout=config.probe_timeout,
                    failover_threshold=config.failover_threshold,
                    seed=config.seed,
                ),
                transport,
                time_base,
                self.cluster.by_name[border].clock,
                max_age=config.max_age,
                tier=self.tier.name,
            )
            self.cluster.attach_companion(border, self.anchor_link)
        self.deleg_servers: Dict[ProcessorId, DelegationServer] = {}
        for proc in self.tier.exports:
            node = self.cluster.by_name[proc]
            bound_source = (
                self.anchor_link.composed_now if self.anchor_link is not None else None
            )
            server = DelegationServer(
                node,
                stratum=self.tier.stratum,
                transport=transport,
                config=config.delegation,
                bound_source=bound_source,
            )
            self.deleg_servers[proc] = server
            self.cluster.attach_companion(proc, server)
        self.cluster.on_sample.append(self._record_external)

    # -- external sample derivation ----------------------------------------------

    def _record_external(self, node: Node, rt: float, bound) -> None:
        """Derive the federation-level estimate from one internal sample.

        Runs inside :meth:`LiveCluster.sample_once`, so the internal and
        external records share one atomic ``(rt, bound)`` reading.
        """
        if self.tier.stratum == 0:
            # the core holds the source: internal bounds are external bounds
            external = bound
        else:
            delegated: Optional[DelegatedBound] = self.anchor_link.current()
            border_drift = self.cluster.by_name[self.tier.border_proc].clock.advertised
            external = compose_delegated(bound, delegated, border_drift)
        self.cluster.samples.append(
            EstimateSample(
                rt=rt, proc=node.proc, channel=STRATA_CHANNEL, bound=external, truth=rt
            )
        )

    # -- lifecycle (the federation drives these) ---------------------------------

    async def start(self) -> None:
        if self.cluster.owns_transport:
            raise SimulationError(
                "a TierRunner needs the federation's shared transport injected"
            )
        await self.cluster.start()

    async def run_sampling(self, abort: Optional[asyncio.Event] = None) -> bool:
        return await self.cluster.run_sampling(abort)

    async def finish(self) -> None:
        await self.cluster.finish()

    def result(self, *, aborted: bool = False) -> TierResult:
        run = self.cluster.result(aborted=aborted)
        return TierResult(
            name=self.tier.name,
            stratum=self.tier.stratum,
            border=self.tier.border_proc,
            run=run,
            elections=self.anchor_link.elections if self.anchor_link else [],
            anchor_stats=self.anchor_link.stats if self.anchor_link else None,
            delegation_stats={
                proc: server.stats for proc, server in self.deleg_servers.items()
            },
            final_bounds={
                proc: stats.event_bound for proc, stats in run.nodes.items()
            },
        )
