"""Topology-agnostic membership and routing, extracted from ``rt.cluster``.

:class:`~repro.rt.cluster.LiveCluster` used to build its transport from
a private helper that hard-wired "one cluster, one address book".  This
module generalizes that layer so a cluster becomes *one instantiation*
of a federation:

* :class:`PeerDirectory` - the live address book plus tier labels.  Its
  ``addresses`` dict is shared **by identity** with
  :class:`~repro.rt.transport.UDPTransport`, which reads it on every
  send and writes resolved port-0 bindings back - so an address learned
  late (another OS process's handshake) immediately routes in-flight
  traffic, with no transport restart.
* :class:`TierSpec` - one tier's static shape: processors, intra-tier
  links, stratum depth, which nodes export delegated bounds, and (for
  downstream tiers) the border node plus its ordered upstream anchor
  candidates.
* :class:`FederationSpec` - the whole hierarchy, validating the
  inter-tier link policy: exactly one stratum-0 core, anchors must be
  exports of the tier one stratum up, downstream tiers re-export only
  through their border (which keeps every tier inside the paper's
  ``K2 <= 2`` indirection bound), and hop distances over the union
  graph for the gradient scorecard.
* :func:`build_transport` - the transport factory
  :func:`~repro.rt.cluster._make_transport` now delegates to: any set
  of directory-registered endpoints over loopback or UDP, optionally
  wrapped in :class:`~repro.rt.transport.FaultMiddleware`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from ...core.errors import SimulationError
from ...core.events import ProcessorId
from ...sim.faults import FaultPlan
from ..clock import TimeBase
from ..transport import (
    FaultMiddleware,
    LoopbackTransport,
    Transport,
    UDPTransport,
)
from ..wire import MAX_DELEGATION_HOPS

__all__ = [
    "K2_MAX_HOPS",
    "PeerDirectory",
    "TierSpec",
    "FederationSpec",
    "build_transport",
]

#: the paper's Sec 4 indirection bound, re-exported for the hierarchy
K2_MAX_HOPS = MAX_DELEGATION_HOPS


class PeerDirectory:
    """The federation's live address book and tier-label registry.

    Every transport endpoint - protocol nodes, serve/delegation/anchor
    endpoints, load clients - registers here exactly once.  The
    ``addresses`` mapping is handed to :class:`UDPTransport` unchanged
    (same object), which is the whole routing trick: the transport
    resolves its own port-0 binds into it at socket-open time, and
    :meth:`update_address` feeds in addresses learned from other OS
    processes' handshakes; both are visible to the very next ``send``.
    """

    def __init__(self, *, host: str = "127.0.0.1"):
        self.host = host
        #: endpoint -> (host, port); shared by identity with UDPTransport
        self.addresses: Dict[ProcessorId, Tuple[str, int]] = {}
        self._tiers: Dict[ProcessorId, Optional[str]] = {}

    def register(
        self,
        name: ProcessorId,
        *,
        tier: Optional[str] = None,
        host: Optional[str] = None,
        port: int = 0,
    ) -> None:
        """Add one endpoint; port 0 means "resolve at socket-open time"."""
        if name in self._tiers:
            raise SimulationError(f"endpoint {name!r} registered twice")
        self.addresses[name] = (host if host is not None else self.host, port)
        self._tiers[name] = tier

    def update_address(self, name: ProcessorId, host: str, port: int) -> None:
        """Adopt an address learned later (a peer process's handshake)."""
        if name not in self._tiers:
            raise SimulationError(f"address update for unknown endpoint {name!r}")
        self.addresses[name] = (host, int(port))

    def tier_of(self, name: ProcessorId) -> Optional[str]:
        return self._tiers.get(name)

    def endpoints(self) -> Tuple[ProcessorId, ...]:
        return tuple(self._tiers)

    def members(self, tier: str) -> Tuple[ProcessorId, ...]:
        return tuple(name for name, label in self._tiers.items() if label == tier)

    def address_of(self, name: ProcessorId) -> Tuple[str, int]:
        try:
            return self.addresses[name]
        except KeyError:
            raise SimulationError(f"no address for endpoint {name!r}") from None

    def __contains__(self, name: ProcessorId) -> bool:
        return name in self._tiers

    def __len__(self) -> int:
        return len(self._tiers)


@dataclass(frozen=True)
class TierSpec:
    """One tier of the hierarchy: a cluster plus its stratum role."""

    name: str
    #: depth in the hierarchy; 0 is the fully-synced core
    stratum: int
    processors: Tuple[ProcessorId, ...]
    links: Tuple[Tuple[ProcessorId, ProcessorId], ...]
    #: nodes running delegation servers for the tier below
    exports: Tuple[ProcessorId, ...] = ()
    #: stratum > 0: the node that adopts upstream bounds and acts as the
    #: tier's internal time source; defaults to the first processor
    border: Optional[ProcessorId] = None
    #: stratum > 0: ordered upstream anchor candidates (processors of
    #: the parent tier); index 0 is the primary, the rest are the
    #: re-election line of succession
    anchors: Tuple[ProcessorId, ...] = ()

    def __post_init__(self):
        if not self.name:
            raise SimulationError("a tier needs a non-empty name")
        if self.stratum < 0:
            raise SimulationError(f"stratum must be non-negative, got {self.stratum}")
        if len(self.processors) < 2:
            raise SimulationError(f"tier {self.name!r} needs at least two processors")
        if len(set(self.processors)) != len(self.processors):
            raise SimulationError(f"tier {self.name!r} has duplicate processors")
        procs = set(self.processors)
        for edge in self.links:
            if edge[0] not in procs or edge[1] not in procs:
                raise SimulationError(
                    f"tier {self.name!r} link {edge!r} names a non-member"
                )
        for proc in self.exports:
            if proc not in procs:
                raise SimulationError(
                    f"tier {self.name!r} export {proc!r} is not a member"
                )
        if len(set(self.exports)) != len(self.exports):
            raise SimulationError(f"tier {self.name!r} has duplicate exports")
        if len(set(self.anchors)) != len(self.anchors):
            raise SimulationError(f"tier {self.name!r} has duplicate anchors")
        if self.border is not None and self.border not in procs:
            raise SimulationError(
                f"tier {self.name!r} border {self.border!r} is not a member"
            )
        if self.stratum == 0:
            if self.anchors:
                raise SimulationError("the stratum-0 core has no upstream anchors")
        else:
            if not self.anchors:
                raise SimulationError(
                    f"downstream tier {self.name!r} needs at least one anchor"
                )
            # only the border holds an adopted upstream bound, so only the
            # border may re-export: anything else would serve third-hand
            # bounds and break the per-tier K2 <= 2 discipline
            for proc in self.exports:
                if proc != self.border_proc:
                    raise SimulationError(
                        f"downstream tier {self.name!r} may re-export only "
                        f"through its border {self.border_proc!r}, not {proc!r}"
                    )

    @property
    def border_proc(self) -> ProcessorId:
        """The tier's internal time source (stratum > 0) / first member."""
        return self.border if self.border is not None else self.processors[0]


@dataclass(frozen=True)
class FederationSpec:
    """The whole hierarchy: ordered tiers plus the inter-tier link policy."""

    tiers: Tuple[TierSpec, ...]
    #: hard cap on delegated-bound indirection, the paper's K2
    max_hops: int = K2_MAX_HOPS

    def __post_init__(self):
        if not self.tiers:
            raise SimulationError("a federation needs at least one tier")
        names = [tier.name for tier in self.tiers]
        if len(set(names)) != len(names):
            raise SimulationError("duplicate tier names in the federation")
        cores = [tier for tier in self.tiers if tier.stratum == 0]
        if len(cores) != 1:
            raise SimulationError(
                f"a federation needs exactly one stratum-0 core, got {len(cores)}"
            )
        if self.tiers[0].stratum != 0:
            raise SimulationError("the core tier must come first")
        seen: Dict[ProcessorId, str] = {}
        for tier in self.tiers:
            for proc in tier.processors:
                if proc in seen:
                    raise SimulationError(
                        f"processor {proc!r} is in tiers {seen[proc]!r} and {tier.name!r}"
                    )
                seen[proc] = tier.name
        by_stratum: Dict[int, list] = {}
        for tier in self.tiers:
            by_stratum.setdefault(tier.stratum, []).append(tier)
        for tier in self.tiers:
            if tier.stratum == 0:
                continue
            parents = by_stratum.get(tier.stratum - 1, [])
            if not parents:
                raise SimulationError(
                    f"tier {tier.name!r} at stratum {tier.stratum} has no "
                    f"stratum-{tier.stratum - 1} tier to anchor on"
                )
            exported = {
                proc for parent in parents for proc in parent.exports
            }
            for anchor in tier.anchors:
                if anchor not in exported:
                    raise SimulationError(
                        f"tier {tier.name!r} anchor {anchor!r} is not an export "
                        f"of any stratum-{tier.stratum - 1} tier"
                    )

    @property
    def core(self) -> TierSpec:
        return self.tiers[0]

    @property
    def all_processors(self) -> Tuple[ProcessorId, ...]:
        return tuple(proc for tier in self.tiers for proc in tier.processors)

    def tier(self, name: str) -> TierSpec:
        for tier in self.tiers:
            if tier.name == name:
                return tier
        raise SimulationError(f"no tier named {name!r}")

    def tier_of(self, proc: ProcessorId) -> TierSpec:
        for tier in self.tiers:
            if proc in tier.processors:
                return tier
        raise SimulationError(f"processor {proc!r} is in no tier")

    def cross_links(self) -> Tuple[Tuple[ProcessorId, ProcessorId], ...]:
        """Border <-> anchor-candidate edges (delegation may ride any)."""
        return tuple(
            (tier.border_proc, anchor)
            for tier in self.tiers
            if tier.stratum > 0
            for anchor in tier.anchors
        )

    def union_links(self) -> Tuple[Tuple[ProcessorId, ProcessorId], ...]:
        """Every intra-tier link plus every cross-tier candidate edge."""
        return tuple(
            edge for tier in self.tiers for edge in tier.links
        ) + self.cross_links()

    def hop_distance(self, a: ProcessorId, b: ProcessorId) -> Optional[int]:
        """BFS hops between two processors over the union graph.

        The axis of the gradient scorecard: intra-tier gossip links and
        border<->candidate delegation edges all count as one hop.
        ``None`` when no path exists (a mis-specified federation).
        """
        if a == b:
            return 0
        adjacency: Dict[ProcessorId, set] = {}
        for u, v in self.union_links():
            adjacency.setdefault(u, set()).add(v)
            adjacency.setdefault(v, set()).add(u)
        frontier = deque([(a, 0)])
        visited = {a}
        while frontier:
            node, dist = frontier.popleft()
            for neighbor in adjacency.get(node, ()):
                if neighbor == b:
                    return dist + 1
                if neighbor not in visited:
                    visited.add(neighbor)
                    frontier.append((neighbor, dist + 1))
        return None

    def to_dict(self) -> Dict:
        """JSON shape for shipping tier specs to child processes."""
        return {
            "max_hops": self.max_hops,
            "tiers": [
                {
                    "name": tier.name,
                    "stratum": tier.stratum,
                    "processors": list(tier.processors),
                    "links": [list(edge) for edge in tier.links],
                    "exports": list(tier.exports),
                    "border": tier.border,
                    "anchors": list(tier.anchors),
                }
                for tier in self.tiers
            ],
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "FederationSpec":
        return cls(
            tiers=tuple(
                TierSpec(
                    name=entry["name"],
                    stratum=int(entry["stratum"]),
                    processors=tuple(entry["processors"]),
                    links=tuple((u, v) for u, v in entry["links"]),
                    exports=tuple(entry.get("exports", ())),
                    border=entry.get("border"),
                    anchors=tuple(entry.get("anchors", ())),
                )
                for entry in data["tiers"]
            ),
            max_hops=int(data.get("max_hops", K2_MAX_HOPS)),
        )


def build_transport(
    kind: str,
    directory: PeerDirectory,
    *,
    time_base: TimeBase,
    links: Sequence[Tuple[ProcessorId, ProcessorId]] = (),
    faults: Optional[FaultPlan] = None,
    source: Optional[ProcessorId] = None,
    loopback_delay: float = 0.0,
    loopback_jitter: float = 0.0,
    seed: int = 0,
) -> Transport:
    """One transport over every directory-registered endpoint.

    ``kind`` is ``loopback`` or ``udp``.  UDP shares the directory's
    ``addresses`` dict by identity (see :class:`PeerDirectory`).  With a
    non-noop ``faults`` plan the transport is wrapped in
    :class:`FaultMiddleware` over the given ``links`` topology, keyed by
    ``time_base``; ``source`` names the processor whose crash a plan may
    never schedule.
    """
    if kind == "udp":
        inner: Transport = UDPTransport(directory.addresses)
    elif kind == "loopback":
        inner = LoopbackTransport(
            delay=loopback_delay, jitter=loopback_jitter, seed=seed
        )
    else:
        raise SimulationError(f"unknown transport kind {kind!r}")
    if faults is None or faults.is_noop:
        return inner
    if source is None:
        raise SimulationError("fault injection needs the source processor named")
    return FaultMiddleware(
        inner,
        faults,
        time_base,
        procs=directory.endpoints(),
        links=tuple(links),
        source=source,
    )
