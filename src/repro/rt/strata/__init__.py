"""Stratum hierarchy: federated multi-tier clusters with anchor delegation.

The paper's efficiency results (Sec 4: ``K1 <= 16|V|`` messages,
``K2 <= 2`` hops of indirection) make an NTP-style stratum hierarchy
sound: a small fully-synced *core* cluster (stratum 0) can delegate
external time to downstream tiers without losing the optimal bounds,
because each tier adds at most two hops of indirection and a quantified
Cristian-style widening.  This package layers that hierarchy on the
existing runtime:

* :mod:`repro.rt.strata.membership` - the topology-agnostic membership +
  routing layer extracted from :mod:`repro.rt.cluster`: a live
  :class:`PeerDirectory` (endpoint address book + tier labels) shared
  with the transport, per-tier :class:`TierSpec` topologies, and a
  :class:`FederationSpec` validating the inter-tier link policy
  (only anchors export, downstream tiers name upstream candidates,
  hop distances for the gradient scorecard).
* :mod:`repro.rt.strata.delegation` - the strata-specific remainder of
  the Cristian exchange, which itself is :mod:`repro.rt.serve` and
  :mod:`repro.rt.client` spoken over the ``dreq``/``deleg`` frame pair:
  the :class:`DelegationServer` stamping ``hops=1`` on core nodes and
  ``hops=2`` on border re-exports, the :class:`AnchorLink` border
  client adding staleness expiry and the :class:`ElectionEvent` view of
  a failover, and :func:`compose_delegated`.
* :mod:`repro.rt.strata.tier` - :class:`TierRunner`: one tier is one
  :class:`~repro.rt.cluster.LiveCluster` (the border node is the tier's
  internal time source) plus its delegation endpoints; every sample
  round also records *external* bounds on ``channel="strata"`` by
  composing the internal estimate with the border's delegated bound.
* :mod:`repro.rt.strata.federation` - the whole hierarchy, in one
  process (shared transport/time base) or spanning OS processes over
  UDP (``run_federation_procs``: subprocess tiers with an address
  handshake and a shared monotonic origin).
* :mod:`repro.rt.strata.gradient` - the gradient scorecard following
  Kuhn/Lenzen/Locher/Oshman: per-pair clock skew as a function of
  federation hop distance, emitted in the serialize-v2 run document.
* :mod:`repro.rt.strata.cli` - the ``repro-strata`` entry point
  (clean-death contract shared with ``repro-rt``/``repro-serve``) and
  :mod:`repro.rt.strata.tier_main`, the downstream-tier child process.
"""

from .membership import (
    FederationSpec,
    K2_MAX_HOPS,
    PeerDirectory,
    TierSpec,
    build_transport,
)
from .delegation import (
    ANCHOR_LINK_SUFFIX,
    DELEG_SUFFIX,
    AnchorLink,
    DelegatedBound,
    DelegationServer,
    ElectionEvent,
    anchor_link_config,
    anchor_link_endpoint,
    compose_delegated,
    deleg_endpoint,
    deleg_owner,
)
from .gradient import GradientRow, gradient_scorecard
from .tier import TierConfig, TierResult, TierRunner
from .federation import (
    FederationConfig,
    FederationResult,
    dump_federation,
    run_federation,
    run_federation_procs,
    run_federation_sync,
)

__all__ = [
    "FederationSpec",
    "K2_MAX_HOPS",
    "PeerDirectory",
    "TierSpec",
    "build_transport",
    "ANCHOR_LINK_SUFFIX",
    "DELEG_SUFFIX",
    "AnchorLink",
    "DelegatedBound",
    "DelegationServer",
    "ElectionEvent",
    "anchor_link_config",
    "anchor_link_endpoint",
    "compose_delegated",
    "deleg_endpoint",
    "deleg_owner",
    "GradientRow",
    "gradient_scorecard",
    "TierConfig",
    "TierResult",
    "TierRunner",
    "FederationConfig",
    "FederationResult",
    "dump_federation",
    "run_federation",
    "run_federation_procs",
    "run_federation_sync",
]
