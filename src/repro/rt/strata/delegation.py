"""Anchor delegation: what the stratum hierarchy adds to the Cristian exchange.

The exchange itself - never-raise decode, nonce correlation, admission,
staleness widening, ``[L, U + beta * rtt]`` adoption, accrual-driven
rotation - is :class:`~repro.rt.serve.ServeNode` and
:class:`~repro.rt.client.ServeClient`, spoken here over the
``dreq``/``deleg`` frame pair.  This module holds only the
strata-specific remainder:

* **endpoint names** (``proc!deleg``, ``border!anchor``);
* **the ``K2 <= 2`` hop rule.**  A :class:`DelegationServer` on a
  **core** node exports the node's own estimator with ``hops=1``
  (estimator -> consumer: one indirection); on a downstream **border**
  it re-exports the tier's adopted upstream bound (a ``bound_source``)
  with ``hops=2`` (estimator -> border -> consumer) - the ceiling the
  wire format enforces at encode and decode, so the paper's ``K2 <= 2``
  discipline holds *per tier*: every consumer is at most two
  indirections from the nearest tier's own time authority, and depth is
  carried honestly in ``stratum`` instead of hidden in an unbounded hop
  count;
* **expiry.**  An :class:`AnchorLink` (the border's client) refuses to
  serve an adopted bound older than ``max_age`` border-local seconds,
  so an anchor outage degrades the tier to unbounded external estimates
  instead of silently drift-rotting ones - which is exactly what makes
  downstream re-convergence measurable through ``reconvergence_after``;
* **re-election** is the strata name for the client's failover: probe
  timeouts raise the accrual score, past ``failover_threshold`` the link
  rotates to the next candidate in its ordered list, and each rotation
  reads back as an :class:`ElectionEvent`.  Sheds (an unsynced anchor
  saying so) count as liveness, not failure;
* :func:`compose_delegated`, the soundness core: a tier-internal bound
  ``[l, u]`` on the *border's local time* composed with a delegated
  bound anchored at border-local ``a0`` through the border clock's
  advertised drift.  Every step widens or drift-advances a sound
  interval, so the composed interval contains true source time whenever
  its inputs did.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple

from ...core.errors import SimulationError
from ...core.events import ProcessorId
from ...core.intervals import ClockBound
from ...core.specs import DriftSpec
from ..client import ClientConfig, ServeClient
from ..clock import ClockSource, TimeBase
from ..node import Node
from ..serve import BoundSource, ServeConfig, ServeNode
from ..transport import Transport
from ..wire import MAX_DELEGATION_HOPS, deleg_frame, dreq_frame

__all__ = [
    "DELEG_SUFFIX",
    "ANCHOR_LINK_SUFFIX",
    "deleg_endpoint",
    "deleg_owner",
    "anchor_link_endpoint",
    "DelegationServer",
    "DelegatedBound",
    "ElectionEvent",
    "anchor_link_config",
    "AnchorLink",
    "compose_delegated",
]

#: appended to a node's processor id to name its delegation endpoint
DELEG_SUFFIX = "!deleg"

#: appended to a border's processor id to name its anchor-link endpoint
ANCHOR_LINK_SUFFIX = "!anchor"


def deleg_endpoint(proc: ProcessorId) -> ProcessorId:
    """The transport endpoint name of ``proc``'s delegation server."""
    return f"{proc}{DELEG_SUFFIX}"


def deleg_owner(endpoint: ProcessorId) -> Optional[ProcessorId]:
    """The node behind a delegation endpoint name, or ``None`` if not one."""
    if endpoint.endswith(DELEG_SUFFIX) and len(endpoint) > len(DELEG_SUFFIX):
        return endpoint[: -len(DELEG_SUFFIX)]
    return None


def anchor_link_endpoint(proc: ProcessorId) -> ProcessorId:
    """The transport endpoint name of border ``proc``'s anchor link."""
    return f"{proc}{ANCHOR_LINK_SUFFIX}"


# -- server side -----------------------------------------------------------------------


class DelegationServer(ServeNode):
    """A :class:`ServeNode` answering ``dreq`` with ``deleg`` frames.

    Without a ``bound_source`` the server exports the node's own
    estimator with ``hops=1`` (the core role).  With one - a border
    re-exporting its :meth:`AnchorLink.composed_now` - answers carry
    ``hops=2``, the ``K2`` ceiling.  Everything else, admission and
    shedding included, is the serving tier's: a ``dreq`` flood is no
    different from a ``probe`` flood.
    """

    request_type = "dreq"
    endpoint_of = staticmethod(deleg_endpoint)

    def __init__(
        self,
        node: Node,
        *,
        stratum: int,
        transport: Optional[Transport] = None,
        config: Optional[ServeConfig] = None,
        bound_source: Optional[BoundSource] = None,
    ):
        if stratum < 0:
            raise SimulationError(f"stratum must be non-negative, got {stratum}")
        if stratum > 0 and bound_source is None:
            raise SimulationError(
                "a downstream delegation server re-exports an adopted bound; "
                "pass bound_source (e.g. AnchorLink.composed_now)"
            )
        super().__init__(node, transport, config, bound_source)
        self.stratum = stratum
        self.hops = 1 if bound_source is None else MAX_DELEGATION_HOPS
        self.answer_frame = partial(deleg_frame, hops=self.hops, stratum=stratum)


# -- border side -----------------------------------------------------------------------


@dataclass(frozen=True)
class DelegatedBound:
    """One adopted upstream bound, anchored at the border's clock."""

    #: Cristian-widened source-time bounds, valid when the border's
    #: local time read ``anchor_lt``
    bound: ClockBound
    anchor_lt: float
    anchor_rt: float
    #: indirection count as received (1 from a core node, 2 re-exported)
    hops: int
    #: the answering tier's stratum depth
    stratum: int
    #: the upstream processor that answered
    anchor: ProcessorId
    degraded: bool


@dataclass(frozen=True)
class ElectionEvent:
    """One anchor re-election performed by a border's link."""

    rt: float
    tier: str
    border: ProcessorId
    previous: ProcessorId
    new: ProcessorId

    def to_dict(self) -> Dict:
        return asdict(self)


def anchor_link_config(
    border: ProcessorId,
    anchors: Sequence[ProcessorId],
    sync_period: float = 0.25,
    **fields,
) -> ClientConfig:
    """The :class:`ClientConfig` of border ``border``'s upstream link.

    ``anchors`` are the ordered upstream candidates (processor names;
    endpoints derived).  The delegation cadence is fixed: the interval
    rule and the backoff are both pinned to ``sync_period`` (border local
    seconds).  Remaining ``fields`` pass through to the client config.
    """
    if border in anchors:
        raise SimulationError("a border cannot anchor on itself")
    return ClientConfig(
        name=anchor_link_endpoint(border),
        servers=tuple(deleg_endpoint(anchor) for anchor in anchors),
        min_interval=sync_period,
        max_interval=sync_period,
        backoff_base=sync_period,
        backoff_cap=sync_period,
        **fields,
    )


class AnchorLink(ServeClient):
    """A border's :class:`ServeClient` of its upstream anchors.

    Runs as a companion of the border node (same ``start``/``stop``
    protocol as :class:`~repro.rt.serve.ServeNode`), so a crashed border
    takes its upstream link down with it.  On top of the client it
    remembers what the adopted ``deleg`` frame said about its origin,
    lets the adopted bound *expire*, and presents rotations as
    :class:`ElectionEvent` records.
    """

    request_frame = staticmethod(dreq_frame)
    answer_type = "deleg"

    def __init__(
        self,
        config: ClientConfig,
        transport: Transport,
        time_base: TimeBase,
        clock: Optional[ClockSource] = None,
        *,
        max_age: float,
        tier: str = "",
    ):
        if max_age <= 0:
            raise SimulationError("max_age must be positive")
        super().__init__(config, transport, time_base, clock)
        #: adopted bound older than this (border local s) stops being served
        self.max_age = max_age
        self.tier = tier
        self.border = config.name.removesuffix(ANCHOR_LINK_SUFFIX)

    @property
    def anchor(self) -> ProcessorId:
        """The upstream processor currently anchored on."""
        return deleg_owner(self.server)

    @property
    def elections(self) -> List[ElectionEvent]:
        """Every rotation so far, in order, as the strata layer names it."""
        return [
            ElectionEvent(
                rt=rt,
                tier=self.tier,
                border=self.border,
                previous=deleg_owner(previous),
                new=deleg_owner(new),
            )
            for rt, previous, new in self.failover_events
        ]

    def current(self) -> Optional[DelegatedBound]:
        """The adopted bound, or ``None`` once it has aged past ``max_age``.

        Expiry is the honesty mechanism: during an anchor outage the
        border would otherwise keep drift-advancing an ever-wider bound
        forever; refusing instead makes the tier's external estimates
        unbounded, which ``reconvergence_after`` can see and time.
        """
        if self._current is None:
            return None
        anchor_lt, sample, frame = self._current
        _rt, lt = self._now()
        if lt - anchor_lt > self.max_age:
            self.stats.stale_refusals += 1
            return None
        return DelegatedBound(
            bound=sample.bound,
            anchor_lt=anchor_lt,
            anchor_rt=sample.rt,
            hops=frame.hops,
            stratum=frame.stratum,
            anchor=deleg_owner(sample.server),
            degraded=sample.degraded,
        )

    def composed_now(self) -> Optional[Tuple[ClockBound, bool, float]]:
        """The adopted bound advanced to now: a re-export ``bound_source``.

        Returns ``(bound, degraded, age)`` in the shape
        :class:`~repro.rt.serve.ServeNode` expects, or ``None`` while
        nothing fresh is adopted.
        """
        delegated = self.current()
        if delegated is None:
            return None
        rt, bound = self.current_bound()
        age = max(0.0, self.clock.lt_at(rt) - delegated.anchor_lt)
        return bound, delegated.degraded, age


def compose_delegated(
    internal: ClockBound,
    delegated: Optional[DelegatedBound],
    border_drift: DriftSpec,
) -> ClockBound:
    """External source-time bounds from a tier-internal estimate.

    ``internal`` bounds the *border's local time* at the sample instant
    (the border is the tier's internal source, so that is exactly what
    tier estimators produce).  ``delegated`` places true source time in
    an interval valid when the border's clock read ``anchor_lt``.
    Advancing the delegated interval from ``anchor_lt`` to each internal
    endpoint through the border clock's advertised drift - minding the
    sign, since an internal lower bound may precede the anchor instant -
    yields sound external bounds:

    if border-lt is in ``[l, u]`` and source was in ``[L, U]`` at
    border-lt ``a0``, then source is now in
    ``[L + adv_low(l - a0), U + adv_high(u - a0)]`` with
    ``adv_low(d) = alpha*d (d >= 0) | beta*d (d < 0)`` and
    ``adv_high`` the mirror image.

    Unbounded or missing inputs yield the honestly unbounded interval.
    """
    if delegated is None or not internal.is_bounded:
        return ClockBound.unbounded()
    alpha, beta = border_drift.alpha, border_drift.beta
    low_delta = internal.lower - delegated.anchor_lt
    high_delta = internal.upper - delegated.anchor_lt
    low = delegated.bound.lower + (
        alpha * low_delta if low_delta >= 0 else beta * low_delta
    )
    high = delegated.bound.upper + (
        beta * high_delta if high_delta >= 0 else alpha * high_delta
    )
    return ClockBound(low, high)
