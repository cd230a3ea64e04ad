"""Core theory and algorithms of the reproduction.

The public surface re-exports the classes a downstream user needs:

* data model - :class:`Event`, :class:`EventId`, :class:`View`;
* specifications - :class:`DriftSpec`, :class:`TransitSpec`,
  :class:`SystemSpec`, :class:`ClockBound`;
* the synchronization-graph theory (Definition 2.1 / Theorem 2.1) -
  :func:`build_sync_graph`, :func:`relative_bounds`,
  :func:`external_bounds`, :func:`extremal_execution`;
* the algorithms - :class:`FullInformationCSA` (Sec 2.3 reference),
  :class:`EfficientCSA` (the paper's main result, Sec 3), and its parts
  :class:`HistoryModule`, :class:`LiveTracker`, :class:`AGDP`.
"""

from .agdp import AGDP, AGDPStats
from .agdp_numpy import NumpyAGDP
from .bootstrap import BootstrapSnapshot
from .csa import CSAStats, EfficientCSA, QuarantineDiagnostic, RecoveryEvent
from .csa_base import (
    DEFAULT_BLAME_WEIGHTS,
    Estimator,
    EvictionEvent,
    SuspicionPolicy,
    SuspicionTracker,
)
from .csa_full import FullInformationCSA
from .distances import (
    WeightedDigraph,
    bellman_ford_from,
    bellman_ford_to,
    find_negative_cycle,
    floyd_warshall,
)
from .errors import (
    EstimateUnavailableError,
    InconsistentSpecificationError,
    ProtocolError,
    ReproError,
    SimulationError,
    SpecificationError,
    UnknownEventError,
    ViewConflictError,
    ViewError,
)
from .explain import Witness, WitnessStep, explain_external_bounds
from .general import GeneralSynchronizer
from .events import Event, EventId, EventKind, LinkId, ProcessorId, link_id
from .history import HistoryModule, HistoryPayload, HistoryStats
from .intervals import ClockBound
from .live import LiveTracker
from .specs import TOP, DriftSpec, SystemSpec, TransitSpec
from .syncgraph import (
    ExplicitBoundsMapping,
    build_sync_graph,
    drift_edge_weights,
    incident_sync_edges,
    sync_graph_from_bounds,
    transit_edge_weights,
)
from .validate import (
    FAILURE_KINDS,
    ValidationFailure,
    ValidationReport,
    validate_payload,
)
from .theorem import (
    check_execution,
    external_bounds,
    extremal_execution,
    relative_bounds,
    source_point,
)
from .view import View

__all__ = [
    "AGDP",
    "AGDPStats",
    "BootstrapSnapshot",
    "CSAStats",
    "ClockBound",
    "DEFAULT_BLAME_WEIGHTS",
    "DriftSpec",
    "EfficientCSA",
    "Estimator",
    "EstimateUnavailableError",
    "Event",
    "EventId",
    "EventKind",
    "EvictionEvent",
    "ExplicitBoundsMapping",
    "FAILURE_KINDS",
    "FullInformationCSA",
    "GeneralSynchronizer",
    "HistoryModule",
    "HistoryPayload",
    "HistoryStats",
    "InconsistentSpecificationError",
    "LinkId",
    "LiveTracker",
    "NumpyAGDP",
    "ProcessorId",
    "ProtocolError",
    "QuarantineDiagnostic",
    "RecoveryEvent",
    "ReproError",
    "SimulationError",
    "SpecificationError",
    "SuspicionPolicy",
    "SuspicionTracker",
    "SystemSpec",
    "TOP",
    "TransitSpec",
    "UnknownEventError",
    "ValidationFailure",
    "ValidationReport",
    "View",
    "ViewConflictError",
    "ViewError",
    "Witness",
    "WitnessStep",
    "WeightedDigraph",
    "bellman_ford_from",
    "bellman_ford_to",
    "build_sync_graph",
    "check_execution",
    "drift_edge_weights",
    "explain_external_bounds",
    "external_bounds",
    "extremal_execution",
    "find_negative_cycle",
    "floyd_warshall",
    "incident_sync_edges",
    "link_id",
    "relative_bounds",
    "source_point",
    "sync_graph_from_bounds",
    "transit_edge_weights",
    "validate_payload",
]
