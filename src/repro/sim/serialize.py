"""Persistence: traces, specs, and samples to/from JSON.

Reproducibility plumbing: a finished run can be archived as a JSON
document (events with real and local times, lost messages, the full
specification) and re-hydrated later into an :class:`ExecutionTrace` and
:class:`SystemSpec` for offline analysis — re-running the claim checkers,
re-querying optimal bounds at historical points, or diffing two runs —
without re-simulating.

The format is versioned and intentionally flat; see :data:`FORMAT_VERSION`.
Version history:

* **1** - events, lost sends, spec, samples, aggregate message counters.
* **2** - adds per-directed-link ``links`` counters
  (sent/lost/duplicated per ``src -> dest``).  Version-1 documents still
  load; their per-link counters are simply absent (empty mapping).

A run whose estimators self-stabilized also carries a ``recoveries`` list
(one row per :class:`~repro.core.csa.RecoveryEvent`: who, when, why, how
many logged events were replayed, whether from a checkpoint) - an extra
key, like the live runtime's, that loaders pass through untouched.
"""

from __future__ import annotations

import json
import math
from typing import Dict, List, Optional, Tuple

from ..core.errors import SpecificationError
from ..core.events import Event, EventId
from ..core.specs import DriftSpec, SystemSpec, TransitSpec
from .runner import EstimateSample
from .trace import ExecutionTrace

__all__ = [
    "FORMAT_VERSION",
    "SUPPORTED_VERSIONS",
    "trace_to_dict",
    "trace_from_dict",
    "spec_to_dict",
    "spec_from_dict",
    "samples_to_dicts",
    "link_stats_to_dicts",
    "link_stats_from_dicts",
    "recoveries_to_dicts",
    "dump_run",
    "load_run",
    "load_run_document",
]

FORMAT_VERSION = 2

#: versions :func:`load_run` and the ``*_from_dict`` helpers accept
SUPPORTED_VERSIONS = (1, 2)


def _check_version(data: Dict, what: str) -> int:
    version = data.get("version")
    if version not in SUPPORTED_VERSIONS:
        raise SpecificationError(f"unsupported {what} format version {version!r}")
    return version


def _num(value: float):
    """JSON-safe float: infinities become strings."""
    if math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return value


def _unnum(value) -> float:
    if value == "inf":
        return math.inf
    if value == "-inf":
        return -math.inf
    return float(value)


# -- traces ---------------------------------------------------------------------------


def trace_to_dict(trace: ExecutionTrace) -> Dict:
    # per-event entries are Event.to_dict() plus the analysis-only real time
    events = []
    for record in trace:
        entry = record.event.to_dict()
        entry["rt"] = record.rt
        events.append(entry)
    return {
        "version": FORMAT_VERSION,
        "events": events,
        "lost": sorted([eid.proc, eid.seq] for eid in trace.lost_sends),
    }


def trace_from_dict(data: Dict) -> ExecutionTrace:
    _check_version(data, "trace")
    trace = ExecutionTrace()
    for entry in data["events"]:
        trace.record(Event.from_dict(entry), entry["rt"])
    for proc, seq in data.get("lost", []):
        trace.record_lost(EventId(proc, seq))
    return trace


# -- specs ----------------------------------------------------------------------------


def spec_to_dict(spec: SystemSpec) -> Dict:
    return {
        "version": FORMAT_VERSION,
        "source": spec.source,
        "drift": {
            proc: [drift.alpha, drift.beta] for proc, drift in spec.drift.items()
        },
        "transit": [
            {
                "link": list(lid),
                "directions": {
                    sender: [ts.lower, _num(ts.upper)]
                    for sender, ts in directions.items()
                },
            }
            for lid, directions in spec.transit.items()
        ],
    }


def spec_from_dict(data: Dict) -> SystemSpec:
    _check_version(data, "spec")
    drift = {
        proc: DriftSpec(alpha, beta)
        for proc, (alpha, beta) in data["drift"].items()
    }
    transit = {}
    for entry in data["transit"]:
        u, v = entry["link"]
        transit[(u, v)] = {
            sender: TransitSpec(lower, _unnum(upper))
            for sender, (lower, upper) in entry["directions"].items()
        }
    return SystemSpec(source=data["source"], drift=drift, transit=transit)


# -- samples --------------------------------------------------------------------------


def samples_to_dicts(samples: List[EstimateSample]) -> List[Dict]:
    return [
        {
            "rt": sample.rt,
            "proc": sample.proc,
            "channel": sample.channel,
            "lower": _num(sample.bound.lower),
            "upper": _num(sample.bound.upper),
            "truth": sample.truth,
        }
        for sample in samples
    ]


# -- per-link counters (format v2) ----------------------------------------------------


def link_stats_to_dicts(link_stats: Dict) -> List[Dict]:
    """Flatten ``(src, dest) -> LinkCounters`` into sorted JSON rows."""
    return [
        {
            "src": src,
            "dest": dest,
            "sent": counters.sent,
            "lost": counters.lost,
            "duplicated": counters.duplicated,
        }
        for (src, dest), counters in sorted(link_stats.items())
    ]


def link_stats_from_dicts(rows: List[Dict]) -> Dict[Tuple[str, str], Dict[str, int]]:
    """The v2 ``links`` rows as ``(src, dest) -> {sent, lost, duplicated}``."""
    return {
        (row["src"], row["dest"]): {
            "sent": int(row["sent"]),
            "lost": int(row["lost"]),
            "duplicated": int(row.get("duplicated", 0)),
        }
        for row in rows
    }


# -- self-stabilization recoveries (extra key) ----------------------------------------


def recoveries_to_dicts(recovery_events: Dict) -> List[Dict]:
    """Flatten ``(proc, channel) -> [RecoveryEvent]`` into sorted JSON rows."""
    return [
        {
            "proc": proc,
            "channel": channel,
            "at_lt": event.at_lt,
            "reason": event.reason,
            "replayed": event.replayed,
            "from_checkpoint": event.from_checkpoint,
        }
        for (proc, channel), events in sorted(recovery_events.items())
        for event in events
    ]


# -- whole runs -----------------------------------------------------------------------


def dump_run(result, path: str) -> None:
    """Archive a :class:`~repro.sim.runner.RunResult` as one JSON file."""
    document = {
        "version": FORMAT_VERSION,
        "spec": spec_to_dict(result.sim.spec),
        "trace": trace_to_dict(result.trace),
        "samples": samples_to_dicts(result.samples),
        "messages_sent": result.sim.messages_sent,
        "messages_lost": result.sim.messages_lost,
        "links": link_stats_to_dicts(result.sim.link_stats),
    }
    recoveries = recoveries_to_dicts(result.recovery_events())
    if recoveries:
        document["recoveries"] = recoveries
    with open(path, "w") as handle:
        json.dump(document, handle)


def load_run(path: str) -> Tuple[SystemSpec, ExecutionTrace, List[Dict]]:
    """Re-hydrate an archived run: (spec, trace, raw sample dicts).

    Kept as a 3-tuple for backward compatibility; use
    :func:`load_run_document` for the per-link counters a v2 archive adds.
    """
    spec, trace, samples, _links = load_run_document(path)
    return spec, trace, samples


def load_run_document(
    path: str,
) -> Tuple[SystemSpec, ExecutionTrace, List[Dict], Dict[Tuple[str, str], Dict[str, int]]]:
    """Re-hydrate an archived run including v2 per-link counters.

    Version-1 archives load fine; their ``links`` mapping is empty.
    """
    with open(path) as handle:
        document = json.load(handle)
    _check_version(document, "run")
    return (
        spec_from_dict(document["spec"]),
        trace_from_dict(document["trace"]),
        document["samples"],
        link_stats_from_dicts(document.get("links", [])),
    )
