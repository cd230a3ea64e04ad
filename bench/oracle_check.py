"""Theorem 2.1 parity against ``repro.testing.oracle`` (``bench check``).

At each processor's last event the from-scratch oracle interval over the
event's causal past must contain the true time, and the estimator's own
final interval must equal it - the algorithm is optimal, so a run that is
merely sound but looser than the oracle is a failure here.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Tuple

from repro.testing.oracle import oracle_causal_past, oracle_external_bounds

TOLERANCE = 1e-6


def _close(a: float, b: float) -> bool:
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= TOLERANCE


def oracle_parity(trace: Iterable, spec, final_bounds: Dict[str, Tuple[float, float]]) -> Dict:
    """``trace`` yields records with ``.event`` and ``.rt``; ``final_bounds``
    maps a processor to its estimator's ``(lower, upper)`` at its last event."""
    records = list(trace)
    events = [record.event for record in records]
    rt_of = {record.event.eid: record.rt for record in records}
    last = {}
    for event in events:
        prev = last.get(event.proc)
        if prev is None or event.seq > prev.seq:
            last[event.proc] = event
    failures: List[str] = []
    for proc, event in sorted(last.items()):
        past = oracle_causal_past(events, event.eid)
        oracle = oracle_external_bounds(past, spec, event.eid)
        if not oracle.contains(rt_of[event.eid], tolerance=TOLERANCE):
            failures.append(f"oracle {oracle} at {event.eid} excludes rt {rt_of[event.eid]!r}")
        if proc in final_bounds:
            lower, upper = final_bounds[proc]
            if not (_close(lower, oracle.lower) and _close(upper, oracle.upper)):
                failures.append(f"{proc}: estimate [{lower!r}, {upper!r}] != oracle {oracle}")
    return {"checked": len(last), "events": len(events), "failures": failures}
