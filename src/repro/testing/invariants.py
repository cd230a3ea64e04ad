"""Debug-mode structural invariants for the efficient CSA and its AGDP.

These checks are *internal consistency* assertions - cheap enough to run
after every mutation in a test, far too expensive for production.  They
are wired into :class:`~repro.core.csa.EfficientCSA` and both AGDP
backends behind the ``REPRO_DEBUG=1`` environment variable (or the
explicit ``debug_checks=True`` constructor flag): every edge insertion and
every GC pass re-validates the structure it just touched.

Checked here (paper references in parentheses):

* zero self-distances and no negative cycles in the AGDP matrix
  (Theorem 2.1: a negative cycle means the accepted constraints are
  mutually inconsistent);
* the triangle inequality is closed: ``d(x, z) <= d(x, y) + d(y, z)``
  for all tracked nodes - the matrix must hold *exact* distances, not
  mere upper bounds (Lemma 3.4);
* no dead nodes post-GC: with GC enabled the AGDP tracks exactly the
  live points of the tracked view (Definition 3.1), minus excluded
  evidence in hardened mode;
* tracker/history frontier agreement and loss-flag agreement (Lemma 3.1:
  at every point the processor knows exactly its local view);
* quarantine/suspicion consistency: diagnostics only in degraded mode,
  no protected processor ever evicted, no excluded event in the graph,
  and the source anchor present and live.

This module deliberately imports nothing from :mod:`repro.core` at module
scope so the core can lazily import it without cycles.
"""

from __future__ import annotations

import math
import os
from typing import Optional

__all__ = [
    "InvariantViolation",
    "check_agdp_invariants",
    "check_csa_invariants",
    "debug_checks_enabled",
]


class InvariantViolation(AssertionError):
    """A debug-mode structural invariant does not hold."""


def debug_checks_enabled(override: Optional[bool] = None) -> bool:
    """Whether debug invariant hooks should be active.

    ``override`` (the estimator's ``debug_checks`` argument) wins when not
    None; otherwise the ``REPRO_DEBUG`` environment variable decides, with
    ``""`` and ``"0"`` meaning off.
    """
    if override is not None:
        return override
    return os.environ.get("REPRO_DEBUG", "") not in ("", "0")


def _fail(message: str) -> None:
    raise InvariantViolation(message)


def check_agdp_invariants(agdp, *, tolerance: float = 1e-6) -> None:
    """Validate one AGDP matrix: self-distances, cycles, triangle closure.

    Works against both the dict and the numpy backend (anything with
    ``nodes`` and ``distance``).  O(n^3) - debug mode only.
    """
    nodes = sorted(agdp.nodes)
    dist = {x: {y: agdp.distance(x, y) for y in nodes} for x in nodes}
    for x in nodes:
        d_xx = dist[x][x]
        if d_xx != 0.0:
            _fail(f"self-distance d({x}, {x}) = {d_xx}, expected 0")
        for y in nodes:
            d_xy = dist[x][y]
            if math.isnan(d_xy):
                _fail(f"d({x}, {y}) is NaN")
            if math.isinf(d_xy):
                continue
            if d_xy + dist[y][x] < -tolerance:
                _fail(
                    f"negative cycle {x} -> {y} -> {x}: "
                    f"{d_xy} + {dist[y][x]}"
                )
    for y in nodes:
        for x in nodes:
            d_xy = dist[x][y]
            if math.isinf(d_xy):
                continue
            row = dist[x]
            for z in nodes:
                d_yz = dist[y][z]
                if math.isinf(d_yz):
                    continue
                if d_xy + d_yz < row[z] - tolerance:
                    _fail(
                        f"triangle inequality open at ({x}, {y}, {z}): "
                        f"d({x},{z}) = {row[z]} > {d_xy} + {d_yz}"
                    )


def check_csa_invariants(csa) -> None:
    """Validate an :class:`~repro.core.csa.EfficientCSA`'s composed state."""
    check_agdp_invariants(csa.agdp)
    live_points = csa.live.live_points()
    nodes = csa.agdp.nodes
    if csa.agdp.gc_enabled:
        if csa.suspicion is None:
            if nodes != live_points:
                _fail(
                    "post-GC node set differs from the live set: "
                    f"extra={sorted(map(str, nodes - live_points))}, "
                    f"missing={sorted(map(str, live_points - nodes))}"
                )
        else:
            if not nodes <= live_points:
                _fail(
                    "AGDP holds dead nodes: "
                    f"{sorted(map(str, nodes - live_points))}"
                )
            for eid in nodes:
                if csa.suspicion.is_excluded(eid):
                    _fail(f"excluded event {eid} still in the AGDP")
            for eid in live_points - nodes:
                if not csa.suspicion.is_excluded(eid):
                    _fail(f"live, non-excluded event {eid} missing from the AGDP")
    # Lemma 3.1 bookkeeping: tracker and history agree on the known frontier
    for proc in csa.live.processors:
        tracker_seq = csa.live.last_seq(proc)
        history_seq = csa.history.known_seq(proc)
        if tracker_seq != history_seq:
            _fail(
                f"frontier disagreement at {proc!r}: live tracker has seq "
                f"{tracker_seq}, history has {history_seq}"
            )
    if csa.live.lost_flags != csa.history.loss_flags:
        _fail(
            "loss-flag disagreement: tracker "
            f"{sorted(map(str, csa.live.lost_flags))} vs history "
            f"{sorted(map(str, csa.history.loss_flags))}"
        )
    # quarantine / suspicion consistency
    if csa.diagnostics and not csa.degraded_mode:
        _fail("quarantine diagnostics recorded outside degraded mode")
    if csa.suspicion is not None:
        evicted = csa.suspicion.evicted_procs
        protected = csa.suspicion.protected
        if evicted & protected:
            _fail(f"protected processor evicted: {sorted(evicted & protected)}")
    anchor = csa._source_rep
    if anchor is not None:
        if anchor.proc != csa.spec.source:
            _fail(f"source anchor {anchor} is not a source event")
        if anchor not in csa.agdp:
            _fail(f"source anchor {anchor} missing from the AGDP")
