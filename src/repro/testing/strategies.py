"""Reusable Hypothesis strategies for the conformance suite.

One library replaces the private generators that used to be copy-pasted
across the integration fuzz files: random connected topologies, hidden
clock-rate vectors, :class:`~repro.core.specs.SystemSpec`s, adversarial
:class:`~repro.sim.schedule.Schedule`s (with optional loss and an
optional liar), seeded :class:`~repro.sim.faults.FaultPlan`s, and the
Byzantine injections both paths share.

Everything drawn here is *in specification by construction*: rates sit
inside the advertised drift band, links advertise only ``transit >= 0``,
and fault plans contain no out-of-spec excursions - so soundness and
optimality are assertable on every example (Theorem 2.1's precondition
holds).  Adversarial timing is expressed through the schedule, not the
spec.

This module is the only part of :mod:`repro.testing` that imports
``hypothesis``; access it lazily (``repro.testing`` re-exports it via
``__getattr__``) so the oracles and invariants stay importable in
environments without hypothesis installed.
"""

from __future__ import annotations

import math
from typing import List, NamedTuple, Optional, Sequence, Tuple

from hypothesis import strategies as st

from ..core.events import Event, EventId, EventKind, ProcessorId
from ..core.history import HistoryPayload
from ..core.specs import DriftSpec, SystemSpec, TransitSpec
from ..sim.faults import (
    BYZANTINE_MODES,
    CORRUPTION_SCOPES,
    ByzantineProcessor,
    CrashWindow,
    Duplication,
    FaultPlan,
    PartitionWindow,
)
from ..sim.schedule import Schedule

__all__ = [
    "Topology",
    "byzantine_processors",
    "churn_schedules",
    "clock_rates",
    "events",
    "fault_plans",
    "history_payloads",
    "schedules",
    "system_specs",
    "topologies",
]


class Topology(NamedTuple):
    """A connected undirected graph over processor indices ``0..n_procs-1``."""

    n_procs: int
    edges: Tuple[Tuple[int, int], ...]

    @property
    def names(self) -> Tuple[ProcessorId, ...]:
        return tuple(f"q{i}" for i in range(self.n_procs))

    def named_links(self) -> List[Tuple[ProcessorId, ProcessorId]]:
        names = self.names
        return [(names[u], names[v]) for u, v in self.edges]


@st.composite
def topologies(
    draw, *, min_procs: int = 2, max_procs: int = 5, max_chords: int = 2
) -> Topology:
    """Connected topologies: a random spanning tree plus a few chords."""
    n = draw(st.integers(min_value=min_procs, max_value=max_procs))
    edges = [
        (draw(st.integers(min_value=0, max_value=i - 1)), i) for i in range(1, n)
    ]
    seen = {(min(u, v), max(u, v)) for u, v in edges}
    for _ in range(draw(st.integers(min_value=0, max_value=max_chords))):
        u = draw(st.integers(min_value=0, max_value=n - 1))
        v = draw(st.integers(min_value=0, max_value=n - 1))
        key = (min(u, v), max(u, v))
        if u != v and key not in seen:
            seen.add(key)
            edges.append(key)
    return Topology(n, tuple(edges))


@st.composite
def clock_rates(
    draw, n: int, *, min_rate: float = 0.995, max_rate: float = 1.005
) -> Tuple[float, ...]:
    """Hidden affine clock rates; index 0 (the source) is pinned to 1.0."""
    rates = [1.0] + [
        draw(
            st.floats(
                min_value=min_rate,
                max_value=max_rate,
                allow_nan=False,
                allow_infinity=False,
            )
        )
        for _ in range(n - 1)
    ]
    return tuple(rates)


@st.composite
def system_specs(
    draw,
    *,
    min_procs: int = 2,
    max_procs: int = 5,
    max_drift_ppm: float = 5000.0,
    allow_bounded_transit: bool = True,
) -> SystemSpec:
    """Standalone :class:`SystemSpec`s for unit-level property tests."""
    topo = draw(topologies(min_procs=min_procs, max_procs=max_procs))
    ppm = draw(st.floats(min_value=0.0, max_value=max_drift_ppm))
    if allow_bounded_transit and draw(st.booleans()):
        lower = draw(st.floats(min_value=0.0, max_value=0.5))
        upper = lower + draw(st.floats(min_value=0.01, max_value=5.0))
        transit = TransitSpec(lower, upper)
    else:
        transit = TransitSpec(0.0, math.inf)
    names = topo.names
    return SystemSpec.build(
        source=names[0],
        processors=list(names),
        links=topo.named_links(),
        default_drift=DriftSpec.from_ppm(ppm),
        default_transit=transit,
    )


_PROC_NAMES = tuple(f"q{i}" for i in range(6))

_FINITE_LT = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


@st.composite
def events(draw, *, procs: Sequence[ProcessorId] = _PROC_NAMES) -> Event:
    """Arbitrary well-formed :class:`~repro.core.events.Event` records.

    Structural validity only (the dataclass invariants hold); nothing here
    promises protocol-level consistency across drawn events - exactly what
    a codec round-trip property needs.
    """
    procs = list(procs)
    proc = draw(st.sampled_from(procs))
    seq = draw(st.integers(min_value=0, max_value=10_000))
    lt = draw(_FINITE_LT)
    kind = draw(st.sampled_from(list(EventKind)))
    others = [p for p in procs if p != proc]
    if not others:
        kind = EventKind.INTERNAL
    if kind is EventKind.SEND:
        return Event(EventId(proc, seq), lt, kind, dest=draw(st.sampled_from(others)))
    if kind is EventKind.RECEIVE:
        send = EventId(
            draw(st.sampled_from(others)),
            draw(st.integers(min_value=0, max_value=10_000)),
        )
        return Event(EventId(proc, seq), lt, kind, send_eid=send)
    return Event(EventId(proc, seq), lt, kind)


@st.composite
def history_payloads(
    draw, *, procs: Sequence[ProcessorId] = _PROC_NAMES, max_records: int = 12
) -> HistoryPayload:
    """Arbitrary :class:`~repro.core.history.HistoryPayload`\\ s for codec tests.

    Record ids are deduplicated (a payload never reports one event twice);
    loss flags are arbitrary send-shaped ids.
    """
    drawn = draw(st.lists(events(procs=procs), max_size=max_records))
    seen = set()
    records = []
    for event in drawn:
        if event.eid not in seen:
            seen.add(event.eid)
            records.append(event)
    flags = draw(
        st.lists(
            st.tuples(
                st.sampled_from(list(procs)), st.integers(min_value=0, max_value=10_000)
            ),
            max_size=4,
            unique=True,
        )
    )
    return HistoryPayload(
        records=tuple(records),
        loss_flags=tuple(EventId(p, s) for p, s in flags),
    )


@st.composite
def schedules(
    draw,
    *,
    min_procs: int = 2,
    max_procs: int = 5,
    min_steps: int = 5,
    max_steps: int = 40,
    lossy: bool = False,
    tamper: bool = False,
    drain: bool = True,
) -> Schedule:
    """Adversarial protocol schedules (see :class:`~repro.sim.schedule.Schedule`).

    ``lossy`` admits drop steps (and runs estimators in unreliable mode);
    ``tamper`` attaches one liar (:func:`byzantine_processors` over the
    non-source processors, lying for the whole run).  With
    ``drain`` a few extra delivery steps are appended per directed link so
    long-in-flight messages still tend to arrive - deliveries are where
    the differential checks run.
    """
    topo = draw(topologies(min_procs=max(min_procs, 2), max_procs=max_procs))
    n = topo.n_procs
    rates = draw(clock_rates(n))
    directed = sorted(
        {(u, v) for u, v in topo.edges} | {(v, u) for u, v in topo.edges}
    )
    ops = ("send", "send", "deliver") if not lossy else (
        "send", "send", "deliver", "deliver", "drop"
    )
    steps: List[Tuple] = []
    for _ in range(draw(st.integers(min_value=min_steps, max_value=max_steps))):
        dt = draw(st.floats(min_value=0.01, max_value=2.0, allow_nan=False))
        u, v = draw(st.sampled_from(directed))
        op = draw(st.sampled_from(ops))
        steps.append((op, u, v, dt))
    if drain:
        for u, v in directed:
            for _ in range(draw(st.integers(min_value=0, max_value=3))):
                dt = draw(st.floats(min_value=0.01, max_value=1.0, allow_nan=False))
                steps.append(("deliver", u, v, dt))
    spec = (
        draw(byzantine_processors(topo.names[1:], duration=None)) if tamper else None
    )
    return Schedule(
        rates=rates,
        edges=topo.edges,
        steps=tuple(steps),
        lossy=lossy,
        tamper=spec,
    )


@st.composite
def churn_schedules(
    draw,
    *,
    min_procs: int = 3,
    max_procs: int = 6,
    min_steps: int = 10,
    max_steps: int = 45,
    corrupt: bool = True,
) -> Schedule:
    """Lossy schedules with membership churn and state corruption.

    A subset of non-source processors starts absent and is admitted via
    ``join`` handshakes; the step mix adds ``leave``/``rejoin``/``join``,
    time-varying edges (``link_down``/``link_up``) and - with ``corrupt`` -
    seeded state-corruption steps exercising the self-stabilization path.
    A restoration tail rejoins departed processors, raises every edge, and
    gives each processor fresh send events (so corrupted-but-idle
    estimators audit and recover) before a final drain - end-of-run
    oracle checks then cover everything that ever ran.  Every churn op
    no-ops when its precondition fails, so shrinking stays sound.
    """
    topo = draw(topologies(min_procs=max(min_procs, 3), max_procs=max_procs))
    n = topo.n_procs
    rates = draw(clock_rates(n))
    directed = sorted(
        {(u, v) for u, v in topo.edges} | {(v, u) for u, v in topo.edges}
    )
    neighbors = {i: sorted({v for u, v in directed if u == i}) for i in range(n)}
    late = sorted(
        draw(
            st.sets(
                st.integers(min_value=1, max_value=n - 1),
                max_size=max(n - 2, 1),
            )
        )
    )
    initial = tuple(i for i in range(n) if i not in late)

    def dt() -> float:
        return draw(st.floats(min_value=0.01, max_value=1.5, allow_nan=False))

    steps: List[Tuple] = []
    # warm up the initially-present members so sponsors have state to hand off
    for _ in range(draw(st.integers(min_value=2, max_value=6))):
        u, v = draw(st.sampled_from(directed))
        steps.append(("send", u, v, dt()))
        steps.append(("deliver", u, v, dt()))
    # admit each late joiner (a sponsor drawn absent makes this a no-op and
    # the joiner simply stays out - end-of-run checks skip eventless procs)
    for j in late:
        sponsors = [s for s in neighbors[j] if s not in late] or neighbors[j]
        steps.append(("join", j, draw(st.sampled_from(sponsors)), dt()))
    ops = [
        "send", "send", "send", "deliver", "deliver", "deliver", "drop",
        "leave", "rejoin", "join", "link_down", "link_up",
    ]
    if corrupt:
        ops.append("corrupt")
    for _ in range(draw(st.integers(min_value=min_steps, max_value=max_steps))):
        op = draw(st.sampled_from(ops))
        if op in ("send", "deliver", "drop"):
            u, v = draw(st.sampled_from(directed))
            steps.append((op, u, v, dt()))
        elif op in ("leave", "rejoin"):
            u = draw(st.integers(min_value=1, max_value=n - 1))
            steps.append((op, u, u, dt()))
        elif op == "join":
            j = draw(st.integers(min_value=1, max_value=n - 1))
            steps.append(("join", j, draw(st.sampled_from(neighbors[j])), dt()))
        elif op == "corrupt":
            u = draw(st.integers(min_value=0, max_value=n - 1))
            scope = draw(
                st.integers(min_value=0, max_value=len(CORRUPTION_SCOPES) - 1)
            )
            steps.append(("corrupt", u, scope, dt()))
        else:  # link_down / link_up
            u, v = draw(st.sampled_from(list(topo.edges)))
            steps.append((op, u, v, dt()))
    # restoration tail: everyone back, every edge up, every estimator audited
    for i in range(1, n):
        steps.append(("rejoin", i, i, dt()))
    for u, v in topo.edges:
        steps.append(("link_up", u, v, dt()))
    for u, v in directed:
        steps.append(("send", u, v, dt()))
    for u, v in directed:
        for _ in range(draw(st.integers(min_value=1, max_value=3))):
            steps.append(("deliver", u, v, dt()))
    return Schedule(
        rates=rates,
        edges=topo.edges,
        steps=tuple(steps),
        lossy=True,
        initial=initial if late else None,
    )


@st.composite
def byzantine_processors(
    draw,
    procs: Sequence[ProcessorId],
    *,
    duration: Optional[float] = 60.0,
) -> ByzantineProcessor:
    """Byzantine injections (:class:`~repro.sim.faults.ByzantineProcessor`).

    A window inside ``[0, duration)`` for simulator fault plans; with
    ``duration=None`` the liar lies for the whole run (schedules).
    """
    proc = draw(st.sampled_from(list(procs)))
    modes = tuple(
        sorted(
            draw(st.sets(st.sampled_from(sorted(BYZANTINE_MODES)), min_size=1))
        )
    )
    start, end = 0.0, math.inf
    if duration is not None:
        start = draw(st.floats(min_value=0.0, max_value=duration / 2))
        end = start + draw(st.floats(min_value=duration / 10, max_value=duration))
    magnitude = draw(st.floats(min_value=0.05, max_value=1.0))
    rate = draw(st.floats(min_value=0.05, max_value=0.75))
    return ByzantineProcessor(
        proc=proc, modes=modes, start=start, end=end, magnitude=magnitude, rate=rate
    )


@st.composite
def fault_plans(
    draw,
    names: Sequence[ProcessorId],
    links: Sequence[Tuple[ProcessorId, ProcessorId]],
    *,
    duration: float = 60.0,
    byzantine: bool = False,
    allow_crash_source: bool = False,
) -> FaultPlan:
    """Declarative in-spec fault plans for the simulator path.

    Crash and partition windows, duplication, and (optionally) Byzantine
    injections - but never out-of-spec drift/delay excursions, so
    Theorem 2.1's preconditions hold on every generated plan.
    """
    names = list(names)
    links = list(links)
    crash_pool = names if allow_crash_source else names[1:]
    injections: List[object] = []

    def window() -> Tuple[float, float]:
        start = draw(st.floats(min_value=0.0, max_value=duration * 0.8))
        end = start + draw(st.floats(min_value=duration * 0.01, max_value=duration * 0.5))
        return start, end

    if crash_pool:
        for _ in range(draw(st.integers(min_value=0, max_value=2))):
            start, end = window()
            injections.append(CrashWindow(draw(st.sampled_from(crash_pool)), start, end))
    if links:
        for _ in range(draw(st.integers(min_value=0, max_value=2))):
            start, end = window()
            a, b = draw(st.sampled_from(links))
            injections.append(PartitionWindow(a, b, start, end))
        for _ in range(draw(st.integers(min_value=0, max_value=1))):
            a, b = draw(st.sampled_from(links))
            injections.append(
                Duplication(a, b, prob=draw(st.floats(min_value=0.05, max_value=0.5)))
            )
    if byzantine and len(names) > 1:
        injections.append(
            draw(byzantine_processors(names[1:], duration=duration))
        )
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    return FaultPlan(seed=seed, injections=tuple(injections))
