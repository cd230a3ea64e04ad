"""The differential conformance driver.

One :class:`~repro.sim.schedule.Schedule` is replayed against every
implementation path at once - :class:`~repro.core.csa.EfficientCSA`, the
:class:`~repro.core.csa_full.FullInformationCSA` reference, and the
from-scratch oracles of :mod:`repro.testing.oracle` - and every
observable they share is diffed:

* **soundness** - the estimate contains the hidden true time (always
  checkable: the harness knows the real execution);
* **optimality** - the estimate equals Theorem 2.1 evaluated by the
  independent oracle on the causal past;
* **reference** - the efficient and full-information paths agree
  interval-for-interval (the paper's experiment E1, here on adversarial
  schedules);
* **live-set** - the incremental tracker equals Definition 3.1, with the
  Sec 3.3 loss-flag adjustment on lossy schedules;
* **gc-distance** - Lemma 3.5: at end of run, every AGDP live-live
  distance equals the oracle shortest path over the *full* causal past
  (garbage collection lost nothing);
* **quarantine** - spec-satisfying honest schedules must produce zero
  quarantine diagnostics, zero validation failures, and zero evictions;
  under tampering, suspicion state must stay structurally consistent;
* **serialize** - the spec and schedule survive their JSON round-trips;
* **determinism** - two fresh replays produce bit-identical estimates,
  diagnostics, validation-failure kinds, and suspicion state.

On Byzantine schedules the driver tracks taint: a processor is tainted
once it receives (transitively) from the liar.  Tainted processors get no
soundness/optimality guarantees - a within-spec lie is indistinguishable
from an honest execution, so their intervals may legitimately exclude the
truth - but untainted processors must still pass every check.

Any divergence yields a :class:`DifferentialReport` carrying minimized
deterministic repro material; :func:`check_schedule` additionally writes a
JSON corpus entry (see ``docs/TESTING.md``) and raises with an inline
repro script.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, List, Optional, Tuple

from ..core.csa import EfficientCSA
from ..core.csa_base import SuspicionPolicy
from ..core.specs import SystemSpec
from ..sim.schedule import Schedule, ScheduleHarness
from .asserts import DEFAULT_TOLERANCE, bounds_equal, endpoint_equal
from .invariants import InvariantViolation
from .oracle import (
    oracle_causal_past,
    oracle_distances_from,
    oracle_external_bounds,
    oracle_live_points,
)

__all__ = [
    "CORPUS_FORMAT",
    "Divergence",
    "DifferentialReport",
    "check_schedule",
    "default_estimator_factory",
    "load_corpus_entry",
    "minimize_schedule",
    "repro_script",
    "run_differential",
    "write_corpus_entry",
]

#: Version tag of the JSON corpus entry format (docs/TESTING.md).
CORPUS_FORMAT = 1


@dataclass(frozen=True)
class Divergence:
    """One observable disagreement between implementation paths."""

    #: which diffed property failed (see the module docstring)
    kind: str
    #: index of the schedule step after which the disagreement surfaced,
    #: -1 for end-of-run checks
    step: int
    #: the processor whose state diverged ("" for global checks)
    proc: str
    detail: str

    def __str__(self):
        where = f"step {self.step}" if self.step >= 0 else "end of run"
        return f"[{self.kind}] {where} at {self.proc or '<global>'}: {self.detail}"


@dataclass
class DifferentialReport:
    """Outcome of one differential replay."""

    schedule: Schedule
    divergences: List[Divergence] = field(default_factory=list)
    #: number of individual property checks performed
    checks: int = 0
    #: number of checkpoints (deliveries and detected drops) examined
    checkpoints: int = 0

    @property
    def ok(self) -> bool:
        return not self.divergences

    def describe(self) -> str:
        head = (
            f"differential run over {self.schedule.n_procs} processors, "
            f"{len(self.schedule.steps)} steps: {self.checks} checks at "
            f"{self.checkpoints} checkpoints, {len(self.divergences)} divergences"
        )
        lines = [head] + [f"  {d}" for d in self.divergences]
        return "\n".join(lines)


def default_estimator_factory(
    schedule: Schedule, *, debug_invariants: bool = False
) -> Callable[[str, SystemSpec], EfficientCSA]:
    """The estimator configuration a schedule calls for.

    Lossy schedules run in unreliable mode; tampered schedules run the
    hardened pipeline (payload screening + suspicion), since feeding lies
    to an unhardened estimator checks nothing the honest suite does not.
    Schedules containing ``corrupt`` steps arm self-healing (and
    suspicion, which the ledger corruption scope needs as a target).
    """
    reliable = not schedule.lossy
    self_heal = any(step[0] == "corrupt" for step in schedule.steps)
    suspicion = (
        SuspicionPolicy()
        if (schedule.tamper is not None or self_heal)
        else None
    )
    def factory(proc: str, spec: SystemSpec) -> EfficientCSA:
        return EfficientCSA(
            proc,
            spec,
            reliable=reliable,
            suspicion=suspicion,
            self_heal=self_heal,
            debug_checks=True if debug_invariants else None,
        )
    return factory


def run_differential(
    schedule: Schedule,
    *,
    estimator_factory: Optional[Callable[[str, SystemSpec], EfficientCSA]] = None,
    attach_full: bool = True,
    debug_invariants: bool = False,
    check_determinism: bool = True,
    check_gc_distances: bool = True,
    tolerance: float = DEFAULT_TOLERANCE,
) -> DifferentialReport:
    """Replay ``schedule`` on every path and diff all shared observables.

    ``estimator_factory`` overrides the estimator under test (it must be
    pure - the determinism check invokes it again for a second, fresh
    replay).  ``debug_invariants`` additionally arms the ``REPRO_DEBUG``
    invariant hooks on the default estimators; an
    :class:`~repro.testing.invariants.InvariantViolation` surfaces as an
    ``"invariant"`` divergence.  ``check_gc_distances=False`` skips the
    end-of-run node-set and Lemma 3.5 checks - required for estimators
    running with garbage collection disabled, whose AGDP legitimately
    retains dead points.
    """
    if estimator_factory is None:
        estimator_factory = default_estimator_factory(
            schedule, debug_invariants=debug_invariants
        )
    report = DifferentialReport(schedule=schedule)
    harness = ScheduleHarness(
        schedule, estimator_factory=estimator_factory, attach_full=attach_full
    )
    spec = harness.spec

    def checkpoint(step_index: int, proc: str) -> None:
        report.checkpoints += 1
        csa = harness.csas[proc]
        last = csa.last_local_event
        if last is None:
            return
        if proc in harness.tainted:
            return  # no honest-path guarantees past the liar's influence
        if proc in harness.dirty:
            return  # corrupted and not yet audited (a drop checkpoint can
            # land on a dirty sender before its next local event recovers it)
        bound = csa.estimate()
        report.checks += 1
        truth = harness.truth[last.eid]
        if not bound.contains(truth, tolerance=tolerance):
            report.divergences.append(
                Divergence(
                    "soundness",
                    step_index,
                    proc,
                    f"estimate {bound} excludes true time {truth:.9g} at {last.eid}",
                )
            )
        past = oracle_causal_past(harness.events, last.eid)
        known_flags = csa.history.loss_flags
        expected = oracle_external_bounds(past, spec, last.eid)
        report.checks += 1
        if not bounds_equal(bound, expected, tolerance=tolerance):
            report.divergences.append(
                Divergence(
                    "optimality",
                    step_index,
                    proc,
                    f"estimate {bound} != oracle Thm 2.1 {expected} at {last.eid}",
                )
            )
        if harness.fulls:
            reference = harness.fulls[proc].estimate()
            report.checks += 1
            if not bounds_equal(bound, reference, tolerance=tolerance):
                report.divergences.append(
                    Divergence(
                        "reference",
                        step_index,
                        proc,
                        f"efficient {bound} != full-information {reference} "
                        f"at {last.eid}",
                    )
                )
        oracle_live = oracle_live_points(past, lost=known_flags)
        report.checks += 1
        if csa.live.live_points() != oracle_live:
            ours = csa.live.live_points()
            report.divergences.append(
                Divergence(
                    "live-set",
                    step_index,
                    proc,
                    "Definition 3.1 mismatch: "
                    f"extra={sorted(map(str, ours - oracle_live))}, "
                    f"missing={sorted(map(str, oracle_live - ours))}",
                )
            )

    crashed = False
    try:
        harness.run(on_checkpoint=checkpoint)
    except InvariantViolation as exc:
        crashed = True
        report.divergences.append(
            Divergence("invariant", -1, "", f"{exc}")
        )
    except Exception as exc:  # noqa: BLE001 - any crash is a finding here
        crashed = True
        report.divergences.append(
            Divergence(
                "crash",
                -1,
                "",
                f"{type(exc).__name__}: {exc} "
                f"({traceback.format_exc(limit=3).splitlines()[-2].strip()})",
            )
        )
    if not crashed:
        _end_of_run_checks(
            report, harness, tolerance, check_gc_distances=check_gc_distances
        )
        _serialize_checks(report, harness)
        if check_determinism:
            _determinism_check(report, schedule, estimator_factory)
    return report


# -- end-of-run checks ----------------------------------------------------------------


def _end_of_run_checks(
    report: DifferentialReport,
    harness: ScheduleHarness,
    tolerance: float,
    *,
    check_gc_distances: bool = True,
) -> None:
    spec = harness.spec
    for proc in harness.names:
        csa = harness.csas[proc]
        if proc in harness.dirty:
            continue  # corrupted with no event since - nothing to certify
        if proc in harness.tainted:
            _suspicion_consistency(report, proc, csa)
            continue
        # honest, untainted estimators must never have degraded or blamed
        report.checks += 1
        if csa.diagnostics or csa.validation_failures or csa.eviction_events:
            report.divergences.append(
                Divergence(
                    "quarantine",
                    -1,
                    proc,
                    f"honest run degraded: {len(csa.diagnostics)} diagnostics, "
                    f"{len(csa.validation_failures)} validation failures, "
                    f"{len(csa.eviction_events)} eviction events",
                )
            )
            continue
        last = csa.last_local_event
        if last is None or not check_gc_distances:
            continue
        # Lemma 3.5: GC preserved every live-live distance exactly
        past = oracle_causal_past(harness.events, last.eid)
        known_flags = csa.history.loss_flags
        expected_live = oracle_live_points(past, lost=known_flags)
        nodes = csa.agdp.nodes
        report.checks += 1
        if nodes != expected_live:
            report.divergences.append(
                Divergence(
                    "live-set",
                    -1,
                    proc,
                    "final AGDP node set differs from Definition 3.1: "
                    f"extra={sorted(map(str, nodes - expected_live))}, "
                    f"missing={sorted(map(str, expected_live - nodes))}",
                )
            )
            continue
        for x in sorted(nodes):
            oracle_d = oracle_distances_from(past, spec, x)
            for y in sorted(nodes):
                report.checks += 1
                if not endpoint_equal(
                    csa.agdp.distance(x, y), oracle_d[y], tolerance=tolerance
                ):
                    report.divergences.append(
                        Divergence(
                            "gc-distance",
                            -1,
                            proc,
                            f"Lemma 3.5 violated: agdp d({x}, {y}) = "
                            f"{csa.agdp.distance(x, y)}, oracle shortest path "
                            f"= {oracle_d[y]}",
                        )
                    )


def _suspicion_consistency(
    report: DifferentialReport, proc: str, csa: EfficientCSA
) -> None:
    """Structural checks that hold even for estimators fed with lies."""
    report.checks += 1
    if csa.suspicion is None:
        return
    evicted = csa.suspicion.evicted_procs
    bad = evicted & csa.suspicion.protected
    if bad:
        report.divergences.append(
            Divergence(
                "quarantine",
                -1,
                proc,
                f"protected processors evicted: {sorted(bad)}",
            )
        )
    for eid in csa.agdp.nodes:
        if csa.suspicion.is_excluded(eid):
            report.divergences.append(
                Divergence(
                    "quarantine",
                    -1,
                    proc,
                    f"excluded event {eid} still present in the AGDP",
                )
            )
            break


# -- serialize round-trips ------------------------------------------------------------


def _serialize_checks(report: DifferentialReport, harness: ScheduleHarness) -> None:
    from ..sim.serialize import spec_from_dict, spec_to_dict

    spec = harness.spec
    report.checks += 1
    revived = spec_from_dict(json.loads(json.dumps(spec_to_dict(spec))))
    if (
        revived.source != spec.source
        or revived.drift != spec.drift
        or revived.transit != spec.transit
    ):
        report.divergences.append(
            Divergence(
                "serialize",
                -1,
                "",
                "SystemSpec JSON round-trip is not the identity",
            )
        )
    report.checks += 1
    if Schedule.from_json(harness.schedule.to_json()) != harness.schedule:
        report.divergences.append(
            Divergence(
                "serialize",
                -1,
                "",
                "Schedule JSON round-trip is not the identity",
            )
        )


# -- determinism ----------------------------------------------------------------------


def _capture_run(
    schedule: Schedule,
    estimator_factory: Callable[[str, SystemSpec], EfficientCSA],
) -> Tuple[List[Tuple], List[Tuple]]:
    harness = ScheduleHarness(
        schedule, estimator_factory=estimator_factory, attach_full=False
    )
    trace: List[Tuple] = []

    def checkpoint(step_index: int, proc: str) -> None:
        if proc in harness.dirty:  # corrupted state may not form an interval
            trace.append((step_index, proc, "dirty"))
            return
        bound = harness.csas[proc].estimate()
        trace.append((step_index, proc, bound.lower, bound.upper))

    harness.run(on_checkpoint=checkpoint)
    final: List[Tuple] = []
    for name in harness.names:
        csa = harness.csas[name]
        final.append(
            (
                name,
                len(csa.diagnostics),
                tuple(f.kind for f in csa.validation_failures),
                tuple(sorted(csa.suspicion.scores.items()))
                if csa.suspicion is not None
                else (),
                tuple(sorted(csa.suspicion.evicted_procs))
                if csa.suspicion is not None
                else (),
                len(csa.agdp),
            )
        )
    return trace, final


def _determinism_check(
    report: DifferentialReport,
    schedule: Schedule,
    estimator_factory: Callable[[str, SystemSpec], EfficientCSA],
) -> None:
    report.checks += 1
    try:
        first = _capture_run(schedule, estimator_factory)
        second = _capture_run(schedule, estimator_factory)
    except Exception as exc:  # noqa: BLE001 - crashes already reported above
        report.divergences.append(
            Divergence(
                "determinism",
                -1,
                "",
                f"replay crashed while checking determinism: "
                f"{type(exc).__name__}: {exc}",
            )
        )
        return
    if first != second:
        report.divergences.append(
            Divergence(
                "determinism",
                -1,
                "",
                "two fresh replays disagree (estimates, diagnostics, or "
                "suspicion state are not bit-identical)",
            )
        )


# -- minimization ---------------------------------------------------------------------


def minimize_schedule(
    schedule: Schedule,
    is_interesting: Callable[[Schedule], bool],
    *,
    max_attempts: int = 2000,
) -> Schedule:
    """Greedy delta-debugging: the smallest schedule still ``is_interesting``.

    Deliver/drop steps are no-ops when their queue is empty, so every step
    subsequence of a valid schedule is valid - the reduction loop can cut
    freely.  After step reduction it tries dropping the liar and
    flattening clock rates to 1.0.  ``is_interesting`` must accept the
    original schedule.
    """
    attempts = 0

    def interesting(candidate: Schedule) -> bool:
        nonlocal attempts
        if attempts >= max_attempts:
            return False
        attempts += 1
        try:
            return is_interesting(candidate)
        except Exception:  # noqa: BLE001 - a crashing candidate is not a repro
            return False

    best = schedule
    steps = list(schedule.steps)
    chunk = max(len(steps) // 2, 1)
    while chunk >= 1:
        index = 0
        while index < len(steps):
            candidate_steps = steps[:index] + steps[index + chunk :]
            candidate = dataclasses.replace(best, steps=tuple(candidate_steps))
            if interesting(candidate):
                steps = candidate_steps
                best = candidate
            else:
                index += chunk
        chunk //= 2
    if best.tamper is not None:
        candidate = dataclasses.replace(best, tamper=None)
        if interesting(candidate):
            best = candidate
    flat_rates = tuple(1.0 for _ in best.rates)
    if flat_rates != best.rates:
        candidate = dataclasses.replace(best, rates=flat_rates)
        if interesting(candidate):
            best = candidate
    return best


# -- corpus + repro emission ----------------------------------------------------------


def repro_script(schedule: Schedule) -> str:
    """A standalone deterministic reproduction script for ``schedule``."""
    payload = schedule.to_json()
    return (
        "# Deterministic repro - run with: PYTHONPATH=src python repro.py\n"
        "from repro.sim.schedule import Schedule\n"
        "from repro.testing.differential import run_differential\n"
        "\n"
        f"schedule = Schedule.from_json(r'''{payload}''')\n"
        "report = run_differential(schedule)\n"
        "print(report.describe())\n"
        "assert report.ok, 'divergence reproduced (see output above)'\n"
    )


def _entry_name(schedule: Schedule, label: str) -> str:
    digest = hashlib.sha256(schedule.to_json().encode()).hexdigest()[:10]
    return f"{label}-{digest}.json"


def write_corpus_entry(
    report: DifferentialReport,
    directory,
    *,
    label: str = "divergence",
    note: str = "",
) -> Path:
    """Persist a schedule (and what it uncovered) as a JSON corpus entry.

    Corpus entries are *regression seeds*: the replay suite re-runs every
    committed entry and asserts a clean report, so an entry written at
    discovery time stays red until the underlying bug is fixed and green
    forever after.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    entry = {
        "format": CORPUS_FORMAT,
        "label": label,
        "note": note,
        "schedule": report.schedule.to_dict(),
        "divergences_at_discovery": [
            {"kind": d.kind, "step": d.step, "proc": d.proc, "detail": d.detail}
            for d in report.divergences
        ],
        "repro": repro_script(report.schedule),
    }
    path = directory / _entry_name(report.schedule, label)
    path.write_text(json.dumps(entry, indent=2, sort_keys=True) + "\n")
    return path


def load_corpus_entry(path) -> Schedule:
    """Load the schedule of one corpus entry (format-checked)."""
    data = json.loads(Path(path).read_text())
    if data.get("format") != CORPUS_FORMAT:
        raise ValueError(
            f"unsupported corpus entry format {data.get('format')!r} in {path}"
        )
    return Schedule.from_dict(data["schedule"])


def check_schedule(
    schedule: Schedule,
    *,
    corpus_dir=None,
    estimator_factory: Optional[Callable[[str, SystemSpec], EfficientCSA]] = None,
    **kwargs,
) -> DifferentialReport:
    """Run the differential driver; on divergence, minimize, archive, raise.

    The one-call entry point for property-based tests: a divergence is
    shrunk by :func:`minimize_schedule`, written to ``corpus_dir`` (when
    given), and raised as an :class:`AssertionError` whose message embeds
    the deterministic repro script.
    """
    report = run_differential(
        schedule, estimator_factory=estimator_factory, **kwargs
    )
    if report.ok:
        return report

    def still_diverges(candidate: Schedule) -> bool:
        return not run_differential(
            candidate, estimator_factory=estimator_factory, **kwargs
        ).ok

    minimized = minimize_schedule(schedule, still_diverges)
    minimized_report = run_differential(
        minimized, estimator_factory=estimator_factory, **kwargs
    )
    if minimized_report.ok:  # minimization raced a flaky predicate; keep original
        minimized_report = report
    if corpus_dir is not None:
        write_corpus_entry(minimized_report, corpus_dir)
    raise AssertionError(
        minimized_report.describe()
        + "\n--- deterministic repro ---\n"
        + repro_script(minimized_report.schedule)
    )
