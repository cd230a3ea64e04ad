"""The differential driver: clean runs, mutation smoke, corpus machinery.

The bulk properties here (reliable / lossy / Byzantine / numpy-backend)
are the PR's conformance sweep: under the ``ci`` profile they replay well
over 500 generated schedules through every implementation path and the
oracles, asserting zero divergences.  The mutation tests then prove the
sweep *can* fail: a deliberately GC-broken estimator must be flagged,
minimized, and archived.
"""

import dataclasses

import pytest
from hypothesis import given

from repro.core import EfficientCSA
from repro.sim.faults import ByzantineProcessor
from repro.sim.schedule import Schedule
from repro.testing import (
    broken_gc_factory,
    check_schedule,
    load_corpus_entry,
    minimize_schedule,
    repro_script,
    run_differential,
    write_corpus_entry,
)
from repro.testing.strategies import schedules

# -- the conformance sweep -------------------------------------------------------------


@given(schedules(min_steps=5, max_steps=30))
def test_differential_reliable(schedule):
    report = run_differential(schedule)
    assert report.ok, report.describe()


@given(schedules(min_steps=5, max_steps=35, lossy=True))
def test_differential_lossy(schedule):
    report = run_differential(schedule)
    assert report.ok, report.describe()


@given(schedules(min_procs=3, max_procs=5, min_steps=8, max_steps=35, tamper=True))
def test_differential_byzantine(schedule):
    report = run_differential(schedule)
    assert report.ok, report.describe()


@given(schedules(min_steps=5, max_steps=25))
def test_differential_numpy_backend(schedule):
    report = run_differential(
        schedule,
        estimator_factory=lambda p, s: EfficientCSA(p, s, agdp_backend="numpy"),
    )
    assert report.ok, report.describe()


# -- mutation smoke: the driver must catch a broken estimator --------------------------

#: The in-flight-send shape the forgetful tracker garbage-collects away.
MUTANT_TRIGGER = Schedule(
    rates=(1.0, 1.002),
    edges=((0, 1),),
    steps=(
        ("send", 1, 0, 0.5),
        ("send", 0, 1, 0.2),
        ("deliver", 0, 1, 0.3),
        ("deliver", 1, 0, 0.4),
        ("send", 0, 1, 0.1),
        ("deliver", 0, 1, 0.2),
    ),
)


def _mutant_factory(proc, spec):
    return broken_gc_factory(proc, spec, reliable=True)


def test_mutation_smoke_broken_gc_is_flagged():
    report = run_differential(MUTANT_TRIGGER, estimator_factory=_mutant_factory)
    assert not report.ok
    assert {d.kind for d in report.divergences} & {"live-set", "gc-distance", "crash"}


@given(schedules(min_steps=10, max_steps=30))
def test_mutation_smoke_within_default_budget(schedule):
    """Hypothesis finds the mutant without a hand-built trigger.

    Not every random schedule tickles the bug (a message must be in
    flight across another local event), so the property asserts one-sided
    correctness - whenever the mutant diverges it is for the right
    reason - while the deterministic trigger above guarantees detection.
    """
    report = run_differential(
        schedule, estimator_factory=_mutant_factory, check_determinism=False
    )
    if not report.ok:
        assert {d.kind for d in report.divergences} <= {
            "live-set",
            "gc-distance",
            "optimality",
            "reference",
            "crash",
        }


def test_minimization_shrinks_the_trigger():
    def diverges(candidate):
        return not run_differential(
            candidate, estimator_factory=_mutant_factory
        ).ok

    minimized = minimize_schedule(MUTANT_TRIGGER, diverges)
    assert diverges(minimized)
    assert len(minimized.steps) < len(MUTANT_TRIGGER.steps)
    assert minimized.rates == (1.0, 1.0)  # rate flattening applied


def test_check_schedule_archives_and_raises(tmp_path):
    corpus = tmp_path / "corpus"
    with pytest.raises(AssertionError) as excinfo:
        check_schedule(
            MUTANT_TRIGGER, corpus_dir=corpus, estimator_factory=_mutant_factory
        )
    message = str(excinfo.value)
    assert "deterministic repro" in message
    assert "Schedule.from_json" in message
    entries = list(corpus.glob("*.json"))
    assert len(entries) == 1
    replayed = load_corpus_entry(entries[0])
    # the archived (minimized) schedule still reproduces the divergence
    assert not run_differential(
        replayed, estimator_factory=_mutant_factory
    ).ok
    # ... and is clean on the real estimator: a committed regression seed
    assert run_differential(replayed).ok


def test_check_schedule_is_quiet_on_clean_runs(tmp_path):
    report = check_schedule(MUTANT_TRIGGER, corpus_dir=tmp_path / "corpus")
    assert report.ok
    assert not (tmp_path / "corpus").exists()


# -- corpus entry format ---------------------------------------------------------------


def test_corpus_entry_round_trip(tmp_path):
    report = run_differential(MUTANT_TRIGGER)
    path = write_corpus_entry(report, tmp_path, label="seed", note="smoke")
    assert path.name.startswith("seed-")
    assert load_corpus_entry(path) == MUTANT_TRIGGER


def test_corpus_entry_rejects_unknown_format(tmp_path):
    report = run_differential(MUTANT_TRIGGER)
    path = write_corpus_entry(report, tmp_path)
    import json

    data = json.loads(path.read_text())
    data["format"] = 999
    path.write_text(json.dumps(data))
    with pytest.raises(ValueError, match="format"):
        load_corpus_entry(path)


def test_repro_script_executes_standalone():
    script = repro_script(MUTANT_TRIGGER)
    namespace = {}
    exec(compile(script, "<repro>", "exec"), namespace)  # clean on the real CSA
    assert namespace["report"].ok


# -- tamper plumbing -------------------------------------------------------------------


def test_tampered_schedule_round_trips_and_runs():
    schedule = dataclasses.replace(
        MUTANT_TRIGGER,
        tamper=ByzantineProcessor("q1", modes=("lie_timestamps",), magnitude=0.25),
    )
    assert Schedule.from_json(schedule.to_json()) == schedule
    report = run_differential(schedule)
    assert report.ok, report.describe()
