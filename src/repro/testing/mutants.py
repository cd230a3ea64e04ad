"""Deliberately broken estimator variants for mutation smoke tests.

The conformance suite must be able to *fail*: if the differential driver
cannot distinguish a correct estimator from a subtly broken one, its
green runs mean nothing.  These mutants re-introduce realistic bugs; the
test suite asserts the driver flags each of them within the default
example budget (``tests/testing/test_differential.py``).
"""

from __future__ import annotations

from ..core.csa import EfficientCSA
from ..core.events import Event
from ..core.live import LiveTracker

__all__ = ["BrokenGCCSA", "broken_gc_factory"]


class _ForgetfulTracker(LiveTracker):
    """A live tracker with a GC bug: undelivered sends do not stay live.

    Definition 3.1 keeps a send alive while its message is in flight;
    this variant kills the previous point of a processor unconditionally,
    so in-flight sends are garbage-collected out of the AGDP and their
    transit constraints are lost when the receive finally arrives.
    """

    def observe(self, event: Event, *, lenient: bool = False):
        pred = event.eid.pred()
        if pred is not None and pred in self._undelivered:
            # the bug: drop liveness of the predecessor send prematurely;
            # the base class then reports it dead like any superseded point
            del self._undelivered[pred]
        return super().observe(event, lenient=lenient)


class BrokenGCCSA(EfficientCSA):
    """The efficient CSA with the forgetful live tracker swapped in."""

    name = "broken-gc"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.live = _ForgetfulTracker()


def broken_gc_factory(proc, spec, **kwargs):
    """Estimator factory for :func:`repro.testing.differential.run_differential`."""
    return BrokenGCCSA(proc, spec, **kwargs)
