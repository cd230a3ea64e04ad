"""Hardware clock models for the simulator.

A clock model maps real time to local time and back.  Every model
*advertises* a :class:`~repro.core.specs.DriftSpec`; the model's actual
behaviour must stay within the advertised bounds, because the optimality
theorems quantify over executions that satisfy their own specification.
The test-suite verifies this containment for every model (including the
randomised one, via hypothesis).

Models:

* :class:`PerfectClock` - ``LT == RT`` (the source).
* :class:`AffineClock` - constant rate and offset; the classical
  fixed-skew model.
* :class:`PiecewiseDriftingClock` - the realistic model: the rate performs
  a seeded random walk within ``[r_min, r_max]``, changing at random
  intervals.  This exercises the *drifting* part of the paper's title:
  no single affine correction explains such a clock for long.

All clocks here are strictly increasing and continuous, hence invertible,
as the paper's model requires (it excludes discontinuous local clocks).
"""

from __future__ import annotations

import abc
import bisect
import math
import random
from typing import List, Tuple

from ..core.errors import SimulationError
from ..core.specs import DriftSpec

__all__ = [
    "ClockModel",
    "PerfectClock",
    "AffineClock",
    "PiecewiseDriftingClock",
    "SinusoidalDriftClock",
    "ExcursionClock",
]


class ClockModel(abc.ABC):
    """A strictly increasing, invertible mapping from real to local time."""

    @property
    @abc.abstractmethod
    def advertised(self) -> DriftSpec:
        """The drift specification this clock promises to satisfy."""

    @abc.abstractmethod
    def lt(self, rt: float) -> float:
        """Local time shown when real time is ``rt >= 0``."""

    @abc.abstractmethod
    def rt(self, lt: float) -> float:
        """The real time at which the clock shows ``lt`` (inverse of :meth:`lt`)."""

    def lt_batch(self, rts: List[float]) -> List[float]:
        """Local times for many real times; identical values to mapping :meth:`lt`.

        No production caller: the engine reads one :meth:`lt` per event.
        Kept only as a ``bench/trace.py`` hook point until its hook table
        is re-based.
        """
        return [self.lt(rt) for rt in rts]


class PerfectClock(ClockModel):
    """The source's clock: local time equals real time."""

    @property
    def advertised(self) -> DriftSpec:
        return DriftSpec.perfect()

    def lt(self, rt: float) -> float:
        return rt

    def rt(self, lt: float) -> float:
        return lt


class AffineClock(ClockModel):
    """``LT = offset + rate * RT`` with a constant rate.

    The advertised spec defaults to the exact rate bounds ``[rate, rate]``
    widened to the given ppm envelope, mirroring a workstation whose quartz
    oscillator sits somewhere inside its datasheet tolerance.
    """

    def __init__(self, offset: float = 0.0, rate: float = 1.0, *, advertised_ppm: float = None):
        if rate <= 0:
            raise SimulationError(f"clock rate must be positive, got {rate}")
        self.offset = offset
        self.rate = rate
        if advertised_ppm is None:
            # tightest spec containing the true rate
            self._advertised = DriftSpec.from_rate_bounds(rate, rate)
        else:
            self._advertised = DriftSpec.from_ppm(advertised_ppm)
            rho = advertised_ppm * 1e-6
            if not (1 - rho <= rate <= 1 + rho):
                raise SimulationError(
                    f"true rate {rate} outside advertised +/-{advertised_ppm} ppm"
                )

    @property
    def advertised(self) -> DriftSpec:
        return self._advertised

    def lt(self, rt: float) -> float:
        return self.offset + self.rate * rt

    def rt(self, lt: float) -> float:
        return (lt - self.offset) / self.rate


class PiecewiseDriftingClock(ClockModel):
    """A clock whose rate random-walks inside ``[r_min, r_max]``.

    Segments are generated lazily and deterministically from the seed: the
    rate is redrawn uniformly from the advertised band (optionally pulled
    towards the current value) at exponentially distributed real-time
    intervals.  ``advertised`` is exactly ``[r_min, r_max]`` expressed as a
    :class:`DriftSpec`, so the clock satisfies its spec by construction:
    over any real interval, elapsed local time is the integral of a rate
    that stays within the band.
    """

    def __init__(
        self,
        seed: int,
        *,
        r_min: float = 1.0 - 1e-4,
        r_max: float = 1.0 + 1e-4,
        offset: float = 0.0,
        mean_segment: float = 50.0,
        smoothness: float = 0.5,
    ):
        if not (0 < r_min <= r_max):
            raise SimulationError(f"bad rate band [{r_min}, {r_max}]")
        if mean_segment <= 0:
            raise SimulationError("mean_segment must be positive")
        if not (0 <= smoothness < 1):
            raise SimulationError("smoothness must be in [0, 1)")
        self._rng = random.Random(seed)
        self._r_min = r_min
        self._r_max = r_max
        self._mean_segment = mean_segment
        self._smoothness = smoothness
        self._advertised = DriftSpec.from_rate_bounds(r_min, r_max)
        initial_rate = self._rng.uniform(r_min, r_max)
        #: segment starts: (rt_start, lt_start, rate); covers [rt_start, next)
        self._segments: List[Tuple[float, float, float]] = [(0.0, offset, initial_rate)]
        #: parallel arrays of segment starts, for O(log n) bisect lookups
        self._starts_rt: List[float] = [0.0]
        self._starts_lt: List[float] = [offset]
        self._horizon_rt = 0.0

    @property
    def advertised(self) -> DriftSpec:
        return self._advertised

    @property
    def rate_band(self) -> Tuple[float, float]:
        return self._r_min, self._r_max

    def _extend_to(self, rt: float) -> None:
        while self._horizon_rt <= rt:
            rt_start, lt_start, rate = self._segments[-1]
            duration = self._rng.expovariate(1.0 / self._mean_segment)
            rt_end = rt_start + max(duration, 1e-6)
            lt_end = lt_start + rate * (rt_end - rt_start)
            fresh = self._rng.uniform(self._r_min, self._r_max)
            next_rate = self._smoothness * rate + (1 - self._smoothness) * fresh
            self._segments.append((rt_end, lt_end, next_rate))
            self._starts_rt.append(rt_end)
            self._starts_lt.append(lt_end)
            self._horizon_rt = rt_end

    def lt(self, rt: float) -> float:
        if rt < 0:
            raise SimulationError(f"real time must be >= 0, got {rt}")
        self._extend_to(rt)
        idx = bisect.bisect_right(self._starts_rt, rt) - 1
        rt_start, lt_start, rate = self._segments[idx]
        return lt_start + rate * (rt - rt_start)

    def rt(self, lt: float) -> float:
        if lt < self._segments[0][1]:
            raise SimulationError(
                f"local time {lt} precedes clock start {self._segments[0][1]}"
            )
        # Extend until the last generated segment starts after lt, so some
        # earlier segment is guaranteed to cover it.
        while lt > self._starts_lt[-1]:
            self._extend_to(self._horizon_rt + self._mean_segment)
        idx = bisect.bisect_right(self._starts_lt, lt) - 1
        rt_start, lt_start, rate = self._segments[idx]
        return rt_start + (lt - lt_start) / rate

    def segment_count(self) -> int:
        return len(self._segments)


class SinusoidalDriftClock(ClockModel):
    """A clock whose rate oscillates sinusoidally - the temperature model.

    Quartz oscillators drift with ambient temperature, which typically
    cycles (diurnal or HVAC-driven); the resulting rate is well modelled
    as ``rate(t) = center + amplitude * sin(2 pi t / period + phase)``.
    The local time is the closed-form integral

        ``LT(t) = offset + center * t
                  - amplitude * period / (2 pi)
                    * (cos(2 pi t / period + phase) - cos(phase))``

    and the inverse is computed by bisection (the rate is everywhere
    positive, so the mapping is strictly increasing).  The advertised
    spec is exactly the band ``[center - amplitude, center + amplitude]``.
    """

    def __init__(
        self,
        *,
        center: float = 1.0,
        amplitude: float = 5e-5,
        period: float = 600.0,
        phase: float = 0.0,
        offset: float = 0.0,
    ):
        if not (0 <= amplitude < center):
            raise SimulationError(
                f"need 0 <= amplitude < center, got {amplitude}, {center}"
            )
        if period <= 0:
            raise SimulationError(f"period must be positive, got {period}")
        self.center = center
        self.amplitude = amplitude
        self.period = period
        self.phase = phase
        self.offset = offset
        self._omega = 2.0 * math.pi / period
        self._advertised = DriftSpec.from_rate_bounds(
            center - amplitude, center + amplitude
        )

    @property
    def advertised(self) -> DriftSpec:
        return self._advertised

    def lt(self, rt: float) -> float:
        if rt < 0:
            raise SimulationError(f"real time must be >= 0, got {rt}")
        swing = self.amplitude / self._omega
        return (
            self.offset
            + self.center * rt
            - swing * (math.cos(self._omega * rt + self.phase) - math.cos(self.phase))
        )

    def rt(self, lt: float) -> float:
        if lt < self.offset:
            raise SimulationError(
                f"local time {lt} precedes clock start {self.offset}"
            )
        # bracket: rate is within [center - amplitude, center + amplitude]
        low = (lt - self.offset) / (self.center + self.amplitude)
        high = (lt - self.offset) / (self.center - self.amplitude) + 1e-12
        for _ in range(200):
            mid = 0.5 * (low + high)
            if self.lt(mid) < lt:
                low = mid
            else:
                high = mid
            if high - low <= 1e-12 * max(1.0, high):
                break
        return 0.5 * (low + high)


class ExcursionClock(ClockModel):
    """A clock that *violates* its advertised spec during excursion windows.

    Wraps a base clock and adds ``rate_offset`` to its rate over each real
    time window ``[start, end)``:

        ``LT(t) = base.LT(t) + sum_w offset_w * |[0, t] ∩ [start_w, end_w)|``

    The advertised spec is the *base clock's* spec, unchanged - the whole
    point is a clock that silently leaves its datasheet band, the
    out-of-spec fault :class:`~repro.sim.faults.DriftExcursion` injects.
    Such executions break the preconditions of Theorem 2.1; estimators see
    timestamps their specification cannot explain, which is what the
    degraded-mode quarantine of :class:`~repro.core.csa.EfficientCSA`
    exists to absorb.

    The mapping stays strictly increasing (required by the model): the
    summed active offsets may never push the rate to zero, which is
    validated against the base clock's advertised minimum rate.
    """

    def __init__(self, base: ClockModel, windows):
        self.base = base
        cleaned = []
        for start, end, offset in windows:
            if not (0 <= start < end):
                raise SimulationError(f"bad excursion window [{start}, {end})")
            if offset == 0:
                raise SimulationError("excursion rate offset must be non-zero")
            cleaned.append((float(start), float(end), float(offset)))
        self._windows = tuple(cleaned)
        # minimum instantaneous base rate allowed by the advertised band
        min_rate = 1.0 / base.advertised.beta
        boundaries = sorted({w[0] for w in self._windows} | {w[1] for w in self._windows})
        for point in boundaries:
            active = sum(o for s, e, o in self._windows if s <= point < e)
            if min_rate + active <= 0:
                raise SimulationError(
                    f"excursion offsets sum to {active} at rt={point}, which would "
                    f"stop or reverse a clock with minimum rate {min_rate}"
                )

    @property
    def advertised(self) -> DriftSpec:
        return self.base.advertised

    @property
    def windows(self):
        return self._windows

    def _extra(self, rt: float) -> float:
        total = 0.0
        for start, end, offset in self._windows:
            overlap = min(rt, end) - start
            if overlap > 0:
                total += offset * overlap
        return total

    def lt(self, rt: float) -> float:
        if rt < 0:
            raise SimulationError(f"real time must be >= 0, got {rt}")
        return self.base.lt(rt) + self._extra(rt)

    def rt(self, lt: float) -> float:
        start_lt = self.lt(0.0)
        if lt < start_lt:
            raise SimulationError(f"local time {lt} precedes clock start {start_lt}")
        # exponential search for an upper bracket, then bisection (the
        # mapping is strictly increasing but only piecewise smooth)
        high = 1.0
        while self.lt(high) < lt:
            high *= 2.0
            if high > 1e18:  # pragma: no cover - defensive
                raise SimulationError(f"cannot bracket local time {lt}")
        low = 0.0
        for _ in range(200):
            mid = 0.5 * (low + high)
            if self.lt(mid) < lt:
                low = mid
            else:
                high = mid
            if high - low <= 1e-12 * max(1.0, high):
                break
        return 0.5 * (low + high)
