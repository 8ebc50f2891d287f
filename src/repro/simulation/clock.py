"""Clock models: ideal and ppm-drifting local clocks.

ND protocols are asynchronous by definition -- no common time base -- but
real crystals additionally *drift*: a +-20..50 ppm rate error is typical
for the sleep-clock crystals of BLE-class devices.  Drift perturbs the
perfect periodicity the bounds assume; the robustness experiments use
:class:`DriftingClock` to measure how much of the theoretical guarantee
survives imperfect oscillators.

Conversions are exact on the integer grid: local time is mapped to
global microseconds with rational arithmetic and rounding, so a clock
with ``drift_ppm=0`` is bit-identical to :class:`IdealClock`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

__all__ = ["IdealClock", "DriftingClock"]


@dataclass(frozen=True)
class IdealClock:
    """A perfect clock: local time == global time, plus a phase offset."""

    phase: int = 0
    """Global time at which the device's local time is zero."""

    def to_global(self, local_time: int) -> int:
        """Map a local timestamp to global simulation time."""
        return local_time + self.phase

    def to_local(self, global_time: int) -> int:
        """Map a global timestamp to the device's local time."""
        return global_time - self.phase


@dataclass(frozen=True)
class DriftingClock:
    """A clock running fast or slow by ``drift_ppm`` parts per million.

    A device that believes ``t_local`` microseconds elapsed has really
    seen ``t_local * (1 + drift_ppm * 1e-6)`` global microseconds: a
    positive ppm means the crystal is *slow* (local events spread out in
    global time).
    """

    phase: int = 0
    drift_ppm: int = 0
    _rate: Fraction = field(init=False, repr=False, compare=False)
    """``1 + drift_ppm / 10**6``, built once: every conversion uses it."""

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "_rate", 1 + Fraction(self.drift_ppm, 1_000_000)
        )

    def to_global(self, local_time: int) -> int:
        """Map local to global time (rounded to the integer grid)."""
        return self.phase + round(local_time * self._rate)

    def to_local(self, global_time: int) -> int:
        """Map global to local time (rounded to the integer grid)."""
        return round((global_time - self.phase) / self._rate)
