"""Reception-window and beacon sequences (Section 3 of the paper).

A neighbor-discovery protocol is a tuple ``(B_inf, C_inf)`` of an infinite
beacon sequence and an infinite reception-window sequence (Definition 3.3).
Following the paper, the infinite sequences used here are concatenations of
finite periodic *schedules*:

* :class:`ReceptionSchedule` -- a finite sequence ``C`` of reception
  windows ``(t_i, d_i)`` repeated with period ``T_C`` (Definition 3.1).
* :class:`BeaconSchedule` -- a finite sequence ``B`` of beacons at times
  ``tau_i`` with transmission durations ``omega_i`` repeated with period
  ``T_B`` (Definition 3.2; Lemma 5.2 shows optimal infinite beacon
  sequences are repetitive, so this is without loss of optimality).

Both classes compute their duty-cycles per Lemma 3.1 (Equation 2) and can
enumerate their elements over absolute time for the simulator.  Times are
plain numbers; the package convention is **integer microseconds**, under
which all schedule arithmetic is exact.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence, Union

from .intervals import Interval, IntervalSet

Number = Union[int, float]

__all__ = [
    "ReceptionWindow",
    "Beacon",
    "ReceptionSchedule",
    "BeaconSchedule",
    "NDProtocol",
]


@dataclass(frozen=True)
class ReceptionWindow:
    """One reception window ``c_i = (t_i, d_i)``: starts at ``start`` and
    listens for ``duration`` time-units (Definition 3.1)."""

    start: Number
    duration: Number

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise ValueError(f"window duration must be positive, got {self.duration!r}")
        if self.start < 0:
            raise ValueError(f"window start must be non-negative, got {self.start!r}")

    @property
    def end(self) -> Number:
        """First instant after the window closes."""
        return self.start + self.duration

    @property
    def interval(self) -> Interval:
        """Half-open interval ``[start, end)`` of listening time."""
        return Interval(self.start, self.end)


@dataclass(frozen=True)
class Beacon:
    """One beacon ``b_i`` transmitted at ``time`` for ``duration`` time-units
    (Definition 3.2: ``tau_i`` and ``omega_i``)."""

    time: Number
    duration: Number

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise ValueError(f"beacon duration must be positive, got {self.duration!r}")
        if self.time < 0:
            raise ValueError(f"beacon time must be non-negative, got {self.time!r}")

    @property
    def end(self) -> Number:
        """First instant after the transmission finishes."""
        return self.time + self.duration

    @property
    def interval(self) -> Interval:
        """Half-open interval ``[time, end)`` of air time."""
        return Interval(self.time, self.end)


class ReceptionSchedule:
    """A finite reception-window sequence ``C`` with period ``T_C``.

    The infinite sequence ``C_inf`` is the concatenation ``C C C ...``; the
    time origin of each instance sits at the end of the last window of the
    previous instance (Figure 1a).  Windows must be sorted, pairwise
    non-overlapping, and contained in ``[0, period)``.

    Parameters
    ----------
    windows:
        The reception windows of one period, each with a start offset
        relative to the instance origin.
    period:
        ``T_C``, the time between the ends of two consecutive instances.
    """

    __slots__ = ("_windows", "_period", "_window_ends")

    def __init__(self, windows: Sequence[ReceptionWindow], period: Number) -> None:
        windows = tuple(windows)
        if not windows:
            raise ValueError("a reception schedule needs at least one window")
        if period <= 0:
            raise ValueError(f"period must be positive, got {period!r}")
        for earlier, later in zip(windows, windows[1:]):
            if later.start < earlier.end:
                raise ValueError(
                    f"windows overlap or are unsorted: {earlier} then {later}"
                )
        if windows[-1].end > period:
            raise ValueError(
                f"last window ends at {windows[-1].end} after the period {period}"
            )
        self._windows = windows
        self._period = period
        self._window_ends = tuple(w.end for w in windows)

    # ------------------------------------------------------------------
    @classmethod
    def single_window(cls, duration: Number, period: Number, start: Number = 0) -> "ReceptionSchedule":
        """The workhorse schedule: one window of ``duration`` per ``period``.

        Theorem 5.3 plus the non-ideal-radio analysis (Appendix A.2/A.3)
        show single-window periods are the most efficient shape, so most
        synthesized optimal schedules use this constructor.
        """
        return cls((ReceptionWindow(start, duration),), period)

    @classmethod
    def from_pairs(
        cls, pairs: Sequence[tuple[Number, Number]], period: Number
    ) -> "ReceptionSchedule":
        """Build from ``(start, duration)`` pairs."""
        return cls(tuple(ReceptionWindow(s, d) for s, d in pairs), period)

    # ------------------------------------------------------------------
    @property
    def windows(self) -> tuple[ReceptionWindow, ...]:
        """The windows of one period, sorted by start time."""
        return self._windows

    @property
    def window_ends(self) -> tuple[Number, ...]:
        """Window end offsets, strictly increasing (the windows are
        sorted and disjoint): the bisect key of the window lookups."""
        return self._window_ends

    @property
    def period(self) -> Number:
        """``T_C`` -- the repetition period."""
        return self._period

    @property
    def n_windows(self) -> int:
        """``n_C = |C|`` -- windows per period."""
        return len(self._windows)

    @property
    def listen_time_per_period(self) -> Number:
        """``sum(d_i)`` -- total listening time in one period."""
        return sum((w.duration for w in self._windows), 0)

    @property
    def duty_cycle(self) -> float:
        """Reception duty-cycle ``gamma = sum(d_i) / T_C`` (Equation 2)."""
        return self.listen_time_per_period / self._period

    def duty_cycle_exact(self) -> Fraction:
        """``gamma`` as an exact fraction (requires integer times)."""
        return Fraction(self.listen_time_per_period) / Fraction(self._period)

    # ------------------------------------------------------------------
    def window_intervals(self) -> IntervalSet:
        """All listening intervals of one period as an :class:`IntervalSet`."""
        return IntervalSet(w.interval for w in self._windows)

    def iter_windows(self, until: Number, phase: Number = 0) -> Iterator[ReceptionWindow]:
        """Enumerate windows on the absolute time axis.

        Yields every window whose start lies in ``[0, until)``; the whole
        schedule is shifted by ``phase`` (the random initial offset between
        two unsynchronized devices).
        """
        for instance in itertools.count():
            base = phase + instance * self._period
            if base >= until:
                return
            emitted = False
            for w in self._windows:
                start = base + w.start
                if start >= until:
                    break
                emitted = True
                yield ReceptionWindow(start, w.duration)
            if not emitted and base + self._period >= until:
                return

    def is_listening(self, time: Number, phase: Number = 0) -> bool:
        """True iff the radio is in a reception window at ``time``."""
        local = (time - phase) % self._period
        for w in self._windows:
            if w.start <= local < w.end:
                return True
        return False

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ReceptionSchedule):
            return NotImplemented
        return self._windows == other._windows and self._period == other._period

    def __hash__(self) -> int:
        return hash((self._windows, self._period))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ReceptionSchedule(n={self.n_windows}, period={self._period}, "
            f"gamma={self.duty_cycle:.6f})"
        )


class BeaconSchedule:
    """A finite beacon sequence ``B`` repeated with period ``T_B``.

    Beacon times are offsets inside one period; the gap from the last
    beacon of one instance wraps around to the first beacon of the next.
    Lemma 5.2: every beacon sequence achieving an optimal latency/duty-cycle
    trade-off is repetitive, so periodic schedules lose no generality for
    bound-attaining protocols.
    """

    __slots__ = ("_beacons", "_period")

    def __init__(self, beacons: Sequence[Beacon], period: Number) -> None:
        beacons = tuple(beacons)
        if not beacons:
            raise ValueError("a beacon schedule needs at least one beacon")
        if period <= 0:
            raise ValueError(f"period must be positive, got {period!r}")
        for earlier, later in zip(beacons, beacons[1:]):
            if later.time < earlier.end:
                raise ValueError(
                    f"beacons overlap or are unsorted: {earlier} then {later}"
                )
        if beacons[-1].time >= period:
            raise ValueError(
                f"last beacon starts at {beacons[-1].time}, beyond the period "
                f"{period}"
            )
        # The last beacon may straddle the period boundary (needed by the
        # Appendix-C construction) but must not run into the next instance's
        # first beacon.
        straddle = beacons[-1].end - period
        if straddle > beacons[0].time:
            raise ValueError(
                f"last beacon wraps {straddle} time-units into the next "
                f"instance and collides with the first beacon at "
                f"{beacons[0].time}"
            )
        self._beacons = beacons
        self._period = period

    # ------------------------------------------------------------------
    @classmethod
    def uniform(
        cls, n_beacons: int, gap: Number, duration: Number, first_time: Number = 0
    ) -> "BeaconSchedule":
        """``n_beacons`` equally spaced beacons with the given ``gap``.

        The period is ``n_beacons * gap`` so the wrap-around gap equals the
        in-period gaps -- i.e. a perfectly regular beacon train.
        """
        if n_beacons <= 0:
            raise ValueError("need at least one beacon")
        beacons = tuple(
            Beacon(first_time + i * gap, duration) for i in range(n_beacons)
        )
        return cls(beacons, n_beacons * gap)

    @classmethod
    def from_times(
        cls, times: Sequence[Number], period: Number, duration: Number
    ) -> "BeaconSchedule":
        """Build from transmission instants with a common ``duration``."""
        return cls(tuple(Beacon(t, duration) for t in times), period)

    # ------------------------------------------------------------------
    @property
    def beacons(self) -> tuple[Beacon, ...]:
        """The beacons of one period, sorted by time."""
        return self._beacons

    @property
    def period(self) -> Number:
        """``T_B`` -- the repetition period."""
        return self._period

    @property
    def n_beacons(self) -> int:
        """``m_B = |B|`` -- beacons per period."""
        return len(self._beacons)

    @property
    def airtime_per_period(self) -> Number:
        """``sum(omega_i)`` -- total transmission time in one period."""
        return sum((b.duration for b in self._beacons), 0)

    @property
    def duty_cycle(self) -> float:
        """Transmission duty-cycle ``beta = sum(omega_i) / T_B`` (Equation 2).

        ``beta`` equals the channel utilization (Definition 3.5).
        """
        return self.airtime_per_period / self._period

    def duty_cycle_exact(self) -> Fraction:
        """``beta`` as an exact fraction (requires integer times)."""
        return Fraction(self.airtime_per_period) / Fraction(self._period)

    @property
    def gaps(self) -> tuple[Number, ...]:
        """Beacon gaps ``lambda_i = tau_{i+1} - tau_i`` including wrap-around.

        The last entry is the gap from the final beacon of one instance to
        the first beacon of the next, so ``sum(gaps) == period``.
        """
        times = [b.time for b in self._beacons]
        inner = tuple(b - a for a, b in zip(times, times[1:]))
        wrap = self._period - times[-1] + times[0]
        return inner + (wrap,)

    @property
    def mean_gap(self) -> float:
        """Average beacon gap ``lambda = T_B / m_B``."""
        return self._period / self.n_beacons

    @property
    def max_gap(self) -> Number:
        """Largest beacon gap (drives the worst case for one-beacon covers)."""
        return max(self.gaps)

    def max_gap_sum(self, run_length: int) -> Number:
        """Largest sum of ``run_length`` consecutive gaps (cyclically).

        Theorem 5.1: the worst-case latency of a deterministic sequence is
        the largest sum of ``M`` consecutive beacon gaps, so this is the
        quantity an optimal schedule must equalize.
        """
        if run_length <= 0:
            raise ValueError("run_length must be positive")
        gaps = self.gaps
        n = len(gaps)
        if run_length >= n:
            full, rem = divmod(run_length, n)
            base = full * sum(gaps)
            if rem == 0:
                return base
            extended = gaps + gaps
            return base + max(
                sum(extended[i : i + rem]) for i in range(n)
            )
        extended = gaps + gaps
        return max(sum(extended[i : i + run_length]) for i in range(n))

    # ------------------------------------------------------------------
    def iter_beacons(self, until: Number, phase: Number = 0) -> Iterator[Beacon]:
        """Enumerate beacons on the absolute time axis up to ``until``."""
        for instance in itertools.count():
            base = phase + instance * self._period
            if base >= until:
                return
            emitted = False
            for b in self._beacons:
                time = base + b.time
                if time >= until:
                    break
                emitted = True
                yield Beacon(time, b.duration)
            if not emitted and base + self._period >= until:
                return

    def iter_beacons_infinite(
        self, until: Number, phase: Number = 0
    ) -> Iterator[Beacon]:
        """Enumerate the *doubly-infinite* periodic extension on
        ``[0, until)``.

        Unlike :meth:`iter_beacons` (which starts instance 0 at ``phase``),
        this treats ``phase`` as a pure alignment of an always-running
        schedule: beacons exist at ``phase + n * period + tau_i`` for all
        integers ``n``, and those with send time in ``[0, until)`` are
        yielded.  This matches Definition 3.4's model, where both devices
        have been running their sequences since before coming into range.
        """
        reduced = phase % self._period
        instance = -1
        while True:
            base = reduced + instance * self._period
            if base >= until:
                return
            for b in self._beacons:
                time = base + b.time
                if 0 <= time < until:
                    yield Beacon(time, b.duration)
            instance += 1

    def beacon_times(self, count: int, phase: Number = 0) -> list[Number]:
        """The first ``count`` absolute transmission instants."""
        times: list[Number] = []
        for instance in itertools.count():
            base = phase + instance * self._period
            for b in self._beacons:
                times.append(base + b.time)
                if len(times) == count:
                    return times
        raise AssertionError("unreachable")  # pragma: no cover

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BeaconSchedule):
            return NotImplemented
        return self._beacons == other._beacons and self._period == other._period

    def __hash__(self) -> int:
        return hash((self._beacons, self._period))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"BeaconSchedule(m={self.n_beacons}, period={self._period}, "
            f"beta={self.duty_cycle:.6f})"
        )


@dataclass(frozen=True)
class NDProtocol:
    """A neighbor-discovery protocol ``(B_inf, C_inf)`` on one device
    (Definition 3.3), together with the power-weighting factor ``alpha``.

    Either sequence may be ``None`` for one-directional roles: a pure
    advertiser has no reception schedule, a pure scanner no beacon
    schedule.
    """

    beacons: BeaconSchedule | None
    reception: ReceptionSchedule | None
    alpha: float = 1.0
    name: str = "nd-protocol"

    def __post_init__(self) -> None:
        if self.beacons is None and self.reception is None:
            raise ValueError("a protocol needs at least one sequence")
        if self.alpha <= 0:
            raise ValueError(f"alpha must be positive, got {self.alpha!r}")

    @property
    def beta(self) -> float:
        """Transmission duty-cycle / channel utilization."""
        return self.beacons.duty_cycle if self.beacons is not None else 0.0

    @property
    def gamma(self) -> float:
        """Reception duty-cycle."""
        return self.reception.duty_cycle if self.reception is not None else 0.0

    @property
    def eta(self) -> float:
        """Total duty-cycle ``eta = alpha * beta + gamma`` (Definition 3.5)."""
        return self.alpha * self.beta + self.gamma

    def hyperperiod(self) -> int:
        """``lcm`` of the device's schedule periods on the integer grid.

        The period after which the device's whole TX+RX pattern repeats
        -- the quantity every sweep/cache layer needs.  Periods are
        coerced with ``int()`` exactly as the historical call sites did;
        use only for integer-microsecond schedules.
        """
        hyper = 1
        if self.beacons is not None:
            hyper = math.lcm(hyper, int(self.beacons.period))
        if self.reception is not None:
            hyper = math.lcm(hyper, int(self.reception.period))
        return hyper

    def sequences_overlap(self, horizon_periods: int = 4) -> bool:
        """Check whether the device's own TX and RX schedules ever collide.

        The paper assumes (Section 5.2, relaxed in Appendix A.5) that
        ``B_inf`` and ``C_inf`` on the same device can be designed to never
        overlap.  This verifies the assumption over the hyperperiod (or a
        truncated horizon for incommensurable periods).
        """
        if self.beacons is None or self.reception is None:
            return False
        from .intervals import lcm  # local import to avoid cycle at module load

        tb, tc = self.beacons.period, self.reception.period
        if isinstance(tb, int) and isinstance(tc, int):
            horizon = lcm(tb, tc)
        else:
            horizon = max(tb, tc) * horizon_periods
        rx = IntervalSet(
            w.interval for w in self.reception.iter_windows(until=horizon)
        )
        for beacon in self.beacons.iter_beacons(until=horizon):
            if not rx.intersection(IntervalSet((beacon.interval,))).is_empty:
                return True
        return False

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"NDProtocol({self.name!r}, beta={self.beta:.6f}, "
            f"gamma={self.gamma:.6f}, eta={self.eta:.6f})"
        )
