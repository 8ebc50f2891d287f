"""A deterministic discrete-event engine on an integer-microsecond clock.

``simpy`` is not available in the offline environment, so the package
ships its own calendar-queue simulator: a binary heap of timestamped
events with deterministic FIFO tie-breaking (events at equal timestamps
fire in scheduling order).  Determinism matters here -- worst-case
latency validation compares exact microsecond values across runs, so the
engine forbids wall-clock or hash-order dependence anywhere.

Heap entries are ``(time, sequence, callback, event)`` tuples: the
unique insertion sequence decides every tie, so ordering is a plain
integer comparison and never reaches the callback or the event.  Only
:meth:`Simulator.schedule` pushes can be cancelled: it returns the
:class:`Event` it stores in the last slot.  The simulator's own radio
stack pushes through :meth:`Simulator._push` instead -- beacon starts,
packet ends and deferred decodes, which nobody cancels -- and those
entries carry ``None`` there, so the hot path allocates no
:class:`Event`.

The simulator knows nothing about radios; :mod:`repro.simulation.node`
and :mod:`repro.simulation.channel` build the wireless semantics on top.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable

__all__ = ["Simulator", "Event"]


@dataclass(order=True, slots=True)
class Event:
    """One scheduled callback.  Ordering: time, then insertion sequence."""

    time: int
    sequence: int
    callback: Callable[[], None] = field(compare=False)
    cancelled: bool = field(default=False, compare=False)

    def cancel(self) -> None:
        """Mark the event dead; it will be skipped when popped."""
        self.cancelled = True


class Simulator:
    """The event calendar.

    Usage::

        sim = Simulator()
        sim.schedule(at=100, callback=fire)
        sim.run_until(10_000)
    """

    def __init__(self) -> None:
        self._queue: list[
            tuple[int, int, Callable[[], None], Event | None]
        ] = []
        self._sequence = itertools.count()
        self._now = 0
        self._events_processed = 0
        self._stopped = False

    @property
    def now(self) -> int:
        """Current simulation time (us)."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of callbacks executed so far."""
        return self._events_processed

    def schedule(self, at: int, callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` at absolute time ``at`` (>= now)."""
        if at < self._now:
            raise ValueError(
                f"cannot schedule at {at}, simulation time is {self._now}"
            )
        sequence = next(self._sequence)
        event = Event(at, sequence, callback)
        heapq.heappush(self._queue, (at, sequence, callback, event))
        return event

    def _push(self, at: int, callback: Callable[[], None]) -> None:
        """Queue an uncancellable ``callback`` at ``at`` (>= now).

        The radio stack's own pushes: no :class:`Event` is built and the
        time is not checked, since every caller derives ``at`` from the
        current time or a later one.
        """
        heapq.heappush(self._queue, (at, next(self._sequence), callback, None))

    def schedule_in(self, delay: int, callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` ``delay`` us from now."""
        if delay < 0:
            raise ValueError(f"delay must be non-negative, got {delay}")
        return self.schedule(self._now + delay, callback)

    def stop(self) -> None:
        """End the current :meth:`run_until` once the running callback
        returns.

        Events still queued stay queued and the clock stays at the
        stopping event's time.  The next :meth:`run_until` starts afresh.
        """
        self._stopped = True

    def run_until(self, end_time: int) -> None:
        """Process events with ``time <= end_time``; leave later ones queued.

        The simulation clock lands on ``end_time`` when the queue drains
        early, so repeated calls advance monotonically.  A callback that
        calls :meth:`stop` ends the run at its own time instead.
        """
        queue = self._queue
        pop = heapq.heappop
        self._stopped = False
        while queue and queue[0][0] <= end_time:
            time, _, callback, event = pop(queue)
            if event is not None and event.cancelled:
                continue
            self._now = time
            self._events_processed += 1
            callback()
            if self._stopped:
                return
        self._now = max(self._now, end_time)

    def run_until_idle(self, max_events: int = 10_000_000) -> None:
        """Drain the queue completely (with a runaway guard)."""
        processed = 0
        while self._queue:
            time, _, callback, event = heapq.heappop(self._queue)
            if event is not None and event.cancelled:
                continue
            self._now = time
            self._events_processed += 1
            callback()
            processed += 1
            if processed > max_events:
                raise RuntimeError(
                    f"run_until_idle exceeded {max_events} events; "
                    f"likely a self-rescheduling loop"
                )

    def peek(self) -> int | None:
        """Timestamp of the next live event, or ``None`` if idle."""
        queue = self._queue
        while queue and queue[0][3] is not None and queue[0][3].cancelled:
            heapq.heappop(queue)
        return queue[0][0] if queue else None
