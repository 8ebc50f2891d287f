"""A device: half-duplex radio executing an ND protocol's schedules.

Each node unrolls its *beacon* schedule onto the event calendar one
beacon at a time, so infinite schedules cost finite memory: a
``(instance, index)`` cursor names the next beacon, and that beacon's
event transmits and then pushes the beacon after it -- one calendar
event per beacon, with no per-period bookkeeping event.  Local schedule
time ``instance * period + tau`` (always a product, never a running
``+= period`` sum, which drifts on float periods) maps through the
node's clock model (phase offset plus optional ppm drift), plus the
accumulated advertising jitter (BLE's advDelay), drawn per beacon in
schedule order.

Reception needs no events: windows are deterministic given the clock, so
when a packet ends the node decides the decode *analytically* -- window
membership on the exact half-open integer-grid semantics, minus the
intervals blocked by the node's own transmissions (half-duplex plus
turnaround guards, the Appendix-A.5 self-blocking), and never for
packets the channel marked as collided.  This keeps the event-driven
simulator bit-compatible with the closed-form pair computation in
:mod:`repro.simulation.analytic`, which the validation tests rely on.
The window lookup bisects the schedule's sorted window ends, so a
decode costs ``O(log W)`` in the windows per period, not ``O(W)``; the
POINT decode builds no segment lists at all.

Events at one timestamp fire in insertion order, and pushing each
beacon only when its predecessor fires changes that order against a
per-period unrolling.  No outcome depends on it:

* a block that starts at the decision instant cannot meet the
  half-open packet ``[s, e)`` it decides, so an own transmission
  starting together with a decode may run before or after it;
* a collision is marked on both packets, whichever starts second, and
  ``other.end <= start`` excludes packets that only touch, so a packet
  end and a packet start at one instant never collide in either order;
* first decodes are kept per sender, so decodes of different senders
  at one instant commute.

Each first decode of a peer fires :attr:`Node.on_discovery`;
:func:`repro.simulation.runner.simulate_pair` uses it to stop the run
once the pair's outcome is decided.
"""

from __future__ import annotations

import random
from bisect import bisect_left, bisect_right
from functools import partial
from operator import itemgetter
from typing import Callable

from ..core.sequences import NDProtocol
from .analytic import ReceptionModel
from .channel import Channel, Transmission
from .clock import DriftingClock, IdealClock
from .engine import Simulator

__all__ = ["Node"]

#: Own-TX blocks a node holds before its first trim (see ``_trim_blocks``).
_MIN_TRIM = 64


class Node:
    """One simulated device."""

    def __init__(
        self,
        name: str,
        protocol: NDProtocol,
        sim: Simulator,
        channel: Channel,
        clock: IdealClock | DriftingClock | None = None,
        reception_model: ReceptionModel = ReceptionModel.POINT,
        turnaround: int = 0,
        advertising_jitter: int = 0,
        seed: int = 0,
        start_time: int = 0,
    ) -> None:
        self.name = name
        self.protocol = protocol
        self.sim = sim
        self.channel = channel
        self.clock = clock or IdealClock()
        self.reception_model = reception_model
        self.turnaround = turnaround
        self.advertising_jitter = advertising_jitter
        self.start_time = start_time
        # Seeding a string-keyed Random is a sizeable share of a short
        # replay; without jitter nothing draws from it.
        self._rng = (
            random.Random(f"{seed}/{name}") if advertising_jitter else None
        )
        self._jitter_accum = 0
        """Cumulative advertising delay: BLE's advDelay postpones each
        advertising event relative to the *previous* one, so the random
        delays accumulate (this is what decorrelates the schedules and
        breaks rational Ta/Ts couplings)."""
        self._pattern: tuple = ()
        self._period = 0
        self._instance = 0
        self._index = 0
        """Beacon cursor: the pending beacon is ``_pattern[_index]`` (a
        ``(tau, duration)`` pair) of schedule instance ``_instance``."""
        self._pending = (0, 0)
        """``(time, duration)`` of the pending beacon."""
        self._own_tx_blocks: list[tuple[int, int, int]] = []
        """``(lo, hi, reach)`` global intervals during which the radio
        cannot receive because it transmits (including turnaround guards
        on both sides), oldest first.  ``reach`` is the largest ``hi`` of
        this block and every earlier one, so a newest-first scan stops at
        the first block whose reach is at or before the queried instant."""
        self._reach = float("-inf")
        self._trim_at = _MIN_TRIM
        """Block count at which :meth:`_trim_blocks` next runs."""
        self._deferred: list[int] = []
        """Starts of ended packets whose decode waits out the turnaround."""
        self.discoveries: dict[str, int] = {}
        """peer name -> global time (packet start) of first decode."""
        self.packets_received = 0
        self.packets_missed_collision = 0
        self.packets_missed_not_listening = 0
        self.on_discovery: Callable[["Node", "Node", int], None] | None = None
        channel.register(self)

    # ------------------------------------------------------------------
    # Schedule unrolling (transmissions only; reception is analytic)
    # ------------------------------------------------------------------
    def activate(self) -> None:
        """Schedule the beacon stream.

        The schedule is the doubly-infinite periodic extension aligned by
        the clock phase (Definition 3.4: devices have been running since
        before coming into range), so unrolling starts at the instance
        whose events first land at or after the current simulation time;
        earlier beacons never went on air (their jitter is still drawn,
        keeping the draw sequence independent of the start time).
        """
        if self.protocol.beacons is not None:
            period = self.protocol.beacons.period
            local_now = self.clock.to_local(self.sim.now - self.start_time)
            pattern = tuple(
                (b.time, b.duration) for b in self.protocol.beacons.beacons
            )
            first_instance = (local_now - period) // period - 1
            index = -1
            if self.start_time > 0:
                # A positive start_time means the device *boots* then
                # (gradual-join scenarios): its schedule begins at local
                # time 0, with no pre-boot periodic extension.
                first_instance = max(int(first_instance), 0)
            elif (
                self._rng is None
                and type(self.clock) is IdealClock
                and type(local_now) is int
                and type(period) is int
            ):
                # No jitter to draw and no rounding: start the skip just
                # before the first beacon at or after now.  Beacon times
                # are sorted and below the period, so that beacon is the
                # first at or after the residue, else the next
                # instance's first.
                first_instance, residue = divmod(local_now, period)
                index = bisect_left(pattern, (residue,)) - 1
            self._pattern = pattern
            self._period = period
            self._instance = int(first_instance)
            self._index = index
            self._push_next_beacon(self.sim.now)

    def _push_next_beacon(self, now: int) -> None:
        """Advance the cursor to the next beacon landing at or after
        ``now`` and push its event."""
        pattern = self._pattern
        instance = self._instance
        index = self._index
        rng = self._rng
        while True:
            index += 1
            if index == len(pattern):
                instance += 1
                index = 0
            tau, duration = pattern[index]
            local = instance * self._period + tau
            if rng is not None:
                self._jitter_accum += rng.randint(0, self.advertising_jitter)
                local += self._jitter_accum
            when = self.start_time + self.clock.to_global(local)
            if when >= now:
                break
        self._instance = instance
        self._index = index
        self._pending = (when, duration)
        self.sim._push(when, self._fire_beacon)

    def _fire_beacon(self) -> None:
        """The pending beacon's event: transmit, then queue the next one.

        The transmission goes through ``self._begin_tx``, so an
        instance-level override (the trace recorder's) sees it."""
        when, duration = self._pending
        self._begin_tx(duration)
        self._push_next_beacon(when)

    def schedule_response_tx(self, duration: int, at: int | None = None) -> None:
        """Schedule a one-off, out-of-schedule transmission.

        Public entry point for protocol extensions that inject extra
        beacons -- e.g. the mutual-assistance response of Appendix C,
        which answers inside the peer's announced reception window.  The
        transmission behaves exactly like a scheduled beacon: it occupies
        the channel, can collide, and blocks the node's own reception
        (half-duplex plus turnaround guards).

        ``at`` is the global start time (default: now); it must not lie
        in the past.
        """
        when = self.sim.now if at is None else at
        self.sim.schedule(when, lambda: self._begin_tx(duration))

    def _begin_tx(self, duration: int) -> None:
        start = self.sim.now
        hi = start + duration + self.turnaround
        if hi > self._reach:
            self._reach = hi
        blocks = self._own_tx_blocks
        blocks.append((start - self.turnaround, hi, self._reach))
        if len(blocks) > self._trim_at:
            self._trim_blocks(start)
        tx = self.channel.begin_transmission(self, start, start + duration)
        self.sim._push(
            start + duration, partial(self.channel.end_transmission, tx)
        )

    def _trim_blocks(self, now: int) -> None:
        """Drop the own-TX blocks no decode can consult any more.

        A decode of the packet ``[s, e)`` reads only blocks that end
        after ``s``, and every packet still undecided here -- on the air,
        or ended and waiting out the turnaround -- started at or after
        the oldest such start (later packets start at ``now`` or later).
        Blocks whose ``reach`` ends by then form a prefix of the list.
        The next trim waits until the list has doubled, so a long packet
        holding many blocks alive costs amortized O(1) per transmission.
        """
        oldest = min(self._deferred, default=now)
        for tx in self.channel.active_transmissions():
            if tx.sender is not self and tx.start < oldest:
                oldest = tx.start
        blocks = self._own_tx_blocks
        del blocks[:bisect_right(blocks, oldest, key=itemgetter(2))]
        self._trim_at = max(_MIN_TRIM, 2 * len(blocks))

    # ------------------------------------------------------------------
    # Analytic reception
    # ------------------------------------------------------------------
    def _window_segments(self, lo: int, hi: int) -> list[tuple[int, int]]:
        """Global listening-window intervals intersecting ``[lo, hi)``,
        before half-duplex blocking."""
        reception = self.protocol.reception
        if reception is None or hi <= lo:
            return []
        period = reception.period
        windows = reception.windows
        ends = reception.window_ends
        n = len(windows)
        start_time = self.start_time
        to_global = self.clock.to_global
        # One tick early: ``to_local`` rounds under drift, and a window
        # ending within that tick may still end after ``lo`` globally.
        # The exact ``to_global`` filter below decides every window the
        # bisect keeps.
        local_lo = self.clock.to_local(lo - start_time) - 1
        instance = (local_lo - period) // period
        segments: list[tuple[int, int]] = []
        while True:
            base = instance * period
            if start_time + to_global(base) >= hi:
                break
            i = bisect_right(ends, local_lo - base)
            while i < n:
                w = windows[i]
                w_lo = start_time + to_global(base + w.start)
                if w_lo >= hi:
                    break
                w_hi = start_time + to_global(base + w.end)
                if w_hi > lo:
                    segments.append((max(w_lo, lo), min(w_hi, hi)))
                i += 1
            instance += 1
        return segments

    def _listening_segments(self, lo: int, hi: int) -> list[tuple[int, int]]:
        """Window segments minus the node's own transmission blocks."""
        if self.start_time > 0:
            # Booted devices hear nothing before their join time.
            lo = max(lo, self.start_time)
        segments = self._window_segments(lo, hi)
        if not segments:
            return []
        for block_lo, block_hi, _ in self._own_tx_blocks:
            if block_hi <= lo or block_lo >= hi:
                continue
            cut: list[tuple[int, int]] = []
            for seg_lo, seg_hi in segments:
                if block_hi <= seg_lo or block_lo >= seg_hi:
                    cut.append((seg_lo, seg_hi))
                    continue
                if seg_lo < block_lo:
                    cut.append((seg_lo, block_lo))
                if block_hi < seg_hi:
                    cut.append((block_hi, seg_hi))
            segments = cut
            if not segments:
                break
        return segments

    def is_listening_at(self, time: int) -> bool:
        """Half-open membership test of the effective listening set.

        Decided without segment lists: the own-TX blocks newest-first
        (stopping at the first whose ``reach`` ends by ``time``), then a
        bisected window walk with the ``to_global`` arithmetic of
        :meth:`_window_segments`, stopping at the first window that
        starts after ``time``.
        """
        start_time = self.start_time
        if start_time > 0 and time < start_time:
            return False  # booted devices hear nothing before joining
        for block_lo, block_hi, reach in reversed(self._own_tx_blocks):
            if reach <= time:
                break
            if block_lo <= time < block_hi:
                return False
        reception = self.protocol.reception
        if reception is None:
            return False
        period = reception.period
        windows = reception.windows
        ends = reception.window_ends
        n = len(windows)
        to_global = self.clock.to_global
        # Two ticks early, so ``to_global(local_lo) <= time - start_time``
        # whatever ``to_local`` rounded: windows ending by ``local_lo``
        # (every instance before ``local_lo``'s, and the ends the bisect
        # skips) end by ``time`` globally too.
        local_lo = self.clock.to_local(time - start_time) - 2
        instance = local_lo // period
        while True:
            base = instance * period
            if start_time + to_global(base) > time:
                return False
            i = bisect_right(ends, local_lo - base)
            while i < n:
                if start_time + to_global(base + windows[i].start) > time:
                    break
                if start_time + to_global(base + ends[i]) > time:
                    return True
                i += 1
            instance += 1

    # ------------------------------------------------------------------
    # Channel callbacks
    # ------------------------------------------------------------------
    def on_packet_start(self, tx: Transmission) -> None:
        """No state needed at packet start; the decision is analytic."""

    def on_packet_end(self, tx: Transmission) -> None:
        """Decide the decode of a finished packet.

        With a turnaround guard, an own transmission starting up to
        ``turnaround`` after the packet still blocks it (the radio was
        already switching RX->TX while the packet arrived); the decision
        is deferred until those events have fired.
        """
        if self.protocol.reception is None:
            return
        if self.turnaround > 0:
            self._deferred.append(tx.start)
            self.sim._push(
                self.sim.now + self.turnaround,
                partial(self._decide_deferred, tx),
            )
        else:
            self._decide(tx)

    def _decide_deferred(self, tx: Transmission) -> None:
        self._deferred.remove(tx.start)
        self._decide(tx)

    def _decide(self, tx: Transmission) -> None:
        """Evaluate the decode once all relevant own-TX blocks are known."""
        model = self.reception_model
        if model is ReceptionModel.POINT:
            heard = self.is_listening_at(tx.start)
        else:
            segments = self._listening_segments(tx.start, tx.end)
            if model is ReceptionModel.ANY_OVERLAP:
                heard = bool(segments)
            else:  # CONTAINMENT: one segment spanning the whole packet
                heard = segments == [(tx.start, tx.end)]
        if not heard:
            self.packets_missed_not_listening += 1
            return
        if id(self) in tx.collided_for:
            self.packets_missed_collision += 1
            return
        self.packets_received += 1
        sender = tx.sender
        if sender.name not in self.discoveries:
            self.discoveries[sender.name] = tx.start
            if self.on_discovery is not None:
                self.on_discovery(self, sender, tx.start)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Node({self.name!r}, {self.protocol.name!r})"
