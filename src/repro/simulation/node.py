"""A device: half-duplex radio executing an ND protocol's schedules.

Each node unrolls its *beacon* schedule onto the event calendar (one
period at a time, so infinite schedules cost finite memory), mapping
local schedule time through its clock model (phase offset plus optional
ppm drift) and adding per-event advertising jitter (BLE's advDelay).

Reception needs no events: windows are deterministic given the clock, so
when a packet ends the node decides the decode *analytically* -- window
membership on the exact half-open integer-grid semantics, minus the
intervals blocked by the node's own transmissions (half-duplex plus
turnaround guards, the Appendix-A.5 self-blocking), and never for
packets the channel marked as collided.  This keeps the event-driven
simulator bit-compatible with the closed-form pair computation in
:mod:`repro.simulation.analytic`, which the validation tests rely on.
The window lookup bisects the schedule's sorted window ends, so a
decode costs ``O(log W)`` in the windows per period, not ``O(W)``.

Each first decode of a peer fires :attr:`Node.on_discovery`;
:func:`repro.simulation.runner.simulate_pair` uses it to stop the run
once the pair's outcome is decided.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from typing import Callable

from ..core.sequences import NDProtocol
from .analytic import ReceptionModel
from .channel import Channel, Transmission
from .clock import DriftingClock, IdealClock
from .engine import Simulator

__all__ = ["Node"]


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
        self._rng = random.Random(f"{seed}/{name}")
        self._jitter_accum = 0
        """Cumulative advertising delay: BLE's advDelay postpones each
        advertising event relative to the *previous* one, so the random
        delays accumulate (this is what decorrelates the schedules and
        breaks rational Ta/Ts couplings)."""
        self._own_tx_blocks: list[tuple[int, int]] = []
        """Global intervals during which the radio cannot receive because
        it transmits (including turnaround guards on both sides)."""
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
        earlier instances never went on air.
        """
        if self.protocol.beacons is not None:
            period = self.protocol.beacons.period
            local_now = self.clock.to_local(self.sim.now - self.start_time)
            first_instance = (local_now - period) // period - 1
            if self.start_time > 0:
                # A positive start_time means the device *boots* then
                # (gradual-join scenarios): its schedule begins at local
                # time 0, with no pre-boot periodic extension.
                first_instance = max(int(first_instance), 0)
            self._schedule_beacon_instance(int(first_instance))

    def _schedule_beacon_instance(self, instance: int) -> None:
        schedule = self.protocol.beacons
        assert schedule is not None
        base_local = instance * schedule.period
        for beacon in schedule.beacons:
            if self.advertising_jitter:
                self._jitter_accum += self._rng.randint(
                    0, self.advertising_jitter
                )
            local = base_local + beacon.time + self._jitter_accum
            when = self.start_time + self.clock.to_global(local)
            if when >= self.sim.now:
                self.sim.schedule(
                    when, lambda d=beacon.duration: self._begin_tx(d)
                )
        next_start = self.start_time + self.clock.to_global(
            (instance + 1) * schedule.period
        )
        self.sim.schedule(
            max(next_start, self.sim.now),
            lambda: self._schedule_beacon_instance(instance + 1),
        )

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
        block = (start - self.turnaround, start + duration + self.turnaround)
        self._own_tx_blocks.append(block)
        if len(self._own_tx_blocks) > 64:
            del self._own_tx_blocks[:-32]
        tx = self.channel.begin_transmission(self, start, start + duration)
        self.sim.schedule(start + duration, lambda: self.channel.end_transmission(tx))

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
        for block_lo, block_hi in self._own_tx_blocks:
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
        """Half-open membership test of the effective listening set."""
        return any(lo <= time < hi for lo, hi in self._listening_segments(time, time + 1))

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
            self.sim.schedule_in(self.turnaround, lambda: self._decide(tx))
        else:
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
