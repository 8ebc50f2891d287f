"""Tests of the event calendar, clocks and channel."""

import pytest

from repro.simulation.channel import Channel
from repro.simulation.clock import DriftingClock, IdealClock
from repro.simulation.engine import Simulator


class TestSimulator:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(30, lambda: fired.append(30))
        sim.schedule(10, lambda: fired.append(10))
        sim.schedule(20, lambda: fired.append(20))
        sim.run_until(100)
        assert fired == [10, 20, 30]

    def test_fifo_tie_breaking(self):
        sim = Simulator()
        fired = []
        sim.schedule(5, lambda: fired.append("a"))
        sim.schedule(5, lambda: fired.append("b"))
        sim.schedule(5, lambda: fired.append("c"))
        sim.run_until(10)
        assert fired == ["a", "b", "c"]

    def test_run_until_leaves_later_events(self):
        sim = Simulator()
        fired = []
        sim.schedule(10, lambda: fired.append(10))
        sim.schedule(50, lambda: fired.append(50))
        sim.run_until(20)
        assert fired == [10]
        assert sim.now == 20
        sim.run_until(100)
        assert fired == [10, 50]

    def test_schedule_from_callback(self):
        sim = Simulator()
        fired = []

        def chain():
            fired.append(sim.now)
            if sim.now < 50:
                sim.schedule_in(10, chain)

        sim.schedule(0, chain)
        sim.run_until(100)
        assert fired == [0, 10, 20, 30, 40, 50]

    def test_cancel(self):
        sim = Simulator()
        fired = []
        event = sim.schedule(10, lambda: fired.append(10))
        event.cancel()
        sim.run_until(100)
        assert fired == []

    def test_cannot_schedule_in_past(self):
        sim = Simulator()
        sim.schedule(10, lambda: None)
        sim.run_until(20)
        with pytest.raises(ValueError):
            sim.schedule(5, lambda: None)

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.schedule_in(-1, lambda: None)

    def test_peek(self):
        sim = Simulator()
        assert sim.peek() is None
        event = sim.schedule(42, lambda: None)
        assert sim.peek() == 42
        event.cancel()
        assert sim.peek() is None

    def test_stop_ends_run_until_after_the_callback(self):
        sim = Simulator()
        fired = []

        def stopper():
            fired.append("stop")
            sim.stop()
            fired.append("after-stop")  # the callback itself completes

        sim.schedule(10, lambda: fired.append(10))
        sim.schedule(20, stopper)
        sim.schedule(20, lambda: fired.append("tie"))
        sim.schedule(30, lambda: fired.append(30))
        sim.run_until(100)
        assert fired == [10, "stop", "after-stop"]
        # The clock stays at the stopping event; later events stay queued.
        assert sim.now == 20
        assert sim.events_processed == 2
        assert sim.peek() == 20
        sim.run_until(100)
        assert fired == [10, "stop", "after-stop", "tie", 30]
        assert sim.now == 100

    def test_stop_outside_a_run_does_not_stop_the_next(self):
        sim = Simulator()
        fired = []
        sim.schedule(1, lambda: fired.append(1))
        sim.schedule(2, lambda: fired.append(2))
        sim.stop()
        sim.run_until(10)
        assert fired == [1, 2]

    def test_fifo_ties_and_cancel_with_many_events(self):
        """Ties fire in scheduling order however the heap is built, and
        a cancelled head is skipped by ``peek`` and the run alike."""
        sim = Simulator()
        fired = []
        events = [
            sim.schedule(t, lambda t=t, i=i: fired.append((t, i)))
            for i, t in enumerate([7, 3, 7, 3, 5, 7, 3, 5])
        ]
        events[1].cancel()  # the first event at t=3
        events[4].cancel()  # the first event at t=5
        assert sim.peek() == 3
        sim.run_until(100)
        assert fired == [(3, 3), (3, 6), (5, 7), (7, 0), (7, 2), (7, 5)]
        head = sim.schedule(200, lambda: fired.append("head"))
        sim.schedule(300, lambda: None)
        head.cancel()
        assert sim.peek() == 300

    def test_run_until_idle_guard(self):
        sim = Simulator()

        def forever():
            sim.schedule_in(1, forever)

        sim.schedule(0, forever)
        with pytest.raises(RuntimeError, match="self-rescheduling"):
            sim.run_until_idle(max_events=100)


class TestClocks:
    def test_ideal_clock_roundtrip(self):
        clock = IdealClock(phase=123)
        assert clock.to_global(0) == 123
        assert clock.to_local(clock.to_global(456)) == 456

    def test_zero_drift_matches_ideal(self):
        ideal = IdealClock(phase=50)
        drifting = DriftingClock(phase=50, drift_ppm=0)
        for t in (0, 1, 999_999, 123_456_789):
            assert drifting.to_global(t) == ideal.to_global(t)

    def test_positive_drift_stretches_time(self):
        clock = DriftingClock(phase=0, drift_ppm=100)
        # 1 second local -> 100 us more global time.
        assert clock.to_global(1_000_000) == 1_000_100

    def test_negative_drift_compresses_time(self):
        clock = DriftingClock(phase=0, drift_ppm=-100)
        assert clock.to_global(1_000_000) == 999_900

    def test_roundtrip_with_drift(self):
        clock = DriftingClock(phase=77, drift_ppm=37)
        for t in (0, 1_000, 1_000_000, 10**10):
            assert abs(clock.to_local(clock.to_global(t)) - t) <= 1


class _StubNode:
    """Minimal node standing in for channel tests."""

    def __init__(self, name):
        self.name = name
        self.started = []
        self.ended = []

    def on_packet_start(self, tx):
        self.started.append(tx)

    def on_packet_end(self, tx):
        self.ended.append(tx)


class TestChannel:
    def test_delivery_to_receivers_not_sender(self):
        channel = Channel()
        a, b, c = _StubNode("a"), _StubNode("b"), _StubNode("c")
        for node in (a, b, c):
            channel.register(node)
        tx = channel.begin_transmission(a, 0, 32)
        assert a.started == []
        assert b.started == [tx] and c.started == [tx]
        channel.end_transmission(tx)
        assert b.ended == [tx] and c.ended == [tx]

    def test_overlapping_transmissions_collide(self):
        channel = Channel()
        a, b, r = _StubNode("a"), _StubNode("b"), _StubNode("r")
        for node in (a, b, r):
            channel.register(node)
        tx1 = channel.begin_transmission(a, 0, 100)
        tx2 = channel.begin_transmission(b, 50, 150)
        assert id(r) in tx1.collided_for
        assert id(r) in tx2.collided_for
        # Senders never mark their own packets for themselves.
        assert id(a) not in tx1.collided_for
        assert channel.total_collisions == 1

    def test_non_overlapping_no_collision(self):
        channel = Channel()
        a, b, r = _StubNode("a"), _StubNode("b"), _StubNode("r")
        for node in (a, b, r):
            channel.register(node)
        tx1 = channel.begin_transmission(a, 0, 50)
        channel.end_transmission(tx1)
        tx2 = channel.begin_transmission(b, 50, 100)
        assert tx1.collided_for == set()
        assert tx2.collided_for == set()

    def test_range_predicate_limits_collisions(self):
        """A receiver that only hears one of two overlapping senders still
        decodes (no collision for it)."""
        far = {("a", "r2"), ("r2", "a")}
        channel = Channel(
            in_range=lambda x, y: (x.name, y.name) not in far
        )
        a, b = _StubNode("a"), _StubNode("b")
        r1, r2 = _StubNode("r1"), _StubNode("r2")
        for node in (a, b, r1, r2):
            channel.register(node)
        tx1 = channel.begin_transmission(a, 0, 100)
        tx2 = channel.begin_transmission(b, 10, 110)
        # r1 hears both -> collision; r2 hears only b -> clean.
        assert id(r1) in tx1.collided_for and id(r1) in tx2.collided_for
        assert id(r2) not in tx2.collided_for

    def test_range_predicate_limits_delivery(self):
        channel = Channel(in_range=lambda x, y: False)
        a, b = _StubNode("a"), _StubNode("b")
        channel.register(a)
        channel.register(b)
        channel.begin_transmission(a, 0, 32)
        assert b.started == []
