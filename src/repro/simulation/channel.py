"""A broadcast channel with ALOHA-style collision semantics.

All nodes share one channel (ND beacons use a fixed advertising channel;
frequency diversity is out of scope, as in the paper).  A transmission
occupies the channel for its full duration; a receiver decodes a packet
iff (a) it is listening for the required portion of the packet (per the
active :class:`~repro.simulation.analytic.ReceptionModel`), and (b) no
other transmission overlaps the packet *while the receiver is in range of
both senders* -- otherwise the packet is marked collided for that
receiver.  There is no capture effect: overlapping transmissions corrupt
each other at every receiver that hears both, matching the conservative
collision model behind Equation 12.

Range is modeled as a node-pair predicate (default: everyone hears
everyone), which lets scenarios script devices walking in and out of
range (Definition 3.4 measures latency from range entry).

Most packets never collide, so the bookkeeping is paid only where a
collision can happen.  A packet's ``collided_for`` starts as one shared
empty ``frozenset`` and becomes a ``set`` of its own on its first mark.
:meth:`Channel.begin_transmission` scans the packets on air for
overlaps unless no mark is possible: a packet marks the receivers that
hear it and an overlapping one, other than the two senders, so with
two nodes a mark needs the sender to have a packet of its own on air
(say an out-of-schedule response over its own beacon, which marks the
peer).  Pair replays therefore skip the scan on all but such packets.
"""

from __future__ import annotations

from typing import Callable, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from .node import Node

__all__ = ["Transmission", "Channel"]

#: Every packet's ``collided_for`` until its first collision mark.
_CLEAN: frozenset[int] = frozenset()


class Transmission:
    """An in-flight packet.

    ``collided_for`` holds the receiver ids for which the packet is
    corrupted: the shared empty :data:`_CLEAN` until the channel marks
    it, then a ``set`` of its own (see :meth:`mark`).  A plain
    ``__slots__`` class: one is built per packet.
    """

    __slots__ = ("sender", "start", "end", "collided_for")

    def __init__(self, sender: "Node", start: int, end: int) -> None:
        self.sender = sender
        self.start = start
        self.end = end
        self.collided_for: frozenset[int] | set[int] = _CLEAN

    def mark(self, receiver: "Node") -> None:
        """Corrupt the packet for ``receiver``."""
        if self.collided_for is _CLEAN:
            self.collided_for = set()
        self.collided_for.add(id(receiver))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Transmission({self.sender!r}, {self.start}, {self.end}, "
            f"collided_for={self.collided_for!r})"
        )


class Channel:
    """The shared medium.  Nodes register themselves; senders call
    :meth:`begin_transmission` / :meth:`end_transmission`."""

    def __init__(
        self,
        in_range: Callable[["Node", "Node"], bool] | None = None,
    ) -> None:
        self._nodes: list["Node"] = []
        self._starters: list["Node"] = []
        """The nodes that define ``on_packet_start``: only they hear of
        packet starts (a :class:`~repro.simulation.node.Node` decides
        every decode at the packet's end and does not)."""
        self._active: list[Transmission] = []
        self._in_range = in_range
        """``None``: everyone hears everyone, and the per-receiver range
        checks below are skipped."""
        self.total_transmissions = 0
        self.total_collisions = 0

    # ------------------------------------------------------------------
    def register(self, node: "Node") -> None:
        """Add a node to the channel.  Every node hears of packet ends
        (``on_packet_end``); one that defines ``on_packet_start`` hears
        of packet starts too."""
        self._nodes.append(node)
        if hasattr(node, "on_packet_start"):
            self._starters.append(node)

    @property
    def nodes(self) -> list["Node"]:
        """All registered nodes."""
        return self._nodes

    def in_range(self, a: "Node", b: "Node") -> bool:
        """Whether ``a`` and ``b`` currently hear each other."""
        return a is not b and (self._in_range is None or self._in_range(a, b))

    # ------------------------------------------------------------------
    def begin_transmission(self, sender: "Node", start: int, end: int) -> Transmission:
        """Called by a node at the first microsecond of a packet.

        Marks collisions against every already-active overlapping
        transmission: a receiver that is in range of both senders will
        decode neither packet.  The scan is skipped where it cannot mark
        anything (module docstring).
        """
        tx = Transmission(sender, start, end)
        self.total_transmissions += 1
        everyone = self._in_range is None
        active = self._active
        if active and (
            len(self._nodes) > 2
            or any(other.sender is sender for other in active)
        ):
            self._mark_collisions(tx, everyone)
        active.append(tx)
        # Notify listeners that a packet has started.
        for receiver in self._starters:
            if receiver is not sender and (
                everyone or self.in_range(sender, receiver)
            ):
                receiver.on_packet_start(tx)
        return tx

    def _mark_collisions(self, tx: Transmission, everyone: bool) -> None:
        """Mark ``tx`` and every overlapping packet on air as collided
        for each receiver in range of both senders."""
        sender = tx.sender
        for other in self._active:
            if other.end <= tx.start:
                continue
            # Overlap: corrupt both packets for every common receiver.
            collided = False
            for receiver in self._nodes:
                if receiver is sender or receiver is other.sender:
                    continue
                if everyone or (
                    self.in_range(sender, receiver)
                    and self.in_range(other.sender, receiver)
                ):
                    tx.mark(receiver)
                    other.mark(receiver)
                    collided = True
            if collided:
                self.total_collisions += 1

    def end_transmission(self, tx: Transmission) -> None:
        """Called by a node when its packet's last microsecond is done."""
        self._active.remove(tx)
        sender = tx.sender
        everyone = self._in_range is None
        for receiver in self._nodes:
            if receiver is not sender and (
                everyone or self.in_range(sender, receiver)
            ):
                receiver.on_packet_end(tx)

    def active_transmissions(self) -> list[Transmission]:
        """Packets currently on the air."""
        return list(self._active)
