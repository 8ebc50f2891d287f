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
"""

from __future__ import annotations

from typing import Callable, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from .node import Node

__all__ = ["Transmission", "Channel"]


class Transmission:
    """An in-flight packet.

    ``collided_for`` holds the receiver ids for which the packet is
    corrupted.  A plain ``__slots__`` class: one is built per packet.
    """

    __slots__ = ("sender", "start", "end", "collided_for")

    def __init__(self, sender: "Node", start: int, end: int) -> None:
        self.sender = sender
        self.start = start
        self.end = end
        self.collided_for: set[int] = set()

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
        self._active: list[Transmission] = []
        self._in_range = in_range
        """``None``: everyone hears everyone, and the per-receiver range
        checks below are skipped."""
        self.total_transmissions = 0
        self.total_collisions = 0

    # ------------------------------------------------------------------
    def register(self, node: "Node") -> None:
        """Add a node to the channel."""
        self._nodes.append(node)

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
        decode neither packet.
        """
        tx = Transmission(sender, start, end)
        self.total_transmissions += 1
        everyone = self._in_range is None
        for other in self._active:
            if other.end <= start:
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
                    tx.collided_for.add(id(receiver))
                    other.collided_for.add(id(receiver))
                    collided = True
            if collided:
                self.total_collisions += 1
        self._active.append(tx)
        # Notify listeners that a packet has started (they track overlap
        # with their own windows).
        for receiver in self._nodes:
            if receiver is not sender and (
                everyone or self.in_range(sender, receiver)
            ):
                receiver.on_packet_start(tx)
        return tx

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
