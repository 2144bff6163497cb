"""The metadata broadcast primitive (Section III of the paper).

The LDS algorithm uses a broadcast primitive with the property that *if
any one (non-faulty) L1 server consumes a broadcast message, then every
non-faulty L1 server eventually consumes it*.  The implementation, taken
from [17], relays the message through a fixed set of ``f1 + 1`` L1
servers: the initiator sends the message to that set over point-to-point
channels, and each member of the set, on first reception, forwards it to
every L1 server before consuming it itself.  Because the relay set
contains at least one non-faulty server, the all-or-nothing delivery
property holds even if the initiator crashes mid-broadcast.

Only metadata (e.g. ``COMMIT-TAG`` announcements) travels over this
primitive, so broadcast messages have ``data_size`` 0.

The only state kept is a copy count per broadcast id.  Over exactly-once
channels each member gets ``len(relay_set)`` copies -- a relay its initial
copy and one from each other relay, any other member one from each relay --
so an id is consumed on its first copy and forgotten at its last.  Only a
relay's crash leaves counts behind: those of the broadcasts in flight.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Sequence, Tuple

from repro.net.messages import Message
from repro.net.process import Process


@dataclass
class BroadcastEnvelope(Message):
    """Wrapper carrying a broadcast payload through the relay set.

    Attributes:
        broadcast_id: unique id of this broadcast instance (used for
            first-reception bookkeeping at the relays).
        inner: the wrapped protocol message to be consumed by every server.
        relaying: True when this copy is the initial transmission toward
            the relay set (relays must forward it on first reception);
            False for the fan-out copies sent by relays.
    """

    broadcast_id: Tuple[Any, ...] = field(default_factory=tuple)
    inner: Message | None = None
    relaying: bool = False


class BroadcastPrimitive:
    """Per-process helper implementing the relay broadcast.

    Each L1 server owns one instance.  ``broadcast`` initiates a broadcast;
    ``handle`` must be called for every received :class:`BroadcastEnvelope`
    and returns the inner message when it should be consumed locally
    (exactly once per broadcast id), or ``None`` otherwise.
    """

    def __init__(self, owner: Process, group: Sequence[str], relay_set: Sequence[str]) -> None:
        if not relay_set:
            raise ValueError("the relay set must not be empty")
        if len(set(relay_set)) != len(relay_set):
            raise ValueError(f"the relay set {list(relay_set)} repeats a server")
        unknown = set(relay_set) - set(group)
        if unknown:
            raise ValueError(f"relay servers {unknown} are not part of the broadcast group")
        self.owner = owner
        self.group = list(group)
        self.relay_set = list(relay_set)
        self._expected_copies = len(self.relay_set)
        #: Broadcast id -> copies received, while more are to come.
        self._copies: Dict[Tuple[Any, ...], int] = {}
        self._sequence = 0

    def broadcast(self, inner: Message) -> Tuple[Any, ...]:
        """Initiate a broadcast of ``inner`` to the whole group.

        The initiator sends the envelope to the fixed relay set only; the
        relays take care of the fan-out.  Returns the broadcast id.
        """
        self._sequence += 1
        broadcast_id = (self.owner.pid, self._sequence)
        envelope = BroadcastEnvelope(
            broadcast_id=broadcast_id,
            inner=inner,
            relaying=True,
            data_size=0.0,
            op_id=inner.op_id,
        )
        for relay in self.relay_set:
            self.owner.send(relay, envelope)
        return broadcast_id

    def handle(self, envelope: BroadcastEnvelope) -> Message | None:
        """Process a received envelope; returns the inner message to consume.

        A relay that receives the initial transmission forwards the
        message to every other member of the group.  Every process
        consumes each broadcast exactly once, on its first copy.
        """
        if envelope.inner is None:
            raise ValueError("broadcast envelope is missing its inner message")
        broadcast_id = envelope.broadcast_id
        if envelope.relaying:
            # Only a relay gets a relaying copy, and exactly one per id.
            fan_out = BroadcastEnvelope(
                broadcast_id=broadcast_id,
                inner=envelope.inner,
                relaying=False,
                data_size=0.0,
                op_id=envelope.inner.op_id,
            )
            for member in self.group:
                if member != self.owner.pid:
                    self.owner.send(member, fan_out)
        copies = self._copies.pop(broadcast_id, 0) + 1
        if copies < self._expected_copies:
            self._copies[broadcast_id] = copies
        return envelope.inner if copies == 1 else None


__all__ = ["BroadcastEnvelope", "BroadcastPrimitive"]
