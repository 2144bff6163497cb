"""Process (I/O-automaton-style) base class.

Every participant in the simulation -- writers, readers, L1 servers, L2
servers -- is a :class:`Process`: it has a unique id, a link class used by
the latency model, a crash flag, and an ``on_message`` handler that the
network invokes when a message is delivered.  Following the paper's crash
failure model, a crashed process executes no further steps: deliveries to
it are dropped and its attempts to send are ignored.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.net.messages import Message

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.network import Network


class Process:
    """Base class for all simulated processes."""

    def __init__(self, pid: str, link_class: str) -> None:
        self.pid = pid
        self.link_class = link_class
        self.crashed = False
        self.crash_time: Optional[float] = None
        self._network: Optional["Network"] = None

    # -- wiring ----------------------------------------------------------------

    def attach(self, network: "Network") -> None:
        """Called by :class:`~repro.net.network.Network` on registration."""
        self._network = network

    @property
    def network(self) -> "Network":
        if self._network is None:
            raise RuntimeError(f"process {self.pid} is not attached to a network")
        return self._network

    @property
    def now(self) -> float:
        """Current virtual time."""
        return self.network.simulator.now

    # -- actions -----------------------------------------------------------------

    def send(self, destination: str, message: Message) -> None:
        """Send a message over a reliable point-to-point channel.

        Crashed processes take no further steps, so sends by a crashed
        process are silently dropped.
        """
        if self.crashed:
            return
        # The ``network`` property only runs (and raises) when unattached.
        (self._network or self.network).send(self.pid, destination, message)

    def schedule(self, delay: float, callback) -> None:
        """Schedule a local step after ``delay`` (skipped if crashed by then)."""
        def guarded() -> None:
            if not self.crashed:
                callback()

        self.network.simulator.schedule(delay, guarded)

    def crash(self) -> None:
        """Crash the process: it executes no further steps."""
        if not self.crashed:
            self.crashed = True
            self.crash_time = self.now if self._network is not None else 0.0

    # -- handlers (overridden by protocol processes) -------------------------------

    def on_message(self, sender: str, message: Message) -> None:
        """Handle a delivered message.  Subclasses override this."""
        raise NotImplementedError

    def on_start(self) -> None:
        """Hook invoked once when the simulation starts; optional."""

    def __repr__(self) -> str:
        status = "crashed" if self.crashed else "alive"
        return f"{type(self).__name__}(pid={self.pid!r}, {status})"


__all__ = ["Process"]
