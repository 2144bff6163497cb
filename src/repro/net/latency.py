"""Per-link latency models.

The paper distinguishes three link classes (Section V-A):

* ``tau1`` -- client <-> L1 server links,
* ``tau2`` -- L1 <-> L2 server links (typically the slowest in edge
  computing deployments),
* ``tau0`` -- links between two L1 servers (used by the broadcast
  primitive).

Latency models map a (sender link-class, receiver link-class) pair to a
delay sample.  :class:`FixedLatencyModel` reproduces the bounded-latency
analysis exactly; the randomised models exercise genuine asynchrony while
(for the bounded variants) never exceeding the configured bounds.
"""

from __future__ import annotations

import math
import random
from abc import ABC, abstractmethod
from typing import Dict, Optional, Tuple

#: Link-class labels used by the processes.
CLIENT = "client"
L1 = "l1"
L2 = "l2"


def link_type(sender_class: str, receiver_class: str) -> str:
    """Classify a link into one of the paper's three categories.

    Links that the paper does not use (e.g. client <-> L2) are mapped onto
    the closest category so that experimental variations still run.  The
    category names double as the tau attribute names of the models below.
    """
    classes = {sender_class, receiver_class}
    if classes == {L1}:
        return "tau0"
    if CLIENT in classes and L1 in classes:
        return "tau1"
    if L2 in classes:
        return "tau2"
    return "tau1"


class LatencyRegime:
    """A mutable delay multiplier that many latency models can share.

    Scenario scripts shift a whole cluster between latency regimes (e.g. a
    flash crowd saturating the network) by changing one ``scale`` value,
    which every model holding the regime applies from its next message on.
    """

    def __init__(self, scale: float = 1.0) -> None:
        self.set(scale)

    def set(self, scale: float) -> None:
        if not 0 < scale < math.inf:
            raise ValueError("the latency scale must be positive and finite")
        self.scale = float(scale)


class LatencyModel(ABC):
    """Maps a link to a message delay sample, times ``regime.scale``: a
    model built without a regime holds its own at 1.0 (``x * 1.0 == x``)."""

    def __init__(self, regime: Optional[LatencyRegime] = None) -> None:
        self.regime = regime if regime is not None else LatencyRegime()

    @abstractmethod
    def delay(self, sender_class: str, receiver_class: str) -> float:
        """Return the delay for one message on the given link."""

    def bound(self, sender_class: str, receiver_class: str) -> Optional[float]:
        """Return an upper bound on the delay for the link, if one exists."""
        return None


class FixedLatencyModel(LatencyModel):
    """Deterministic delays: exactly tau0 / tau1 / tau2 per link class, read
    from the per-link table (:meth:`tau`) the random models draw around."""

    def __init__(self, tau0: float = 1.0, tau1: float = 1.0, tau2: float = 10.0,
                 regime: Optional[LatencyRegime] = None) -> None:
        super().__init__(regime)
        if not all(0 < tau < math.inf for tau in (tau0, tau1, tau2)):
            raise ValueError("latencies must be positive and finite")
        self.tau0 = tau0
        self.tau1 = tau1
        self.tau2 = tau2
        #: (sender class, receiver class) -> tau, filled on first use.
        self._by_link: Dict[Tuple[str, str], float] = {}

    def tau(self, sender_class: str, receiver_class: str) -> float:
        """The link's tau, as ``link_type`` names it (unscaled)."""
        link = (sender_class, receiver_class)
        tau = self._by_link.get(link)
        if tau is None:
            tau = self._by_link[link] = getattr(self, link_type(*link))
        return tau

    def delay(self, sender_class: str, receiver_class: str) -> float:
        return ((self._by_link.get((sender_class, receiver_class))
                 or self.tau(sender_class, receiver_class)) * self.regime.scale)

    #: Deterministic: every message takes exactly its link's scaled tau.
    bound = delay


class BoundedLatencyModel(FixedLatencyModel):
    """Random delays uniformly drawn from ``[minimum_fraction * tau, tau]``.

    This keeps the bounded-latency guarantees of Section V-A (delays never
    exceed the bound) while making message interleavings non-trivial.
    """

    def __init__(self, tau0: float = 1.0, tau1: float = 1.0, tau2: float = 10.0,
                 minimum_fraction: float = 0.1, seed: Optional[int] = None,
                 regime: Optional[LatencyRegime] = None) -> None:
        super().__init__(tau0=tau0, tau1=tau1, tau2=tau2, regime=regime)
        if not 0 < minimum_fraction <= 1:
            raise ValueError("minimum_fraction must be in (0, 1]")
        self.minimum_fraction = minimum_fraction
        self._rng = random.Random(seed)

    def delay(self, sender_class: str, receiver_class: str) -> float:
        bound = (self._by_link.get((sender_class, receiver_class))
                 or self.tau(sender_class, receiver_class))
        low = self.minimum_fraction * bound
        # What random.uniform(low, bound) evaluates, without the extra call,
        # then scaled: scaling the table instead would round differently.
        return (low + (bound - low) * self._rng.random()) * self.regime.scale


class UniformLatencyModel(LatencyModel):
    """Uniform random delay in ``[low, high]`` regardless of link class."""

    def __init__(self, low: float, high: float, seed: Optional[int] = None,
                 regime: Optional[LatencyRegime] = None) -> None:
        super().__init__(regime)
        if not 0 < low <= high:
            raise ValueError("require 0 < low <= high")
        self.low = low
        self.high = high
        self._rng = random.Random(seed)

    def delay(self, sender_class: str, receiver_class: str) -> float:
        return self._rng.uniform(self.low, self.high) * self.regime.scale

    def bound(self, sender_class: str, receiver_class: str) -> float:
        return self.high * self.regime.scale


class ExponentialLatencyModel(FixedLatencyModel):
    """Exponentially distributed delays (unbounded -- pure asynchrony).

    Mean delays follow the per-link-class tau values; there is no bound,
    which models the fully asynchronous setting of Sections III and IV.
    """

    def __init__(self, tau0: float = 1.0, tau1: float = 1.0, tau2: float = 10.0,
                 seed: Optional[int] = None,
                 regime: Optional[LatencyRegime] = None) -> None:
        super().__init__(tau0=tau0, tau1=tau1, tau2=tau2, regime=regime)
        self._rng = random.Random(seed)

    def delay(self, sender_class: str, receiver_class: str) -> float:
        return (self._rng.expovariate(1.0 / self.tau(sender_class, receiver_class))
                * self.regime.scale)

    def bound(self, sender_class: str, receiver_class: str) -> None:
        return None


__all__ = [
    "CLIENT",
    "L1",
    "L2",
    "link_type",
    "LatencyModel",
    "LatencyRegime",
    "FixedLatencyModel",
    "BoundedLatencyModel",
    "UniformLatencyModel",
    "ExponentialLatencyModel",
]
