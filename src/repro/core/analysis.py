"""Closed-form cost and latency formulas of Section V.

These functions encode the exact expressions of Lemmas V.2-V.5 and
Remarks 1-2 so that the benchmarks can print "paper" columns next to the
values measured on the simulator.  All communication and storage costs are
normalised by the object size (value size = 1 unit).
"""

from __future__ import annotations

import math
from dataclasses import dataclass


def _check_kd(k: int, d: int) -> None:
    if not 1 <= k <= d:
        raise ValueError("require 1 <= k <= d")


# ---------------------------------------------------------------------------
# Lemma V.2 -- communication costs with the MBR code
# ---------------------------------------------------------------------------

def mbr_element_fraction(k: int, d: int) -> float:
    """alpha / B for the MBR code: 2d / (k (2d - k + 1))."""
    _check_kd(k, d)
    return 2.0 * d / (k * (2 * d - k + 1))


def mbr_write_cost(n1: int, n2: int, k: int, d: int) -> float:
    """Write communication cost (Lemma V.2): n1 + n1 n2 2d / (k (2d - k + 1))."""
    return n1 + n1 * n2 * mbr_element_fraction(k, d)


def mbr_read_cost(n1: int, n2: int, k: int, d: int, delta: int = 0) -> float:
    """Read communication cost (Lemma V.2).

    ``n1 (1 + n2 / d) * 2d / (k (2d - k + 1)) + n1 * I(delta > 0)`` where
    ``delta`` is the concurrency parameter of Definition 2.
    """
    _check_kd(k, d)
    base = n1 * (1 + n2 / d) * 2.0 * d / (k * (2 * d - k + 1))
    return base + (n1 if delta > 0 else 0)


# ---------------------------------------------------------------------------
# Lemma V.3 / Remark 2 -- permanent storage cost
# ---------------------------------------------------------------------------

def mbr_storage_cost_l2(n2: int, k: int, d: int) -> float:
    """Permanent (L2) storage cost of one object with the MBR code: 2 d n2 / (k (2d - k + 1))."""
    return n2 * mbr_element_fraction(k, d)


def msr_element_fraction(k: int, d: int) -> float:
    """alpha / B for an MSR code: 1 / k."""
    _check_kd(k, d)
    return 1.0 / k


def msr_helper_fraction(k: int, d: int) -> float:
    """beta / B for an MSR code: 1 / (k (d - k + 1))."""
    _check_kd(k, d)
    return 1.0 / (k * (d - k + 1))


def msr_storage_cost_l2(n2: int, k: int, d: int) -> float:
    """Permanent storage cost with an MSR code: n2 / k (Remark 2)."""
    return n2 * msr_element_fraction(k, d)


def msr_read_cost(n1: int, n2: int, k: int, d: int, delta: int = 0) -> float:
    """Read cost if an MSR code were used instead (Remark 1).

    The regenerate-from-L2 traffic is ``n1 n2 beta/B`` and relaying the
    regenerated elements to the reader costs ``n1 alpha/B = n1 / k``, which
    is Omega(n1) even when ``delta = 0`` -- this is exactly why the paper
    picks the MBR operating point.
    """
    base = n1 * n2 * msr_helper_fraction(k, d) + n1 * msr_element_fraction(k, d)
    return base + (n1 if delta > 0 else 0)


def replication_storage_cost_l2(n2: int) -> float:
    """Permanent storage cost if L2 used replication: n2 (Figure 6 discussion)."""
    return float(n2)


# ---------------------------------------------------------------------------
# Lemma V.4 -- latency bounds under bounded link delays
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LatencyBounds:
    """Completion-time bounds of Lemma V.4."""

    write: float
    extended_write: float
    read: float


def latency_bounds(tau0: float, tau1: float, tau2: float) -> LatencyBounds:
    """Return the Lemma V.4 bounds for the given per-link delay bounds.

    * write           <= 4 tau1 + 2 tau0
    * extended write  <= max(3 tau1 + 2 tau0 + 2 tau2, 4 tau1 + 2 tau0)
    * read            <= max(6 tau1 + 2 tau2, 6 tau1 + 2 tau0 + tau2)

    The main-text statement of the read bound (5 tau1 + 2 tau0 + tau2 for
    the second argument) is slightly tighter than the appendix derivation;
    we use the appendix version, which is the one the proof supports.
    """
    if not all(0 < tau < math.inf for tau in (tau0, tau1, tau2)):
        raise ValueError("latency bounds require positive, finite link delays")
    write = 4 * tau1 + 2 * tau0
    extended_write = max(3 * tau1 + 2 * tau0 + 2 * tau2, write)
    read = max(6 * tau1 + 2 * tau2, 6 * tau1 + 2 * tau0 + tau2)
    return LatencyBounds(write=write, extended_write=extended_write, read=read)


# ---------------------------------------------------------------------------
# Lemma V.5 -- multi-object storage bounds (Figure 6)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MultiObjectStorageBounds:
    """Worst-case L1 / L2 storage costs for an N-object symmetric system."""

    l1_bound: float
    l2_bound: float
    #: The threshold on theta below which L2 storage dominates (theta << N n2 k / (n1 mu)).
    theta_threshold: float

    @property
    def total(self) -> float:
        return self.l1_bound + self.l2_bound


def multi_object_storage_bounds(num_objects: int, n1: int, n2: int, k: int,
                                theta: float, mu: float) -> MultiObjectStorageBounds:
    """Lemma V.5 bounds for a symmetric system (n1 = n2, f1 = f2, so k = d).

    * L1 (temporary) storage <= ceil(5 + 2 mu) * theta * n1
    * L2 (permanent) storage  = 2 N n2 / (k + 1)
    """
    if not (0 <= num_objects < math.inf and 0 <= theta < math.inf):
        raise ValueError("num_objects and theta must be non-negative and finite")
    if not 0 < mu < math.inf:
        raise ValueError("mu = tau2 / tau1 must be positive and finite")
    _check_kd(k, k)
    l1_bound = math.ceil(5 + 2 * mu) * theta * n1
    l2_bound = 2.0 * num_objects * n2 / (k + 1)
    threshold = num_objects * n2 * k / (n1 * mu) if n1 > 0 else float("inf")
    return MultiObjectStorageBounds(
        l1_bound=float(l1_bound), l2_bound=l2_bound, theta_threshold=threshold
    )


__all__ = [
    "LatencyBounds",
    "MultiObjectStorageBounds",
    "latency_bounds",
    "mbr_element_fraction",
    "mbr_read_cost",
    "mbr_storage_cost_l2",
    "mbr_write_cost",
    "msr_element_fraction",
    "msr_helper_fraction",
    "msr_read_cost",
    "msr_storage_cost_l2",
    "multi_object_storage_bounds",
    "replication_storage_cost_l2",
]
