"""The regenerating-code parameter framework of Dimakis et al. [9].

A regenerating code with parameters ``{(n, k, d)(alpha, beta)}`` stores a
file of ``B`` symbols across ``n`` servers with ``alpha`` symbols per
server.  Any ``k`` servers suffice to decode the file; a failed server is
repaired by downloading ``beta`` symbols from each of any ``d >= k``
surviving servers.  The achievable file size is bounded by the cut-set
bound

    B <= sum_{i=0}^{k-1} min(alpha, (d - i) * beta).

Two extreme operating points matter for the paper:

* **MSR** (minimum storage): ``B = k * alpha``, i.e. storage-optimal like
  Reed-Solomon, but with ``alpha = (d - k + 1) * beta``.
* **MBR** (minimum bandwidth): ``alpha = d * beta`` so that a repair
  downloads exactly one coded element's worth of data.  The file size is
  ``B_MBR = sum_{i=0}^{k-1} (d - i) * beta = beta * k * (2d - k + 1) / 2``.

LDS uses the MBR point, which is what makes the read cost ``Theta(1)``
when a value has to be rebuilt all the way from the back-end layer
(Remark 1 of the paper).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


def cut_set_bound(k: int, d: int, alpha: int, beta: int) -> int:
    """Return the maximum file size B supported by the cut-set bound."""
    if k < 1 or d < k:
        raise ValueError("cut-set bound requires 1 <= k <= d")
    if alpha < 0 or beta < 0:
        raise ValueError("alpha and beta must be non-negative")
    return sum(min(alpha, (d - i) * beta) for i in range(k))


@dataclass(frozen=True)
class RegeneratingCodeParameters:
    """A full regenerating-code parameter tuple ``{(n, k, d)(alpha, beta)}``.

    All sizes are in symbols.  ``file_size`` is the supported B, which must
    not exceed the cut-set bound.
    """

    n: int
    k: int
    d: int
    alpha: int
    beta: int
    file_size: int

    def __post_init__(self) -> None:
        if not 1 <= self.k <= self.d <= self.n - 1:
            raise ValueError(
                "regenerating codes require 1 <= k <= d <= n - 1 "
                f"(got n={self.n}, k={self.k}, d={self.d})"
            )
        if self.alpha < 1 or self.beta < 1:
            raise ValueError("alpha and beta must be positive")
        bound = cut_set_bound(self.k, self.d, self.alpha, self.beta)
        if self.file_size > bound:
            raise ValueError(
                f"file size {self.file_size} exceeds the cut-set bound {bound}"
            )

    # -- normalised cost fractions (value size = 1 unit) --------------------

    @property
    def storage_per_node(self) -> Fraction:
        """Storage per node as a fraction of the file size (alpha / B)."""
        return Fraction(self.alpha, self.file_size)

    @property
    def helper_per_node(self) -> Fraction:
        """Helper message size as a fraction of the file size (beta / B)."""
        return Fraction(self.beta, self.file_size)

    @property
    def repair_bandwidth(self) -> Fraction:
        """Total repair download as a fraction of the file size (d*beta / B)."""
        return Fraction(self.d * self.beta, self.file_size)


def mbr_parameters(n: int, k: int, d: int, beta: int = 1) -> RegeneratingCodeParameters:
    """Return the MBR-point parameters for ``(n, k, d)`` with unit beta.

    At the MBR point ``alpha = d * beta`` and
    ``B = beta * k * (2d - k + 1) / 2`` (Section II-c of the paper).
    """
    alpha = d * beta
    numerator = beta * k * (2 * d - k + 1)
    if numerator % 2:
        raise ValueError("MBR file size is not integral; use an even beta")
    file_size = numerator // 2
    return RegeneratingCodeParameters(n=n, k=k, d=d, alpha=alpha, beta=beta, file_size=file_size)


def msr_parameters(n: int, k: int, d: int, beta: int = 1) -> RegeneratingCodeParameters:
    """Return the MSR-point parameters for ``(n, k, d)`` with unit beta.

    At the MSR point ``alpha = (d - k + 1) * beta`` and ``B = k * alpha``.
    """
    alpha = (d - k + 1) * beta
    file_size = k * alpha
    return RegeneratingCodeParameters(n=n, k=k, d=d, alpha=alpha, beta=beta, file_size=file_size)


__all__ = [
    "RegeneratingCodeParameters",
    "cut_set_bound",
    "mbr_parameters",
    "msr_parameters",
]
