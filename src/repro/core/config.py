"""LDS system configuration.

The deployment is described by the layer sizes and failure budgets
``(n1, f1, n2, f2)``.  Following Section II of the paper, the regenerating
code parameters are derived as ``k = n1 - 2 f1`` and ``d = n2 - 2 f2``,
so that the L1 quorum size is ``f1 + k`` and the L2 quorum size is
``f2 + d = n2 - f2``.  The constraints are:

* ``f1 < n1 / 2`` (equivalently ``k >= 1``),
* ``f2 < n2 / 3`` (which implies ``d > f2``),
* ``k <= d`` (required by the regenerating-code framework), and
* ``n1 + n2 <= 255`` (so the codes fit in GF(2^8)).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.codes.layered import LayeredCode


@dataclass(frozen=True)
class LDSConfig:
    """Static parameters of one LDS deployment."""

    n1: int
    n2: int
    f1: int
    f2: int
    #: Regenerating-code operating point: "mbr" (the paper's choice) or "msr".
    operating_point: str = "mbr"
    #: Initial object value v0.
    initial_value: bytes = b"\x00"

    def __post_init__(self) -> None:
        if self.n1 < 1 or self.n2 < 1:
            raise ValueError("both layers need at least one server")
        if self.f1 < 0 or self.f2 < 0:
            raise ValueError("failure budgets must be non-negative")
        if not self.f1 < self.n1 / 2:
            raise ValueError(f"LDS requires f1 < n1/2 (got f1={self.f1}, n1={self.n1})")
        if not self.f2 < self.n2 / 3:
            raise ValueError(f"LDS requires f2 < n2/3 (got f2={self.f2}, n2={self.n2})")
        if self.k > self.d:
            raise ValueError(
                "the regenerating code requires k <= d, i.e. "
                f"n1 - 2*f1 <= n2 - 2*f2 (got k={self.k}, d={self.d})"
            )
        if self.n1 + self.n2 > 255:
            raise ValueError("GF(2^8) codes require n1 + n2 <= 255")
        if self.operating_point.lower() not in ("mbr", "msr"):
            raise ValueError("operating_point must be 'mbr' or 'msr'")

    # -- derived parameters ------------------------------------------------------

    @property
    def k(self) -> int:
        """Reconstruction parameter: n1 = 2 f1 + k."""
        return self.n1 - 2 * self.f1

    @property
    def d(self) -> int:
        """Repair degree: n2 = 2 f2 + d."""
        return self.n2 - 2 * self.f2

    @property
    def l1_quorum(self) -> int:
        """Quorum size for client <-> L1 interactions (f1 + k)."""
        return self.f1 + self.k

    @property
    def l2_quorum(self) -> int:
        """Quorum size for L1 <-> L2 interactions (f2 + d = n2 - f2)."""
        return self.n2 - self.f2

    # -- process naming -----------------------------------------------------------

    def l1_pid(self, index: int) -> str:
        """Process id of the ``index``-th L1 server (0-based)."""
        if not 0 <= index < self.n1:
            raise ValueError(f"L1 index {index} out of range")
        return f"l1-{index}"

    def l2_pid(self, index: int) -> str:
        """Process id of the ``index``-th L2 server (0-based)."""
        if not 0 <= index < self.n2:
            raise ValueError(f"L2 index {index} out of range")
        return f"l2-{index}"

    @property
    def l1_pids(self) -> list[str]:
        return [self.l1_pid(i) for i in range(self.n1)]

    @property
    def l2_pids(self) -> list[str]:
        return [self.l2_pid(i) for i in range(self.n2)]

    @property
    def broadcast_relay_pids(self) -> list[str]:
        """The fixed set of f1 + 1 L1 servers used by the broadcast primitive."""
        return [self.l1_pid(i) for i in range(self.f1 + 1)]

    # -- code construction ------------------------------------------------------------

    def build_code(self) -> LayeredCode:
        """Construct the layered regenerating code for this configuration."""
        return LayeredCode(
            n1=self.n1, n2=self.n2, k=self.k, d=self.d,
            operating_point=self.operating_point,
        )

    # -- convenience constructors -------------------------------------------------------

    @classmethod
    def symmetric(cls, n: int, f: int, **kwargs) -> "LDSConfig":
        """A symmetric system with n1 = n2 = n and f1 = f2 = f (so k = d).

        This is the configuration used by the multi-object analysis of
        Section V-A.1 and Figure 6.
        """
        return cls(n1=n, n2=n, f1=f, f2=f, **kwargs)

    def describe(self) -> str:
        """Human-readable one-line summary."""
        return (
            f"LDS(n1={self.n1}, f1={self.f1}, n2={self.n2}, f2={self.f2}, "
            f"k={self.k}, d={self.d}, point={self.operating_point})"
        )


__all__ = ["LDSConfig"]
