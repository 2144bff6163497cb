"""Message envelope for the simulated network.

The paper measures communication cost as the total size of the *data*
carried by messages, normalised so that an object value has size 1; pure
meta-data (tags, counters, acknowledgements) contributes nothing
(Section II-d).  Every message therefore carries an explicit
``data_size`` -- the protocol layer sets it to 1 for full values, to
``alpha / B`` for coded elements, ``beta / B`` for repair-helper data, and
0 for metadata-only messages.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass
class Message:
    """Base class for all protocol messages.

    Attributes:
        kind: short human-readable message type; defaults to the class
            name (each subclass re-declares the field with its own name).
        data_size: normalised data size carried by this message (value = 1).
        op_id: identifier of the client operation (or internal operation)
            this message belongs to; used for per-operation cost accounting.
    """

    kind: str = "Message"
    data_size: float = 0.0
    op_id: Optional[str] = None

    def __init_subclass__(cls, **kwargs) -> None:
        # Runs before @dataclass reads the class: a field re-declared here
        # keeps its place in the field order and takes the new default, so
        # the generated __init__ sets the class's name with no extra step.
        super().__init_subclass__(**kwargs)
        cls.__annotations__ = {"kind": "str",
                               **cls.__dict__.get("__annotations__", {})}
        cls.kind = cls.__name__

    def describe(self) -> str:
        """One-line description used by traces and debugging output."""
        return f"{self.kind}(size={self.data_size:.4f}, op={self.op_id})"


__all__ = ["Message"]
