"""Version tags.

A tag is a pair ``(z, writer_id)`` where ``z`` is a natural number and
``writer_id`` identifies the writer (Section III).  Tags are totally
ordered lexicographically: ``t2 > t1`` iff ``t2.z > t1.z`` or
(``t2.z == t1.z`` and ``t2.writer_id > t1.writer_id``).  The distinguished
initial tag is ``(0, "")``.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, order=True)
class Tag:
    """A version tag ``(z, writer_id)`` with the paper's total order.

    The dataclass generates equality, hashing and all four ordering
    methods from the ``(z, writer_id)`` field tuple; each comparison
    returns ``NotImplemented`` for anything that is not a tag.
    """

    z: int
    writer_id: str = ""

    def __post_init__(self) -> None:
        if self.z < 0:
            raise ValueError("tag counter must be non-negative")

    def next_tag(self, writer_id: str) -> "Tag":
        """The tag a writer creates after observing this one (``z + 1``)."""
        return Tag(self.z + 1, writer_id)

    @classmethod
    def initial(cls) -> "Tag":
        """The distinguished initial tag t0."""
        return cls(0, "")

    def __repr__(self) -> str:
        return f"Tag(z={self.z}, writer={self.writer_id!r})"


#: Singleton-ish initial tag used throughout the protocol.
INITIAL_TAG = Tag.initial()

__all__ = ["Tag", "INITIAL_TAG"]
