"""Version tags.

A tag is a pair ``(z, writer_id)`` where ``z`` is a natural number and
``writer_id`` identifies the writer (Section III).  Tags are totally
ordered lexicographically: ``t2 > t1`` iff ``t2.z > t1.z`` or
(``t2.z == t1.z`` and ``t2.writer_id > t1.writer_id``).  The distinguished
initial tag is ``(0, "")``.
"""

from __future__ import annotations

#: Sets a slot past Tag.__setattr__, which refuses every assignment.
_set = object.__setattr__


class Tag:
    """A version tag ``(z, writer_id)`` with the paper's total order.

    Immutable and slotted.  The ``(z, writer_id)`` key and its hash are
    computed once, at construction: a tag hashes like that pair, so every
    tag-keyed set and dict iterates in the pair's order.  Each comparison
    compares keys and returns ``NotImplemented`` for anything that is not a
    tag -- a tag is deliberately not a tuple, so a bare tag never compares
    with an ``(epoch, tag)`` version.
    """

    __slots__ = ("z", "writer_id", "_key", "_hash")

    def __init__(self, z: int, writer_id: str = "") -> None:
        if z < 0:
            raise ValueError("tag counter must be non-negative")
        key = (z, writer_id)
        _set(self, "z", z)
        _set(self, "writer_id", writer_id)
        _set(self, "_key", key)
        _set(self, "_hash", hash(key))

    def __setattr__(self, name: str, value=None) -> None:
        raise AttributeError(f"cannot assign to or delete {name!r} of a Tag")

    __delattr__ = __setattr__

    def __reduce__(self):
        return Tag, self._key

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other):
        return self._key == other._key if isinstance(other, Tag) else NotImplemented

    def __ne__(self, other):
        return self._key != other._key if isinstance(other, Tag) else NotImplemented

    def __lt__(self, other):
        return self._key < other._key if isinstance(other, Tag) else NotImplemented

    def __le__(self, other):
        return self._key <= other._key if isinstance(other, Tag) else NotImplemented

    def __gt__(self, other):
        return self._key > other._key if isinstance(other, Tag) else NotImplemented

    def __ge__(self, other):
        return self._key >= other._key if isinstance(other, Tag) else NotImplemented

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
