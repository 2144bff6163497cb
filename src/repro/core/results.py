"""Results returned by completed client operations, and the client
lifecycle that builds them."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Set

from repro.core.tags import Tag
from repro.net.latency import CLIENT
from repro.net.process import Process


@dataclass(frozen=True)
class OperationResult:
    """The outcome of one completed read or write operation.

    Attributes:
        op_id: the unique operation identifier.
        client_id: the invoking client's process id.
        kind: ``"read"`` or ``"write"``.
        tag: the tag associated with the operation (``tag(pi)`` in the paper).
        value: the value written (for writes) or returned (for reads).
        invoked_at: virtual time of the invocation step.
        responded_at: virtual time of the response step.
    """

    op_id: str
    client_id: str
    kind: str
    tag: Tag
    value: Optional[bytes]
    invoked_at: float
    responded_at: float

    @property
    def duration(self) -> float:
        """Operation latency in virtual time units."""
        return self.responded_at - self.invoked_at


CompletionCallback = Callable[[OperationResult], None]


class Client(Process):
    """A well-formed client: at most one operation in flight.

    Every writer and reader automaton -- LDS's and the baselines' -- runs
    the same per-operation lifecycle around its own phases: :meth:`_begin`
    opens an operation in its first phase, the automaton's message handlers
    move ``_phase`` along and count ``_responders`` per phase, and
    :meth:`_finish` builds the :class:`OperationResult` and hands it to the
    invoker's callback.  ``_phase`` is ``None`` exactly while idle.
    """

    def __init__(self, pid: str) -> None:
        super().__init__(pid, link_class=CLIENT)
        self._counter = 0
        self._phase: Optional[str] = None
        self._op_id: Optional[str] = None
        self._callback: Optional[CompletionCallback] = None
        self._invoked_at = 0.0
        self._responders: Set[str] = set()

    @property
    def busy(self) -> bool:
        """True while an operation is in flight."""
        return self._phase is not None

    def _begin(self, kind: str, first_phase: str,
               callback: Optional[CompletionCallback], op_id: Optional[str]) -> str:
        """Open a ``kind`` operation in ``first_phase``; returns its id.

        Raises :class:`RuntimeError` if the previous operation has not
        completed (clients are well-formed) or the client has crashed.
        """
        role = "writer" if kind == "write" else "reader"
        if self.busy:
            raise RuntimeError(f"{role} {self.pid} already has an operation in flight")
        if self.crashed:
            raise RuntimeError(f"{role} {self.pid} has crashed")
        self._counter += 1
        self._op_id = op_id or f"{self.pid}:{kind}-{self._counter}"
        self._callback = callback
        self._invoked_at = self.now
        self._responders = set()
        self._phase = first_phase
        return self._op_id

    def _finish(self, kind: str, tag: Tag, value: Optional[bytes]) -> None:
        """Respond: return to idle, then call back with the result."""
        result = OperationResult(
            op_id=self._op_id or "", client_id=self.pid, kind=kind, tag=tag,
            value=value, invoked_at=self._invoked_at, responded_at=self.now,
        )
        callback = self._callback
        self._phase = None
        self._op_id = None
        self._callback = None
        if callback is not None:
            callback(result)


__all__ = ["Client", "CompletionCallback", "OperationResult"]
