"""The register facades: one driving API, and the LDS deployment behind it.

:class:`RegisterSystem` is what every simulated single-object register
shares -- LDS here, ABD and CAS in :mod:`repro.baselines` -- and the one
place that implements driving it:

* invoke operations (now or at a scheduled virtual time),
* run the simulation on its event pump (:mod:`repro.net.kernel`), so
  every run has a fingerprint and can be sanitized,
* crash processes,
* inspect results, the operation history and communication costs.

A subclass only builds its servers and clients and keeps its own storage
accounting.  :class:`LDSSystem` assembles a complete simulated deployment
of the LDS algorithm -- the discrete-event network, both server layers,
the layered regenerating code, writers and readers.

A single :class:`LDSSystem` implements **one** atomic object, exactly like
one instance of the LDS algorithm in the paper; a multi-object deployment
is one instance per object on a shared ``kernel``.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, TypeVar, Union

from repro.codes.layered import LayeredCode
from repro.consistency.history import History, OperationRecorder, READ, WRITE
from repro.core.config import LDSConfig
from repro.core.costs import StorageCostTracker
from repro.core.reader import Reader
from repro.core.results import Client, OperationResult
from repro.core.server_l1 import L1Server
from repro.core.server_l2 import L2Server
from repro.core.tags import Tag
from repro.core.writer import Writer
from repro.net.kernel import GlobalScheduler
from repro.net.latency import LatencyModel
from repro.net.network import Network
from repro.net.process import Process

#: Distinct values whose backend encoding each system memoises (oldest out).
ENCODE_CACHE_SIZE = 64

P = TypeVar("P", bound=Process)


class RegisterSystem:
    """A simulated single-object atomic register and its driving API.

    A subclass registers its servers and its :attr:`writers` and
    :attr:`readers` (:class:`~repro.core.results.Client` processes, indexed
    separately) through :meth:`_register`.
    """

    def __init__(self, object_id: str, initial_value: bytes,
                 latency_model: Optional[LatencyModel] = None,
                 kernel: Optional[GlobalScheduler] = None) -> None:
        self.object_id = object_id
        self.network = Network(kernel, latency_model)
        #: The event pump the deployment runs on: its own, or one shared
        #: by every object of a fleet or a cluster.
        self.kernel = self.network.kernel
        self.recorder = OperationRecorder(initial_value=initial_value)
        self.results: Dict[str, OperationResult] = {}
        #: (client pid, kind) -> operation ids allocated so far.
        self._op_sequences: Dict[tuple, int] = {}
        #: Callbacks invoked (synchronously, at the response event) for
        #: every completed operation.  The cluster's replica coordinator
        #: uses this to fan committed writes out to follower stores and to
        #: maintain per-session version floors.
        self.completion_hooks: List[Callable[[OperationResult], None]] = []
        self.writers: List[Client] = []
        self.readers: List[Client] = []

    # -- internal helpers -------------------------------------------------------------

    def _register(self, processes: Iterable[P]) -> List[P]:
        """Register processes on the network, in order; returns them."""
        registered = list(processes)
        self.network.register_all(registered)
        return registered

    def _client(self, clients: List[Client], selector: Union[int, str]) -> Client:
        if isinstance(selector, int):
            return clients[selector]
        for client in clients:
            if client.pid == selector:
                return client
        raise KeyError(f"unknown client {selector!r}")

    def _record_completion(self, result: OperationResult) -> None:
        self.results[result.op_id] = result
        self.recorder.respond(
            result.op_id, time=result.responded_at,
            value=result.value if result.kind == READ else None,
            tag=result.tag,
        )
        for hook in list(self.completion_hooks):
            hook(result)

    def _crash(self, pid: str, at: Optional[float]) -> None:
        """Crash a process now, or at virtual time ``at``."""
        if at is None:
            self.network.crash(pid)
        else:
            self.kernel.simulator.schedule_at(at, lambda: self.network.crash(pid))

    # -- invoking operations ---------------------------------------------------------------

    def _allocate_op_id(self, client_pid: str, kind: str) -> str:
        """Allocate a unique operation id for a client at scheduling time."""
        key = (client_pid, kind)
        sequence = self._op_sequences[key] = self._op_sequences.get(key, 0) + 1
        return f"{client_pid}:{kind}-{sequence}"

    def invoke_write(self, value: bytes, writer: Union[int, str] = 0,
                     at: Optional[float] = None) -> str:
        """Invoke (or schedule) a write; returns the operation id.

        When ``at`` is given, the invocation step happens at that virtual
        time; otherwise it happens at the current virtual time.
        """
        return self._invoke(self._client(self.writers, writer), WRITE, bytes(value), at)

    def invoke_read(self, reader: Union[int, str] = 0,
                    at: Optional[float] = None) -> str:
        """Invoke (or schedule) a read; returns the operation id."""
        return self._invoke(self._client(self.readers, reader), READ, None, at)

    def _invoke(self, client, kind: str, value: Optional[bytes],
                at: Optional[float]) -> str:
        op_id = self._allocate_op_id(client.pid, kind)

        def start() -> None:
            if kind == WRITE:
                client.write(value, self._record_completion, op_id=op_id)
            else:
                client.read(self._record_completion, op_id=op_id)
            self.recorder.invoke(
                op_id, client_id=client.pid, kind=kind,
                object_id=self.object_id, value=value, time=self.kernel.simulator.now,
            )

        if at is None:
            start()
        else:
            self.kernel.simulator.schedule_at(at, start)
        return op_id

    # -- running ---------------------------------------------------------------------------------

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run the simulation (optionally bounded by time or event count)."""
        self.kernel.run(until=until, max_events=max_events)

    def run_until_idle(self, max_events: int = 10_000_000) -> None:
        """Run until no events remain."""
        self.kernel.run_until_idle(max_events=max_events)

    def run_until_complete(self, op_id: str, max_events: int = 10_000_000) -> OperationResult:
        """Run until the given operation completes; raises if it never does."""
        result = self.kernel.run_until(lambda: self.results.get(op_id), max_events)
        if result is None:
            raise self.incomplete_error(
                f"operation {op_id} did not complete within the event budget"
                if self.kernel.pending_work() else
                f"operation {op_id} did not complete (no pending events remain)")
        return result

    def crash_budgets(self) -> List[tuple]:
        """``(servers' name, servers, budget name, allowed crashes)`` per
        layer of the deployment's fault model."""
        return []

    def incomplete_error(self, message: str) -> RuntimeError:
        """The error for an operation that cannot finish: names each crash
        budget the deployment has exceeded, e.g. "3 of 5 L1 servers
        crashed, f1 = 1"; inside the fault model the message does not
        change."""
        for name, servers, budget, allowed in self.crash_budgets():
            crashed = sum(1 for server in servers if server.crashed)
            if crashed > allowed:
                message += (f"; {crashed} of {len(servers)} {name} "
                            f"crashed, {budget} = {allowed}")
        return RuntimeError(message)

    # -- synchronous convenience API ------------------------------------------------------------------

    def write(self, value: bytes, writer: Union[int, str] = 0) -> OperationResult:
        """Perform a write and run the simulation until it completes."""
        return self.run_until_complete(self.invoke_write(value, writer=writer))

    def read(self, reader: Union[int, str] = 0) -> OperationResult:
        """Perform a read and run the simulation until it completes."""
        return self.run_until_complete(self.invoke_read(reader=reader))

    # -- inspection -----------------------------------------------------------------------------------------

    def history(self) -> History:
        """The operation history recorded so far."""
        return self.recorder.history()

    @property
    def operations_in_flight(self) -> int:
        """Operations invoked or scheduled that have not responded yet."""
        return sum(self._op_sequences.values()) - len(self.results)

    def operation_cost(self, op_id: str) -> float:
        """Normalised communication cost attributed to one operation.

        For LDS writes this includes the internal write-to-L2 traffic (the
        servers stamp those messages with the originating write's id),
        matching the accounting of Lemma V.2.
        """
        return self.network.costs.operation_cost(op_id)

    @property
    def communication_cost(self) -> float:
        """Total normalised communication cost of the execution so far."""
        return self.network.costs.total


class LDSSystem(RegisterSystem):
    """A fully wired, simulated deployment of the LDS algorithm."""

    def __init__(self, config: LDSConfig, num_writers: int = 1, num_readers: int = 1,
                 latency_model: Optional[LatencyModel] = None,
                 object_id: str = "object-0",
                 kernel: Optional[GlobalScheduler] = None) -> None:
        if num_writers < 0 or num_readers < 0:
            raise ValueError("client counts must be non-negative")
        super().__init__(object_id, config.initial_value, latency_model, kernel)
        self.config = config
        self.code: LayeredCode = config.build_code()
        self._encode_cache: Dict[bytes, Dict[int, object]] = {}
        self._wrap_encode_cache()
        self.storage = StorageCostTracker(object_id=object_id)

        # -- the two server layers, then the clients ---------------------------------
        self.l1_servers: List[L1Server] = self._register(
            L1Server(pid=config.l1_pid(index), index=index, config=config,
                     code=self.code, storage_tracker=self.storage)
            for index in range(config.n1)
        )
        initial_elements = self.code.encode_for_backend(config.initial_value)
        self.l2_servers: List[L2Server] = self._register(
            L2Server(pid=config.l2_pid(index), index=index, code=self.code,
                     initial_tag=Tag.initial(), initial_element=initial_elements[index],
                     storage_tracker=self.storage)
            for index in range(config.n2)
        )
        self.writers = self._register(
            Writer(pid=f"writer-{index}", config=config) for index in range(num_writers)
        )
        self.readers = self._register(
            Reader(pid=f"reader-{index}", config=config, code=self.code)
            for index in range(num_readers)
        )

    def _wrap_encode_cache(self) -> None:
        """Memoise backend encodes: every L1 server encodes the same value,
        so for simulation efficiency the (deterministic) encoding is shared.
        This is purely an engineering optimisation -- it does not change any
        message or state of the protocol."""
        original = self.code.encode_for_backend

        def cached(value: bytes):
            key = bytes(value)
            hit = self._encode_cache.get(key)
            if hit is not None:
                return hit
            encoded = original(key)
            if len(self._encode_cache) >= ENCODE_CACHE_SIZE:
                self._encode_cache.pop(next(iter(self._encode_cache)))
            self._encode_cache[key] = encoded
            return encoded

        self.code.encode_for_backend = cached  # type: ignore[method-assign]

    # -- failures ----------------------------------------------------------------------------------------

    def crash_l1(self, index: int, at: Optional[float] = None) -> None:
        """Crash the ``index``-th L1 server (immediately or at a virtual time)."""
        self._crash(self.config.l1_pid(index), at)

    def crash_l2(self, index: int, at: Optional[float] = None) -> None:
        """Crash the ``index``-th L2 server (immediately or at a virtual time)."""
        self._crash(self.config.l2_pid(index), at)

    def alive_l1_count(self) -> int:
        return sum(1 for server in self.l1_servers if not server.crashed)

    def alive_l2_count(self) -> int:
        return sum(1 for server in self.l2_servers if not server.crashed)

    def crash_budgets(self) -> List[tuple]:
        return [("L1 servers", self.l1_servers, "f1", self.config.f1),
                ("L2 servers", self.l2_servers, "f2", self.config.f2)]


__all__ = ["LDSSystem", "OperationResult", "RegisterSystem"]
