"""A deterministic guard on the state a drained run keeps.

The memory twin of ``test_message_path_budget.py``: after ``apply()``
drains a workload at smoke scale, every L1 server of every epoch has
forgotten its finished broadcasts and its per-tag commit, ack, operation-id
and write-ack bookkeeping.  Each completed operation is one history record,
whichever layer served it -- what ``result(handle)`` and
``operation_cost(handle)`` answer from -- and each client's id is one
string.  What the paper keeps for good stays: every tag in each list L, as
metadata.  A map that grows with the length of a run rather than with the
work in flight fails here.  The records kept per operation are slotted,
with no ``__dict__``, and still compare, hash, replace, copy, pickle and
validate as plain dataclasses do.
"""

import copy
import gc
import pickle
from dataclasses import FrozenInstanceError, replace
from pathlib import Path
from types import FunctionType, ModuleType

import pytest

from repro.cluster.replicas import ReplicaRecord
from repro.consistency.history import REPLICA_CLIENT_PREFIX, Operation
from repro.core.costs import StorageEvent
from repro.core.results import OperationResult
from repro.core.tags import Tag
from repro.workloads.generator import ScheduledOperation

BENCHMARKS = Path(__file__).resolve().parents[2] / "benchmarks"

#: An L1 server's per-tag bookkeeping.
PER_TAG = ("commit_counter", "_acked_tags", "_tag_op_ids", "write_counter")

#: workload -> tags in the lists L of all L1 servers together, at idle.
LIST_TAGS = {"pump_small": 370, "replica_faults": 405}

#: workload -> reads the replica layer served (follower or quorum).
REPLICA_SERVED = {"pump_small": 0, "replica_faults": 210}


#: The records a run keeps one or more of per operation, each built twice
#: from the same fields, with one field to replace and a value for it.
TAG = Tag(3, "writer-0")
RECORDS = {
    "Operation": (lambda: Operation("obj/op-1", "writer-0", "write", value=b"v",
                                    invoked_at=1.0, responded_at=2.0, tag=TAG),
                  "responded_at", 4.0),
    "ScheduledOperation": (lambda: ScheduledOperation("write", 1.0, value=b"v",
                                                      key="obj"), "at", 4.0),
    "ReplicaRecord": (lambda: ReplicaRecord(1, 2.0, 0, TAG, b"v"),
                      "committed_at", 4.0),
    "StorageEvent": (lambda: StorageEvent(1.0, "l1-0", TAG, "add", 1.0),
                     "time", 4.0),
}


def containers(obj):
    """Every dict and set ``obj`` holds as an attribute."""
    return [value for value in vars(obj).values() if isinstance(value, (dict, set))]


def drained(workload, monkeypatch, handed_out):
    """The smoke run of ``workload``, applied, and every handle it handed
    out."""
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    from lds_bench.workloads import BY_NAME, build

    simulation, scenario, _attempted = build(BY_NAME[workload].scaled(1 / 40), 1)
    handles = handed_out(simulation)
    simulation.apply(scenario)
    return simulation, handles


def reachable(root) -> list:
    """Every object ``root`` reaches, once each, without walking into
    classes, modules or a function's globals."""
    seen = {id(root): root}
    stack = [root]
    while stack:
        obj = stack.pop()
        if isinstance(obj, (type, ModuleType)):
            continue
        if isinstance(obj, FunctionType):
            refs = [*(cell.cell_contents for cell in obj.__closure__ or ()),
                    *(obj.__defaults__ or ())]
        else:
            refs = gc.get_referents(obj)
        for ref in refs:
            if id(ref) not in seen:
                seen[id(ref)] = ref
                stack.append(ref)
    return list(seen.values())


@pytest.mark.parametrize("workload", sorted(LIST_TAGS))
def test_a_drained_run_keeps_no_finished_protocol_state(workload, monkeypatch,
                                                       handed_out):
    simulation, _handles = drained(workload, monkeypatch, handed_out)
    systems = [shard.system for shard in simulation.shards.values()]
    systems += [shard.system for shard in simulation._retired.values()]
    servers = [server for system in systems for server in system.l1_servers]

    assert sum(len(kept) for server in servers
               for kept in containers(server.broadcaster)) == 0
    assert {name: sum(len(getattr(server, name)) for server in servers)
            for name in PER_TAG} == dict.fromkeys(PER_TAG, 0)
    assert sum(len(server.list_storage) for server in servers) == \
        LIST_TAGS[workload]
    # The encode cache keeps only values that can still be offloading: one
    # write in flight per writer, and the last committed value.
    assert all(len(system._encode_cache) <= len(system.writers) + 1
               for system in systems)


@pytest.mark.parametrize("workload", sorted(LIST_TAGS))
def test_a_drained_run_keeps_one_record_per_operation(workload, monkeypatch,
                                                      handed_out):
    simulation, handles = drained(workload, monkeypatch, handed_out)
    kept = reachable(simulation)
    history = simulation.history()
    assert all(op.responded_at is not None for op in history)
    # One Operation per completed operation -- the history's own record --
    # plus each epoch hand-off read, and no OperationResult beside it.
    records = [obj for obj in kept if isinstance(obj, Operation)]
    assert len(records) == len(history) + len(simulation._internal_ops)
    assert not [obj for obj in kept if isinstance(obj, OperationResult)]
    # The router maps a flushed handle to the op id its epoch's recorder
    # files the record under: that very string, not a copy or a list.
    shards = [*simulation.shards.values(), *simulation._retired.values()]
    for shard in shards:
        ids = {op_id: op_id for op_id in shard.system.recorder.completed}
        assert all(ids[op_id] is op_id for op_id in shard.op_ids.values())
    flushed = sum(len(shard.op_ids) for shard in shards)
    replicas = simulation.replicas
    served = {}
    prefixes = ["client-"]
    if replicas is not None:
        # A replica-served read's handle maps to its record in the group's
        # history.  No other container keeps the handle, but for a quorum
        # read that moved two values.
        served = replicas._completed
        in_history = {id(op) for history in replicas.histories()
                      for op in history}
        assert all(id(op) in in_history for op in served.values())
        assert replicas._two_transfers <= set(served)
        assert sum(len(served.keys() & set(held))
                   for held in containers(replicas)
                   if isinstance(held, (dict, set))) == \
            len(served) + len(replicas._two_transfers)
        prefixes.append(REPLICA_CLIENT_PREFIX)
    assert len(served) == REPLICA_SERVED[workload]
    assert flushed + len(served) == len(handles)
    # One id string per client: the session a default client's arrivals
    # share, and a replica-served read's client id.
    for prefix in prefixes:
        ids = [obj for obj in kept
               if isinstance(obj, str) and obj.startswith(prefix)]
        assert ids and len(ids) == len(set(ids))


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_a_per_operation_record_keeps_no_dict(name):
    build, field, value = RECORDS[name]
    record, twin = build(), build()
    assert not hasattr(record, "__dict__")
    assert type(record).__slots__ and type(record).__name__ == name
    assert record == twin and record is not twin
    for copied in (copy.copy(record), copy.deepcopy(record),
                   pickle.loads(pickle.dumps(record))):
        assert type(copied) is type(record) and copied == record
    changed = replace(record, **{field: value})
    assert getattr(changed, field) == value and changed != record
    assert replace(changed, **{field: getattr(record, field)}) == record
    if name == "StorageEvent":
        # Mutable, so unhashable, as a plain dataclass with eq is.
        assert type(record).__hash__ is None
        setattr(record, field, value)
        assert record == changed
    else:
        assert hash(record) == hash(twin)
        assert hash(changed) != hash(record)
        with pytest.raises(FrozenInstanceError):
            setattr(record, field, value)


def test_a_slotted_record_still_validates_its_fields():
    with pytest.raises(ValueError, match="kind must be 'read' or 'write'"):
        replace(RECORDS["Operation"][0](), kind="scan")
    with pytest.raises(ValueError, match="response cannot precede"):
        replace(RECORDS["Operation"][0](), responded_at=0.5)
    with pytest.raises(ValueError, match="scheduled in the past"):
        replace(RECORDS["ScheduledOperation"][0](), at=-1.0)
