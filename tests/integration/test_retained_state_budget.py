"""A deterministic guard on the protocol state a drained run keeps.

The memory twin of ``test_message_path_budget.py``: after ``apply()``
drains a workload at smoke scale, every L1 server of every epoch has
forgotten its finished broadcasts and its per-tag commit, ack, operation-id
and write-ack bookkeeping, and the replica layer keeps one record per
completed read (what ``result(handle)`` and ``operation_cost(handle)``
answer from).  What the paper keeps for good stays: every tag in each
list L, as metadata.  A map that grows with the length of a run rather
than with the work in flight fails here.
"""

from pathlib import Path

import pytest

from repro.cluster.read_policy import REPLICA_EPOCH

BENCHMARKS = Path(__file__).resolve().parents[2] / "benchmarks"

#: An L1 server's per-tag bookkeeping.
PER_TAG = ("commit_counter", "_acked_tags", "_tag_op_ids", "write_counter")

#: workload -> tags in the lists L of all L1 servers together, at idle.
LIST_TAGS = {"pump_small": 370, "replica_faults": 405}


def containers(obj):
    """Every dict and set ``obj`` holds as an attribute."""
    return [value for value in vars(obj).values() if isinstance(value, (dict, set))]


@pytest.mark.parametrize("workload", sorted(LIST_TAGS))
def test_a_drained_run_keeps_no_finished_protocol_state(workload, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    from lds_bench.workloads import BY_NAME, build

    simulation, scenario, _attempted = build(BY_NAME[workload].scaled(1 / 40), 1)
    simulation.apply(scenario)
    router = simulation.router
    systems = [shard.system for shard in router.shards.values()]
    systems += router._retired.values()
    servers = [server for system in systems for server in system.l1_servers]

    assert sum(len(kept) for server in servers
               for kept in containers(server.broadcaster)) == 0
    assert {name: sum(len(getattr(server, name)) for server in servers)
            for name in PER_TAG} == dict.fromkeys(PER_TAG, 0)
    assert sum(len(server.list_storage) for server in servers) == \
        LIST_TAGS[workload]

    replicas = simulation.replicas
    if replicas is not None:
        completed = {handle for handle, (_key, epoch, _op_id)
                     in router._handles.items()
                     if epoch == REPLICA_EPOCH
                     and replicas.result(handle) is not None}
        records = sum(len(completed & kept.keys())
                      for kept in containers(replicas) if isinstance(kept, dict))
        assert len(completed) == 210
        assert records == len(completed)
