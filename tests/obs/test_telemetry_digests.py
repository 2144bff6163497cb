"""Pins what every telemetry pillar records, as one CRC32 per artefact.

Two fixed-seed runs:

* ``all_pillars`` -- ``quorum-reads-under-lag`` with the tracer, the
  sampler, the live session auditor, the availability monitor, the
  latency tracker and the SLO tracker all on, followed by a second burst
  after the first one drained, so the probes' wind-down and re-arm path
  is part of the digest;
* ``stale_drill`` -- the live auditor's stale-completion drill: a
  fabricated stale read pushed into the completion feed mid-run, so the
  ``t`` of the violation row it raises is pinned.

One column per artefact: the sampler's JSONL, the SLO tracker's JSONL,
the audit rows plus the final session verdict, the availability
assessment, the latency tracker's JSONL, the trace JSON,
``registry.to_dict()`` and ``run_report()``.  Every float goes in through ``repr`` or JSON, so
a probe that ticks at a different instant, in a different order or a
different number of times moves a column.
"""

import json
import zlib

import pytest

from repro.cluster.replicas import ReplicationConfig
from repro.consistency.history import READ, WRITE, Operation
from repro.core.config import LDSConfig
from repro.obs import Telemetry
from repro.sim import ClusterSimulation, quorum_reads_under_lag

CONFIG = LDSConfig(n1=3, n2=4, f1=1, f2=1)
KEYS = [f"obj-{i}" for i in range(8)]
POOLS = [f"pool-{i}" for i in range(3)]
SEED = 11


def crc(text: str) -> int:
    return zlib.crc32(text.encode())


def all_pillars() -> tuple:
    telemetry = Telemetry(trace=True, sample_interval=25.0, live_audit=True,
                          availability_interval=50.0, latency=True,
                          slo_interval=50.0)
    simulation = ClusterSimulation(
        CONFIG, POOLS, seed=SEED,
        writers_per_shard=2, readers_per_shard=2,
        replication=ReplicationConfig(r=3, replication_lag=300.0,
                                      read_quorum=2),
        read_policy="quorum", telemetry=telemetry)
    simulation.ensure_shards(KEYS)
    simulation.apply(quorum_reads_under_lag(KEYS, seed=SEED, operations=60,
                                            burst_operations=60))
    simulation.apply(quorum_reads_under_lag(KEYS, seed=SEED + 1,
                                            operations=30,
                                            burst_operations=30))
    return simulation, telemetry


def stale_drill() -> tuple:
    telemetry = Telemetry(live_audit=True, availability_interval=50.0)
    simulation = ClusterSimulation(CONFIG, POOLS[:2], seed=3,
                                   telemetry=telemetry)
    simulation.invoke_write("k", b"v1", session="s")
    simulation.run_until_idle()
    simulation.invoke_write("k", b"v2", session="s")
    simulation.run_until_idle()
    first = min((op for op in simulation.history()
                 if op.kind == WRITE and op.is_complete),
                key=lambda op: op.invoked_at)
    now = simulation.kernel.now
    simulation.notify_replica_completion(Operation(
        op_id="k/replica:drill/read-0", client_id="replica:drill/reader-0",
        kind=READ, object_id=first.object_id, value=first.value,
        invoked_at=now + 1.0, responded_at=now + 2.0, tag=first.tag,
        session="s"))
    simulation.invoke_write("other", b"x", at=now + 80.0)
    simulation.run_until_idle()
    return simulation, telemetry


def digests(simulation, telemetry) -> dict:
    out = {}
    if telemetry.sampler is not None:
        out["sampler"] = crc(telemetry.sampler.to_jsonl())
    if telemetry.slo is not None:
        out["slo"] = crc(telemetry.slo.to_jsonl())
    auditor = telemetry.auditor
    out["audit"] = crc(auditor.to_jsonl() + auditor.report().describe())
    out["availability"] = crc(repr(telemetry.availability.assessment()))
    if telemetry.latency is not None:
        out["latency"] = crc(telemetry.latency.to_jsonl())
    if telemetry.trace is not None:
        out["trace"] = crc(json.dumps(telemetry.trace.to_json(),
                                      sort_keys=True))
    out["registry"] = crc(repr(telemetry.registry.to_dict()))
    out["report"] = crc(simulation.run_report())
    return out


PINNED = {
    # latency 0x70AED0E1, trace 0x2C0B8C2F, registry 0x09F92726 and
    # report 0xEB18C8D8 while every quorum leg moved a value; registry
    # 0xE7F63027 (stale_drill 0xC95FABC9) while RouterStats carried the
    # always-zero retired_fallbacks
    "all_pillars": {
        "sampler": 0x7187EBA4, "slo": 0xD20F391B, "audit": 0x84C03776,
        "availability": 0x626EFE39, "latency": 0x6511117B,
        "trace": 0xA4152DC2, "registry": 0xA39D2FF0, "report": 0x76844BB7,
    },
    "stale_drill": {
        "audit": 0x64276C1E, "availability": 0xACCE1993,
        "registry": 0x372397F8, "report": 0x9EDE7CCC,
    },
}

RUNS = {"all_pillars": all_pillars, "stale_drill": stale_drill}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_telemetry_digests(name):
    assert digests(*RUNS[name]()) == PINNED[name]


def test_the_second_burst_is_sampled():
    _, telemetry = all_pillars()
    ticks = [row["t"] for row in telemetry.sampler.samples]
    gaps = [b - a for a, b in zip(ticks, ticks[1:])]
    # One gap is the re-arm: the first burst wound the loop down.
    assert any(abs(gap - 25.0) > 1e-6 for gap in gaps)
