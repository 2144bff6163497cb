#!/usr/bin/env python3
"""A tour of the telemetry stack on ``quorum-reads-under-lag``.

The walkthrough drives the same fixed-seed scenario as
``examples/quorum_reads.py`` -- a 4-pool, r=3 cluster whose followers
lag by 400 time units, read through rotating 2-of-3 quorums with read
repair, writes entering at the nearest pool -- but this time with every
telemetry pillar on (``Telemetry.full()``):

* the **metrics registry** collects the router counters and the
  sampler's gauges/histograms behind one export path;
* the **kernel sampler** records a cluster-health time series every 25
  virtual time units (queue depths, replication lag, repair backlog,
  live pools), dumped as JSONL;
* the **trace recorder** emits per-operation spans -- write roots with
  forward-hop and replication-apply children, read roots with quorum
  legs and read-repair instants -- as Chrome ``trace_event`` JSON you
  can open in Perfetto (https://ui.perfetto.dev) or ``chrome://tracing``;
* the **latency tracker** folds the same spans into per-op-class
  percentiles and critical-path phases (the report's latency section).

The tour then re-runs the identical scenario with telemetry *off* and
checks the governing invariant plus the acceptance criteria: the kernel
fingerprints match (observation changed nothing), write spans carry
forward-hop and replication-apply children, and the sampled replication
lag rises under the burst then collapses to zero once repair and the
replication queues drain.  Exits non-zero if any of that fails, so the
CI smoke job doubles as the telemetry stack's correctness gate.

Run with:  PYTHONPATH=src python examples/telemetry_tour.py [--out DIR]
"""

from __future__ import annotations

import argparse
import json
import tempfile
from pathlib import Path

from repro import ClusterSimulation, LDSConfig, ReplicationConfig, Telemetry
from repro.sim import quorum_reads_under_lag

SEED = 7
KEYS = [f"obj-{i}" for i in range(16)]
POOLS = [f"pool-{i}" for i in range(4)]
REPLICATION_LAG = 400.0


def build(telemetry) -> ClusterSimulation:
    config = LDSConfig(n1=3, n2=4, f1=1, f2=1)
    simulation = ClusterSimulation(
        config, POOLS, seed=SEED,
        writers_per_shard=2, readers_per_shard=2,
        replication=ReplicationConfig(r=3, replication_lag=REPLICATION_LAG,
                                      read_quorum=2,
                                      write_ingress="nearest"),
        read_policy="quorum",
        telemetry=telemetry,
    )
    simulation.ensure_shards(KEYS)
    simulation.apply(quorum_reads_under_lag(KEYS, seed=SEED))
    return simulation


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=Path, default=None,
                        help="directory for trace.json / series.jsonl / "
                             "report.txt (default: a temp dir)")
    args = parser.parse_args()
    out = args.out if args.out is not None else \
        Path(tempfile.mkdtemp(prefix="telemetry-tour-"))
    out.mkdir(parents=True, exist_ok=True)

    telemetry = Telemetry.full()
    simulation = build(telemetry)
    print(f"cluster: {simulation.describe()}\n")

    failures = []

    # -- invariant: telemetry is pure observation --------------------------------
    bare = build(None)
    fingerprints_match = \
        simulation.kernel.fingerprint == bare.kernel.fingerprint
    print("== non-interference ==")
    print(f"  instrumented fingerprint: {simulation.kernel.fingerprint:#010x}")
    print(f"  bare fingerprint:         {bare.kernel.fingerprint:#010x}")
    print(f"  identical: {fingerprints_match}")
    if not fingerprints_match:
        failures.append("telemetry perturbed the run (fingerprint mismatch)")

    # -- trace spans --------------------------------------------------------------
    trace = telemetry.trace
    write_roots = trace.spans("write ")
    read_roots = trace.spans("read ")
    child_names = set()
    for root in write_roots:
        for child in trace.children_of(root["id"]):
            child_names.add(child["name"].split(" ")[0])
    print("\n== trace ==")
    print(f"  {len(trace.events)} events: {len(write_roots)} write roots, "
          f"{len(read_roots)} read roots, "
          f"{len(trace.open_handles())} never closed")
    print(f"  write-span children seen: {sorted(child_names)}")
    if "forward-hop" not in child_names:
        failures.append("no forward-hop children under write spans")
    if "replication-apply" not in child_names:
        failures.append("no replication-apply children under write spans")
    if trace.open_handles():
        failures.append("some root spans never closed")

    # -- sampled time series ------------------------------------------------------
    lag = telemetry.sampler.series("replication_lag", "max")
    print("\n== sampled replication lag ==")
    print(f"  {len(lag)} samples @ {telemetry.sampler.interval:g} time units")
    print(f"  peak={max(lag)} records, final={lag[-1]}")
    if max(lag) <= 0:
        failures.append("expected nonzero replication lag under the burst")
    if lag[-1] != 0:
        failures.append("expected the lag to collapse once queues drained")

    # -- artefacts ---------------------------------------------------------------
    trace_path = out / "trace.json"
    series_path = out / "series.jsonl"
    report_path = out / "report.txt"
    trace.write(trace_path)
    telemetry.sampler.write_jsonl(series_path)
    report = simulation.run_report()
    report_path.write_text(report + "\n", encoding="utf-8")

    with open(trace_path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    if "traceEvents" not in payload:
        failures.append("trace.json is not Chrome trace_event JSON")

    print(f"\n{report}")
    print("\n== artefacts ==")
    print(f"  trace:  {trace_path}  (open in https://ui.perfetto.dev)")
    print(f"  series: {series_path}")
    print(f"  report: {report_path}")

    if failures:
        print("\nFAILED:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print(f"\nOK: fingerprint-identical instrumented run, "
          f"{len(write_roots)} write spans with "
          f"{sorted(child_names)} children, lag peak {max(lag)} -> 0.")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
