"""The terminal run report: one readable page per simulation run.

``render_run_report`` folds the telemetry pillars -- registry counters,
the sampler's time series, latency percentiles and trace-span counts --
into the kind of summary you want printed at the end of an example or
benchmark run.  Everything here formats data that already
exists; nothing is computed from the live simulation except cheap
snapshot reads (repair stats, shard counts).
"""

from __future__ import annotations

from typing import List, Optional


def _series_extent(sampler, *path) -> tuple:
    values = sampler.series(*path)
    return (max(values), values[-1]) if values else (0, 0)


def render_run_report(simulation, telemetry) -> str:
    """A multi-section terminal report for one simulated run."""
    lines: List[str] = ["== run report =="]
    lines.append(simulation.describe())

    stats = simulation.stats
    lines.append("")
    lines.append("-- routing --")
    lines.append(
        f"arrivals={stats.arrivals} flushed={stats.operations_flushed} "
        f"batches={stats.batches_flushed} migrations={stats.migrations}"
    )
    lines.append(
        f"reads: primary={stats.primary_reads} follower={stats.follower_reads} "
        f"quorum={stats.quorum_reads} fallbacks={stats.session_fallbacks} "
        f"read_repairs={stats.read_repairs} "
        f"forwarded_writes={stats.forwarded_writes}"
    )

    repair = simulation.repair
    lines.append("")
    lines.append("-- repair --")
    lines.append(
        f"tasks={repair.stats.tasks_created} "
        f"dispatched={repair.stats.dispatched} "
        f"completed={repair.stats.repairs_completed} "
        f"retries={repair.stats.retries} gave_up={repair.stats.gave_up} "
        f"(moot={repair.stats.moot} failed={repair.stats.failed}) "
        f"outstanding={repair.outstanding_repairs()}"
    )

    auditor = getattr(telemetry, "auditor", None)
    availability = getattr(telemetry, "availability", None)
    if auditor is not None or availability is not None:
        lines.append("")
        lines.append("-- audit health --")
    if auditor is not None:
        session_report = auditor.report()
        verdict = ("clean" if session_report.ok
                   else f"{len(session_report.violations)} VIOLATION(S)")
        lines.append(
            f"live session audit: {verdict} "
            f"(operations={session_report.operations_checked} "
            f"pairs={session_report.pairs_checked} "
            f"unsessioned_skipped={session_report.unsessioned_skipped} "
            f"unlinearized_skipped={session_report.unlinearized_skipped})"
        )
        lines.append(
            f"retention: tracked_entries={auditor.auditor.tracked_entries} "
            f"peak={auditor.auditor.peak_tracked_entries} "
            f"groups={auditor.auditor.tracked_groups} "
            f"peak_groups={auditor.auditor.peak_groups}"
        )
    if availability is not None:
        lines.append(availability.assessment().describe())

    latency = getattr(telemetry, "latency", None)
    if latency is not None and latency.records:
        lines.append("")
        lines.append(f"-- latency ({len(latency.records)} ops) --")
        for op_class in latency.classes():
            sketch = latency.sketch(op_class)
            lines.append(
                f"{op_class}: n={sketch.count} p50={sketch.p50:.1f} "
                f"p90={sketch.p90:.1f} p99={sketch.p99:.1f} "
                f"p999={sketch.p999:.1f} max={sketch.maximum:.1f}"
            )
            for attribution in latency.band_attributions(op_class):
                if not attribution.ops:
                    continue
                top = ", ".join(
                    f"{phase} {fraction * 100:.0f}%"
                    for phase, fraction in
                    list(attribution.fractions.items())[:3]
                )
                lines.append(f"  {attribution.band}: "
                             f"ops={attribution.ops} {top}")
        if latency.stranded:
            lines.append(f"stranded (never completed): {latency.stranded}")
        apply_sketch = latency.replication_apply
        if apply_sketch.count:
            lines.append(
                f"replication apply (post-ack): n={apply_sketch.count} "
                f"p50={apply_sketch.p50:.1f} p99={apply_sketch.p99:.1f}"
            )

    slo = getattr(telemetry, "slo", None)
    if slo is not None:
        statuses = slo.snapshot()
        if statuses:
            lines.append("")
            lines.append("-- slo --")
            for op_class, status in statuses.items():
                verdict = "ok" if status.met else "BLOWN"
                lines.append(
                    f"{op_class}: target p{status.target_fraction * 100:g}"
                    f"<={status.latency_target:g} ops={status.ops} "
                    f"breaches={status.breaches} "
                    f"budget={status.budget_consumed * 100:.0f}% "
                    f"burn={status.burn_rate:.2f}x [{verdict}]"
                )
            for kind, row in slo.availability().items():
                if row["invoked"]:
                    lines.append(
                        f"availability {kind}: {row['completed']}/"
                        f"{row['invoked']} ({row['fraction'] * 100:.2f}% vs "
                        f"{row['target'] * 100:g}%) "
                        f"[{'ok' if row['met'] else 'MISSED'}]"
                    )

    sampler = getattr(telemetry, "sampler", None)
    if sampler is not None and sampler.samples:
        lag_peak, lag_final = _series_extent(sampler, "replication_lag", "max")
        queue_peak, _ = _series_extent(sampler, "queue_depth", "total")
        backlog_peak, backlog_final = _series_extent(sampler, "repair",
                                                     "outstanding")
        pools = sampler.series("pools_live")
        lines.append("")
        lines.append(f"-- time series ({len(sampler.samples)} samples @ "
                     f"{sampler.interval:g}) --")
        lines.append(f"replication lag (records): peak={lag_peak} "
                     f"final={lag_final}")
        lines.append(f"queue depth (events): peak={queue_peak}")
        lines.append(f"repair backlog: peak={backlog_peak} "
                     f"final={backlog_final}")
        lines.append(f"live pools: min={min(pools)} final={pools[-1]}")

    registry = getattr(telemetry, "registry", None)
    if registry is not None:
        rendered = registry.render(nonzero_only=True)
        if rendered:
            lines.append("")
            lines.append("-- metrics --")
            lines.append(rendered)

    trace = getattr(telemetry, "trace", None)
    if trace is not None:
        lines.append("")
        lines.append("-- trace --")
        lines.append(
            f"{len(trace.events)} events, "
            f"{len(trace.spans('write '))} write spans, "
            f"{len(trace.spans('read '))} read spans, "
            f"{len(trace.open_handles())} never closed"
        )

    return "\n".join(lines)


__all__ = ["render_run_report"]
