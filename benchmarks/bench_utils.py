"""Shared helpers for the benchmark harness.

Every benchmark regenerates one of the paper's quantitative results
(Lemmas V.2-V.5, Remarks 1-2, Figure 6) by driving the simulator and
printing a "paper vs measured" table.  The tables are printed to stdout
and also written to ``benchmarks/results/<experiment>.txt`` so they
survive pytest output capturing.
"""

from __future__ import annotations

import os
from typing import Iterable, Sequence

from repro import WorkloadGenerator

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

#: The fixed-seed 4-pool cluster shape the replica-layer benches share.
SEED = 19
POOLS = [f"pool-{i}" for i in range(4)]


def zipf_workload(write_fraction: float):
    """240 Zipf(1.1) operations over 24 keys in 900 time units."""
    generator = WorkloadGenerator(seed=SEED, client_spacing=60.0)
    return generator.zipf_keyed(
        [f"obj-{i}" for i in range(24)], 240,
        write_fraction=write_fraction, duration=900.0, s=1.1,
    )


def emit_table(experiment: str, title: str, header: Sequence[str],
               rows: Iterable[Sequence[object]]) -> str:
    """Format, print and persist a results table; returns the formatted text."""
    rows = [tuple(str(cell) for cell in row) for row in rows]
    header = tuple(str(cell) for cell in header)
    widths = [len(cell) for cell in header]
    for row in rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))

    def fmt(row):
        return " | ".join(cell.ljust(widths[index]) for index, cell in enumerate(row))

    lines = [f"== {experiment}: {title} ==", fmt(header), "-+-".join("-" * w for w in widths)]
    lines.extend(fmt(row) for row in rows)
    text = "\n".join(lines) + "\n"
    print("\n" + text)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, f"{experiment}.txt"), "w") as handle:
        handle.write(text)
    return text
