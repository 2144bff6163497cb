"""E9 (extension) -- repairing crashed back-end servers.

The paper's conclusion lists repair of erasure-coded L2 servers as future
work.  This repository implements it (``repro.core.repair``); the ablation
compares the regenerating-code repair download against the naive
alternative of decoding the full value from k surviving servers and
re-encoding the lost element (what a Reed-Solomon back-end would do).
"""

from repro.core.config import LDSConfig
from repro.core.repair import BackendRepairCoordinator
from repro.core.system import LDSSystem
from repro.net.latency import FixedLatencyModel

from bench_utils import emit_table

SWEEP = [
    (5, 6, 1, 1),
    (7, 9, 2, 2),
    (9, 12, 3, 3),
    (12, 18, 3, 5),
]


def run_experiment():
    rows = []
    for n1, n2, f1, f2 in SWEEP:
        config = LDSConfig(n1=n1, n2=n2, f1=f1, f2=f2)
        system = LDSSystem(config, latency_model=FixedLatencyModel())
        system.write(b"value that must survive repair")
        system.run_until_idle()
        system.crash_l2(0)
        report = BackendRepairCoordinator(system).repair(0)
        naive_download = config.k * float(system.code.costs.element_fraction)
        survived = system.read().value == b"value that must survive repair"
        rows.append((
            config.describe(),
            f"{report.download_fraction:.3f}",
            f"{naive_download:.3f}",
            f"{naive_download / report.download_fraction:.2f}x",
            "yes" if survived else "no",
        ))
    emit_table(
        "E9-l2-repair", "Back-end repair: regenerating repair vs decode-and-re-encode",
        ("system", "repair download (measured)", "naive decode download",
         "saving", "value readable after repair"),
        rows,
    )
    return rows


def test_bench_l2_repair():
    rows = run_experiment()
    for row in rows:
        repair_download = float(row[1])
        naive_download = float(row[2])
        assert repair_download <= naive_download + 1e-9
        assert row[4] == "yes"
    # The saving grows with the code dimension k.
    savings = [float(row[3].rstrip("x")) for row in rows]
    assert savings[-1] >= savings[0]
