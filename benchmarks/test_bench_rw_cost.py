"""E1 -- write and read communication cost (Lemma V.2).

Regenerates the paper's communication-cost expressions by measuring the
simulated system across a sweep of symmetric deployments and comparing
against the closed forms:

* write cost  = n1 + n1 n2 * 2d / (k (2d - k + 1))        (Theta(n1))
* read  cost  = n1 (1 + n2/d) * 2d / (k (2d - k + 1))
                + n1 * I(delta > 0)                        (Theta(1) + n1 I(delta>0))
"""

import pytest

from repro.core.analysis import mbr_read_cost, mbr_write_cost
from repro.core.config import LDSConfig
from repro.core.system import LDSSystem
from repro.net.latency import FixedLatencyModel

from bench_utils import emit_table

#: (n, f) pairs for symmetric systems n1 = n2 = n, f1 = f2 = f (k = d).
SWEEP = [(4, 1), (8, 2), (12, 3), (16, 4), (20, 5)]


def _measure(n: int, f: int):
    config = LDSConfig.symmetric(n=n, f=f)
    system = LDSSystem(config, num_writers=2, num_readers=1,
                       latency_model=FixedLatencyModel())
    write = system.write(b"bench-value")
    system.run_until_idle()
    write_cost = system.operation_cost(write.op_id)
    quiescent_read = system.read()
    read_cost_idle = system.operation_cost(quiescent_read.op_id)
    # A read overlapping a concurrent write (delta > 0 regime).
    now = system.simulator.now  # simlint: disable=SD03 -- stand-alone LDSSystem: no kernel, its simulator is the only clock
    system.invoke_write(b"bench-value-2", writer=1, at=now)
    concurrent_read_op = system.invoke_read(reader=0, at=now + 0.5)
    system.run_until_idle()
    read_cost_busy = system.operation_cost(concurrent_read_op)
    return config, write_cost, read_cost_idle, read_cost_busy


def run_experiment():
    rows = []
    for n, f in SWEEP:
        config, write_cost, read_idle, read_busy = _measure(n, f)
        rows.append((
            f"n1=n2={n}, k=d={config.k}",
            f"{mbr_write_cost(n, n, config.k, config.d):.2f}",
            f"{write_cost:.2f}",
            f"{mbr_read_cost(n, n, config.k, config.d, 0):.2f}",
            f"{read_idle:.2f}",
            f"{mbr_read_cost(n, n, config.k, config.d, 1):.2f}",
            f"{read_busy:.2f}",
        ))
    emit_table(
        "E1-rw-cost", "Write / read communication cost (Lemma V.2)",
        ("system", "write (paper)", "write (measured)",
         "read d=0 (paper)", "read d=0 (measured)",
         "read d>0 (paper, worst)", "read d>0 (measured)"),
        rows,
    )
    return rows


def test_bench_write_and_read_cost():
    """Measured costs must match Lemma V.2 exactly across the sweep."""
    rows = run_experiment()
    assert len(rows) == len(SWEEP)
    for row in rows:
        assert float(row[1]) == pytest.approx(float(row[2]), rel=1e-6)   # write
        assert float(row[3]) == pytest.approx(float(row[4]), rel=1e-6)   # read, delta = 0
        assert float(row[6]) <= float(row[5]) + 1e-6                     # read, delta > 0 bounded
