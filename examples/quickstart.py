#!/usr/bin/env python3
"""Quickstart: a single LDS object, a couple of writes, a couple of reads.

Builds a small two-layer deployment (5 edge servers tolerating 1 crash,
6 back-end servers tolerating 1 crash), writes two versions of an object,
reads it back, and prints the communication / storage costs next to the
closed-form values from the paper's Section V.

Run with:  python examples/quickstart.py
"""

from repro import FixedLatencyModel, LDSConfig, LDSSystem
from repro.consistency import check_atomicity
from repro.core.analysis import mbr_read_cost, mbr_storage_cost_l2, mbr_write_cost


def main() -> None:
    config = LDSConfig(n1=5, n2=6, f1=1, f2=1)
    print(f"Deployment: {config.describe()}")
    print(f"L1 quorum size: {config.l1_quorum}, L2 quorum size: {config.l2_quorum}")

    # tau0/tau1 are fast edge links, tau2 the slow edge <-> back-end link.
    system = LDSSystem(config, num_writers=2, num_readers=2,
                       latency_model=FixedLatencyModel(tau0=1, tau1=1, tau2=10))

    # Two writers store versions of the object.
    first = system.write(b"object version 1", writer=0)
    second = system.write(b"object version 2", writer=1)
    print(f"\nwrite #1 tag={first.tag}, latency={first.duration:.1f}")
    print(f"write #2 tag={second.tag}, latency={second.duration:.1f}")

    # A read while the value is still cached in the edge layer.
    hot_read = system.read(reader=0)
    print(f"hot read  -> {hot_read.value!r} (latency {hot_read.duration:.1f})")

    # Let the system go quiescent: values are offloaded to the coded
    # back-end and garbage collected from the edge layer.
    system.run_until_idle()
    print(f"\nedge-layer temporary storage after quiescence: {system.storage.l1_cost:.2f}")
    print(f"back-end permanent storage: {system.storage.l2_cost:.2f} "
          f"(paper: {mbr_storage_cost_l2(config.n2, config.k, config.d):.2f})")

    # A cold read now has to regenerate coded data from the back-end.
    cold_read = system.read(reader=1)
    print(f"cold read -> {cold_read.value!r} (latency {cold_read.duration:.1f})")

    print("\ncommunication costs (normalised, value size = 1):")
    print(f"  write      measured {system.operation_cost(second.op_id):7.2f}   "
          f"paper {mbr_write_cost(config.n1, config.n2, config.k, config.d):7.2f}")
    print(f"  cold read  measured {system.operation_cost(cold_read.op_id):7.2f}   "
          f"paper {mbr_read_cost(config.n1, config.n2, config.k, config.d, 0):7.2f}")

    violation = check_atomicity(system.history())
    print(f"\natomicity check: {'OK' if violation is None else violation}")


if __name__ == "__main__":
    main()
