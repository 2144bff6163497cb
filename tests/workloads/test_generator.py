"""Tests for workload generation."""

import pytest

NAN, INF = float("nan"), float("inf")

from repro.consistency.history import READ, WRITE
from repro.workloads.generator import (
    ScheduledOperation,
    Workload,
    WorkloadGenerator,
    ZipfKeySampler,
)


class TestScheduledOperation:
    def test_valid_write(self):
        op = ScheduledOperation(kind=WRITE, at=1.0, value=b"x")
        assert op.kind == WRITE

    def test_write_requires_value(self):
        with pytest.raises(ValueError):
            ScheduledOperation(kind=WRITE, at=1.0)

    def test_invalid_kind(self):
        with pytest.raises(ValueError):
            ScheduledOperation(kind="scan", at=1.0)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            ScheduledOperation(kind=READ, at=-1.0)

    @pytest.mark.parametrize("at", [NAN, INF])
    def test_non_finite_time_rejected_naming_the_field(self, at):
        # Accepted once, the run failed mid-pump with a misleading message.
        with pytest.raises(ValueError, match="^at must be a finite time"):
            ScheduledOperation(kind=READ, at=at)


class TestWorkload:
    def test_counts_and_sorting(self):
        workload = Workload()
        workload.add(ScheduledOperation(kind=READ, at=5.0))
        workload.add(ScheduledOperation(kind=WRITE, at=1.0, value=b"x"))
        assert len(workload) == 2
        assert [op.kind for op in workload.operations] == [READ, WRITE]
        assert [op.at for op in workload.sorted_operations()] == [1.0, 5.0]


class TestGenerators:
    def test_sequential_shape(self):
        workload = WorkloadGenerator(seed=1).sequential(num_writes=3, num_reads=2, spacing=10)
        assert [op.kind for op in workload.operations] == [WRITE] * 3 + [READ] * 2
        times = [op.at for op in workload.sorted_operations()]
        assert times == sorted(times)
        assert times[1] - times[0] == pytest.approx(10)

    def test_mixed_random_respects_write_fraction_bounds(self):
        generator = WorkloadGenerator(seed=4, client_spacing=10)
        workload = generator.mixed_random(num_operations=40, write_fraction=0.5,
                                          duration=100, num_writers=2, num_readers=2)
        assert len(workload) == 40
        assert 5 <= sum(op.kind == WRITE for op in workload.operations) <= 35

    @pytest.mark.parametrize("build", [
        lambda: WorkloadGenerator().mixed_random(10, 1.5, 10),
        # A negative window would put every arrival at its start.
        lambda: WorkloadGenerator(seed=1).mixed_random(3, 0.5, duration=-5.0),
        lambda: WorkloadGenerator(seed=1).keyed_random(["a"], 3, 0.5, duration=-5.0),
        # A non-finite window would give NaN or infinite arrival times.
        lambda: WorkloadGenerator(seed=1).mixed_random(3, 0.5, duration=NAN),
        lambda: WorkloadGenerator(seed=1).mixed_random(3, 0.5, duration=INF),
        lambda: WorkloadGenerator(seed=1).mixed_random(3, 0.5, 10.0, start=NAN),
        lambda: WorkloadGenerator(seed=1).keyed_random(["a"], 3, 0.5, 10.0, start=NAN),
        # A spacing that is not positive and finite breaks well-formedness.
        lambda: WorkloadGenerator(client_spacing=-10),
        lambda: WorkloadGenerator(client_spacing=NAN),
        # A NaN exponent would only ever sample the first key.
        lambda: ZipfKeySampler(["a", "b"], s=NAN),
    ], ids=["fraction-above-one", "negative-duration", "keyed-negative-duration",
            "nan-duration", "inf-duration", "nan-start", "keyed-nan-start",
            "negative-spacing", "nan-spacing", "nan-zipf-exponent"])
    def test_invalid_inputs_are_rejected(self, build):
        with pytest.raises(ValueError):
            build()

    @pytest.mark.parametrize("s", [NAN, INF, -1.0])
    def test_zipf_exponent_must_be_finite_and_not_negative(self, s):
        # An infinite exponent once passed the check.
        with pytest.raises(ValueError, match="exponent s must be finite"):
            ZipfKeySampler(["a", "b"], s=s)

    def test_mixed_random_keeps_clients_well_formed(self):
        generator = WorkloadGenerator(seed=5, client_spacing=20)
        workload = generator.mixed_random(num_operations=30, write_fraction=0.5,
                                          duration=50, num_writers=2, num_readers=2)
        per_client = {}
        for op in workload.operations:
            per_client.setdefault((op.kind, op.client_index), []).append(op.at)
        for times in per_client.values():
            times.sort()
            assert all(later - earlier >= 20 - 1e-9
                       for earlier, later in zip(times, times[1:]))

    def test_seeded_generators_are_reproducible(self):
        a = WorkloadGenerator(seed=9).mixed_random(20, 0.5, 50)
        b = WorkloadGenerator(seed=9).mixed_random(20, 0.5, 50)
        assert [(op.kind, op.at) for op in a.operations] == [
            (op.kind, op.at) for op in b.operations
        ]
