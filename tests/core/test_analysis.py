"""Unit tests for the closed-form Section V formulas."""

import pytest

from repro.core.analysis import (
    latency_bounds,
    mbr_element_fraction,
    mbr_helper_fraction,
    mbr_read_cost,
    mbr_storage_cost_l2,
    mbr_write_cost,
    msr_element_fraction,
    msr_read_cost,
    msr_storage_cost_l2,
    multi_object_storage_bounds,
    replication_storage_cost_l2,
)


class TestFractions:
    def test_mbr_fractions_for_small_code(self):
        # k=3, d=4: B=9, alpha=4, beta=1.
        assert mbr_element_fraction(3, 4) == pytest.approx(4 / 9)
        assert mbr_helper_fraction(3, 4) == pytest.approx(1 / 9)

    def test_msr_fractions(self):
        assert msr_element_fraction(3, 4) == pytest.approx(1 / 3)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            mbr_element_fraction(0, 4)
        with pytest.raises(ValueError):
            mbr_element_fraction(5, 4)


class TestCommunicationCosts:
    def test_write_cost_formula(self):
        # Lemma V.2 with n1=5, n2=6, k=3, d=4: 5 + 5*6*(4/9).
        assert mbr_write_cost(5, 6, 3, 4) == pytest.approx(5 + 30 * 4 / 9)

    def test_write_cost_is_theta_n1(self):
        costs = [mbr_write_cost(n, n, n - 2, n - 2) / n for n in (10, 20, 40, 80)]
        # Cost per unit of n1 stays bounded (Theta(n1)).
        assert max(costs) / min(costs) < 2.0

    def test_read_cost_delta_zero_is_theta_1(self):
        # With k = Theta(n), d = Theta(n): cost approaches a constant ~4.
        costs = [mbr_read_cost(n, n, int(0.8 * n), int(0.8 * n), delta=0) for n in (20, 50, 100)]
        assert all(cost < 8 for cost in costs)

    def test_read_cost_delta_positive_adds_n1(self):
        without = mbr_read_cost(50, 50, 40, 40, delta=0)
        with_concurrency = mbr_read_cost(50, 50, 40, 40, delta=3)
        assert with_concurrency == pytest.approx(without + 50)

    def test_msr_read_cost_is_omega_n1_even_without_concurrency(self):
        # Remark 1: with n1 = n2, f1 = f2, MSR read cost grows linearly in n1.
        small = msr_read_cost(20, 20, 16, 16, delta=0)
        large = msr_read_cost(100, 100, 80, 80, delta=0)
        assert large > 4 * small
        assert large >= 100 * msr_element_fraction(80, 80)


class TestStorageCosts:
    def test_mbr_l2_storage_formula(self):
        assert mbr_storage_cost_l2(6, 3, 4) == pytest.approx(6 * 4 / 9)

    def test_figure6_parameters(self):
        # n2=100, k=d=80: 2*80*100 / (80*81) = 200/81 ~ 2.47 per object.
        value = mbr_storage_cost_l2(100, 80, 80)
        assert value == pytest.approx(200 / 81)
        assert value < 3

    def test_mbr_at_most_twice_msr(self):
        for k, d in [(3, 4), (10, 12), (80, 80)]:
            assert mbr_storage_cost_l2(100, k, d) <= 2 * msr_storage_cost_l2(100, k, d)

    def test_replication_is_much_more_expensive(self):
        assert replication_storage_cost_l2(100) == 100
        assert replication_storage_cost_l2(100) > 30 * mbr_storage_cost_l2(100, 80, 80)


class TestLatencyBounds:
    def test_write_bound(self):
        bounds = latency_bounds(tau0=1, tau1=1, tau2=10)
        assert bounds.write == pytest.approx(6)

    def test_extended_write_bound(self):
        bounds = latency_bounds(tau0=1, tau1=1, tau2=10)
        assert bounds.extended_write == pytest.approx(max(3 + 2 + 20, 6))

    def test_read_bound(self):
        bounds = latency_bounds(tau0=1, tau1=1, tau2=10)
        assert bounds.read == pytest.approx(max(6 + 20, 6 + 2 + 10))

    def test_extended_write_never_below_write(self):
        bounds = latency_bounds(tau0=5, tau1=5, tau2=0.1)
        assert bounds.extended_write >= bounds.write

    def test_positive_delays_required(self):
        nan, inf = float("nan"), float("inf")
        for taus in [(0, 1, 1), (nan, 1, 1), (1, nan, 1), (1, 1, nan),
                     (inf, 1, 1), (1, inf, 1), (1, 1, inf)]:
            with pytest.raises(ValueError):
                latency_bounds(*taus)


class TestMultiObjectBounds:
    def test_figure6_values(self):
        # n1=n2=100, k=d=80, mu=10, theta=100.
        bounds = multi_object_storage_bounds(num_objects=1000, n1=100, n2=100, k=80,
                                             theta=100, mu=10)
        assert bounds.l1_bound == pytest.approx(25 * 100 * 100)
        assert bounds.l2_bound == pytest.approx(2 * 1000 * 100 / 81)

    def test_l2_dominates_for_many_objects(self):
        small = multi_object_storage_bounds(10, 100, 100, 80, theta=100, mu=10)
        large = multi_object_storage_bounds(10_000_000, 100, 100, 80, theta=100, mu=10)
        assert small.l1_bound > small.l2_bound
        assert large.l2_bound > large.l1_bound

    def test_l2_scales_linearly_with_objects(self):
        one = multi_object_storage_bounds(1000, 100, 100, 80, theta=100, mu=10)
        two = multi_object_storage_bounds(2000, 100, 100, 80, theta=100, mu=10)
        assert two.l2_bound == pytest.approx(2 * one.l2_bound)
        assert two.l1_bound == pytest.approx(one.l1_bound)

    def test_threshold_formula(self):
        bounds = multi_object_storage_bounds(1000, 100, 100, 80, theta=100, mu=10)
        assert bounds.theta_threshold == pytest.approx(1000 * 100 * 80 / (100 * 10))

    def test_validation(self):
        nan, inf = float("nan"), float("inf")
        # (num_objects, k, theta, mu) with n1 = n2 = 10.
        for num_objects, k, theta, mu in [(-1, 8, 1, 1), (1, 8, 1, 0),
                                          (nan, 8, 1, 1), (inf, 8, 1, 1),
                                          (1, 8, nan, 1), (1, 8, inf, 1),
                                          (1, 8, 1, inf),
                                          (1, 0, 1, 1), (1, -1, 1, 1)]:
            with pytest.raises(ValueError):
                multi_object_storage_bounds(num_objects, 10, 10, k, theta, mu)
