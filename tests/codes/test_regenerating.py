"""Unit tests for the regenerating-code parameter framework."""

from fractions import Fraction

import pytest

from repro.codes.regenerating import (
    RegeneratingCodeParameters,
    cut_set_bound,
    mbr_parameters,
    msr_parameters,
)


class TestCutSetBound:
    def test_known_value_mbr_point(self):
        # k=3, d=4, alpha=4, beta=1: B <= 4 + 3 + 2 = 9.
        assert cut_set_bound(3, 4, 4, 1) == 9

    def test_known_value_msr_point(self):
        # k=3, d=4, alpha=2, beta=1: B <= 2 + 2 + 2 = 6.
        assert cut_set_bound(3, 4, 2, 1) == 6

    def test_monotone_in_alpha(self):
        assert cut_set_bound(3, 4, 5, 1) >= cut_set_bound(3, 4, 4, 1)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            cut_set_bound(0, 4, 1, 1)
        with pytest.raises(ValueError):
            cut_set_bound(5, 4, 1, 1)
        with pytest.raises(ValueError):
            cut_set_bound(2, 3, -1, 1)


class TestParameters:
    def test_valid_tuple(self):
        params = RegeneratingCodeParameters(n=10, k=3, d=4, alpha=4, beta=1, file_size=9)
        assert params == mbr_parameters(10, 3, 4)
        assert params != msr_parameters(10, 3, 4)

    def test_file_size_above_bound_rejected(self):
        with pytest.raises(ValueError):
            RegeneratingCodeParameters(n=10, k=3, d=4, alpha=4, beta=1, file_size=10)

    def test_ordering_constraints(self):
        with pytest.raises(ValueError):
            RegeneratingCodeParameters(n=4, k=3, d=4, alpha=4, beta=1, file_size=9)
        with pytest.raises(ValueError):
            RegeneratingCodeParameters(n=10, k=5, d=4, alpha=4, beta=1, file_size=9)

    def test_positive_alpha_beta(self):
        with pytest.raises(ValueError):
            RegeneratingCodeParameters(n=10, k=3, d=4, alpha=0, beta=1, file_size=1)

    def test_cost_fractions(self):
        params = mbr_parameters(10, 3, 4)
        assert params.storage_per_node == Fraction(4, 9)
        assert params.helper_per_node == Fraction(1, 9)
        assert params.repair_bandwidth == Fraction(4, 9)
        assert params.n * params.storage_per_node == Fraction(40, 9)


class TestOperatingPoints:
    @pytest.mark.parametrize("k,d", [(1, 1), (2, 3), (3, 4), (5, 9), (80, 80)])
    def test_mbr_point_parameters(self, k, d):
        params = mbr_parameters(n=200, k=k, d=d)
        assert params.alpha == d * params.beta
        assert params.file_size == k * (2 * d - k + 1) // 2
        assert params.file_size == cut_set_bound(k, d, params.alpha, params.beta)

    @pytest.mark.parametrize("k,d", [(2, 2), (3, 4), (4, 6), (5, 8)])
    def test_msr_point_parameters(self, k, d):
        params = msr_parameters(n=200, k=k, d=d)
        assert params.file_size == k * params.alpha
        assert params.alpha == (d - k + 1) * params.beta

    def test_mbr_repair_bandwidth_equals_storage_per_node(self):
        # The defining MBR property: a repair downloads exactly alpha symbols.
        params = mbr_parameters(20, 5, 8)
        assert params.repair_bandwidth == params.storage_per_node

    def test_msr_storage_is_optimal(self):
        params = msr_parameters(20, 5, 8)
        assert params.storage_per_node == Fraction(1, 5)

    def test_mbr_stores_more_than_msr_but_at_most_twice(self):
        # Remark 2 of the paper: MBR storage is at most 2x MSR storage.
        for k, d in [(3, 4), (5, 8), (10, 18), (80, 80)]:
            mbr = mbr_parameters(250, k, d).storage_per_node
            msr = msr_parameters(250, k, d).storage_per_node
            assert msr <= mbr <= 2 * msr
