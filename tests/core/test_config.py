"""Unit tests for the LDS configuration."""

import pytest

from repro.codes.layered import LayeredCode
from repro.core.config import LDSConfig


class TestValidation:
    def test_valid_configuration(self):
        config = LDSConfig(n1=5, n2=6, f1=1, f2=1)
        assert config.k == 3 and config.d == 4

    def test_f1_budget_enforced(self):
        with pytest.raises(ValueError):
            LDSConfig(n1=4, n2=6, f1=2, f2=1)

    def test_f2_budget_enforced(self):
        with pytest.raises(ValueError):
            LDSConfig(n1=5, n2=6, f1=1, f2=2)

    def test_k_must_not_exceed_d(self):
        with pytest.raises(ValueError):
            LDSConfig(n1=9, n2=5, f1=1, f2=1)  # k=7 > d=3

    def test_field_size_limit(self):
        with pytest.raises(ValueError):
            LDSConfig(n1=150, n2=150, f1=70, f2=40)

    def test_negative_failures_rejected(self):
        with pytest.raises(ValueError):
            LDSConfig(n1=5, n2=6, f1=-1, f2=1)

    def test_unknown_operating_point_rejected(self):
        with pytest.raises(ValueError):
            LDSConfig(n1=5, n2=6, f1=1, f2=1, operating_point="raid5")


class TestDerivedParameters:
    def test_paper_relations(self):
        # n1 = 2 f1 + k and n2 = 2 f2 + d.
        config = LDSConfig(n1=11, n2=13, f1=3, f2=3)
        assert config.n1 == 2 * config.f1 + config.k
        assert config.n2 == 2 * config.f2 + config.d

    def test_quorum_sizes(self):
        config = LDSConfig(n1=5, n2=6, f1=1, f2=1)
        assert config.l1_quorum == config.f1 + config.k == 4
        assert config.l2_quorum == config.n2 - config.f2 == 5

    def test_l1_quorums_intersect_in_k_servers(self):
        # 2 (f1 + k) - n1 = k: any two L1 quorums share at least k servers.
        for n1, f1 in [(5, 1), (7, 3), (11, 2)]:
            config = LDSConfig(n1=n1, n2=n1 + 4, f1=f1, f2=1)
            assert 2 * config.l1_quorum - config.n1 == config.k

    def test_l2_quorums_intersect_in_d_servers(self):
        config = LDSConfig(n1=5, n2=9, f1=1, f2=2)
        assert 2 * config.l2_quorum - config.n2 == config.d

    def test_pids(self):
        config = LDSConfig(n1=3, n2=4, f1=1, f2=1)
        assert config.l1_pids == ["l1-0", "l1-1", "l1-2"]
        assert config.l2_pids == ["l2-0", "l2-1", "l2-2", "l2-3"]
        assert config.broadcast_relay_pids == ["l1-0", "l1-1"]
        with pytest.raises(ValueError):
            config.l1_pid(5)
        with pytest.raises(ValueError):
            config.l2_pid(9)

    def test_build_code_matches_configuration(self):
        config = LDSConfig(n1=5, n2=6, f1=1, f2=1)
        code = config.build_code()
        assert isinstance(code, LayeredCode)
        assert code.n1 == 5 and code.n2 == 6 and code.k == 3 and code.d == 4

    def test_describe_mentions_all_parameters(self):
        text = LDSConfig(n1=5, n2=6, f1=1, f2=1).describe()
        for fragment in ("n1=5", "n2=6", "f1=1", "f2=1", "k=3", "d=4"):
            assert fragment in text


class TestConvenienceConstructors:
    def test_symmetric(self):
        config = LDSConfig.symmetric(n=9, f=2)
        assert config.n1 == config.n2 == 9
        assert config.f1 == config.f2 == 2
        assert config.k == config.d == 5
