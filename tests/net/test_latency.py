"""Unit tests for the per-link latency models."""

import pytest

from repro.net.latency import (
    CLIENT,
    L1,
    L2,
    BoundedLatencyModel,
    ExponentialLatencyModel,
    FixedLatencyModel,
    LatencyRegime,
    ScaledLatencyModel,
    UniformLatencyModel,
    link_type,
)


class TestLinkClassification:
    def test_l1_to_l1_is_tau0(self):
        assert link_type(L1, L1) == "tau0"

    def test_client_l1_is_tau1_both_directions(self):
        assert link_type(CLIENT, L1) == "tau1"
        assert link_type(L1, CLIENT) == "tau1"

    def test_l1_l2_is_tau2_both_directions(self):
        assert link_type(L1, L2) == "tau2"
        assert link_type(L2, L1) == "tau2"

    def test_unusual_links_get_a_sane_default(self):
        assert link_type(CLIENT, CLIENT) == "tau1"
        assert link_type(CLIENT, L2) == "tau2"


class TestFixedLatency:
    def test_values_per_class(self):
        model = FixedLatencyModel(tau0=0.5, tau1=1.0, tau2=10.0)
        assert model.delay(L1, L1) == 0.5
        assert model.delay(CLIENT, L1) == 1.0
        assert model.delay(L1, L2) == 10.0

    def test_bound_equals_delay(self):
        model = FixedLatencyModel(tau0=2, tau1=3, tau2=4)
        assert model.bound(L1, L2) == model.delay(L1, L2)

    def test_positive_latencies_required(self):
        with pytest.raises(ValueError):
            FixedLatencyModel(tau0=0)


class TestLinkTable:
    """The per-link table must answer exactly what ``link_type`` would."""

    CLASSES = (CLIENT, L1, L2)

    def test_every_pair_matches_link_type_first_and_repeated(self):
        model = FixedLatencyModel(tau0=0.5, tau1=3.0, tau2=7.0)
        scaled = ScaledLatencyModel(model, LatencyRegime(scale=2.0))
        for sender in self.CLASSES:        # client <-> L2 included
            for receiver in self.CLASSES:
                expected = getattr(model, link_type(sender, receiver))
                for _ in range(2):         # the miss, then the table hit
                    assert model.delay(sender, receiver) == expected
                    assert model.bound(sender, receiver) == expected
                    assert scaled.bound(sender, receiver) == 2.0 * expected
        assert link_type(CLIENT, L2) == link_type(L2, CLIENT) == "tau2"

    def test_bounded_model_draws_inside_the_tabled_bound(self):
        model = BoundedLatencyModel(tau0=0.5, tau1=3.0, tau2=7.0, seed=5)
        for sender in self.CLASSES:
            for receiver in self.CLASSES:
                bound = getattr(model, link_type(sender, receiver))
                assert model.bound(sender, receiver) == bound
                assert 0.1 * bound <= model.delay(sender, receiver) <= bound

    def test_seeded_delays_are_the_recorded_ones(self):
        # Recorded before the table replaced the per-message set + dict:
        # same float arithmetic and RNG draw order, so the same delays.
        links = [(CLIENT, L1), (L1, L1), (L1, L2), (L2, L1), (L1, CLIENT),
                 (CLIENT, L2), (L1, L1), (L2, L2), (CLIENT, CLIENT), (L1, L2)]
        recorded = [
            0.7828989766996923, 0.23576425653205174, 6.858410257358684,
            1.6519265800078848, 1.1645876077520405, 4.29120025221327,
            0.15219903229723614, 5.566921598704782, 0.26749218519557283,
            4.902811152961473,
        ]
        first, second = (BoundedLatencyModel(tau0=1.0, tau1=2.0, tau2=10.0,
                                             minimum_fraction=0.1, seed=7)
                         for _ in range(2))
        assert [first.delay(a, b) for a, b in links] == recorded
        assert [second.delay(a, b) for a, b in links] == recorded


class TestBoundedLatency:
    def test_samples_respect_the_bound(self):
        model = BoundedLatencyModel(tau0=1, tau1=2, tau2=10, seed=3)
        for _ in range(200):
            assert model.delay(L1, L2) <= 10
            assert model.delay(CLIENT, L1) <= 2
            assert model.delay(L1, L1) <= 1

    def test_samples_respect_the_minimum_fraction(self):
        model = BoundedLatencyModel(tau1=4, minimum_fraction=0.5, seed=1)
        assert all(model.delay(CLIENT, L1) >= 2.0 for _ in range(100))

    def test_seed_reproducibility(self):
        a = BoundedLatencyModel(seed=42)
        b = BoundedLatencyModel(seed=42)
        assert [a.delay(L1, L2) for _ in range(10)] == [b.delay(L1, L2) for _ in range(10)]

    def test_invalid_fraction(self):
        with pytest.raises(ValueError):
            BoundedLatencyModel(minimum_fraction=0.0)


class TestUniformAndExponential:
    def test_uniform_range(self):
        model = UniformLatencyModel(low=1.0, high=2.0, seed=5)
        samples = [model.delay(CLIENT, L1) for _ in range(100)]
        assert all(1.0 <= sample <= 2.0 for sample in samples)
        assert model.bound(CLIENT, L1) == 2.0

    def test_uniform_validation(self):
        with pytest.raises(ValueError):
            UniformLatencyModel(low=3.0, high=2.0)

    def test_exponential_positive_and_unbounded_declared(self):
        model = ExponentialLatencyModel(tau0=1, tau1=1, tau2=5, seed=9)
        assert all(model.delay(L1, L2) > 0 for _ in range(50))
        assert model.bound(L1, L2) is None

    def test_exponential_mean_tracks_tau(self):
        model = ExponentialLatencyModel(tau0=1, tau1=1, tau2=10, seed=13)
        samples = [model.delay(L1, L2) for _ in range(3000)]
        assert 8.0 < sum(samples) / len(samples) < 12.0
