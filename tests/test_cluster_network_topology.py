"""Tests for network links, cluster aggregation and topologies."""

import numpy as np
import pytest

from repro.cluster import (
    Cluster,
    CommLink,
    ConstantAvailability,
    Network,
    Processor,
    build_random_network,
    heterogeneous_cluster,
    homogeneous_cluster,
    varying_availability_cluster,
)
from repro.util.errors import ConfigurationError


class TestCommLink:
    def test_sample_cost_nonnegative(self):
        link = CommLink(proc_id=0, mean_cost=5.0, relative_std=1.0)
        costs = [link.sample_cost(rng=np.random.default_rng(i)) for i in range(200)]
        assert all(c >= 0 for c in costs)

    def test_zero_mean_cost_is_free(self):
        link = CommLink(proc_id=0, mean_cost=0.0)
        assert link.sample_cost(rng=0) == 0.0

    def test_no_noise_returns_mean(self):
        link = CommLink(proc_id=0, mean_cost=3.0, relative_std=0.0)
        assert link.sample_cost(rng=0) == pytest.approx(3.0)

    def test_effective_mean_scales_with_condition(self):
        link = CommLink(
            proc_id=0, mean_cost=2.0, condition=ConstantAvailability(0.5)
        )
        assert link.effective_mean(0.0) == pytest.approx(4.0)

    def test_negative_mean_rejected(self):
        with pytest.raises(ConfigurationError):
            CommLink(proc_id=0, mean_cost=-1.0)


class TestNetwork:
    def make(self):
        return Network(
            [CommLink(proc_id=i, mean_cost=float(i + 1), relative_std=0.0) for i in range(3)]
        )

    def test_mean_costs_ordering(self):
        net = self.make()
        assert np.array_equal(net.mean_costs(), [1.0, 2.0, 3.0])
        assert net.overall_mean_cost() == pytest.approx(2.0)

    def test_link_lookup(self):
        net = self.make()
        assert net.link(1).mean_cost == 2.0
        with pytest.raises(ConfigurationError):
            net.link(9)

    def test_duplicate_links_rejected(self):
        with pytest.raises(ConfigurationError):
            Network([CommLink(proc_id=0, mean_cost=1.0), CommLink(proc_id=0, mean_cost=2.0)])

    def test_scaled(self):
        net = self.make().scaled(2.0)
        assert np.array_equal(net.mean_costs(), [2.0, 4.0, 6.0])

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            Network([])

    def test_build_random_network(self):
        net = build_random_network(10, mean_cost=5.0, rng=0)
        assert len(net) == 10
        assert net.overall_mean_cost() > 0

    def test_build_random_network_zero_cost(self):
        net = build_random_network(4, mean_cost=0.0, rng=0)
        assert net.overall_mean_cost() == 0.0


class TestCluster:
    def test_requires_consecutive_ids(self):
        with pytest.raises(ConfigurationError):
            Cluster([Processor(proc_id=1, peak_rate_mflops=1.0)])

    def test_default_network_is_free(self):
        cluster = Cluster([Processor(proc_id=0, peak_rate_mflops=1.0)])
        assert cluster.mean_comm_cost() == 0.0

    def test_rates_and_totals(self, small_cluster):
        assert small_cluster.n_processors == 4
        assert small_cluster.total_peak_rate() == pytest.approx(750.0)
        assert np.array_equal(small_cluster.peak_rates(), [100, 200, 50, 400])

    def test_heterogeneity_positive_for_mixed_rates(self, small_cluster):
        assert small_cluster.heterogeneity() > 0

    def test_heterogeneity_zero_for_homogeneous(self):
        cluster = homogeneous_cluster(4, rate_mflops=100.0)
        assert cluster.heterogeneity() == 0.0

    def test_with_comm_scale(self, small_cluster):
        scaled = small_cluster.with_comm_scale(2.0)
        assert scaled.mean_comm_cost() == pytest.approx(2 * small_cluster.mean_comm_cost())
        # original untouched
        assert small_cluster.mean_comm_cost() == pytest.approx(0.9375)

    def test_describe_keys(self, small_cluster):
        desc = small_cluster.describe()
        for key in ("n_processors", "total_peak_mflops", "heterogeneity_cv", "mean_comm_cost"):
            assert key in desc


class TestTopologies:
    def test_homogeneous_cluster(self):
        cluster = homogeneous_cluster(5, rate_mflops=123.0)
        assert len(cluster) == 5
        assert np.all(cluster.peak_rates() == 123.0)

    def test_heterogeneous_cluster_rates_in_range(self):
        cluster = heterogeneous_cluster(20, rate_range=(50.0, 500.0), rng=0)
        rates = cluster.peak_rates()
        assert rates.min() >= 50.0 and rates.max() <= 500.0

    def test_heterogeneous_cluster_deterministic(self):
        a = heterogeneous_cluster(10, rng=4).peak_rates()
        b = heterogeneous_cluster(10, rng=4).peak_rates()
        assert np.array_equal(a, b)

    def test_heterogeneous_comm_cost(self):
        cluster = heterogeneous_cluster(10, mean_comm_cost=10.0, rng=0)
        assert cluster.mean_comm_cost() > 0

    def test_varying_availability_cluster_mixes_models(self):
        cluster = varying_availability_cluster(20, dedicated_fraction=0.3, rng=0)
        dedicated = sum(1 for p in cluster if p.is_dedicated())
        assert 0 < dedicated < 20

    def test_invalid_rate_range(self):
        with pytest.raises(ConfigurationError):
            heterogeneous_cluster(4, rate_range=(500.0, 50.0))

    def test_invalid_dedicated_fraction(self):
        with pytest.raises(ConfigurationError):
            varying_availability_cluster(4, dedicated_fraction=2.0)
