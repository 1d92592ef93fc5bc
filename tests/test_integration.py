"""Integration tests: the paper's qualitative claims, end to end.

Each test runs a full pipeline (zoo network -> traffic matrix -> routing
scheme(s) -> metrics) and asserts the *shape* of a paper result.
"""

import numpy as np
import pytest

from repro.core.metrics import llpd
from repro.net.paths import KspCache
from repro.net.zoo import gts_like, tree_network
from repro.routing import (
    B4Routing,
    LatencyOptimalRouting,
    MinMaxRouting,
    ShortestPathRouting,
)
from tests.conftest import loaded_gts_tm


@pytest.fixture(scope="module")
def gts_network():
    return gts_like()


@pytest.fixture(scope="module")
def gts_matrix(gts_network):
    return loaded_gts_tm(gts_network)


@pytest.fixture(scope="module")
def shared_cache(gts_network):
    return KspCache(gts_network)


class TestPaperClaims:
    def test_sp_congests_high_llpd_network(self, gts_network, gts_matrix):
        """Figure 3: shortest-path routing concentrates traffic on
        high-LLPD networks."""
        placement = ShortestPathRouting().place(gts_network, gts_matrix)
        assert placement.congested_pair_fraction() > 0.0

    def test_sp_fine_on_tree(self, rng):
        """Figure 3's flip side: low-LLPD (tree) networks route fine with
        SP at the same relative load, because SP *is* the only routing."""
        net = tree_network(12, rng)
        tm = loaded_gts_tm(net)
        placement = ShortestPathRouting().place(net, tm)
        # Scaled so that optimal routing has 1.3x growth room, and on a
        # tree SP is the optimal routing: nothing can congest.
        assert placement.congested_pair_fraction() == 0.0

    def test_optimal_no_congestion_low_stretch(
        self, gts_network, gts_matrix, shared_cache
    ):
        """Figure 4(a): optimal routing fits everything at low stretch."""
        placement = LatencyOptimalRouting(cache=shared_cache).place(
            gts_network, gts_matrix
        )
        assert placement.congested_pair_fraction() == 0.0
        assert placement.total_latency_stretch() < 1.15

    def test_minmax_no_congestion_higher_stretch(
        self, gts_network, gts_matrix, shared_cache
    ):
        """Figure 4(c): MinMax never congests but pays latency."""
        minmax = MinMaxRouting(cache=shared_cache).place(gts_network, gts_matrix)
        optimal = LatencyOptimalRouting(cache=shared_cache).place(
            gts_network, gts_matrix
        )
        assert minmax.congested_pair_fraction() == 0.0
        # MinMax pays a clear latency premium over the optimum.
        assert (
            minmax.total_latency_stretch()
            > optimal.total_latency_stretch() + 0.01
        )
        assert minmax.max_path_stretch() >= optimal.max_path_stretch() - 1e-9

    def test_scheme_ordering_of_utilization(
        self, gts_network, gts_matrix, shared_cache
    ):
        """Figure 7: optimal loads the busiest link to ~100%, MinMax to
        ~77% (the min-cut load)."""
        optimal = LatencyOptimalRouting(cache=shared_cache).place(
            gts_network, gts_matrix
        )
        minmax = MinMaxRouting(cache=shared_cache).place(gts_network, gts_matrix)
        assert optimal.max_utilization() == pytest.approx(1.0, abs=0.01)
        assert minmax.max_utilization() == pytest.approx(1 / 1.3, rel=0.02)
        # Most links look the same under both (lightly loaded).
        opt_utils = sorted(optimal.link_utilizations().values())
        mm_utils = sorted(minmax.link_utilizations().values())
        median_gap = abs(
            float(np.median(opt_utils)) - float(np.median(mm_utils))
        )
        assert median_gap < 0.15

    def test_headroom_dial_monotone_stretch(self, gts_network, shared_cache):
        """Figure 8: latency stretch grows (weakly) with headroom, little
        until headroom approaches the MinMax end of the dial."""
        tm = loaded_gts_tm(gts_network, growth_factor=1.65)
        stretches = []
        for headroom in (0.0, 0.11, 0.23, 0.40):
            placement = LatencyOptimalRouting(
                headroom=headroom, cache=shared_cache
            ).place(gts_network, tm)
            assert placement.max_utilization() <= 1.0 + 1e-4
            stretches.append(placement.total_latency_stretch())
        assert stretches[0] <= stretches[-1] + 1e-9
        # Stretch at 11% headroom is still close to optimal.
        assert stretches[1] < stretches[0] + 0.05

    def test_b4_worse_than_optimal_under_load(
        self, gts_network, gts_matrix, shared_cache
    ):
        """Figures 4(b)/17: B4 pays congestion or latency on high-LLPD
        networks under load."""
        b4 = B4Routing(cache=shared_cache).place(gts_network, gts_matrix)
        optimal = LatencyOptimalRouting(cache=shared_cache).place(
            gts_network, gts_matrix
        )
        b4_worse = (
            b4.congested_pair_fraction() > optimal.congested_pair_fraction()
            or b4.total_latency_stretch()
            > optimal.total_latency_stretch() + 1e-6
            or not b4.fits_all_traffic
        )
        assert b4_worse

    def test_llpd_stable_across_recomputation(self, gts_network):
        assert llpd(gts_network) == pytest.approx(llpd(gts_network))


class TestGrowthStudy:
    def test_ldr_benefits_from_llpd_growth(self, rng):
        """Figure 20's shape: after LLPD-guided link additions, the
        latency-optimal scheme's stretch does not get worse."""
        from repro.core.metrics import llpd as llpd_score
        from repro.net.mutate import grow_by_llpd
        from repro.net.zoo import ring_network

        net = ring_network(10, rng)
        tm = loaded_gts_tm(net, seed=4)
        before = LatencyOptimalRouting().place(net, tm).total_weighted_delay_s()
        grown, added = grow_by_llpd(
            net, score=llpd_score, growth_fraction=0.2, max_candidates=10
        )
        assert added
        after = LatencyOptimalRouting().place(grown, tm).total_weighted_delay_s()
        # Relative stretch may rise (the new links also shorten the
        # shortest-path baseline), but absolute delay can only improve
        # when capacity and paths are added and the optimizer is exact.
        assert after <= before + 1e-9
