"""ECMP's tie search and SP's tree paths against per-pair Yen oracles.

``EcmpRouting.place`` proves most pairs tie-free from one shortest-path
tree per source and sends only the rest to a lazy ``equal_cost_paths``.
Both must return exactly the paths — same list, same order — that the
former search did: Yen's first ``max_paths`` paths, filtered to those
within ``ECMP_DELAY_TOLERANCE`` of the best.  The grids below have more
than 16 tied paths per corner pair, so truncation at ``max_paths`` is
exercised too.

``ShortestPathRouting.place`` reads every path off one tree per source;
it must return, for every aggregate, the path the former per-pair
``KspCache.shortest`` (Yen's first path) did — ties included.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments import telemetry
from repro.experiments.spec import SchemeSpec
from repro.experiments.workloads import NetworkWorkload
from repro.net.graph import Network, Node
from repro.net.index import LocalityPruner, graph_index
from repro.net.ingest import synthesize_internet_like
from repro.net.mutate import connected_components, with_removed_duplex_link
from repro.net.paths import KspCache, NoPathError, Path, path_delay_s
from repro.net.units import Gbps, ms
from repro.net.zoo import generate_zoo, gts_like
from repro.routing.base import RoutingScheme
from repro.routing.ecmp import (
    ECMP_DELAY_TOLERANCE,
    EcmpRouting,
    equal_cost_paths,
)
from repro.routing.shortest_path import ShortestPathRouting
from repro.tm.matrix import TrafficMatrix

MAX_PATHS = (1, 2, 16)

Pair = Tuple[str, str]


def reference_equal_cost_paths(
    cache: KspCache, src: str, dst: str, max_paths: int = 16
) -> List[Path]:
    """The former tie search: Yen's first ``max_paths`` paths, filtered."""
    paths = cache.get(src, dst, max_paths)
    if not paths:
        raise NoPathError(f"no path {src} -> {dst}")
    network = cache.network
    best = path_delay_s(network, paths[0])
    threshold = best * (1.0 + ECMP_DELAY_TOLERANCE) + 1e-15
    return [p for p in paths if path_delay_s(network, p) <= threshold]


def reference_shortest_paths(
    network: Network, pairs: Sequence[Pair]
) -> Dict[Pair, List[Path]]:
    """The former SP search: each pair's first Yen path, one at a time."""
    cache = KspCache(network)
    return {pair: [cache.shortest(*pair)] for pair in pairs}


def grid(n: int, jitter: float = 0.0, seed: int = 0) -> Network:
    """An n x n grid of 1 ms links, each scaled by (1 + jitter * U(-1, 1))."""
    rng = np.random.default_rng(seed)
    net = Network(f"grid-{n}x{n}")
    for r in range(n):
        for c in range(n):
            net.add_node(Node(f"g{r}-{c}"))
    for r in range(n):
        for c in range(n):
            for r2, c2 in ((r, c + 1), (r + 1, c)):
                if r2 < n and c2 < n:
                    delay = ms(1) * (1.0 + jitter * rng.uniform(-1.0, 1.0))
                    net.add_duplex_link(
                        f"g{r}-{c}", f"g{r2}-{c2}", Gbps(10), delay
                    )
    return net


def all_pairs(network: Network) -> List[Pair]:
    names = network.node_names
    return [(a, b) for a in names for b in names if a != b]


def sample_pairs(network: Network, n_pairs: int, seed: int) -> List[Pair]:
    """A seeded sample of ordered pairs (all of them if there are fewer)."""
    pairs = all_pairs(network)
    if len(pairs) <= n_pairs:
        return pairs
    rng = np.random.default_rng(seed)
    chosen = rng.choice(len(pairs), size=n_pairs, replace=False)
    return [pairs[i] for i in sorted(chosen)]


def placed_paths(
    scheme: RoutingScheme, network: Network, pairs: Sequence[Pair]
) -> Dict[Pair, List[Path]]:
    tm = TrafficMatrix({pair: Gbps(1) for pair in pairs})
    placement = scheme.place(network, tm)
    placed = {}
    for agg in placement.aggregates:
        allocs = placement.paths_for(agg)
        assert all(
            math.isclose(a.fraction, 1.0 / len(allocs)) for a in allocs
        )
        placed[agg.pair] = [a.path for a in allocs]
    return placed


def assert_parity(network: Network, pairs: Sequence[Pair]) -> Dict[str, int]:
    """Check SP, and ECMP at every ``max_paths`` in :data:`MAX_PATHS`;
    count ties seen."""
    assert placed_paths(ShortestPathRouting(), network, pairs) == (
        reference_shortest_paths(network, pairs)
    ), f"{network.name} SP"
    reference_cache = KspCache(network)
    counts = {"pairs": len(pairs), "tied": 0, "truncated": 0}
    for max_paths in MAX_PATHS:
        expected = {
            pair: reference_equal_cost_paths(reference_cache, *pair, max_paths)
            for pair in pairs
        }
        cache = KspCache(network)
        got = {
            pair: equal_cost_paths(cache, *pair, max_paths) for pair in pairs
        }
        assert got == expected, f"{network.name} max_paths={max_paths}"
        fresh = placed_paths(EcmpRouting(max_paths=max_paths), network, pairs)
        assert fresh == expected, f"{network.name} max_paths={max_paths}"
        # A cache already holding 16 paths per pair changes nothing.
        shared = EcmpRouting(cache=reference_cache, max_paths=max_paths)
        assert placed_paths(shared, network, pairs) == expected
        if max_paths == max(MAX_PATHS):
            counts["tied"] = sum(len(p) > 1 for p in expected.values())
            counts["truncated"] = sum(
                len(p) == max_paths for p in expected.values()
            )
    return counts


# ----------------------------------------------------------------------
# Parity across topology families
# ----------------------------------------------------------------------
class TestParity:
    def test_zoo_networks(self):
        for index, network in enumerate(generate_zoo(10, seed=0)):
            assert_parity(network, sample_pairs(network, 40, seed=index))

    def test_every_single_link_variant_of_gts(self):
        base = gts_like()
        variants = 0
        for a, b in sorted(base.duplex_pairs()):
            variant = with_removed_duplex_link(base, a, b)
            if len(connected_components(variant)) > 1:
                continue
            # The failed link's own endpoints lose their direct route.
            pairs = [(a, b), (b, a)] + [
                pair
                for pair in sample_pairs(variant, 10, seed=variants)
                if pair not in ((a, b), (b, a))
            ]
            assert_parity(variant, pairs)
            variants += 1
        assert variants >= 30

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_synthetic_internet_like(self, seed):
        network = synthesize_internet_like(40, seed=seed)
        assert_parity(network, sample_pairs(network, 60, seed=seed))

    def test_unit_grid_5x5_every_pair(self):
        network = grid(5)
        counts = assert_parity(network, all_pairs(network))
        assert counts["tied"] == 400
        assert counts["truncated"] == 36

    def test_unit_grid_6x6_truncates_at_max_paths(self):
        network = grid(6)
        corners = [("g0-0", "g5-5"), ("g5-5", "g0-0"), ("g0-5", "g5-0")]
        pairs = corners + [
            p for p in sample_pairs(network, 120, seed=6) if p not in corners
        ]
        counts = assert_parity(network, pairs)
        # Each corner pair has C(10, 5) = 252 tied paths; 16 are kept.
        assert counts["truncated"] >= len(corners)

    @pytest.mark.parametrize(
        "jitter, tied", [(1e-12, 400), (1e-10, 400), (1e-6, 0)]
    )
    def test_jittered_grid(self, jitter, tied):
        # Jitter inside the tolerance keeps every unit-grid tie; jitter
        # outside it breaks them all.
        network = grid(5, jitter=jitter, seed=5)
        counts = assert_parity(network, all_pairs(network))
        assert counts["tied"] == tied

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_random_networks_with_coarse_delays(self, data):
        # Delays from a three-value set make exact and near ties common.
        n = data.draw(st.integers(3, 8))
        names = [f"n{i}" for i in range(n)]
        net = Network("hypothesis")
        for name in names:
            net.add_node(Node(name))
        delays = st.sampled_from([ms(1), ms(2), ms(3)])
        for i in range(1, n):
            j = data.draw(st.integers(0, i - 1))
            net.add_duplex_link(names[i], names[j], Gbps(10), data.draw(delays))
        for _ in range(data.draw(st.integers(0, 2 * n))):
            i = data.draw(st.integers(0, n - 1))
            j = data.draw(st.integers(0, n - 1))
            if i != j and not net.has_link(names[i], names[j]):
                net.add_duplex_link(
                    names[i], names[j], Gbps(10), data.draw(delays)
                )
        assert_parity(net, all_pairs(net))


# ----------------------------------------------------------------------
# Source trees
# ----------------------------------------------------------------------
class TestSourceTree:
    def test_tree_paths_are_shortest_paths(self):
        network = gts_like()
        index = graph_index(network)
        for src in network.node_names[:5]:
            s = index.node_id(src)
            dist, parent, _ = index.source_tree(s)
            assert (dist, parent) == index.dijkstra_ids(s)[:2]
            for dst in network.node_names:
                if dst == src:
                    continue
                t = index.node_id(dst)
                tree_path = index.to_names(index.extract_ids(parent, s, t))
                assert tree_path == index.shortest_path(src, dst)

    def test_slack_is_smallest_non_tree_reduced_cost(self, diamond):
        index = graph_index(diamond)
        s = index.node_id("s")
        dist, parent, slack = index.source_tree(s)
        t = index.node_id("t")
        # t is reached via x (2 ms); the edge y->t costs 5 + 5 - 2 ms.
        assert parent[t] == index.node_id("x")
        assert slack[t] == pytest.approx(ms(8))
        # Tree edges never count: y's only other in-edge is from t.
        assert slack[index.node_id("y")] == pytest.approx(ms(2 + 5 - 5))

    def test_unreached_nodes_have_no_slack(self):
        net = Network("split")
        for name in "abcd":
            net.add_node(Node(name))
        net.add_duplex_link("a", "b", Gbps(1), ms(1))
        net.add_duplex_link("c", "d", Gbps(1), ms(1))
        index = graph_index(net)
        dist, parent, slack = index.source_tree(index.node_id("a"))
        for name in "cd":
            v = index.node_id(name)
            assert dist[v] == math.inf and parent[v] == -1
            assert slack[v] == math.inf


# ----------------------------------------------------------------------
# Error surfaces
# ----------------------------------------------------------------------
def two_islands() -> Network:
    net = Network("islands")
    for name in ("s", "t", "u", "v"):
        net.add_node(Node(name))
    net.add_duplex_link("s", "t", Gbps(10), ms(1))
    net.add_duplex_link("u", "v", Gbps(10), ms(1))
    return net


class TestErrors:
    def test_same_endpoints_raise_value_error(self):
        with pytest.raises(ValueError):
            equal_cost_paths(KspCache(two_islands()), "s", "s")

    def test_unknown_source_raises_key_error(self):
        net = two_islands()
        with pytest.raises(KeyError):
            equal_cost_paths(KspCache(net), "nowhere", "t")
        with pytest.raises(KeyError):
            EcmpRouting().place(net, TrafficMatrix({("nowhere", "t"): Gbps(1)}))

    @pytest.mark.parametrize("dst", ["nowhere", "u"])
    def test_unknown_or_disconnected_destination_raises_no_path(self, dst):
        net = two_islands()
        with pytest.raises(NoPathError):
            equal_cost_paths(KspCache(net), "s", dst)
        with pytest.raises(NoPathError):
            EcmpRouting().place(net, TrafficMatrix({("s", dst): Gbps(1)}))

    @pytest.mark.parametrize(
        "pair, error",
        [
            (("nowhere", "t"), KeyError),
            (("s", "nowhere"), NoPathError),
            (("s", "u"), NoPathError),
        ],
    )
    def test_sp_errors_are_the_ksp_caches(self, pair, error):
        net = two_islands()
        with pytest.raises(error) as expected:
            KspCache(net).shortest(*pair)
        with pytest.raises(error) as got:
            ShortestPathRouting().place(net, TrafficMatrix({pair: Gbps(1)}))
        assert str(got.value) == str(expected.value)

    def test_max_paths_below_one_rejected_at_construction(self):
        with pytest.raises(ValueError):
            EcmpRouting(max_paths=0)
        with pytest.raises(ValueError):
            equal_cost_paths(KspCache(grid(3)), "g0-0", "g2-2", max_paths=0)

    def test_pruned_cache_gives_the_same_paths(self):
        network = grid(5)
        pairs = all_pairs(network)

        def pruned() -> KspCache:
            return KspCache(
                network, pruner=LocalityPruner(network, radius_s=ms(2.5))
            )

        expected = {
            pair: reference_equal_cost_paths(pruned(), *pair) for pair in pairs
        }
        # The pruner really clamps some tied pairs to one path.
        unpruned = KspCache(network)
        assert any(
            len(paths) == 1
            and len(reference_equal_cost_paths(unpruned, *pair)) > 1
            for pair, paths in expected.items()
        )
        cache = pruned()
        assert {
            pair: equal_cost_paths(cache, *pair) for pair in pairs
        } == expected
        assert placed_paths(EcmpRouting(cache=pruned()), network, pairs) == (
            expected
        )


# ----------------------------------------------------------------------
# Telemetry
# ----------------------------------------------------------------------
class TestTelemetry:
    def _counters(
        self, tmp_path, network, tm, scheme=None, counter="ecmp.yen_fallback"
    ) -> Dict[str, float]:
        telemetry.configure(tmp_path)
        try:
            (scheme or EcmpRouting()).place(network, tm)
            telemetry.recorder().flush()
            trace = telemetry.load_trace(tmp_path)
            assert counter in telemetry.render_summary(trace)
            return trace.counters
        finally:
            telemetry.disable()

    def test_tied_graph_records_fallbacks(self, tmp_path):
        network = grid(4)
        pairs = all_pairs(network)
        tm = TrafficMatrix({pair: Gbps(1) for pair in pairs})
        counters = self._counters(tmp_path, network, tm)
        assert counters["ecmp.pairs"] == len(pairs)
        assert 0 < counters["ecmp.yen_fallback"] < len(pairs)

    def test_gts_needs_no_yen(self, tmp_path, gts, gts_tm):
        counters = self._counters(tmp_path, gts, gts_tm)
        assert counters["ecmp.pairs"] == len(gts_tm.aggregates())
        assert counters["ecmp.yen_fallback"] == 0
        assert counters.get("ksp.cache_miss", 0) == 0

    def test_sp_records_one_tree_per_source(self, tmp_path, gts, gts_tm):
        counters = self._counters(
            tmp_path, gts, gts_tm, ShortestPathRouting(), "sp.source_trees"
        )
        aggregates = gts_tm.aggregates()
        assert counters["sp.pairs"] == len(aggregates)
        assert counters["sp.source_trees"] == len({a.src for a in aggregates})
        assert counters.get("ksp.cache_miss", 0) == 0


class TestSpCache:
    def test_sp_leaves_the_workload_cache_untouched(self, gts, gts_tm):
        item = NetworkWorkload(gts, llpd=0.0, matrices=[gts_tm])
        placement = SchemeSpec("SP")(item).place(gts, gts_tm)
        assert len(placement.aggregates) == len(gts_tm.aggregates())
        assert item.cache.total_cached() == 0
        assert item.cache.dump()["pairs"] == []
