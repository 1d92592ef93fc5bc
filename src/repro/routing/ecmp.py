"""ECMP shortest-path routing.

The deployed variant of the paper's shortest-path baseline: OSPF/IS-IS
with equal-cost multipath splits traffic evenly across all minimum-delay
paths.  On topologies with parallel equal-delay routes this spreads load
that plain SP would concentrate — but like SP it remains load-oblivious,
so it exhibits the same Figure 3 pathology wherever the tied paths share a
bottleneck.

**Finding the ties.**  The equal-cost set of a pair is the first
``max_paths`` Yen paths, filtered to those within
:data:`ECMP_DELAY_TOLERANCE` of the best.  On real topologies almost every
pair has exactly one such path, so :meth:`EcmpRouting.place` first tries
to *prove* that from one shortest-path tree per source
(:meth:`~repro.net.index.GraphIndex.source_tree`): any other path to
``t`` is longer than the tree path by at least the smallest slack along
it, so when that slack clears the tie threshold plus
:data:`ECMP_FLOAT_MARGIN` the tree path — which is Yen's first path — is
the whole answer.  Only the pairs left unproven run Yen's algorithm, and
:func:`equal_cost_paths` stops it at the first path past the threshold.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.net.graph import Network
from repro.net.index import GraphIndex, graph_index
from repro.net.paths import KspCache, NoPathError, Path, _recorder, path_delay_s
from repro.routing.base import PathAllocation, Placement, RoutingScheme
from repro.tm.matrix import Aggregate, TrafficMatrix

#: Paths within this relative delay of the minimum count as "equal cost".
ECMP_DELAY_TOLERANCE = 1e-9

#: Relative allowance for float rounding before a delay is trusted to lie
#: beyond the tie threshold.  Tree distances, reduced costs, Yen's
#: candidate keys and path sums each round off by about (hops x 1e-16)
#: of the path delay, orders of magnitude below this.
ECMP_FLOAT_MARGIN = 1e-9

_Tree = Tuple[List[float], List[int], List[float]]


def _tie_threshold(best: float) -> float:
    """Largest delay that still ties with a best path of delay ``best``."""
    return best * (1.0 + ECMP_DELAY_TOLERANCE) + 1e-15


def _tie_cutoff(best: float) -> float:
    """Delays above this are beyond the tie threshold despite rounding."""
    return _tie_threshold(best) + best * ECMP_FLOAT_MARGIN + 1e-15


def equal_cost_paths(
    cache: KspCache, src: str, dst: str, max_paths: int = 16
) -> List[Path]:
    """All minimum-delay paths between a pair (up to ``max_paths``).

    Takes Yen paths from ``cache`` one at a time and stops at the first
    one past :func:`_tie_cutoff` (later paths are no shorter), so a pair
    without ties costs two paths rather than ``max_paths``.  The result
    is the first ``max_paths`` paths filtered by :func:`_tie_threshold`.
    """
    if max_paths < 1:
        raise ValueError(f"max_paths must be >= 1, got {max_paths}")
    paths = cache.get(src, dst, 1)
    if not paths:
        raise NoPathError(f"no path {src} -> {dst}")
    network = cache.network
    delays = [path_delay_s(network, paths[0])]
    cutoff = _tie_cutoff(delays[0])
    while len(paths) < max_paths and delays[-1] <= cutoff:
        more = cache.get(src, dst, len(paths) + 1)
        if len(more) == len(paths):
            break  # exhausted, or clamped by the cache's pruner
        paths = more
        delays.append(path_delay_s(network, paths[-1]))
    threshold = _tie_threshold(delays[0])
    return [p for p, delay in zip(paths, delays) if delay <= threshold]


def _certified_path(
    index: GraphIndex, trees: Dict[int, _Tree], src: str, dst: str
) -> Optional[Path]:
    """The pair's tree path if it provably has no equal-cost rival.

    ``None`` means "not proven" — a near-tie, or an unknown or
    unreachable endpoint that :func:`equal_cost_paths` reports in its own
    terms.  (Aggregates never have ``src == dst``.)
    """
    try:
        s = index.node_id(src)
        t = index.node_id(dst)
    except KeyError:
        return None
    tree = trees.get(s)
    if tree is None:
        tree = trees[s] = index.source_tree(s)
    dist, parent, slack = tree
    best = dist[t]
    if best == float("inf"):
        return None
    gap = _tie_cutoff(best) - best
    ids = [t]
    node = t
    while node != s:
        if slack[node] <= gap:
            return None
        node = parent[node]
        ids.append(node)
    ids.reverse()
    return index.to_names(tuple(ids))


class EcmpRouting(RoutingScheme):
    """Split each aggregate evenly over its equal-cost shortest paths."""

    name = "ECMP"

    def __init__(
        self, cache: Optional[KspCache] = None, max_paths: int = 16
    ) -> None:
        if max_paths < 1:
            raise ValueError(f"max_paths must be >= 1, got {max_paths}")
        self._cache = cache
        self.max_paths = max_paths

    def place(self, network: Network, tm: TrafficMatrix) -> Placement:
        if self._cache is not None and self._cache.network is network:
            cache = self._cache
        else:
            cache = KspCache(network)
        index = graph_index(network)
        # One tree per source, for this call only (like the shortest-delay
        # sweeps of Placement): nothing outlives the placement.
        trees: Dict[int, _Tree] = {}
        allocations: Dict[Aggregate, List[PathAllocation]] = {}
        fallbacks = 0
        for agg in tm.aggregates():
            path = _certified_path(index, trees, agg.src, agg.dst)
            if path is not None:
                paths = [path]
            else:
                fallbacks += 1
                paths = equal_cost_paths(
                    cache, agg.src, agg.dst, self.max_paths
                )
            fraction = 1.0 / len(paths)
            allocations[agg] = [PathAllocation(p, fraction) for p in paths]
        recorder = _recorder()
        if recorder.enabled:
            recorder.counter("ecmp.pairs", len(allocations))
            recorder.counter("ecmp.yen_fallback", fallbacks)
        return Placement(network, allocations)
