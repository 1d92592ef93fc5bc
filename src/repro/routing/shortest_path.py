"""Delay-proportional shortest-path routing (OSPF/IS-IS style).

The paper's §3 baseline: "how shortest-path routing performs when link costs
are proportional to delay".  Every aggregate rides its single lowest-delay
path, oblivious to load — which is precisely why high-LLPD networks
concentrate traffic (its Figure 3).

**One tree per source.**  :meth:`ShortestPathRouting.place` runs one full
Dijkstra sweep per distinct source and reads every aggregate's path off
that source's tree.  The tree path is exactly Yen's first path (what
:meth:`~repro.net.paths.KspCache.shortest` returns): every node on it is
settled, and its parent frozen, before the destination is, so the
early-stopped search makes the same choices (see
:meth:`~repro.net.index.GraphIndex.source_tree`).  The trees live only
inside one ``place`` call, and no ``KspCache`` is read or filled.
"""

from __future__ import annotations

from typing import Dict, List

from repro.net.graph import Network
from repro.net.index import GraphIndex, graph_index
from repro.net.paths import NoPathError, Path, _recorder
from repro.routing.base import PathAllocation, Placement, RoutingScheme
from repro.tm.matrix import Aggregate, TrafficMatrix


def _tree_path(
    index: GraphIndex, parents: Dict[int, List[int]], src: str, dst: str
) -> Path:
    """The pair's path on ``src``'s shortest-path tree.

    Builds the tree into ``parents`` on first use.  Errors match
    :meth:`~repro.net.paths.KspCache.shortest`: ``KeyError`` for an
    unknown source, :class:`NoPathError` for an unknown or unreachable
    destination.
    """
    if src == dst:
        raise ValueError("source and destination must differ")
    try:
        s = index.node_id(src)
    except KeyError:
        raise KeyError(f"unknown node {src!r}") from None
    try:
        t = index.node_id(dst)
    except KeyError:
        raise NoPathError(f"no path {src} -> {dst}") from None
    parent = parents.get(s)
    if parent is None:
        parent = parents[s] = index.dijkstra_ids(s)[1]
    if parent[t] < 0:
        raise NoPathError(f"no path {src} -> {dst}")
    return index.to_names(index.extract_ids(parent, s, t))


class ShortestPathRouting(RoutingScheme):
    """Place each aggregate entirely on its lowest-delay path."""

    name = "SP"

    def place(self, network: Network, tm: TrafficMatrix) -> Placement:
        index = graph_index(network)
        parents: Dict[int, List[int]] = {}
        allocations: Dict[Aggregate, List[PathAllocation]] = {}
        for agg in tm.aggregates():
            path = _tree_path(index, parents, agg.src, agg.dst)
            allocations[agg] = [PathAllocation(path, 1.0)]
        recorder = _recorder()
        if recorder.enabled:
            recorder.counter("sp.pairs", len(allocations))
            recorder.counter("sp.source_trees", len(parents))
        return Placement(network, allocations)
