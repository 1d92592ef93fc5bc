#!/usr/bin/env python3
"""Compare all five routing schemes on one high-LLPD network.

Reproduces the qualitative content of the paper's Figure 4 on a single
topology: the latency-optimal LP fits everything cheaply, B4 pays latency
(or congests), MinMax never congests but detours traffic, MinMax K=10
sits in between, and the link-based LP matches the path-based optimum at
far higher cost.
"""

import time

import numpy as np

from repro.net.paths import KspCache
from repro.net.zoo import cogent_like, gts_like
from repro.routing import (
    B4Routing,
    EcmpRouting,
    LatencyOptimalRouting,
    LinkBasedOptimalRouting,
    MinMaxRouting,
    MplsTeRouting,
    ShortestPathRouting,
)
from repro.tm import (
    apply_locality,
    gravity_traffic_matrix,
    scale_to_growth_headroom,
)


def run_on(network) -> None:
    print(f"\n=== {network.name}: {network.num_nodes} PoPs, "
          f"{len(network.duplex_pairs())} physical links ===")
    rng = np.random.default_rng(42)
    tm = gravity_traffic_matrix(network, rng)
    tm = apply_locality(network, tm, locality=1.0)
    tm = scale_to_growth_headroom(network, tm, growth_factor=1.3)

    cache = KspCache(network)
    schemes = [
        ShortestPathRouting(),
        EcmpRouting(cache),
        MplsTeRouting(cache=cache),
        B4Routing(cache=cache),
        B4Routing(headroom=0.10, cache=cache),
        MinMaxRouting(cache=cache),
        MinMaxRouting(k=10, cache=cache),
        LatencyOptimalRouting(cache=cache),
        LatencyOptimalRouting(headroom=0.10, cache=cache),
        LinkBasedOptimalRouting(),
    ]
    header = (
        f"{'scheme':>18s} {'time':>8s} {'congested':>10s} "
        f"{'stretch':>8s} {'max-path':>9s} {'max-util':>9s} {'fits':>5s}"
    )
    print(header)
    for scheme in schemes:
        start = time.perf_counter()
        placement = scheme.place(network, tm)
        elapsed = time.perf_counter() - start
        print(
            f"{scheme.name:>18s} {elapsed:7.2f}s "
            f"{placement.congested_pair_fraction():>9.1%} "
            f"{placement.total_latency_stretch():>8.4f} "
            f"{placement.max_path_stretch():>9.2f} "
            f"{placement.max_utilization():>9.3f} "
            f"{'yes' if placement.fits_all_traffic else 'NO':>5s}"
        )


def main() -> None:
    run_on(gts_like())
    run_on(cogent_like())


if __name__ == "__main__":
    main()
