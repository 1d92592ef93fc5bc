"""Output checks: what makes an operation count as failed.

* Every outcome metric is finite.
* On each (network, matrix), MinMax's maximum utilization is no higher
  than any other scheme's, and LDR's latency stretch is no higher than
  MinMax's whenever MinMax fits (places everything within capacity):
  MinMax minimizes utilization, and a fitting MinMax placement is a
  feasible point of LDR's latency-minimizing LP.
* At the default seed, every outcome matches ``reference.json``.
* The traced run verifies every placement independently
  (:func:`verify_placement`) and compares its outcomes with the
  untraced run's.

Tolerances are fixed here, not tuned to results: ``ORDER_RTOL`` covers
the LP solver's feasibility tolerance (1e-7) with margin;
``reference.json`` carries its own.
"""

from __future__ import annotations

import json
import math
import os
from typing import Any, Dict, List, Mapping, Tuple

from workloads import OUTCOME_FIELDS, OutcomeKey

ORDER_RTOL = 1e-6
FRACTION_SUM_TOL = 1e-9
REFERENCE_PATH = os.path.join(os.path.dirname(__file__), "reference.json")


def verify_placement(scheme: str, network: Any, tm: Any,
                     placement: Any) -> List[str]:
    """Problems with one placement, checked against the network itself."""
    problems: List[str] = []
    where = f"{scheme} on {network.name}"
    placed = {(agg.src, agg.dst): agg for agg in placement.aggregates}
    for agg in tm.aggregates():
        if (agg.src, agg.dst) not in placed:
            problems.append(f"{where}: aggregate {agg.src}->{agg.dst} "
                            "is not placed")
    for (src, dst), agg in placed.items():
        allocations = placement.paths_for(agg)
        total = 0.0
        for alloc in allocations:
            path = list(alloc.path)
            if alloc.fraction < 0:
                problems.append(f"{where}: {src}->{dst} has negative "
                                f"fraction {alloc.fraction!r}")
            total += alloc.fraction
            if not path or path[0] != src or path[-1] != dst:
                problems.append(f"{where}: {src}->{dst} path "
                                f"{'-'.join(path)} has wrong endpoints")
            if len(set(path)) != len(path):
                problems.append(f"{where}: {src}->{dst} path "
                                f"{'-'.join(path)} is not simple")
            for u, v in zip(path, path[1:]):
                if not network.has_link(u, v):
                    problems.append(f"{where}: {src}->{dst} path uses "
                                    f"missing link {u}->{v}")
        if abs(total - 1.0) > FRACTION_SUM_TOL:
            problems.append(f"{where}: {src}->{dst} fractions sum to "
                            f"{total!r}")
    return problems


def _group(outcomes: Mapping[OutcomeKey, Dict[str, Any]]):
    groups: Dict[Tuple[str, int], Dict[str, Dict[str, Any]]] = {}
    for (network_id, t, scheme), values in outcomes.items():
        groups.setdefault((network_id, t), {})[scheme] = values
    return groups


def invariant_failures(
    outcomes: Mapping[OutcomeKey, Dict[str, Any]]
) -> Dict[OutcomeKey, str]:
    """Outcomes breaking an invariant, each with its cause."""
    failures: Dict[OutcomeKey, str] = {}
    for key, values in outcomes.items():
        bad = [name for name in OUTCOME_FIELDS
               if not math.isfinite(values[name])]
        if bad:
            failures[key] = f"non-finite {', '.join(bad)}"
    for (network_id, t), by_scheme in _group(outcomes).items():
        minmax = by_scheme.get("MinMax")
        if minmax is None:
            continue
        floor = minmax["max_utilization"]
        for scheme, values in by_scheme.items():
            utilization = values["max_utilization"]
            if utilization < floor - ORDER_RTOL * max(1.0, abs(floor)):
                failures.setdefault(
                    (network_id, t, "MinMax"),
                    f"max_utilization {floor!r} above {scheme}'s "
                    f"{utilization!r}",
                )
        ldr = by_scheme.get("LDR")
        minmax_fits = minmax["fits"] and minmax["max_utilization"] <= 1.0
        if ldr is not None and minmax_fits:
            cap = minmax["latency_stretch"]
            if ldr["latency_stretch"] > cap + ORDER_RTOL * max(1.0, abs(cap)):
                failures.setdefault(
                    (network_id, t, "LDR"),
                    f"latency_stretch {ldr['latency_stretch']!r} above "
                    f"fitting MinMax's {cap!r}",
                )
    return failures


def load_reference() -> Dict[str, Any]:
    with open(REFERENCE_PATH) as handle:
        return json.load(handle)


def reference_key(key: OutcomeKey) -> str:
    network_id, t, scheme = key
    return f"{network_id}|{t}|{scheme}"


def reference_failures(
    workload: str, outcomes: Mapping[OutcomeKey, Dict[str, Any]]
) -> Dict[OutcomeKey, str]:
    """Outcomes differing from the recorded reference beyond its tolerance."""
    reference = load_reference()
    rtol = reference["rtol"]
    atol = reference["atol"]
    pinned = reference["workloads"][workload]
    failures: Dict[OutcomeKey, str] = {}
    for key, values in outcomes.items():
        expected = pinned.get(reference_key(key))
        if expected is None:
            failures[key] = "no reference outcome recorded"
            continue
        for name in OUTCOME_FIELDS:
            if not math.isclose(values[name], expected[name],
                                rel_tol=rtol, abs_tol=atol):
                failures[key] = (f"{name} {values[name]!r} differs from "
                                 f"reference {expected[name]!r}")
                break
        else:
            if values["fits"] != expected["fits"]:
                failures[key] = (f"fits {values['fits']} differs from "
                                 f"reference {expected['fits']}")
    return failures


def mismatches(
    first: Mapping[OutcomeKey, Dict[str, Any]],
    second: Mapping[OutcomeKey, Dict[str, Any]],
) -> Dict[OutcomeKey, str]:
    """Outcomes present in both runs that are not bit-identical."""
    return {
        key: f"{second[key]!r} differs from {first[key]!r}"
        for key in first.keys() & second.keys()
        if first[key] != second[key]
    }


def write_reference(workload: str,
                    outcomes: Mapping[OutcomeKey, Dict[str, Any]]) -> None:
    """Pin ``outcomes`` as the workload's reference (default seed only)."""
    try:
        reference = load_reference()
    except FileNotFoundError:
        reference = {"rtol": 1e-6, "atol": 1e-9, "workloads": {}}
    reference["workloads"][workload] = {
        reference_key(key): values
        for key, values in sorted(outcomes.items())
    }
    with open(REFERENCE_PATH, "w") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")
