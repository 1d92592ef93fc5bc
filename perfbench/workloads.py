"""The benchmark's three workloads: inputs from a seed, timed passes.

Every workload draws its traffic matrices (and scenario sampling) from
the run's ``--seed``.  Topologies come from a fixed topology seed
(:data:`TOPOLOGY_SEED`), so runs on different seeds measure the same
networks under different traffic: without that, which zoo families a seed
happens to draw moves a run's cost by a third, and no bound a regression
gate could use would hold.

A *pass* is one cold evaluation of the whole workload: fresh copies of
the networks (no compiled graph index, empty KSP caches, empty path-LP
structure cache).  Every pass of a workload does the same work, so a run
that repeats passes until ``--seconds`` have elapsed measures the same
mix of placements however many passes fit.
"""

from __future__ import annotations

import os
import pickle
import shutil
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

#: Topology seed shared by every run (see the module docstring).
TOPOLOGY_SEED = 0
#: Seed whose outcomes are pinned in ``reference.json``.
DEFAULT_SEED = 0
#: Seed kept out of all tuning, for confirming a claimed gain.
HELD_OUT_SEED = 7919
#: The paper's default load: min-cut at 77% (growth headroom 1.3).
LOAD_GROWTH = 1.3
#: The paper's locality: demand shifted towards nearby PoP pairs, which
#: leaves a seed-dependent share of the pairs with no demand at all.
LOCALITY = 1.0
#: No locality shift: a full gravity matrix, every ordered pair a demand,
#: so every seed gives a workload of the same size.
FULL_MESH = 0.0

#: Outcome fields compared by the checks, in ``SchemeOutcome`` terms.
OUTCOME_FIELDS = (
    "congested_fraction",
    "latency_stretch",
    "max_path_stretch",
    "max_utilization",
)

#: (network id, matrix index, scheme) -> outcome fields plus ``fits``.
OutcomeKey = Tuple[str, int, str]


@dataclass
class PassResult:
    wall_s: float = 0.0
    complete: bool = False
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    outcomes: Dict[OutcomeKey, Dict[str, Any]] = field(default_factory=dict)
    #: Sum of the engine's per-task seconds (``NetworkResult.seconds``).
    task_s: float = 0.0
    rerender_s: Optional[float] = None
    rerender_match: Optional[bool] = None
    store_bytes: int = 0


def outcome_fields(outcome: Any) -> Dict[str, Any]:
    values: Dict[str, Any] = {
        name: float(getattr(outcome, name)) for name in OUTCOME_FIELDS
    }
    values["fits"] = bool(outcome.fits)
    return values


def _fresh(obj: Any) -> Any:
    """A deep copy without memoized graph indexes (pickling drops them)."""
    return pickle.loads(pickle.dumps(obj))


def _describe(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


class Workload:
    name = ""
    workers = 1
    #: One line: why this workload is in the benchmark.
    why = ""

    def build(self, seed: int) -> Any:
        raise NotImplementedError

    def run_pass(self, built: Any, inst: Any, scratch: str) -> PassResult:
        raise NotImplementedError


# ----------------------------------------------------------------------
# Engine-driven passes (zoo-schemes, fleet-k1)
# ----------------------------------------------------------------------
def _stream(engine: Any, plan: Any, inst: Any, result: PassResult,
            per_task: int) -> List[Any]:
    """Consume a whole plan, recording its outcomes.

    A task that raises ends the pass: its placements count as attempted
    and failed, and the error is kept with its cause.
    """
    results = []
    stream = engine.stream_plan(plan)
    try:
        while True:
            try:
                key, task = next(stream)
            except StopIteration:
                result.complete = True
                break
            except Exception as exc:  # the program failed: record why
                result.attempted += per_task
                result.failed += per_task
                streams = ",".join(map(str, plan.streams))
                result.errors.append(f"{streams}: {_describe(exc)}")
                break
            inst.absorb(task)
            result.task_s += task.seconds
            result.attempted += len(task.outcomes)
            for t, outcome in enumerate(task.outcomes):
                result.outcomes[(task.network_id, t, str(key))] = (
                    outcome_fields(outcome)
                )
            results.append((key, task))
    finally:
        stream.close()
    return results


class ZooSchemes(Workload):
    """fig04's plan (B4, LDR, MinMax, MinMaxK10) over the zoo ensemble."""

    name = "zoo-schemes"
    workers = 1
    why = ("the paper's headline fig04 comparison: the only workload where "
           "set-up (LLPD/APA) is a large share and every layer works, so a "
           "gain in one layer that costs another shows")
    #: Random zoo members; ``build_zoo_workload`` adds its 3 named ones.
    random_networks = 4
    matrices = 6

    def build(self, seed: int) -> Any:
        from repro.experiments.workloads import (
            build_traffic_matrices,
            build_zoo_workload,
        )

        workload = build_zoo_workload(
            n_networks=self.random_networks,
            n_matrices=0,
            locality=LOCALITY,
            growth_factor=LOAD_GROWTH,
            seed=TOPOLOGY_SEED,
        )
        rng = np.random.default_rng(seed)
        for item in workload.networks:
            item.matrices = build_traffic_matrices(
                item.network, self.matrices, rng, LOCALITY, LOAD_GROWTH
            )
        workload.seed = seed
        return workload

    def run_pass(self, built: Any, inst: Any, scratch: str) -> PassResult:
        from repro.experiments.engine import ExperimentEngine
        from repro.experiments.figures import fig04_plan
        from repro.experiments.workloads import NetworkWorkload, ZooWorkload
        from repro.routing.pathlp import clear_structure_cache

        copies = _fresh([(i.network, i.llpd, i.matrices)
                         for i in built.networks])
        workload = ZooWorkload(
            networks=[NetworkWorkload(network=n, llpd=v, matrices=m)
                      for n, v, m in copies],
            locality=built.locality,
            growth_factor=built.growth_factor,
            seed=built.seed,
        )
        clear_structure_cache()
        plan = fig04_plan(workload)
        result = PassResult()
        start = time.perf_counter()
        _stream(ExperimentEngine(n_workers=self.workers), plan, inst, result,
                self.matrices)
        result.wall_s = time.perf_counter() - start
        return result


class SynthFullTm(Workload):
    """Five schemes on one Internet-like graph under full gravity matrices."""

    name = "synth-fulltm"
    workers = 1
    why = ("large LPs and scheme internals dominate while set-up and KSP "
           "reuse barely register: where B4 waterfill, LP warm starts and "
           "the full-matrix scale target show")
    nodes = 24
    matrices = 10
    schemes = ("LDR", "MinMax", "MinMaxK10", "B4", "LinkBased")

    def build(self, seed: int) -> Any:
        from repro.experiments.workloads import build_traffic_matrices
        from repro.net.ingest import synthesize_internet_like

        network = synthesize_internet_like(self.nodes, seed=TOPOLOGY_SEED)
        rng = np.random.default_rng(seed)
        matrices = build_traffic_matrices(
            network, self.matrices, rng, FULL_MESH, LOAD_GROWTH
        )
        return network, matrices

    def run_pass(self, built: Any, inst: Any, scratch: str) -> PassResult:
        from repro.experiments.runner import SchemeOutcome
        from repro.experiments.spec import SchemeSpec
        from repro.experiments.workloads import NetworkWorkload
        from repro.routing.pathlp import clear_structure_cache

        network, matrices = _fresh(built)
        # LLPD is not part of this workload; the field is unused here.
        item = NetworkWorkload(network=network, llpd=0.0, matrices=matrices)
        clear_structure_cache()
        network_id = f"0:{network.name}"
        result = PassResult()
        start = time.perf_counter()
        schemes = {name: SchemeSpec(name)(item) for name in self.schemes}
        for t, tm in enumerate(matrices):
            for name, scheme in schemes.items():
                result.attempted += 1
                try:
                    placement = scheme.place(item.network, tm)
                    outcome = SchemeOutcome(
                        network_name=network.name,
                        llpd=item.llpd,
                        congested_fraction=placement.congested_pair_fraction(),
                        latency_stretch=placement.total_latency_stretch(),
                        max_path_stretch=placement.max_path_stretch(),
                        max_utilization=placement.max_utilization(),
                        fits=placement.fits_all_traffic,
                        network_id=network_id,
                    )
                except Exception as exc:  # the program failed: record why
                    result.failed += 1
                    result.errors.append(
                        f"{name} on {network.name} matrix {t}: "
                        f"{_describe(exc)}"
                    )
                    inst.clock.discard()
                    continue
                inst.clock.stop()
                result.outcomes[(network_id, t, name)] = outcome_fields(outcome)
        result.complete = True
        result.wall_s = time.perf_counter() - start
        return result


class FleetK1(Workload):
    """Every single-link failure of one zoo network under SP and ECMP."""

    name = "fleet-k1"
    workers = 2
    why = ("every variant is a new topology, so graph copies, index builds "
           "and cold KSP dominate and repro.lp idles; the only workload on "
           "the process pool and the result store")
    base = "gts-like"
    matrices = 1
    schemes = ("SP", "ECMP")

    def build(self, seed: int) -> Any:
        from repro.core.metrics import llpd
        from repro.experiments.workloads import (
            NetworkWorkload,
            build_traffic_matrices,
        )
        from repro.net.zoo import generate_zoo
        from repro.scenarios import ScenarioGenerator

        network = next(
            n for n in generate_zoo(1, seed=TOPOLOGY_SEED)
            if n.name == self.base
        )
        rng = np.random.default_rng(seed)
        item = NetworkWorkload(
            network=network,
            llpd=llpd(network),
            matrices=build_traffic_matrices(
                network, self.matrices, rng, FULL_MESH, LOAD_GROWTH
            ),
        )
        fleet = ScenarioGenerator(item, seed=seed).fleet(link_failure_k=1)
        return item, fleet, seed

    def _plan(self, built: Any) -> Any:
        from repro.experiments.plan import EvalPlan
        from repro.experiments.spec import SchemeSpec
        from repro.experiments.workloads import NetworkWorkload
        from repro.scenarios import ScenarioWorkload

        item, fleet, seed = built
        network, matrices = _fresh((item.network, item.matrices))
        base = NetworkWorkload(network=network, llpd=item.llpd,
                               matrices=matrices)
        workload = ScenarioWorkload(
            base, fleet.specs, locality=FULL_MESH,
            growth_factor=LOAD_GROWTH, seed=seed,
        )
        plan = EvalPlan()
        for name in self.schemes:
            plan.add(name, SchemeSpec(name), workload)
        return plan

    def report(self, built: Any, per_scheme: Dict[str, Dict[int, Any]]) -> str:
        from repro.scenarios import report as robustness

        item, fleet, _ = built
        payload = robustness.robustness_payload(
            item.network.name,
            [spec.label() for spec in fleet.specs],
            per_scheme,
            fleet.skipped,
            fleet.kind_counts(),
        )
        return robustness.render_text(payload)

    def run_pass(self, built: Any, inst: Any, scratch: str) -> PassResult:
        from repro.experiments.engine import ExperimentEngine
        from repro.scenarios import report as robustness

        plan = self._plan(built)
        store_dir = os.path.join(scratch, f"store-{time.perf_counter_ns()}")
        result = PassResult()
        try:
            start = time.perf_counter()
            tasks = _stream(
                ExperimentEngine(n_workers=self.workers, store_dir=store_dir),
                plan, inst, result, self.matrices,
            )
            per_scheme: Dict[str, Dict[int, Any]] = {
                name: {} for name in self.schemes
            }
            for key, task in tasks:
                per_scheme[key][task.index] = robustness.variant_metrics(
                    task.outcomes
                )
            text = self.report(built, per_scheme) if result.complete else ""
            result.wall_s = time.perf_counter() - start
            if not result.complete:
                return result

            result.attempted += 1
            start = time.perf_counter()
            stored: Dict[str, Dict[int, Any]] = {
                name: {} for name in self.schemes
            }
            engine = ExperimentEngine(
                n_workers=1, store_dir=store_dir, store_only=True
            )
            for key, task in engine.stream_plan(plan):
                stored[key][task.index] = robustness.variant_metrics(
                    task.outcomes
                )
            rendered = self.report(built, stored)
            result.rerender_s = time.perf_counter() - start
            result.rerender_match = rendered == text
            if not result.rerender_match:
                result.failed += 1
                result.errors.append(
                    "store-rendered robustness report differs from the "
                    "in-memory report"
                )
            result.store_bytes = sum(
                os.path.getsize(os.path.join(root, name))
                for root, _, names in os.walk(store_dir)
                for name in names
            )
            return result
        finally:
            shutil.rmtree(store_dir, ignore_errors=True)


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (ZooSchemes(), SynthFullTm(), FleetK1())
}
