"""The benchmark's own tests: are the wrappers complete and harmless?

    python3 -m pytest perfbench/selftest.py -q

Runs every workload once untraced and once traced (seed 0), with the
program's own telemetry on during the traced pass, and checks that:

* every wrapped function records at least one call on each workload its
  layer row names, including callers that imported the name directly;
* traced and untraced passes give identical outcomes;
* the wrapper counts of index builds and KSP cache misses equal the
  program's ``index.build`` and ``ksp.cache_miss`` counters;
* ``BENCHMARK.json`` and ``layers.LAYER_METRICS`` agree.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import layers  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ALL = ("zoo-schemes", "synth-fulltm", "fleet-k1")
ZOO_FLEET = ("zoo-schemes", "fleet-k1")
#: Group -> workloads on which every function of the group must run.
EXPECTED = {
    "core": ZOO_FLEET,
    "tm.build": ALL,
    "tm.max_scale": ALL,
    "net.graph": ZOO_FLEET,
    "net.index": ZOO_FLEET,
    "net.paths.ksp": ZOO_FLEET,
    "net.paths.sweep": ZOO_FLEET,
    "net.flows": ("zoo-schemes",),
    "lp.assemble": ("synth-fulltm", "zoo-schemes"),
    "lp.solve": ("synth-fulltm", "zoo-schemes"),
    "routing.minmax_seed": ("synth-fulltm", "zoo-schemes"),
    "routing.metrics": ALL,
    "experiments.store.append": ("fleet-k1",),
    "experiments.store.load": ("fleet-k1",),
    "scenarios.apply": ("fleet-k1",),
}
#: Functions only MinMax's flow-seeded path sets call (not SP or ECMP).
BY_KEY = {
    "repro.net.graph:Network.subgraph_with_links": ("zoo-schemes",
                                                    "synth-fulltm"),
    "repro.net.paths:shortest_path": ("zoo-schemes", "synth-fulltm"),
}
#: Wrapped because their layer row names them, but only called with a
#: non-zero headroom, and every workload runs the paper's headroom 0.
NOT_EXERCISED = {"repro.net.graph:Network.with_capacity_factor"}


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    from repro.experiments import telemetry

    out = {}
    for name in ALL:
        workload = WORKLOADS[name]
        scratch = tmp_path_factory.mktemp(name)
        inst = layers.Instrumentation()
        inst.install_clock()
        try:
            untraced = workload.run_pass(workload.build(0), inst, str(scratch))
            tracer = inst.install_tracer()
            built = workload.build(0)
            setup = tracer.export()
            tracer.reset()
            trace_dir = scratch / "trace"
            telemetry.configure(trace_dir)
            try:
                traced = workload.run_pass(built, inst, str(scratch))
            finally:
                telemetry.disable()
            counters = {}
            for trace_id in telemetry.list_traces(trace_dir):
                trace = telemetry.load_trace(trace_dir, trace_id)
                for key, value in trace.counters.items():
                    counters[key] = counters.get(key, 0) + value
            whole = layers.Tracer()
            whole.merge(setup)
            whole.merge(tracer.export())
            out[name] = {
                "untraced": untraced,
                "traced": traced,
                "pass": layers.Tracer(),
                "whole": whole,
                "counters": counters,
            }
            out[name]["pass"].merge(tracer.export())
        finally:
            inst.uninstall()
    return out


def test_every_wrapped_function_runs_where_its_row_says(runs):
    missing = []
    for group, module, attr in layers.WRAPPED:
        key = f"{module}:{attr}"
        if key in NOT_EXERCISED:
            continue
        for name in BY_KEY.get(key, EXPECTED[group]):
            if runs[name]["whole"].calls(key) < 1:
                missing.append(f"{key} on {name}")
    assert not missing, missing


def test_every_scheme_place_is_timed(runs):
    schemes = {
        "zoo-schemes": ("B4", "LDR", "MinMax", "MinMaxK10"),
        "synth-fulltm": ("LDR", "MinMax", "MinMaxK10", "B4", "LinkBased"),
        "fleet-k1": ("SP", "ECMP"),
    }
    for name, labels in schemes.items():
        tracer = runs[name]["pass"]
        for label in labels:
            assert tracer.group_self_s(f"routing.place.{label}") > 0, (
                name, label)


def test_direct_imports_are_wrapped():
    import repro.core.metrics
    import repro.net.paths
    import repro.routing.minmax

    inst = layers.Instrumentation()
    original = repro.net.paths.k_shortest_paths
    tracer = inst.install_tracer()
    try:
        wrapped = repro.net.paths.k_shortest_paths
        assert wrapped is not original
        # ``from repro.net.paths import k_shortest_paths`` at import time:
        assert repro.core.metrics.k_shortest_paths is wrapped
        # ``shortest_path`` is imported inside mcf_seed_paths at call time.
        from repro.net.zoo import gts_like
        from repro.tm import gravity_traffic_matrix
        import numpy as np

        network = gts_like()
        tm = gravity_traffic_matrix(network, np.random.default_rng(0))
        repro.routing.minmax.mcf_seed_paths(network, tm)
        assert tracer.calls("repro.net.paths:shortest_path") > 0
        assert tracer.calls("repro.routing.minmax:mcf_seed_paths") == 1
    finally:
        inst.uninstall()
    assert repro.net.paths.k_shortest_paths is original
    assert repro.core.metrics.k_shortest_paths is original


def test_traced_and_untraced_outcomes_are_identical(runs):
    for name, run in runs.items():
        untraced, traced = run["untraced"], run["traced"]
        assert untraced.complete and traced.complete, name
        assert untraced.outcomes == traced.outcomes, name


def test_wrapper_counts_equal_program_counters(runs):
    for name, run in runs.items():
        tracer, counters = run["pass"], run["counters"]
        builds = tracer.calls("repro.net.index:GraphIndex.__init__")
        lookups = tracer.calls("repro.net.paths:KspCache.get")
        misses = lookups - tracer.ksp_hits
        assert builds == counters.get("index.build", 0), name
        assert misses == counters.get("ksp.cache_miss", 0), name
        assert builds > 0 and lookups > 0, name


def test_benchmark_json_matches_the_layer_table():
    with open(HERE.parent / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    assert spec["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in layers.LAYER_METRICS
    ]
    for workload in spec["workloads"]:
        assert workload["why"] == WORKLOADS[workload["name"]].why
