"""Per-layer attribution measured from outside the program.

The traced run wraps the public functions of each ``repro`` layer from
here, without touching ``src/``.  Every wrapper records, per function,
the number of calls, total seconds and *self* seconds (total minus the
time spent in nested wrapped calls), so the self seconds of all wrapped
functions add up to the wrapped share of the run and nothing is counted
twice.

A function is replaced in its defining module *and* in every loaded
``repro`` module that imported the same object by name (``from
repro.net.paths import shortest_path``), so direct imports are caught.
Methods are replaced on their class, which every caller shares.

``LAYER_METRICS`` below is the single table of per-layer metrics: its
name, unit and direction mirror ``BENCHMARK.json``'s ``per_layer`` list,
and ``moves``/``on`` record the end-to-end metric and workloads each one
should move, written down before any optimisation is measured.
"""

from __future__ import annotations

import functools
import importlib
import os
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: Schemes whose placement self time is reported by name.
SCHEMES = ("SP", "ECMP", "B4", "LDR", "MinMax", "MinMaxK10", "LinkBased")

#: (group, module, attribute) for every wrapped callable.  ``attribute``
#: is ``"Class.method"`` for methods.  Groups name the layer the time is
#: attributed to; scheme ``place`` methods are added per class at install
#: time (group ``routing.place.<Scheme>``).
WRAPPED: Tuple[Tuple[str, str, str], ...] = (
    ("core", "repro.core.metrics", "llpd"),
    ("core", "repro.core.metrics", "apa_all_pairs"),
    ("core", "repro.core.metrics", "pair_apa"),
    ("tm.build", "repro.experiments.workloads", "build_traffic_matrices"),
    ("tm.build", "repro.tm.gravity", "gravity_traffic_matrix"),
    ("tm.build", "repro.tm.locality", "apply_locality"),
    ("tm.build", "repro.tm.scale", "scale_to_growth_headroom"),
    ("tm.max_scale", "repro.tm.scale", "max_scale_factor"),
    ("tm.max_scale", "repro.tm.scale", "max_scale_flows"),
    ("net.graph", "repro.net.graph", "Network.copy"),
    ("net.graph", "repro.net.graph", "Network.without_duplex_link"),
    ("net.graph", "repro.net.graph", "Network.subgraph_with_links"),
    ("net.graph", "repro.net.graph", "Network.with_capacity_factor"),
    ("net.index", "repro.net.index", "GraphIndex.__init__"),
    ("net.paths.ksp", "repro.net.paths", "KspCache.get"),
    ("net.paths.ksp", "repro.net.paths", "k_shortest_paths"),
    ("net.paths.sweep", "repro.net.paths", "shortest_path"),
    ("net.paths.sweep", "repro.net.paths", "shortest_path_delays"),
    ("net.paths.sweep", "repro.net.paths", "all_pairs_shortest_paths"),
    ("net.flows", "repro.net.flows", "max_flow_bps"),
    ("lp.assemble", "repro.lp.model", "LinearProgram.compile"),
    ("lp.assemble", "repro.lp.model", "CompiledLP.from_coo"),
    ("lp.solve", "repro.lp.model", "CompiledLP.solve"),
    ("routing.minmax_seed", "repro.routing.minmax", "mcf_seed_paths"),
    ("routing.metrics", "repro.routing.base", "Placement.link_loads_bps"),
    ("routing.metrics", "repro.routing.base", "Placement.link_utilizations"),
    ("routing.metrics", "repro.routing.base", "Placement.max_utilization"),
    ("routing.metrics", "repro.routing.base", "Placement.saturated_links"),
    ("routing.metrics", "repro.routing.base",
     "Placement.congested_pair_fraction"),
    ("routing.metrics", "repro.routing.base",
     "Placement.total_latency_stretch"),
    ("routing.metrics", "repro.routing.base", "Placement.max_path_stretch"),
    ("experiments.store.append", "repro.experiments.store",
     "StoreWriter.append"),
    ("experiments.store.load", "repro.experiments.store",
     "ResultStore.load_results"),
    ("scenarios.apply", "repro.scenarios.spec", "ScenarioSpec.apply"),
)

#: Functions whose result is a lazy iterator; each resumption is timed.
LAZY = {"repro.net.paths:k_shortest_paths"}


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    #: End-to-end metric(s) this layer metric should move.
    moves: str
    #: Workloads on which it should move.
    on: str


_SETUP = "setup_s"
_PPS = "placements_per_s"
_LP_MOVES = "place_p50_s.{LDR,MinMax,MinMaxK10,LinkBased}, placements_per_s"
_ZF = "zoo-schemes, fleet-k1"
_LP_ON = "synth-fulltm, zoo-schemes (predicted flat on fleet-k1)"

LAYER_METRICS: Tuple[LayerMetric, ...] = (
    LayerMetric("core.llpd_calls", "count", "lower", _SETUP, _ZF),
    LayerMetric("core.llpd_s", "s", "lower", _SETUP, _ZF),
    LayerMetric("tm.build_s", "s", "lower", _SETUP, "all"),
    LayerMetric("tm.max_scale_calls", "count", "lower", _SETUP, "all"),
    LayerMetric("tm.max_scale_s", "s", "lower", _SETUP, "all"),
    LayerMetric("net.graph.copies", "count", "lower",
                "setup_s, place_p50_s.MinMax", _ZF),
    LayerMetric("net.graph.copy_s", "s", "lower",
                "setup_s, place_p50_s.MinMax", _ZF),
    LayerMetric("net.index.builds", "count", "lower", _PPS, _ZF),
    LayerMetric("net.index.build_s", "s", "lower", _PPS, _ZF),
    LayerMetric("net.index.builds_per_topology", "1", "lower", _PPS, _ZF),
    LayerMetric("net.paths.ksp_calls", "count", "lower",
                "placements_per_s, place_p50_s.ECMP",
                "fleet-k1 (dominant), zoo-schemes"),
    LayerMetric("net.paths.ksp_hit_ratio", "1", "higher",
                "placements_per_s, place_p50_s.ECMP",
                "fleet-k1 (dominant), zoo-schemes"),
    LayerMetric("net.paths.ksp_s", "s", "lower",
                "placements_per_s, place_p50_s.ECMP",
                "fleet-k1 (dominant), zoo-schemes"),
    LayerMetric("net.paths.sweep_calls", "count", "lower",
                "placements_per_s, place_p50_s.ECMP",
                "fleet-k1 (dominant), zoo-schemes"),
    LayerMetric("net.paths.sweep_s", "s", "lower",
                "placements_per_s, place_p50_s.ECMP",
                "fleet-k1 (dominant), zoo-schemes"),
    LayerMetric("net.flows.max_flow_calls", "count", "lower", _SETUP,
                "zoo-schemes"),
    LayerMetric("net.flows.max_flow_s", "s", "lower", _SETUP, "zoo-schemes"),
    LayerMetric("lp.assemble_calls", "count", "lower", _LP_MOVES, _LP_ON),
    LayerMetric("lp.assemble_s", "s", "lower", _LP_MOVES, _LP_ON),
    LayerMetric("lp.solve_calls", "count", "lower", _LP_MOVES, _LP_ON),
    LayerMetric("lp.solve_s", "s", "lower", _LP_MOVES, _LP_ON),
    LayerMetric("lp.solve_warm_fraction", "1", "higher", _LP_MOVES, _LP_ON),
    LayerMetric("lp.rows_p50", "count", "lower", _LP_MOVES, _LP_ON),
    LayerMetric("lp.cols_p50", "count", "lower", _LP_MOVES, _LP_ON),
    LayerMetric("lp.cols_max", "count", "lower", _LP_MOVES, _LP_ON),
) + tuple(
    LayerMetric(f"routing.place_self_s.{scheme}", "s", "lower",
                f"place_p50_s.{scheme}, placements_per_s",
                "fleet-k1" if scheme in ("SP", "ECMP")
                else "synth-fulltm (B4, LinkBased), zoo-schemes")
    for scheme in SCHEMES
) + (
    LayerMetric("routing.minmax_seed_calls", "count", "lower",
                "place_p50_s.MinMax, placements_per_s",
                "synth-fulltm, zoo-schemes"),
    LayerMetric("routing.minmax_seed_s", "s", "lower",
                "place_p50_s.MinMax, placements_per_s",
                "synth-fulltm, zoo-schemes"),
    LayerMetric("routing.placement_metrics_s", "s", "lower",
                "place_p50_s, placements_per_s", "synth-fulltm, zoo-schemes"),
    LayerMetric("experiments.engine.task_s", "s", "lower",
                "placements_per_s, rerender_s", "fleet-k1"),
    LayerMetric("experiments.engine.busy_fraction", "1", "higher",
                "placements_per_s, rerender_s", "fleet-k1"),
    LayerMetric("experiments.store.appends", "count", "lower",
                "placements_per_s, rerender_s", "fleet-k1"),
    LayerMetric("experiments.store.append_s", "s", "lower",
                "placements_per_s, rerender_s", "fleet-k1"),
    LayerMetric("experiments.store.load_s", "s", "lower",
                "placements_per_s, rerender_s", "fleet-k1"),
    LayerMetric("experiments.store.bytes", "bytes", "lower",
                "placements_per_s, rerender_s", "fleet-k1"),
    LayerMetric("scenarios.apply_calls", "count", "lower",
                "setup_s, placements_per_s", "fleet-k1"),
    LayerMetric("scenarios.apply_s", "s", "lower",
                "setup_s, placements_per_s", "fleet-k1"),
    LayerMetric("bench.unattributed_s", "s", "lower",
                "none: describes the measurement", "all"),
    LayerMetric("bench.trace_overhead", "1", "lower",
                "none: describes the measurement", "all"),
)

#: Groups whose self seconds are reported in the attribution table, in
#: print order, with the layer each belongs to.
ATTRIBUTION_LAYERS: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("repro.core", ("core",)),
    ("repro.tm", ("tm.build", "tm.max_scale")),
    ("repro.net graph", ("net.graph",)),
    ("repro.net index", ("net.index",)),
    ("repro.net paths", ("net.paths.ksp", "net.paths.sweep")),
    ("repro.net flows", ("net.flows",)),
    ("repro.lp", ("lp.assemble", "lp.solve")),
    ("repro.routing place", tuple(f"routing.place.{s}" for s in SCHEMES)
     + ("routing.place.other",)),
    ("repro.routing other", ("routing.minmax_seed", "routing.metrics")),
    ("repro.experiments", ("experiments.store.append",
                           "experiments.store.load")),
    ("repro.scenarios", ("scenarios.apply",)),
)

_SCHEME_CLASSES = {
    "ShortestPathRouting": "SP",
    "EcmpRouting": "ECMP",
    "B4Routing": "B4",
    "LatencyOptimalRouting": "LDR",
    "LinkBasedOptimalRouting": "LinkBased",
    "MplsTeRouting": "MPLS-TE",
}


def scheme_label(scheme: object) -> str:
    """The registry name of a built scheme (``MinMaxRouting`` by its k)."""
    cls = type(scheme).__name__
    if cls == "MinMaxRouting":
        k = getattr(scheme, "k", None)
        return "MinMax" if k is None else f"MinMaxK{k}"
    return _SCHEME_CLASSES.get(cls, cls)


# ----------------------------------------------------------------------
# Recording
# ----------------------------------------------------------------------
class Tracer:
    """Call counts, total and self seconds per wrapped function.

    One instance per process; not thread-safe (every wrapped call of the
    benchmark runs on the main thread of its process).
    """

    def __init__(self) -> None:
        self._stack: List[List[Any]] = []
        #: key -> group, filled in as functions are wrapped.
        self.groups: Dict[str, str] = {}
        self.reset()

    def reset(self) -> None:
        """Forget everything recorded so far (the wrapping stays)."""
        #: key -> [calls, outer calls, total s, self s]; outer calls are
        #: calls not made directly from a function of the same group.
        self.stats: Dict[str, List[float]] = {}
        self.ksp_hits = 0
        self.lp_warm = 0
        self.lp_rows: List[int] = []
        self.lp_cols: List[int] = []
        self.index_topologies: set = set()
        self.verify_s = 0.0
        self.verified = 0
        self.verify_failures: List[str] = []

    # -- the timing core ------------------------------------------------
    def _enter(self, group: str) -> List[Any]:
        outer = not self._stack or self._stack[-1][0] != group
        frame = [group, 0.0, outer]
        self._stack.append(frame)
        return frame

    def _exit(self, key: str, frame: List[Any], elapsed: float,
              call: bool = True) -> None:
        self._stack.pop()
        if self._stack:
            self._stack[-1][1] += elapsed
        stat = self.stats.get(key)
        if stat is None:
            stat = self.stats[key] = [0, 0, 0.0, 0.0]
        if call:
            stat[0] += 1
            stat[1] += 1 if frame[2] else 0
        stat[2] += elapsed
        stat[3] += elapsed - frame[1]

    def timed_call(self, key: str, group: str, fn: Callable, args, kwargs):
        frame = self._enter(group)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self._exit(key, frame, time.perf_counter() - start)

    def timed_iter(self, key: str, group: str, inner: Iterator) -> Iterator:
        """Time every resumption of a lazy iterator (not counted as calls)."""
        while True:
            frame = self._enter(group)
            start = time.perf_counter()
            try:
                item = next(inner)
            except StopIteration:
                return
            finally:
                self._exit(key, frame, time.perf_counter() - start,
                           call=False)
            yield item

    # -- transfer across processes -------------------------------------
    def export(self) -> Dict[str, Any]:
        return {
            "stats": {k: list(v) for k, v in self.stats.items()},
            "groups": dict(self.groups),
            "ksp_hits": self.ksp_hits,
            "lp_warm": self.lp_warm,
            "lp_rows": list(self.lp_rows),
            "lp_cols": list(self.lp_cols),
            "index_topologies": sorted(self.index_topologies),
            "verify_s": self.verify_s,
            "verified": self.verified,
            "verify_failures": list(self.verify_failures),
        }

    def merge(self, payload: Dict[str, Any]) -> None:
        for key, values in payload["stats"].items():
            stat = self.stats.setdefault(key, [0, 0, 0.0, 0.0])
            for i, value in enumerate(values):
                stat[i] += value
        self.groups.update(payload["groups"])
        self.ksp_hits += payload["ksp_hits"]
        self.lp_warm += payload["lp_warm"]
        self.lp_rows.extend(payload["lp_rows"])
        self.lp_cols.extend(payload["lp_cols"])
        self.index_topologies.update(payload["index_topologies"])
        self.verify_s += payload["verify_s"]
        self.verified += payload["verified"]
        self.verify_failures.extend(payload["verify_failures"])

    # -- summaries -----------------------------------------------------
    def calls(self, key: str) -> int:
        return int(self.stats.get(key, (0,))[0])

    def group_outer_calls(self, group: str) -> int:
        return int(sum(
            stat[1] for key, stat in self.stats.items()
            if self.groups.get(key) == group
        ))

    def group_self_s(self, group: str) -> float:
        return sum(
            stat[3] for key, stat in self.stats.items()
            if self.groups.get(key) == group
        )

    def total_self_s(self) -> float:
        return sum(stat[3] for stat in self.stats.values())


class PlacementClock:
    """Per-placement seconds: ``place`` plus its outcome metrics.

    Installed in untraced and traced runs alike.  It times from the start
    of a scheme's ``place`` call to the moment the engine builds
    that placement's :class:`SchemeOutcome`, i.e. after the outcome
    metrics were computed; two ``perf_counter`` reads per placement.
    """

    def __init__(self) -> None:
        self.records: List[Tuple[str, float]] = []
        self._pending: Optional[Tuple[str, float]] = None

    def stop(self) -> None:
        """The pending placement's outcome is complete: record it."""
        if self._pending is not None:
            label, start = self._pending
            self.records.append((label, time.perf_counter() - start))
            self._pending = None

    def discard(self) -> None:
        self._pending = None


class Instrumentation:
    """Installs and removes the benchmark's wrappers in one process."""

    def __init__(self) -> None:
        self.clock = PlacementClock()
        self.tracer: Optional[Tracer] = None
        #: Called with (scheme, network, tm, placement) after each traced
        #: placement; returns a list of problems (empty when valid).
        self.verifier: Optional[Callable[..., List[str]]] = None
        self._undo: List[Tuple[object, str, object]] = []
        self._traced_undo: List[Tuple[object, str, object]] = []
        self.peak_rss_kb: Dict[int, int] = {}

    # -- patch helpers -------------------------------------------------
    @staticmethod
    def _replace_everywhere(
        owner: object, attr: str, original: object, wrapper: object,
        undo: List[Tuple[object, str, object]],
    ) -> None:
        undo.append((owner, attr, original))
        setattr(owner, attr, wrapper)
        if isinstance(owner, type):
            return
        for name, module in list(sys.modules.items()):
            if not name.startswith("repro") or module is owner:
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    undo.append((module, key, value))
                    setattr(module, key, wrapper)

    @staticmethod
    def _restore(undo: List[Tuple[object, str, object]]) -> None:
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)
        undo.clear()

    # -- always-on hooks -----------------------------------------------
    def install_clock(self) -> None:
        """Time placements and ship worker-side data back with results."""
        import repro.experiments.engine as engine
        from repro.experiments.runner import SchemeOutcome

        clock = self.clock
        for cls in scheme_classes():
            self._wrap_place(cls, self._undo)

        def outcome(*args, **kwargs):
            result = SchemeOutcome(*args, **kwargs)
            clock.stop()
            return result

        self._undo.append((engine, "SchemeOutcome", engine.SchemeOutcome))
        engine.SchemeOutcome = outcome

        original = engine._forked_evaluate
        instrumentation = self

        @functools.wraps(original)
        def forked_evaluate(*args, **kwargs):
            # Runs in a forked pool worker: everything recorded there is
            # shipped back on the result and merged by the parent.
            clock.records = []
            if instrumentation.tracer is not None:
                instrumentation.tracer.reset()
            key, result = original(*args, **kwargs)
            result.perfbench = {
                "pid": os.getpid(),
                "peak_rss_kb": resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss,
                "placements": list(clock.records),
                "trace": (instrumentation.tracer.export()
                          if instrumentation.tracer is not None else None),
            }
            return key, result

        self._undo.append((engine, "_forked_evaluate", original))
        engine._forked_evaluate = forked_evaluate

    def absorb(self, result: object) -> None:
        """Merge what a pool worker attached to ``result`` (if anything)."""
        payload = getattr(result, "__dict__", {}).pop("perfbench", None)
        if payload is None:
            return
        self.clock.records.extend(
            (label, seconds) for label, seconds in payload["placements"]
        )
        pid = payload["pid"]
        self.peak_rss_kb[pid] = max(
            self.peak_rss_kb.get(pid, 0), payload["peak_rss_kb"]
        )
        if payload["trace"] is not None and self.tracer is not None:
            self.tracer.merge(payload["trace"])

    def _wrap_place(self, cls: type, undo) -> None:
        original = cls.__dict__["place"]
        clock = self.clock
        instrumentation = self

        @functools.wraps(original)
        def place(scheme, network, tm, *args, **kwargs):
            label = scheme_label(scheme)
            start = time.perf_counter()
            tracer = instrumentation.tracer
            if tracer is None:
                placement = original(scheme, network, tm, *args, **kwargs)
                clock._pending = (label, start)
                return placement
            group = (f"routing.place.{label}" if label in SCHEMES
                     else "routing.place.other")
            key = f"{cls.__module__}:{cls.__name__}.place[{label}]"
            tracer.groups[key] = group
            placement = tracer.timed_call(
                key, group, original, (scheme, network, tm) + args, kwargs
            )
            if instrumentation.verifier is not None:
                verify_start = time.perf_counter()
                problems = instrumentation.verifier(
                    label, network, tm, placement
                )
                tracer.verified += 1
                if problems:
                    tracer.verify_failures.append("; ".join(problems))
                tracer.verify_s += time.perf_counter() - verify_start
                # Verification is the benchmark's work, not the
                # placement's: keep it out of the placement's clock.
                start += time.perf_counter() - verify_start
            clock._pending = (label, start)
            return placement

        undo.append((cls, "place", original))
        setattr(cls, "place", place)

    def uninstall(self) -> None:
        self.uninstall_tracer()
        self._restore(self._undo)

    # -- traced run ----------------------------------------------------
    def install_tracer(self) -> Tracer:
        """Wrap every entry of :data:`WRAPPED` and trace ``place`` calls."""
        tracer = self.tracer = Tracer()
        for group, module_name, attr in WRAPPED:
            module = importlib.import_module(module_name)
            owner: object = module
            name = attr
            if "." in attr:
                class_name, name = attr.split(".")
                owner = getattr(module, class_name)
            key = f"{module_name}:{attr}"
            tracer.groups[key] = group
            raw = (owner.__dict__[name] if isinstance(owner, type)
                   else getattr(owner, name))
            wrapper = _make_wrapper(tracer, key, group, raw)
            self._replace_everywhere(
                owner, name, raw, wrapper, self._traced_undo
            )
        return tracer

    def uninstall_tracer(self) -> None:
        self._restore(self._traced_undo)
        self.tracer = None


def scheme_classes() -> List[type]:
    """Every loaded :class:`RoutingScheme` subclass defining ``place``."""
    import repro.routing  # noqa: F401  (loads every scheme module)
    from repro.routing.base import RoutingScheme

    found: List[type] = []
    pending = list(RoutingScheme.__subclasses__())
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if "place" in cls.__dict__ and cls not in found:
            found.append(cls)
    return sorted(found, key=lambda c: (c.__module__, c.__name__))


def _make_wrapper(tracer: Tracer, key: str, group: str, raw: object):
    is_classmethod = isinstance(raw, classmethod)
    fn = raw.__func__ if is_classmethod else raw
    pre = _PRE_HOOKS.get(key)
    lazy = key in LAZY

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if pre is not None:
            pre(tracer, args, kwargs)
        result = tracer.timed_call(key, group, fn, args, kwargs)
        if lazy:
            return tracer.timed_iter(key, group, iter(result))
        return result

    return classmethod(wrapper) if is_classmethod else wrapper


# ----------------------------------------------------------------------
# Pre-call hooks that read state the layer metrics need
# ----------------------------------------------------------------------
def _ksp_pre(tracer: Tracer, args, kwargs) -> None:
    cache, src, dst = args[0], args[1], args[2]
    k = args[3] if len(args) > 3 else kwargs["k"]
    # A hit is a request the cache answers without running Yen's: enough
    # paths already materialized, or the pair known to have no more.
    # (The exhausted set has no public accessor; it is read, not changed.)
    if (cache.count_cached(src, dst) >= k
            or (src, dst) in getattr(cache, "_exhausted", ())):
        tracer.ksp_hits += 1


def _solve_pre(tracer: Tracer, args, kwargs) -> None:
    model = args[0]
    if model.warm:
        tracer.lp_warm += 1
    tracer.lp_rows.append(int(model.n_rows))
    tracer.lp_cols.append(int(model.n_variables))


def _index_pre(tracer: Tracer, args, kwargs) -> None:
    from repro.net.paths import network_signature

    network = args[1] if len(args) > 1 else kwargs["network"]
    tracer.index_topologies.add(network_signature(network))


_PRE_HOOKS: Dict[str, Callable[[Tracer, tuple, dict], None]] = {
    "repro.net.paths:KspCache.get": _ksp_pre,
    "repro.lp.model:CompiledLP.solve": _solve_pre,
    "repro.net.index:GraphIndex.__init__": _index_pre,
}


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------
def layer_values(
    tracer: Tracer,
    *,
    eval_tracer: Tracer,
    eval_wall_s: float,
    untraced_wall_s: float,
    workers: int,
    task_s: float,
    store_bytes: int,
) -> Dict[str, float]:
    """Every :data:`LAYER_METRICS` value.

    ``tracer`` covers the whole traced run (set-up and evaluation);
    ``eval_tracer`` the traced evaluation alone, which the two ``bench.*``
    figures describe.  Ratios with an empty base read 0.
    """
    t = tracer

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    ksp_calls = t.calls("repro.net.paths:KspCache.get")
    builds = t.calls("repro.net.index:GraphIndex.__init__")
    solves = t.calls("repro.lp.model:CompiledLP.solve")
    values: Dict[str, float] = {
        "core.llpd_calls": t.calls("repro.core.metrics:llpd"),
        "core.llpd_s": t.group_self_s("core"),
        "tm.build_s": t.group_self_s("tm.build"),
        "tm.max_scale_calls": t.group_outer_calls("tm.max_scale"),
        "tm.max_scale_s": t.group_self_s("tm.max_scale"),
        "net.graph.copies": t.group_outer_calls("net.graph"),
        "net.graph.copy_s": t.group_self_s("net.graph"),
        "net.index.builds": builds,
        "net.index.build_s": t.group_self_s("net.index"),
        "net.index.builds_per_topology": ratio(
            builds, len(t.index_topologies)),
        "net.paths.ksp_calls": ksp_calls,
        "net.paths.ksp_hit_ratio": ratio(t.ksp_hits, ksp_calls),
        "net.paths.ksp_s": t.group_self_s("net.paths.ksp"),
        "net.paths.sweep_calls": t.group_outer_calls("net.paths.sweep"),
        "net.paths.sweep_s": t.group_self_s("net.paths.sweep"),
        "net.flows.max_flow_calls": t.group_outer_calls("net.flows"),
        "net.flows.max_flow_s": t.group_self_s("net.flows"),
        "lp.assemble_calls": t.group_outer_calls("lp.assemble"),
        "lp.assemble_s": t.group_self_s("lp.assemble"),
        "lp.solve_calls": solves,
        "lp.solve_s": t.group_self_s("lp.solve"),
        "lp.solve_warm_fraction": ratio(t.lp_warm, solves),
        "lp.rows_p50": statistics.median(t.lp_rows) if t.lp_rows else 0,
        "lp.cols_p50": statistics.median(t.lp_cols) if t.lp_cols else 0,
        "lp.cols_max": max(t.lp_cols) if t.lp_cols else 0,
    }
    for scheme in SCHEMES:
        values[f"routing.place_self_s.{scheme}"] = t.group_self_s(
            f"routing.place.{scheme}")
    values.update({
        "routing.minmax_seed_calls": t.group_outer_calls(
            "routing.minmax_seed"),
        "routing.minmax_seed_s": t.group_self_s("routing.minmax_seed"),
        "routing.placement_metrics_s": t.group_self_s("routing.metrics"),
        "experiments.engine.task_s": task_s,
        "experiments.engine.busy_fraction": ratio(
            task_s, eval_wall_s * workers),
        "experiments.store.appends": t.calls(
            "repro.experiments.store:StoreWriter.append"),
        "experiments.store.append_s": t.group_self_s(
            "experiments.store.append"),
        "experiments.store.load_s": t.group_self_s("experiments.store.load"),
        "experiments.store.bytes": store_bytes,
        "scenarios.apply_calls": t.calls(
            "repro.scenarios.spec:ScenarioSpec.apply"),
        "scenarios.apply_s": t.group_self_s("scenarios.apply"),
        "bench.unattributed_s": unattributed_s(
            eval_tracer, eval_wall_s, workers),
        "bench.trace_overhead": ratio(eval_wall_s, untraced_wall_s) - 1.0,
    })
    return {name: float(value) for name, value in values.items()}


def unattributed_s(eval_tracer: Tracer, eval_wall_s: float, workers: int) -> float:
    """Evaluation capacity (wall x workers) no wrapped layer accounts for."""
    return eval_wall_s * workers - eval_tracer.total_self_s()


def attribution_rows(
    eval_tracer: Tracer, eval_wall_s: float, workers: int
) -> List[Tuple[str, float, float]]:
    """(layer, self seconds, share of evaluation wall x workers)."""
    capacity = eval_wall_s * workers
    rows = []
    for layer, groups in ATTRIBUTION_LAYERS:
        seconds = sum(eval_tracer.group_self_s(g) for g in groups)
        rows.append((layer, seconds, seconds / capacity if capacity else 0.0))
    rest = unattributed_s(eval_tracer, eval_wall_s, workers)
    rows.append(("unattributed", rest, rest / capacity if capacity else 0.0))
    return rows

