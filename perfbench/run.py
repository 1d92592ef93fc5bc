"""The repository benchmark: one workload, end-to-end or per-layer.

    python3 perfbench/run.py --workload zoo-schemes --seed 0 --seconds 20 --trace 0

Runs from the root of a checkout and builds nothing: the program is the
pure-Python package under ``src/``.  ``--trace 0`` measures the workload
with the program's own telemetry off and prints the end-to-end metrics;
``--trace 1`` additionally runs the benchmark's own wrappers
(``layers.py``) over a traced set-up and one traced pass and prints the
per-layer metrics.  Both check the outputs (``checks.py``).  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``; every earlier line is a readable report.
Each run is also appended to ``.perfbench/runs.jsonl`` for ``compare.py``.

``--record-reference`` runs one untraced pass at the default seed and
pins its outcomes in ``reference.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

import numpy

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

#: Fresh-interpreter set-ups per run; their median is ``setup_s``.
SETUP_SAMPLES = 3
#: Report a p90 only with at least ten samples beyond it.
P90_MIN_SAMPLES = 100

END_TO_END_UNITS = {
    "setup_s": "s",
    "placements_per_s": "1/s",
    "place_p50_s": "s",
    "place_p90_s": "s",
    "rerender_s": "s",
    "peak_rss_mb": "MB",
    "failed_fraction": "1",
}


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    from workloads import DEFAULT_SEED, WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    return parser.parse_args(argv)


def clear_repro_env() -> None:
    """Drop every ``REPRO_*`` knob so a leftover cannot change the numbers."""
    for name in [n for n in os.environ if n.startswith("REPRO_")]:
        del os.environ[name]


def probe_setup(workload: str, seed: int, out: Path) -> float:
    """Seconds from starting a fresh interpreter to the workload built."""
    command = [sys.executable, str(HERE / "setup_probe.py"),
               "--workload", workload, "--seed", str(seed), "--out", str(out)]
    start = time.perf_counter()
    with subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True) as probe:
        line = probe.stdout.readline()
        elapsed = time.perf_counter() - start
        probe.stdout.read()
        code = probe.wait()
    if code != 0 or line.strip() != "built":
        raise RuntimeError(f"set-up probe failed with exit code {code}")
    return elapsed


def cpu_probe_s() -> float:
    """Seconds a fixed pure-Python loop takes: how fast the machine ran.

    Recorded next to the metrics (never folded into them) so that a run
    on a slowed-down host can be told apart from a slower program.
    """
    start = time.perf_counter()
    total = 0
    for i in range(2_000_000):
        total += i
    return time.perf_counter() - start


def keep_measuring(walls: List[float], elapsed: float, seconds: float) -> bool:
    """Whether to start another pass: stop once it would likely end more
    than half a pass past ``seconds``."""
    return elapsed + statistics.mean(walls) / 2 < seconds


def git_revision() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=30, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip()


def run_record(args: argparse.Namespace) -> Dict[str, Any]:
    import scipy
    from repro.lp.model import resolve_backend
    from workloads import HELD_OUT_SEED

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "lp_backend": resolve_backend(),
        "git_revision": git_revision(),
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
    }


def end_to_end(passes, records, setup_samples, peak_kb):
    """Every end-to-end metric this workload produces: name -> (value, n)."""
    wall = sum(p.wall_s for p in passes)
    placed = sum(len(p.outcomes) for p in passes)
    seconds = [s for _, s in records]
    metrics = {
        "setup_s": (statistics.median(setup_samples), len(setup_samples)),
        "placements_per_s": (placed / wall, placed),
        "place_p50_s": (statistics.median(seconds), len(seconds)),
        "peak_rss_mb": (peak_kb / 1024.0, len(passes)),
    }
    if len(seconds) >= P90_MIN_SAMPLES:
        metrics["place_p90_s"] = (float(numpy.quantile(seconds, 0.9)),
                                  len(seconds))
    for scheme in sorted({label for label, _ in records}):
        own = [s for label, s in records if label == scheme]
        metrics[f"place_p50_s.{scheme}"] = (statistics.median(own), len(own))
    rerenders = [p.rerender_s for p in passes if p.rerender_s is not None]
    if rerenders:
        metrics["rerender_s"] = (statistics.median(rerenders), len(rerenders))
    return metrics


def unit_of(name: str) -> str:
    return END_TO_END_UNITS.get(name.split(".")[0], "s")


def pass_failures(workload: str, seed: int, result) -> Dict[Any, str]:
    import checks
    from workloads import DEFAULT_SEED

    failures = checks.invariant_failures(result.outcomes)
    if seed == DEFAULT_SEED:
        for key, cause in checks.reference_failures(
            workload, result.outcomes
        ).items():
            failures.setdefault(key, cause)
    return failures


def measure(args: argparse.Namespace) -> Dict[str, Any]:
    import layers
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    scratch = OUT_DIR / f"tmp-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    built_path = scratch / "built.pickle"
    setup_samples = [probe_setup(workload.name, args.seed, built_path)
                     for _ in range(SETUP_SAMPLES)]
    with open(built_path, "rb") as handle:
        built = pickle.load(handle)

    inst = layers.Instrumentation()
    inst.install_clock()
    failures: List[str] = []
    attempted = failed = 0
    probes = [cpu_probe_s()]
    #: Per pass: the summed peaks of its pool's ``workers`` largest
    #: processes (every pass starts a new pool).
    pool_kb: List[int] = []
    try:
        passes = []
        start = time.perf_counter()
        while True:
            result = workload.run_pass(built, inst, str(scratch))
            passes.append(result)
            pool_kb.append(sum(sorted(inst.peak_rss_kb.values(),
                                      reverse=True)[:workload.workers]))
            inst.peak_rss_kb.clear()
            if result.errors or not keep_measuring(
                [p.wall_s for p in passes], time.perf_counter() - start,
                args.seconds,
            ):
                break
        probes.append(cpu_probe_s())
        records = list(inst.clock.records)
        for result in passes:
            attempted += result.attempted
            bad = pass_failures(workload.name, args.seed, result)
            failed += result.failed + len(bad)
            failures.extend(result.errors)
            failures.extend(f"{k[2]} on {k[0]} matrix {k[1]}: {cause}"
                            for k, cause in bad.items())

        layer = None
        if args.trace:
            layer = traced(args, workload, inst, passes, str(scratch))
            attempted += layer["attempted"]
            failed += layer["failed"]
            failures.extend(layer["failures"])
    finally:
        inst.uninstall()
        shutil.rmtree(scratch, ignore_errors=True)

    # Which worker runs which task depends on timing, and so does each
    # worker's peak; the median pass's pool keeps that out of the metric.
    main_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    peak_kb = main_kb + statistics.median(pool_kb)
    metrics = end_to_end(passes, records, setup_samples, peak_kb)
    metrics["failed_fraction"] = (failed / attempted if attempted else 1.0,
                                  attempted)
    return {
        "workload": workload.name,
        "trace": args.trace,
        "seconds": args.seconds,
        "record": dict(run_record(args), cpu_probe_s=probes),
        "passes": [{"wall_s": p.wall_s, "complete": p.complete,
                    "placements": len(p.outcomes)} for p in passes],
        "metrics": {name: {"value": value, "unit": unit_of(name),
                           "samples": n}
                    for name, (value, n) in metrics.items()},
        "per_layer": layer["metrics"] if layer else None,
        "attribution": layer["attribution"] if layer else None,
        "verified": layer["verified"] if layer else 0,
        "peak_rss_kb": {"main": main_kb, "pool_per_pass": pool_kb},
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
    }


def traced(args, workload, inst, passes, scratch) -> Dict[str, Any]:
    """One traced set-up and one complete traced pass."""
    import checks
    import layers

    inst.verifier = checks.verify_placement
    tracer = inst.install_tracer()
    built = workload.build(args.seed)
    setup_part = tracer.export()
    tracer.reset()
    result = workload.run_pass(built, inst, scratch)
    inst.uninstall_tracer()
    eval_part = tracer
    whole = layers.Tracer()
    whole.merge(setup_part)
    whole.merge(eval_part.export())

    # Verification is the benchmark's own work; on a pool it is spread
    # across the workers.
    traced_wall = result.wall_s - eval_part.verify_s / workload.workers
    metrics = layers.layer_values(
        whole,
        eval_tracer=eval_part,
        eval_wall_s=traced_wall,
        untraced_wall_s=statistics.median(p.wall_s for p in passes),
        workers=workload.workers,
        # Engine tasks include the verification; workloads that place
        # without the engine have no task time at all.
        task_s=(result.task_s - eval_part.verify_s) if result.task_s else 0.0,
        store_bytes=result.store_bytes,
    )
    bad = pass_failures(workload.name, args.seed, result)
    bad.update({
        key: f"traced outcome {cause}"
        for key, cause in checks.mismatches(passes[0].outcomes,
                                            result.outcomes).items()
        if key not in bad
    })
    failures = list(result.errors) + list(eval_part.verify_failures) + [
        f"{k[2]} on {k[0]} matrix {k[1]}: {cause}" for k, cause in bad.items()
    ]
    return {
        "metrics": metrics,
        "attribution": [
            {"layer": name, "self_s": s, "share": share}
            for name, s, share in layers.attribution_rows(
                eval_part, traced_wall, workload.workers)
        ],
        "attempted": result.attempted,
        "failed": result.failed + len(bad) + len(eval_part.verify_failures),
        "failures": failures,
        "verified": eval_part.verified,
    }


def print_report(run: Dict[str, Any]) -> None:
    record = run["record"]
    print(f"workload {run['workload']}  seed {record['seed']} "
          f"(held-out seed {record['held_out_seed']})  "
          f"trace {run['trace']}  seconds {run['seconds']:g}")
    print("  run record: " + ", ".join(
        f"{k}={v}" for k, v in record.items()
        if k not in ("seed", "held_out_seed")))
    print(f"  passes: {len(run['passes'])} "
          f"({sum(p['complete'] for p in run['passes'])} complete)")
    print("end-to-end metrics:")
    for name, metric in run["metrics"].items():
        print(f"  {name:28s} {metric['value']:12.6g} {metric['unit']:5s} "
              f"(n={metric['samples']})")
    print(f"operations: attempted {run['attempted']}, failed {run['failed']}"
          f"; placements verified independently: {run['verified']}")
    causes: Dict[str, int] = {}
    for cause in run["failures"]:
        causes[cause] = causes.get(cause, 0) + 1
    for cause, count in sorted(causes.items()):
        print(f"  FAILED x{count}: {cause}")
    if run["per_layer"] is not None:
        import layers

        print("per-layer metrics (traced set-up + one traced pass):")
        for spec in layers.LAYER_METRICS:
            print(f"  {spec.name:40s} {run['per_layer'][spec.name]:12.6g} "
                  f"{spec.unit:6s} should move {spec.moves} on {spec.on}")
        print("attribution of traced evaluation (self seconds, share of "
              "wall x workers):")
        for row in run["attribution"]:
            print(f"  {row['layer']:22s} {row['self_s']:10.4f} s "
                  f"{100 * row['share']:6.1f}%")


def result_line(run: Dict[str, Any]) -> str:
    import layers

    if run["trace"]:
        metrics = {
            spec.name: {"value": run["per_layer"][spec.name],
                        "unit": spec.unit}
            for spec in layers.LAYER_METRICS
        }
    else:
        with open(ROOT / "BENCHMARK.json") as handle:
            declared = json.load(handle)["end_to_end"]
        metrics = {
            spec["name"]: {"value": run["metrics"][spec["name"]]["value"],
                           "unit": spec["unit"]}
            for spec in declared
        }
    return json.dumps({
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    })


def record_reference(args: argparse.Namespace) -> int:
    import checks
    import layers
    from workloads import DEFAULT_SEED, WORKLOADS

    workload = WORKLOADS[args.workload]
    scratch = OUT_DIR / f"tmp-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    inst = layers.Instrumentation()
    inst.install_clock()
    try:
        built = workload.build(DEFAULT_SEED)
        result = workload.run_pass(built, inst, str(scratch))
    finally:
        inst.uninstall()
        shutil.rmtree(scratch, ignore_errors=True)
    if result.errors or not result.complete:
        print("reference pass failed: " + "; ".join(result.errors),
              file=sys.stderr)
        return 1
    checks.write_reference(workload.name, result.outcomes)
    print(f"pinned {len(result.outcomes)} outcomes of {workload.name}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    clear_repro_env()
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.record_reference:
        return record_reference(args)
    run = measure(args)
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / "runs.jsonl", "a") as handle:
        handle.write(json.dumps(run) + "\n")
    print_report(run)
    print(result_line(run))
    return 0


if __name__ == "__main__":
    sys.exit(main())
