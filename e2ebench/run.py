#!/usr/bin/env python3
"""End-to-end FACTOR benchmark.

Run from the repository root::

    python3 e2ebench/run.py --workload atpg_stuck --seed 2002 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics (``setup_s``, ``wall_s``,
``req_per_s``, ``p50_ms``, ``peak_rss_mb``) over as many passes as fit in
``--seconds`` (at least one).  ``--trace 1`` runs one traced pass and
reports its per-layer metrics.  Every pass checks its outputs; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
lines before it stamp the host and list every failed operation.

See ``e2ebench/README.md`` for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Environment knobs that change what the program runs.  They are cleared
#: before ``repro`` is imported and their previous values are recorded.
ENV_KNOBS = ("REPRO_JOBS", "REPRO_SIM_BACKEND", "REPRO_NO_CACHE",
             "REPRO_CACHE_DIR")
ENV_PREFIXES = ("REPRO_ARENA_CODEGEN_", "REPRO_PARALLEL_")

#: Set-up samples taken before the passes and after them; one more is
#: taken between every two passes.  The samples span the whole run rather
#: than one moment of host speed, and ``setup_s`` is their median.
SETUP_EDGE_SAMPLES = 5

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "req_per_s": "1/s",
    "p50_ms": "ms",
    "peak_rss_mb": "MiB",
}

clock = time.perf_counter


def clear_knobs() -> Dict[str, str]:
    cleared = {}
    for name in sorted(os.environ):
        if name in ENV_KNOBS or name.startswith(ENV_PREFIXES):
            cleared[name] = os.environ.pop(name)
    return cleared


def affinity_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def pin_to_one_cpu() -> Optional[int]:
    """Run the benchmark and every process it starts on the first CPU of
    its affinity set.  serve_replay's requests hand off between the client
    and the server process; on one CPU a hand-off is a local context
    switch, not a cross-CPU wake-up whose cost varies with the host's
    load.  Returns the CPU, or ``None`` where affinity is not supported."""
    try:
        cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return None
    return cpu


def git_commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def host_stamp(args, cleared: Dict[str, str], cores: int,
               pinned: Optional[int]) -> Dict[str, object]:
    import repro
    from repro.atpg.compiled import resolve_backend

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "affinity_cores": cores,
        "pinned_cpu": pinned,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "repro_version": repro.__version__,
        "git_commit": git_commit(),
        "fault_sim_backend": resolve_backend(None),
        "env_cleared": cleared,
    }


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is KiB on Linux


def _mark_failures(ops, problems: Dict[str, str]) -> None:
    """Fold correctness-check failures into the operations they judge;
    a check that judges no single operation becomes its own."""
    from workloads import Op

    by_name = {op.name: op for op in ops}
    for name, problem in problems.items():
        op = by_name.get(name)
        if op is None:
            ops.append(Op(name, None, False, problem))
        elif op.ok:
            op.ok, op.error = False, problem


def run_checked(workload, seed: int, index: int, expected):
    result = workload.run_pass(seed, index)
    for note in result.notes:
        print(note)
    _mark_failures(result.ops, workload.check(result, seed, expected))
    return result


def untraced_run(workload, args, expected
                 ) -> Tuple[Dict[str, Tuple[float, str]], List]:
    setup = [workload.setup_sample() for _ in range(SETUP_EDGE_SAMPLES)]
    # Start another pass only while it is expected to end in time, taking
    # as long as the last one did (untimed parts such as serve_replay's
    # warm-up included).  The set-up samples between passes are not
    # counted as measured time.
    passes = []
    measured = 0.0
    while True:
        start = clock()
        passes.append(run_checked(workload, args.seed, len(passes),
                                  expected))
        elapsed = clock() - start
        measured += elapsed
        setup.append(workload.setup_sample())
        if measured + elapsed > args.seconds:
            break
    setup += [workload.setup_sample()
              for _ in range(SETUP_EDGE_SAMPLES - 1)]
    ops = [op for p in passes for op in p.ops]
    if expected is None and hasattr(workload, "oracle"):
        ops.append(workload.oracle(args.seed, passes[0].observed))
    timed_ops = [op for op in ops if op.seconds is not None]
    busy = sum(p.wall_s for p in passes)
    metrics = {
        "setup_s": statistics.median(
            setup + [s for p in passes for s in p.setup_s]),
        "wall_s": statistics.median([p.wall_s for p in passes]),
        "req_per_s": len(timed_ops) / busy,
        "p50_ms": 1000.0 * statistics.median(
            [s for p in passes for s in p.latencies()]),
        "peak_rss_mb": _peak_rss_mb(),
    }
    return {k: (v, END_TO_END[k]) for k, v in metrics.items()}, ops


def traced_run(workload, args, expected
               ) -> Tuple[Dict[str, Tuple[float, str]], List]:
    from layers import (PER_LAYER_METRICS, LayerTracer, attribution_table,
                        layer_metrics, registry_counters)
    from repro.obs import get_registry

    get_registry().reset()
    with LayerTracer() as tracer:
        traced = run_checked(workload, args.seed, 0, expected)
    counters = traced.counters or registry_counters()
    values = layer_metrics(tracer, counters, traced.wall_s)
    for name, value in attribution_table(values):
        if not value:
            continue
        print(f"  layer {name:<26} {value:10.4f} s "
              f"({100.0 * value / traced.wall_s:5.1f}%)")
    ops = traced.ops
    if expected is None and hasattr(workload, "oracle"):
        ops.append(workload.oracle(args.seed, traced.observed))
    return {k: (values[k], PER_LAYER_METRICS[k][0])
            for k in PER_LAYER_METRICS}, ops


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("atpg_stuck", "seu_grade", "front_end",
                                 "serve_replay"))
    parser.add_argument("--seed", type=int, default=2002)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="a reduced workload, for the self-tests")
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no repro sources under {SRC}; run from a full "
              "checkout", file=sys.stderr)
        return 2
    cleared = clear_knobs()
    cores = affinity_cores()
    # The batch workloads run one thread; pinning them showed no gain.
    pinned = pin_to_one_cpu() if args.workload == "serve_replay" else None
    sys.path[:0] = [HERE, SRC]
    import workloads

    workloads.import_pipeline()
    workload = workloads.make_workload(args.workload, smoke=args.smoke)
    expected = workloads.load_expected().get(args.workload, {}).get(
        workload.expected_key(args.seed))
    print(json.dumps({"host": host_stamp(args, cleared, cores, pinned)},
                     sort_keys=True))
    try:
        if args.trace:
            metrics, ops = traced_run(workload, args, expected)
        else:
            metrics, ops = untraced_run(workload, args, expected)
    finally:
        workloads.remove_work_root()
    failed = [op for op in ops if not op.ok]
    for op in failed[:20]:
        print(f"FAILED {op.name}: {op.error}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<32} {value:14.6f} {unit}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
