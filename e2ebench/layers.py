"""Per-layer time attribution for traced runs, measured from outside.

:class:`LayerTracer` wraps public functions and methods of each layer of
``repro`` for the duration of one traced pass and restores the originals
afterwards, so nothing under ``src/`` changes.  Every wrapper records the
inclusive time of its call; the wrapper stack (one per thread) turns that
into *self* time, i.e. the call's duration minus the time its nested
wrapped calls took.  Self times of all layers plus the unattributed
remainder add up to the pass's wall time.

Counts the program already keeps (PODEM backtracks, fault-sim filter
hits, store bytes, serve executions, ...) are read from the ``repro.obs``
metrics registry: the in-process registry for the batch workloads, the
server's ``GET /metrics`` exposition for ``serve_replay``.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import re
import statistics
import sys
import threading
import time
from typing import Callable, Dict, Iterator, List, Optional, Tuple

# (layer, module, attribute): module-level functions.  Every module that
# imported the function by name is patched too, so call sites that bound
# it at import time go through the wrapper as well.
FUNCTION_TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("verilog.parse", "repro.verilog.parser", "parse_source"),
    ("core.testability", "repro.core.testability", "analyze_testability"),
    ("core.piers", "repro.core.piers", "find_piers"),
    ("core.piers", "repro.core.piers", "pier_q_nets"),
    ("synth.optimize", "repro.synth.opt", "optimize"),
    ("lint.run", "repro.lint.core", "run_lint"),
)

# (layer, module, class, method): methods, patched on the class.
METHOD_TARGETS: Tuple[Tuple[str, str, str, str], ...] = (
    ("hierarchy.design", "repro.hierarchy.design", "Design", "__init__"),
    ("hierarchy.design", "repro.hierarchy.design", "Design", "chaindb"),
    ("core.extract", "repro.core.composer", "ConstraintComposer", "extract"),
    ("core.transform", "repro.core.composer", "ConstraintComposer",
     "transform"),
    ("synth.synthesize", "repro.synth.elaborate", "Elaborator",
     "synthesize"),
    ("atpg.generate_tests", "repro.core.factor", "Factor",
     "generate_tests"),
    ("atpg.podem", "repro.atpg.engine", "SequentialAtpg", "generate"),
    ("fault_sim", "repro.atpg.fault_sim", "FaultSimulator",
     "detected_faults"),
    ("store.get", "repro.store.core", "ArtifactStore", "get"),
    ("store.put", "repro.store.core", "ArtifactStore", "put"),
    ("serve.submit", "repro.serve.client", "ServeClient", "submit"),
)

LAYERS = tuple(dict.fromkeys(
    [t[0] for t in FUNCTION_TARGETS] + [t[0] for t in METHOD_TARGETS]))

# Per-layer metrics: name -> (unit, better).  The order is the order of
# BENCHMARK.json's ``per_layer`` list.
PER_LAYER_METRICS: Dict[str, Tuple[str, str]] = {
    "verilog.parse_s": ("s", "lower"),
    "hierarchy.design_s": ("s", "lower"),
    "core.extract_s": ("s", "lower"),
    "core.transform_s": ("s", "lower"),
    "core.testability_s": ("s", "lower"),
    "core.piers_s": ("s", "lower"),
    "core.reuse_frac": ("ratio", "higher"),
    "synth.synthesize_s": ("s", "lower"),
    "synth.optimize_s": ("s", "lower"),
    "synth.gates_out": ("count", "lower"),
    "lint.run_s": ("s", "lower"),
    "atpg.generate_tests_s": ("s", "lower"),
    "atpg.podem_s": ("s", "lower"),
    "atpg.podem_calls": ("count", "lower"),
    "atpg.podem_detect_frac": ("ratio", "higher"),
    "atpg.backtracks": ("count", "lower"),
    "atpg.implications": ("count", "lower"),
    "fault_sim.busy_s": ("s", "lower"),
    "fault_sim.calls": ("count", "lower"),
    "fault_sim.faults_per_call_p50": ("count", "higher"),
    "fault_sim.vectors_per_call_p50": ("count", "higher"),
    "fault_sim.seu_s": ("s", "lower"),
    "fault_sim.detect_frac": ("ratio", "higher"),
    "fault_sim.filtered_frac": ("ratio", "higher"),
    "fault_sim.codegen_frac": ("ratio", "higher"),
    "store.get_s": ("s", "lower"),
    "store.put_s": ("s", "lower"),
    "store.hit_frac": ("ratio", "higher"),
    "store.bytes_written": ("bytes", "lower"),
    "serve.submit_ms": ("ms", "lower"),
    "serve.executed": ("count", "lower"),
    "serve.store_served": ("count", "higher"),
    "serve.exec_frac": ("ratio", "lower"),
    "obs.traced_wall_s": ("s", "lower"),
    "obs.unattributed_frac": ("ratio", "lower"),
    "obs.trace_overhead_frac": ("ratio", "lower"),
}

_PROM_INVALID = re.compile(r"[^a-zA-Z0-9_:]")

#: Set on a thread while it runs an untimed warm-up: wrapped calls go
#: straight to the originals and are not recorded.
_UNTRACED = threading.local()


@contextlib.contextmanager
def untraced() -> Iterator[None]:
    """Leave the calls made inside out of any installed tracer's figures."""
    _UNTRACED.on = True
    try:
        yield
    finally:
        _UNTRACED.on = False


class _LayerStats:
    __slots__ = ("calls", "self_s", "samples")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.samples: List[float] = []


class LayerTracer:
    """Wraps the layer entry points; use as a context manager."""

    def __init__(self) -> None:
        self.stats: Dict[str, _LayerStats] = {
            layer: _LayerStats() for layer in LAYERS}
        self.root_s = 0.0  # time inside outermost wrapped calls
        # fault-sim call shapes: (faults, vectors, seconds, transient)
        self.fault_sim_calls: List[Tuple[int, int, float, bool]] = []
        self.podem_detected = 0
        self.gates_out = 0
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: List[Tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def __enter__(self) -> "LayerTracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        try:
            for layer, mod_name, attr in FUNCTION_TARGETS:
                original = getattr(importlib.import_module(mod_name), attr)
                wrapper = self._wrap(layer, original)
                for module in list(sys.modules.values()):
                    namespace = getattr(module, "__dict__", None)
                    if namespace is not None and \
                            namespace.get(attr) is original:
                        self._patch(module, attr, wrapper)
            for layer, mod_name, cls_name, attr in METHOD_TARGETS:
                cls = getattr(importlib.import_module(mod_name), cls_name)
                self._patch(cls, attr, self._wrap(layer, cls.__dict__[attr]))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner: object, attr: str, wrapper: object) -> None:
        self._patches.append((owner, attr, getattr(owner, "__dict__")[attr]))
        setattr(owner, attr, wrapper)

    def _wrap(self, layer: str, fn: Callable) -> Callable:
        observe = _OBSERVERS.get(layer)
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if getattr(_UNTRACED, "on", False):
                return fn(*args, **kwargs)
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                nested = stack.pop()
                if stack:
                    stack[-1] += elapsed
                with tracer._lock:
                    stats = tracer.stats[layer]
                    stats.calls += 1
                    stats.self_s += elapsed - nested
                    stats.samples.append(elapsed)
                    if not stack:
                        tracer.root_s += elapsed
            if observe is not None:
                with tracer._lock:
                    observe(tracer, args, kwargs, result, elapsed)
            return result

        return wrapper


def wrapper_cost_s(calls: int = 20000) -> float:
    """Calibrated cost of one wrapped call over a bare one, in seconds."""
    def noop():
        return None

    wrapped = LayerTracer()._wrap("core.extract", noop)
    start = time.perf_counter()
    for _ in range(calls):
        noop()
    bare = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(calls):
        wrapped()
    return max(0.0, time.perf_counter() - start - bare) / calls


def _observe_fault_sim(tracer: LayerTracer, args, kwargs, result,
                       elapsed) -> None:
    from repro.atpg.faults import TransientFault

    vectors = args[1] if len(args) > 1 else kwargs["vectors"]
    faults = args[2] if len(args) > 2 else kwargs["faults"]
    transient = bool(faults) and isinstance(faults[0], TransientFault)
    tracer.fault_sim_calls.append((len(faults), len(vectors), elapsed,
                                   transient))


def _observe_podem(tracer: LayerTracer, args, kwargs, result,
                   elapsed) -> None:
    tracer.podem_detected += bool(result.detected)


def _observe_optimize(tracer: LayerTracer, args, kwargs, result,
                      elapsed) -> None:
    tracer.gates_out += result.gate_count()


_OBSERVERS = {
    "fault_sim": _observe_fault_sim,
    "atpg.podem": _observe_podem,
    "synth.optimize": _observe_optimize,
}


# -- registry counters -------------------------------------------------------


def prometheus_name(name: str) -> str:
    """``store.ast.hits`` -> ``store_ast_hits`` (the exposition grammar)."""
    out = _PROM_INVALID.sub("_", name)
    return "_" + out if out[:1].isdigit() else out


def registry_counters() -> Dict[str, float]:
    """The in-process registry's counters and gauges, keyed by their
    exposition names, so batch and serve workloads share one lookup."""
    from repro.obs import get_registry

    flat: Dict[str, float] = {}
    for name, snap in get_registry().snapshot().items():
        if snap.get("type") == "counter":
            flat[prometheus_name(name) + "_total"] = float(snap["value"])
        elif snap.get("type") == "gauge":
            flat[prometheus_name(name)] = float(snap["value"])
    return flat


def parse_prometheus(text: str) -> Dict[str, float]:
    """Unlabelled samples of a ``/metrics`` exposition."""
    flat: Dict[str, float] = {}
    for line in text.splitlines():
        parts = line.split()
        if len(parts) == 2 and not line.startswith("#") and "{" not in line:
            try:
                flat[parts[0]] = float(parts[1])
            except ValueError:
                continue
    return flat


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _sum_matching(counters: Dict[str, float], suffix: str) -> float:
    return sum(v for k, v in counters.items()
               if k.startswith("store_") and k.endswith(suffix))


def layer_metrics(tracer: LayerTracer, counters: Dict[str, float],
                  traced_wall_s: float) -> Dict[str, float]:
    """Every per-layer metric of one traced pass, by name."""
    def c(name: str) -> float:
        return counters.get(name, 0.0)

    def self_s(layer: str) -> float:
        return tracer.stats[layer].self_s

    shapes = tracer.fault_sim_calls
    podem_calls = tracer.stats["atpg.podem"].calls
    submit = tracer.stats["serve.submit"].samples
    tasks_run = c("extract_tasks_run_total")
    tasks_reused = c("extract_tasks_reused_total")
    simulated = c("fault_sim_faults_simulated_total")
    codegen = (c("fault_sim_arena_codegen_builds_total")
               + c("fault_sim_arena_block_cache_hits_total"))
    hits = _sum_matching(counters, "_hits_total")
    misses = _sum_matching(counters, "_misses_total")
    values = {
        "verilog.parse_s": self_s("verilog.parse"),
        "hierarchy.design_s": self_s("hierarchy.design"),
        "core.extract_s": self_s("core.extract"),
        "core.transform_s": self_s("core.transform"),
        "core.testability_s": self_s("core.testability"),
        "core.piers_s": self_s("core.piers"),
        "core.reuse_frac": _ratio(tasks_reused, tasks_run + tasks_reused),
        "synth.synthesize_s": self_s("synth.synthesize"),
        "synth.optimize_s": self_s("synth.optimize"),
        "synth.gates_out": float(tracer.gates_out),
        "lint.run_s": self_s("lint.run"),
        "atpg.generate_tests_s": self_s("atpg.generate_tests"),
        "atpg.podem_s": self_s("atpg.podem"),
        "atpg.podem_calls": float(podem_calls),
        "atpg.podem_detect_frac": _ratio(tracer.podem_detected, podem_calls),
        "atpg.backtracks": c("atpg_backtracks_total"),
        "atpg.implications": c("atpg_implications_total"),
        "fault_sim.busy_s": self_s("fault_sim"),
        "fault_sim.calls": float(len(shapes)),
        "fault_sim.faults_per_call_p50": _median([s[0] for s in shapes]),
        "fault_sim.vectors_per_call_p50": _median([s[1] for s in shapes]),
        "fault_sim.seu_s": sum(s[2] for s in shapes if s[3]),
        "fault_sim.detect_frac": _ratio(
            c("fault_sim_faults_detected_total"), simulated),
        "fault_sim.filtered_frac": _ratio(
            c("fault_sim_arena_filtered_undetectable_total"), simulated),
        "fault_sim.codegen_frac": _ratio(
            codegen, c("fault_sim_arena_passes_total")),
        "store.get_s": self_s("store.get"),
        "store.put_s": self_s("store.put"),
        "store.hit_frac": _ratio(hits, hits + misses),
        "store.bytes_written": _sum_matching(counters,
                                             "_bytes_written_total"),
        "serve.submit_ms": 1000.0 * _median(submit),
        "serve.executed": c("serve_executed_total"),
        "serve.store_served": c("serve_store_served_total"),
        # Pipeline seconds of the server's executed jobs per pass second.
        "serve.exec_frac": _ratio(c("serve_job_seconds_sum"), traced_wall_s),
        "obs.traced_wall_s": traced_wall_s,
        "obs.unattributed_frac": _ratio(
            max(0.0, traced_wall_s - tracer.root_s), traced_wall_s),
        # Calibrated cost of one wrapper times the wrapped calls: what
        # tracing adds to the pass, free of pass-to-pass host noise.
        "obs.trace_overhead_frac": _ratio(
            wrapper_cost_s() * sum(st.calls for st in tracer.stats.values()),
            traced_wall_s),
    }
    return {name: float(value) for name, value in values.items()}


def _median(values: List[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def attribution_table(metrics: Dict[str, float]) -> List[Tuple[str, float]]:
    """The ``_s`` layer self times, largest first, for the run log."""
    rows = [(name, value) for name, value in metrics.items()
            if name.endswith("_s") and not name.startswith("obs.")
            and name != "fault_sim.seu_s"]
    return sorted(rows, key=lambda row: -row[1])
