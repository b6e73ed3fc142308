"""Self-tests of the end-to-end benchmark.

    python3 -m pytest -q e2ebench

They run a smoke-sized pass of every workload through ``run.py``, check
that a wrong expected value is caught, that metric and workload names
match ``BENCHMARK.json`` and that the traced run's wrappers restore the
original functions.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _run(workload: str, trace: int, cwd: str = ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "e2ebench", "run.py"),
         "--workload", workload, "--seed", "2002", "--seconds", "0",
         "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_pass_is_correct_and_reports_every_metric(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    bench = _benchmark_json()
    declared = bench["per_layer"] if trace else bench["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}


def test_names_match_benchmark_json():
    bench = _benchmark_json()
    assert [w["name"] for w in bench["workloads"]] == \
        list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == \
        run.END_TO_END
    assert [(m["name"], m["unit"], m["better"])
            for m in bench["per_layer"]] == \
        [(name, unit, better)
         for name, (unit, better) in layers.PER_LAYER_METRICS.items()]


@pytest.mark.parametrize("workload,victim,field",
                         [("front_end", "filterchip:compose:limiter",
                           "surrounding_gates"),
                          ("atpg_stuck", "filterchip:limiter@2002",
                           "detected")])
def test_perturbed_expected_value_fails_the_pass(workload, victim, field):
    bench = workloads.make_workload(workload, smoke=True)
    expected = workloads.load_expected()[workload][
        bench.expected_key(workloads.DEFAULT_SEED)]
    good = run.run_checked(bench, workloads.DEFAULT_SEED, 0, expected)
    assert all(op.ok for op in good.ops)
    perturbed = copy.deepcopy(expected)
    perturbed[victim][field] += 1
    bad = run.run_checked(bench, workloads.DEFAULT_SEED, 0, perturbed)
    failed = [op.name for op in bad.ops if not op.ok]
    assert failed == [victim]


def test_serve_repeat_that_differs_from_its_first_execution_fails():
    bench = workloads.make_workload("serve_replay", smoke=True)
    result = run.run_checked(bench, workloads.DEFAULT_SEED, 0, None)
    assert all(op.ok for op in result.ops)
    victim = max(i for i, (name, _key, _entry, _digest)
                 in enumerate(result.observed["results"])
                 if not name.startswith("warmup:"))
    name, key, entry, digest = result.observed["results"][victim]
    result.observed["results"][victim] = (name, key, entry,
                                          "0" * len(digest))
    problems = bench.check(result, workloads.DEFAULT_SEED, None)
    assert list(problems) == [name]


def test_seed_without_expected_values_checks_invariants_and_oracle():
    seed = 7
    front = workloads.make_workload("front_end", smoke=True)
    assert all(op.ok for op in run.run_checked(front, seed, 0, None).ops)
    bench = workloads.make_workload("seu_grade", smoke=True)
    assert bench.expected_key(seed) not in \
        workloads.load_expected()["seu_grade"]
    result = run.run_checked(bench, seed, 0, None)
    assert all(op.ok for op in result.ops)
    oracle = bench.oracle(seed, result.observed)
    assert oracle.ok, oracle.error
    wrong = copy.deepcopy(result.observed)
    wrong[f"filterchip:limiter@{seed}"]["seu_detected"] += 1
    assert not bench.oracle(seed, wrong).ok


def test_arm_alu_expectation_is_the_committed_baseline():
    path = os.path.join(ROOT, "benchmarks", "results",
                        "BASELINE_arm2_atpg.json")
    with open(path, encoding="utf-8") as fh:
        baseline = json.load(fh)
    got = workloads.load_expected()["atpg_stuck"][str(workloads.ATPG_SEED)][
        f"arm2:arm_alu@{workloads.ATPG_SEED}"]
    assert baseline["spec"]["frames"] == workloads.ATPG_FRAMES
    assert baseline["spec"]["backtrack_limit"] == \
        workloads.ATPG_BACKTRACK_LIMIT
    assert baseline["spec"]["seed"] == workloads.ATPG_SEED
    for key, field in (("detected", "detected"), ("untestable", "untestable"),
                       ("aborted", "aborted"), ("faults", "faults"),
                       ("vectors", "vectors"), ("tests", "tests")):
        assert got[field] == baseline[key], key


def _bindings():
    """Every attribute the tracer patches, as (owner, name) -> object."""
    import importlib

    found = {}
    for _layer, mod_name, attr in layers.FUNCTION_TARGETS:
        original = getattr(importlib.import_module(mod_name), attr)
        for module in list(sys.modules.values()):
            if getattr(module, "__dict__", {}).get(attr) is original:
                found[(module.__name__, attr)] = original
    for _layer, mod_name, cls_name, attr in layers.METHOD_TARGETS:
        cls = getattr(importlib.import_module(mod_name), cls_name)
        found[(f"{mod_name}.{cls_name}", attr)] = cls.__dict__[attr]
    return found


def test_tracer_wrappers_restore_the_originals():
    workloads.import_pipeline()
    before = _bindings()
    tracer = layers.LayerTracer()
    with pytest.raises(RuntimeError):
        with tracer:
            from repro.core.composer import ConstraintComposer
            from repro.synth import opt

            assert ConstraintComposer.__dict__["extract"] is not \
                before[("repro.core.composer.ConstraintComposer", "extract")]
            assert opt.optimize is not before[("repro.synth.opt",
                                               "optimize")]
            raise RuntimeError("leave the traced block by an exception")
    assert _bindings() == before
    for (owner, attr), original in before.items():
        if "." in owner and owner.rsplit(".", 1)[1][:1].isupper():
            mod_name, cls_name = owner.rsplit(".", 1)
            cls = getattr(sys.modules[mod_name], cls_name)
            assert cls.__dict__[attr] is original
        else:
            assert sys.modules[owner].__dict__[attr] is original


def test_tracer_splits_nested_time_into_self_time():
    import time

    tracer = layers.LayerTracer()
    inner = tracer._wrap("core.extract", lambda: time.sleep(0.01))

    def outer_body():
        time.sleep(0.01)
        inner()

    tracer._wrap("core.transform", outer_body)()
    outer, nested = tracer.stats["core.transform"], tracer.stats["core.extract"]
    assert (outer.calls, nested.calls) == (1, 1)
    assert nested.self_s == pytest.approx(nested.samples[0])
    assert outer.self_s == pytest.approx(outer.samples[0] - nested.samples[0])
    assert tracer.root_s == pytest.approx(outer.samples[0])


def test_checkout_without_sources_exits_nonzero(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "e2ebench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("front_end", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
