"""Tests for the ``repro bench`` microbenchmark harness."""

import json
import platform

from repro.bench.experiments import resolve_jobs
from repro.cli import main
from repro.obs.metrics import MetricsRegistry


def test_resolve_jobs(monkeypatch):
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    assert resolve_jobs(3) == 3
    assert resolve_jobs() >= 1
    monkeypatch.setenv("REPRO_JOBS", "5")
    assert resolve_jobs() == 5
    assert resolve_jobs(2) == 2  # explicit argument wins over the env


def test_resolve_jobs_nonpositive_means_all_cores(monkeypatch):
    import repro.jobs

    monkeypatch.delenv("REPRO_JOBS", raising=False)
    monkeypatch.setattr(repro.jobs.os, "cpu_count", lambda: 6)
    assert resolve_jobs(0) == 6
    assert resolve_jobs(-1) == 6
    monkeypatch.setenv("REPRO_JOBS", "0")
    assert resolve_jobs() == 6
    monkeypatch.setattr(repro.jobs.os, "cpu_count", lambda: None)
    assert resolve_jobs(0) == 1  # cpu_count unknown -> floor of one


def test_merge_snapshot_folds_worker_delta():
    worker = MetricsRegistry()
    worker.counter("jobs").inc(4)
    worker.gauge("depth").set(7)
    worker.histogram("secs").observe(0.5)
    worker.histogram("secs").observe(3.0)

    parent = MetricsRegistry()
    parent.counter("jobs").inc(1)
    parent.histogram("secs").observe(8.0)
    parent.merge_snapshot(worker.snapshot())

    snap = parent.snapshot()
    assert snap["jobs"]["value"] == 5
    assert snap["depth"]["value"] == 7
    assert snap["secs"]["count"] == 3
    assert snap["secs"]["sum"] == 11.5
    assert snap["secs"]["min"] == 0.5
    assert snap["secs"]["max"] == 8.0
    assert sum(snap["secs"]["buckets"].values()) == 3


def test_merge_snapshot_rejects_unknown_type():
    registry = MetricsRegistry()
    try:
        registry.merge_snapshot({"weird": {"type": "sparkline", "value": 1}})
    except ValueError as err:
        assert "sparkline" in str(err)
    else:  # pragma: no cover - the merge must raise
        raise AssertionError("unknown metric type was accepted")


def test_cli_bench_quick_writes_payloads(tmp_path, capsys):
    out = tmp_path / "results"
    code = main(["bench", "--quick", "--jobs", "1", "--seed", "9",
                 "--out", str(out)])
    assert code == 0
    captured = capsys.readouterr().out
    assert "Fault simulation" in captured
    assert "ATPG backend equivalence" in captured
    for key in ("fault_sim", "atpg"):
        payload = json.loads((out / f"BENCH_{key}.json").read_text())
        assert payload["scale"] == "quick"
        assert payload["seed"] == 9
        assert payload["jobs"] == 1
        host = payload["host"]
        assert host["cores"] >= 1
        assert host["python"] == platform.python_version()
        assert host["platform"]
        assert payload["rows"], key
        assert all(row["match"] for row in payload["rows"])
        assert payload["record"]["label"] == f"bench.{key}"
        assert "metrics" in payload["record"]


def test_bench_records_do_not_leak_across_suites(tmp_path):
    out = tmp_path / "results"
    code = main(["bench", "--quick", "--jobs", "1", "--seed", "9",
                 "--suite", "atpg", "--suite", "fault_sim",
                 "--out", str(out)])
    assert code == 0
    first = json.loads((out / "BENCH_atpg.json").read_text())
    second = json.loads((out / "BENCH_fault_sim.json").read_text())
    atpg_only = {name for name in first["record"]["metrics"]
                 if name.startswith("atpg.")}
    assert atpg_only
    assert not atpg_only & set(second["record"]["metrics"])
