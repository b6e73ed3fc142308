"""Event streaming and trace stitching on the job server.

Covers the ``GET /v1/jobs/<id>/events`` NDJSON long-poll endpoint (replay,
live follow, cursor, framing under keep-alive), the stitched per-job
trace files, the traceparent round trip, and the serve-tier gauges.
Thread-mode servers throughout, as in test_serve_server.py.
"""

import json
import os
import socket
import threading

import pytest

import repro.serve.server as server_mod
from repro.serve import ServeClient, ServeConfig, ServeError, ServerThread

TINY = """
module leaf(input a, input b, output y);
  assign y = a & b;
endmodule
module topm(input a, input b, input c, output y);
  wire t;
  leaf u0(.a(a), .b(b), .y(t));
  assign y = t | c;
endmodule
"""

TRACEPARENT = "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"


@pytest.fixture()
def fresh_store(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "store"))
    monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
    return tmp_path


def start_server(tmp_path, **overrides):
    overrides.setdefault("trace_dir", str(tmp_path / "traces"))
    config = ServeConfig(port=0, worker_mode="thread", jobs=1,
                         drain_timeout=60.0, progress_interval=0.0,
                         **overrides)
    thread = ServerThread(config)
    client = ServeClient(thread.start(), timeout=30.0)
    return thread, client


def atpg_spec(**overrides):
    spec = {"op": "atpg", "source": TINY, "top": "topm", "mut": "leaf",
            "frames": 1}
    spec.update(overrides)
    return spec


class TestEventStream:
    def test_replay_after_completion(self, fresh_store):
        thread, client = start_server(fresh_store)
        try:
            job = client.submit(atpg_spec())["job"]
            client.wait(job["id"], timeout=60)
            events = list(client.events(job["id"]))
        finally:
            thread.stop()
        kinds = [e["event"] for e in events]
        assert kinds[0] == "submitted"
        assert "started" in kinds
        assert kinds[-1] == "done"
        progress = [e for e in events if e["event"] == "progress"]
        assert len(progress) >= 3
        phases = [e["phase"] for e in progress]
        assert phases[0] == "atpg.setup"
        assert "atpg.done" in phases
        seqs = [e["seq"] for e in events]
        assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)

    def test_live_follow_sees_events_before_completion(self, fresh_store,
                                                       monkeypatch):
        release = threading.Event()
        real = server_mod.execute_job

        def gated(spec_dict, **kwargs):
            release.wait(timeout=30)
            return real(spec_dict, **kwargs)

        monkeypatch.setattr(server_mod, "execute_job", gated)
        thread, client = start_server(fresh_store)
        collected = []
        seen_submitted = threading.Event()

        def follow(job_id):
            for event in client.events(job_id, timeout=30.0):
                if event["event"] == "keepalive":
                    continue
                collected.append(event)
                if event["event"] == "submitted":
                    seen_submitted.set()
                if event["event"] in ("done", "failed"):
                    return

        try:
            job = client.submit(atpg_spec())["job"]
            follower = threading.Thread(target=follow, args=(job["id"],))
            follower.start()
            # The stream delivers the submitted event while the worker is
            # still gated: streaming, not post-hoc replay.
            assert seen_submitted.wait(timeout=10)
            assert not any(e["event"] == "done" for e in collected)
            release.set()
            follower.join(timeout=30)
            assert not follower.is_alive()
        finally:
            release.set()
            thread.stop()
        assert collected[-1]["event"] == "done"
        assert any(e["event"] == "progress" for e in collected)

    def test_since_cursor_skips_replayed_events(self, fresh_store):
        thread, client = start_server(fresh_store)
        try:
            job = client.submit(atpg_spec())["job"]
            client.wait(job["id"], timeout=60)
            all_events = list(client.events(job["id"]))
            cursor = all_events[1]["seq"]
            tail = list(client.events(job["id"], since=cursor))
        finally:
            thread.stop()
        assert [e["seq"] for e in tail] == \
            [e["seq"] for e in all_events if e["seq"] > cursor]

    def test_unknown_job_404(self, fresh_store):
        thread, client = start_server(fresh_store)
        try:
            with pytest.raises(ServeError) as exc:
                list(client.events("job-999-nope"))
            assert exc.value.status == 404
        finally:
            thread.stop()

    def test_bad_since_400(self, fresh_store):
        thread, client = start_server(fresh_store)
        try:
            job = client.submit(atpg_spec())["job"]
            client.wait(job["id"], timeout=60)
            status, _, _ = client.request(
                "GET", f"/v1/jobs/{job['id']}/events?since=banana")
            assert status == 400
        finally:
            thread.stop()

    def test_progress_block_in_job_view(self, fresh_store):
        thread, client = start_server(fresh_store)
        try:
            job = client.submit(atpg_spec())["job"]
            done = client.wait(job["id"], timeout=60)
        finally:
            thread.stop()
        assert done["progress"]["phase"] == "atpg.done"
        assert done["trace_path"]

    def test_last_progress_arrives_with_the_result(self, fresh_store,
                                                   monkeypatch):
        """Completion and progress travel on different channels: with a
        progress queue that never delivers, the terminal job view and the
        event log still end on the worker's last phase."""
        def swallow(self):
            while self._progress_queue.get() is not None:
                pass

        monkeypatch.setattr(server_mod.JobServer, "_drain_progress_queue",
                            swallow)
        thread, client = start_server(fresh_store)
        try:
            job = client.submit(atpg_spec())["job"]
            done = client.wait(job["id"], timeout=60)
            events = list(client.events(job["id"]))
        finally:
            thread.stop()
        assert done["status"] == "done"
        assert done["progress"]["phase"] == "atpg.done"
        kinds = [e["event"] for e in events]
        assert kinds == ["submitted", "started", "progress", "done"]
        assert events[2]["phase"] == "atpg.done"


class TestNdjsonFraming:
    def _raw(self, client, request: bytes) -> bytes:
        with socket.create_connection((client.host, client.port),
                                      timeout=30) as sock:
            sock.sendall(request)
            chunks = []
            sock.settimeout(30)
            while True:
                data = sock.recv(65536)
                if not data:
                    break
                chunks.append(data)
                blob = b"".join(chunks)
                # Second response (healthz) is Content-Length framed; stop
                # once its JSON body has arrived.
                if blob.count(b"HTTP/1.1") >= 2 and blob.endswith(b"}"):
                    break
        return b"".join(chunks)

    def test_chunked_stream_keeps_connection_reusable(self, fresh_store):
        """A drained /events stream must terminate its chunked body so a
        pipelined request on the same connection still gets served."""
        thread, client = start_server(fresh_store)
        try:
            job = client.submit(atpg_spec())["job"]
            client.wait(job["id"], timeout=60)
            raw = self._raw(
                client,
                f"GET /v1/jobs/{job['id']}/events HTTP/1.1\r\n"
                f"Host: x\r\n\r\n"
                f"GET /healthz HTTP/1.1\r\nHost: x\r\n"
                f"Connection: close\r\n\r\n".encode())
        finally:
            thread.stop()
        split = raw.find(b"HTTP/1.1", len(b"HTTP/1.1"))
        assert split != -1, raw[:200]
        first, second = raw[:split], raw[split:]
        assert b"Transfer-Encoding: chunked" in first
        assert b"application/x-ndjson" in first
        # Chunked terminator present before the second response starts.
        assert b"0\r\n\r\n" in first
        assert second.startswith(b"HTTP/1.1 200")
        assert b"\"status\"" in second

    def test_chunk_sizes_match_line_lengths(self, fresh_store):
        thread, client = start_server(fresh_store)
        try:
            job = client.submit(atpg_spec())["job"]
            client.wait(job["id"], timeout=60)
            with socket.create_connection((client.host, client.port),
                                          timeout=30) as sock:
                sock.sendall(f"GET /v1/jobs/{job['id']}/events HTTP/1.1\r\n"
                             f"Host: x\r\nConnection: close\r\n\r\n"
                             .encode())
                blob = b""
                while True:
                    data = sock.recv(65536)
                    if not data:
                        break
                    blob += data
        finally:
            thread.stop()
        _, _, body = blob.partition(b"\r\n\r\n")
        # Walk the chunked framing by hand; every chunk is one NDJSON line.
        events = []
        while body:
            size_hex, _, rest = body.partition(b"\r\n")
            size = int(size_hex, 16)
            if size == 0:
                break
            chunk, rest = rest[:size], rest[size:]
            assert rest[:2] == b"\r\n"
            body = rest[2:]
            assert chunk.endswith(b"\n")
            events.append(json.loads(chunk.decode()))
        assert events and events[-1]["event"] == "done"


class TestTraceStitching:
    def test_one_stitched_file_single_trace_id(self, fresh_store):
        thread, client = start_server(fresh_store)
        trace_dir = str(fresh_store / "traces")
        try:
            response = client.submit(atpg_spec(),
                                     traceparent=TRACEPARENT)
            job = client.wait(response["job"]["id"], timeout=60)
        finally:
            thread.stop()
        files = [f for f in os.listdir(trace_dir)
                 if f.endswith(".jsonl") and f.startswith("job-")]
        assert files == [f"{job['id']}.jsonl"]
        spans = [json.loads(line) for line in
                 open(os.path.join(trace_dir, files[0]))]
        trace_ids = {s["trace_id"] for s in spans}
        assert trace_ids == {"0af7651916cd43dd8448eb211c80319c"}
        by_name = {s["name"]: s for s in spans}
        submit = by_name["serve.submit"]
        execute = by_name["serve.execute"]
        assert submit["process"] == "server"
        assert submit["parent"] == "b7ad6b7169203331"  # the client span
        assert execute["process"] == "worker"
        assert execute["parent"] == submit["id"]
        # The worker's pipeline phases all live under its root.
        ids = {s["id"] for s in spans}
        assert all(s["parent"] in ids for s in spans
                   if s["name"] not in ("serve.submit",))

    def test_no_client_context_still_one_trace(self, fresh_store):
        thread, client = start_server(fresh_store)
        trace_dir = str(fresh_store / "traces")
        try:
            job = client.submit(atpg_spec())["job"]
            job = client.wait(job["id"], timeout=60)
        finally:
            thread.stop()
        spans = [json.loads(line) for line in
                 open(os.path.join(trace_dir, f"{job['id']}.jsonl"))]
        assert len({s["trace_id"] for s in spans}) == 1
        submit = next(s for s in spans if s["name"] == "serve.submit")
        assert submit["parent"] is None

    def test_submit_response_carries_traceparent(self, fresh_store):
        thread, client = start_server(fresh_store)
        try:
            status, headers, body = client.request(
                "POST", "/v1/jobs", atpg_spec(),
                headers={"traceparent": TRACEPARENT})
            assert status in (200, 202)
            echoed = headers.get("traceparent", "")
            assert echoed.split("-")[1] == \
                "0af7651916cd43dd8448eb211c80319c"
            assert body["job"]["trace_id"] == \
                "0af7651916cd43dd8448eb211c80319c"
            client.wait(body["job"]["id"], timeout=60)
        finally:
            thread.stop()

    def test_malformed_traceparent_ignored(self, fresh_store):
        thread, client = start_server(fresh_store)
        try:
            status, _, body = client.request(
                "POST", "/v1/jobs", atpg_spec(),
                headers={"traceparent": "ff-garbage"})
            assert status in (200, 202)
            job = client.wait(body["job"]["id"], timeout=60)
            assert job["status"] == "done"
        finally:
            thread.stop()


class TestArm2EndToEnd:
    def test_served_arm2_atpg_streams_progress_and_stitches_trace(
            self, fresh_store):
        """The ISSUE's acceptance scenario on the paper's arm2 design:
        one served ATPG job yields exactly one stitched trace file whose
        worker spans parent under the submit span (single trace ID), and
        /events streams >=3 monotonic progress events before the
        terminal event."""
        thread, client = start_server(fresh_store)
        trace_dir = str(fresh_store / "traces")
        try:
            spec = {"op": "atpg", "design": "arm2", "top": "arm",
                    "mut": "arm_alu", "frames": 1, "backtrack_limit": 10,
                    "seed": 2002}
            job = client.submit(spec, traceparent=TRACEPARENT)["job"]
            events = []
            for event in client.events(job["id"], timeout=120.0):
                if event["event"] == "keepalive":
                    continue
                events.append(event)
                if event["event"] in ("done", "failed"):
                    break
        finally:
            thread.stop()
        assert events[-1]["event"] == "done"
        progress = [e for e in events[:-1] if e["event"] == "progress"]
        assert len(progress) >= 3
        seqs = [e["seq"] for e in events]
        assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)
        files = [f for f in os.listdir(trace_dir)
                 if f.startswith("job-") and f.endswith(".jsonl")]
        assert files == [f"{job['id']}.jsonl"]
        spans = [json.loads(line) for line in
                 open(os.path.join(trace_dir, files[0]))]
        assert len({s["trace_id"] for s in spans}) == 1
        by_name = {s["name"]: s for s in spans}
        assert by_name["serve.execute"]["parent"] == \
            by_name["serve.submit"]["id"]
        worker_spans = [s for s in spans if s["process"] == "worker"]
        assert len(worker_spans) >= 3  # execute + pipeline phases


#: Wide equality comparator: random vectors rarely hit a == b, so a few
#: faults always survive to the deterministic PODEM phase and the event
#: stream carries coverage values from both phases.
EQCMP = """
module eqcmp(input [7:0] a, input [7:0] b, output y);
  assign y = (a == b);
endmodule
module eqtop(input [7:0] a, input [7:0] b, output y);
  eqcmp u0(.a(a), .b(b), .y(y));
endmodule
"""


class TestParallelJobStreaming:
    def _force_parallel(self, monkeypatch):
        monkeypatch.setenv("REPRO_PARALLEL_MIN_FAULTS", "1")
        monkeypatch.setenv("REPRO_PARALLEL_MIN_GATES", "1")
        monkeypatch.setenv("REPRO_PARALLEL_MIN_CORES", "1")

    def test_parallel_job_streams_increasing_coverage(self, fresh_store,
                                                      monkeypatch):
        """A --jobs submission must stream live coverage like a serial
        one: at least three progress events carrying a monotonically
        non-decreasing ``coverage`` percentage."""
        self._force_parallel(monkeypatch)
        thread, client = start_server(fresh_store)
        try:
            job = client.submit({"op": "atpg", "source": EQCMP,
                                 "top": "eqtop", "mut": "eqcmp", "frames": 1,
                                 "jobs": 2})["job"]
            done = client.wait(job["id"], timeout=120)
            events = list(client.events(job["id"]))
        finally:
            thread.stop()
        assert done["status"] == "done"
        coverage = [e["coverage"] for e in events
                    if e.get("event") == "progress" and "coverage" in e]
        assert len(coverage) >= 3
        assert coverage == sorted(coverage)
        assert coverage[-1] == round(done["result"]["coverage_percent"], 2)

    def test_jobs_field_excluded_from_fingerprint(self, fresh_store,
                                                  monkeypatch):
        """Parallel results are bit-identical to serial, so a jobs=2
        submission warm-starts a later serial submission from the store
        (and vice versa)."""
        self._force_parallel(monkeypatch)
        thread, client = start_server(fresh_store)
        try:
            spec = {"op": "atpg", "source": EQCMP, "top": "eqtop",
                    "mut": "eqcmp", "frames": 1}
            first = client.submit(dict(spec, jobs=2))["job"]
            a = client.wait(first["id"], timeout=120)
            second = client.submit(spec)["job"]
            b = client.wait(second["id"], timeout=120)
        finally:
            thread.stop()
        assert a["fingerprint"] == b["fingerprint"]
        assert b["served_from"] == "store"
        assert b["result"] == a["result"]


class TestGauges:
    def test_serve_gauges_exported(self, fresh_store):
        thread, client = start_server(fresh_store)
        try:
            job = client.submit(atpg_spec())["job"]
            client.wait(job["id"], timeout=60)
            text = client.metrics_text()
        finally:
            thread.stop()
        for name in ("serve_queue_depth", "serve_workers_busy",
                     "serve_heartbeat_age_seconds"):
            assert any(line.split()[0] == name
                       for line in text.splitlines()
                       if line and not line.startswith("#")), name
        assert client is not None
        # The fault simulator's work counter reaches /metrics too.
        evals = [line.split()[1] for line in text.splitlines()
                 if line.startswith("fault_sim_arena_gate_evals_total ")]
        assert evals and float(evals[0]) > 0
