"""The four benchmark workloads, driven through the public ``repro`` API.

Each workload turns a seed into its inputs and runs *passes*.  A pass
starts from an empty private artifact store and freshly built designs, so
nothing carries over from an earlier pass.  It returns the time of every
operation it ran and the outputs the correctness checks compare:

- ``atpg_stuck``  -- the Table 6 flow (compose, PIERs, stuck-at) over the
  seven bundled MUTs with the ``BASELINE_arm2_atpg.json`` limits;
- ``seu_grade``   -- the same MUTs with ``fault_model="transient"``: the
  random phase plus SEU grading of a seeded ``SEU_SAMPLE``-upset sample,
  no PODEM;
- ``front_end``   -- parse, ``Design``, extraction + transformed module in
  both modes, testability, PIERs, whole-design synthesis and lint;
- ``serve_replay`` -- a ``repro serve`` subprocess driven closed-loop by
  one client with a seeded mix of repeated and first-time specs.

An *operation* is one unit of user-visible work: loading a design or one
MUT's flow for the batch workloads, one request for ``serve_replay``.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".e2ebench_work")
EXPECTED_PATH = os.path.join(HERE, "expected.json")

DEFAULT_SEED = 2002

#: The ``BASELINE_arm2_atpg.json`` limits (frames 1, backtrack limit 10,
#: seed 2002), applied to every MUT.  ATPG always runs serially.
ATPG_FRAMES = 1
ATPG_BACKTRACK_LIMIT = 10
ATPG_SEED = 2002
#: SEU sample size: large enough that transient grading outweighs the
#: random phase in ``seu_grade``.
SEU_SAMPLE = 16384
#: The MUT whose outcome is re-derived with the interpreted fault-sim
#: oracle when a seed has no committed expected values.
ORACLE_MUT = "limiter"

#: serve_replay traffic: timed requests per pass and first-time specs
#: among them, sent one after another by one closed-loop client after an
#: untimed warm-up with the whole catalog (23 specs).
SERVE_REQUESTS = 4000
SERVE_COLD = 4
SERVE_WORKERS = 1

clock = time.perf_counter


@dataclass
class Op:
    """One operation: its latency (``None`` for untimed checks) and
    whether it succeeded and passed its correctness check."""

    name: str
    seconds: Optional[float]
    ok: bool = True
    error: str = ""


@dataclass
class PassResult:
    wall_s: float
    ops: List[Op]
    observed: Dict[str, Dict[str, object]] = field(default_factory=dict)
    setup_s: List[float] = field(default_factory=list)
    counters: Dict[str, float] = field(default_factory=dict)
    #: serve_replay: a request is the unit of latency.  A batch workload
    #: is one request, answered when the pass ends.
    per_op_latency: bool = False

    #: Lines for the run log (e.g. the server's exit code).
    notes: List[str] = field(default_factory=list)

    def latencies(self) -> List[float]:
        if self.per_op_latency:
            return [op.seconds for op in self.ops if op.seconds is not None]
        return [self.wall_s]


# -- shared helpers ----------------------------------------------------------


def fresh_dir(tag: str) -> str:
    """A new private (mode 0700) directory under the checkout."""
    os.makedirs(WORK_ROOT, exist_ok=True)
    path = os.path.join(WORK_ROOT, f"{os.getpid()}-{tag}-{time.time_ns()}")
    os.mkdir(path, 0o700)
    os.chmod(path, 0o700)  # mkdir's mode is filtered by the umask
    return path


class private_store:
    """Point the artifact store at a fresh 0700 directory for one pass."""

    def __init__(self, tag: str):
        self.tag = tag
        self.path = ""
        self._previous: Optional[str] = None

    def __enter__(self) -> str:
        self.path = fresh_dir(self.tag)
        self._previous = os.environ.get("REPRO_CACHE_DIR")
        os.environ["REPRO_CACHE_DIR"] = self.path
        return self.path

    def __exit__(self, *exc) -> None:
        if self._previous is None:
            os.environ.pop("REPRO_CACHE_DIR", None)
        else:
            os.environ["REPRO_CACHE_DIR"] = self._previous
        shutil.rmtree(self.path, ignore_errors=True)


def timed(ops: List[Op], name: str, fn: Callable[[], object]):
    """Run one operation, recording its latency; exceptions count as a
    failed operation and return ``None``."""
    start = clock()
    try:
        value = fn()
    except Exception as exc:  # a failed operation, not a benchmark crash
        ops.append(Op(name, clock() - start, False,
                      f"{type(exc).__name__}: {exc}"))
        return None
    ops.append(Op(name, clock() - start))
    return value


def designs(names: Optional[List[str]] = None,
            shuffle_seed: Optional[str] = None):
    """The bundled designs and their MUTs, in the paper's order or, given
    ``shuffle_seed``, in a seeded order."""
    from repro.designs import (ARM2_MUTS, FILTERCHIP_MUTS, arm2_source,
                               filterchip_source)

    table = [("arm2", "arm", arm2_source(), list(ARM2_MUTS)),
             ("filterchip", "filterchip", filterchip_source(),
              list(FILTERCHIP_MUTS))]
    if shuffle_seed is not None:
        rng = random.Random(shuffle_seed)
        rng.shuffle(table)
        for _design, _top, _text, muts in table:
            rng.shuffle(muts)
    out = []
    for design, top, text, muts in table:
        kept = [m for m in muts if names is None or m.name in names]
        if kept:
            out.append((design, top, text, kept))
    return out


def load_expected() -> Dict[str, Dict[str, Dict[str, Dict[str, object]]]]:
    with open(EXPECTED_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def import_pipeline() -> None:
    """Import every module a pass touches, so lazy imports land in set-up
    rather than in the first timed pass."""
    import repro  # noqa: F401
    import repro.atpg.arena  # noqa: F401
    import repro.atpg.engine  # noqa: F401
    import repro.designs  # noqa: F401
    import repro.lint  # noqa: F401
    import repro.serve.client  # noqa: F401
    import repro.synth  # noqa: F401


#: What one set-up sample runs in a fresh interpreter: imports and loading
#: the source text of both bundled designs.
SETUP_SNIPPET = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "sys.path.insert(0, sys.argv[2]); "
    "import workloads; workloads.import_pipeline(); "
    "from repro.designs import arm2_source, filterchip_source; "
    "assert arm2_source() and filterchip_source()"
)


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


def time_setup_subprocess() -> float:
    """One set-up sample: a fresh interpreter importing the pipeline and
    loading the design sources."""
    start = clock()
    subprocess.run([sys.executable, "-c", SETUP_SNIPPET, SRC, HERE],
                   env=child_env(), check=True, cwd=ROOT)
    return clock() - start


# -- ATPG workloads ------------------------------------------------------------


def atpg_outcome(report) -> Dict[str, object]:
    return {
        "faults": report.total_faults,
        "detected": report.detected,
        "untestable": report.untestable,
        "aborted": report.aborted,
        "unattempted": report.unattempted,
        "tests": report.num_tests,
        "vectors": report.num_vectors,
        "seu_total": report.transient_total,
        "seu_detected": report.transient_detected,
        "abort_reasons": dict(sorted(report.abort_reasons.items())),
    }


def atpg_options(fault_model: str, seed: int, backend: Optional[str] = None):
    from repro.atpg.engine import AtpgOptions

    return AtpgOptions(max_frames=ATPG_FRAMES,
                       backtrack_limit=ATPG_BACKTRACK_LIMIT, seed=seed,
                       fault_model=fault_model, transient_sample=SEU_SAMPLE,
                       fault_sim_backend=backend, jobs=1)


class AtpgWorkload:
    """``atpg_stuck`` / ``seu_grade``: per-MUT analyze + generate_tests."""

    def __init__(self, name: str, fault_model: str,
                 muts: Optional[List[str]] = None):
        self.name = name
        self.fault_model = fault_model
        self.muts = muts

    def atpg_seed(self, seed: int) -> int:
        """``atpg_stuck`` keeps the baseline's ATPG seed, so the benchmark
        seed changes none of its inputs; ``seu_grade`` draws its random
        phase and SEU sample from the benchmark seed.  Both run the MUTs
        in the paper's order: on arm2 the order alone moved a pass's time
        by 10-20% and its peak RSS by 7%."""
        return ATPG_SEED if self.fault_model == "stuck" else seed

    def setup_sample(self) -> float:
        return time_setup_subprocess()

    def run_pass(self, seed: int, index: int) -> PassResult:
        from repro import Factor

        ops: List[Op] = []
        observed: Dict[str, Dict[str, object]] = {}
        atpg_seed = self.atpg_seed(seed)
        with private_store(f"{self.name}-{index}"):
            start = clock()
            for design, top, text, muts in designs(self.muts):
                factor = timed(ops, f"{design}:load",
                               lambda: Factor.from_verilog(text, top=top))
                if factor is None:
                    continue
                for mut in muts:
                    result = timed(ops, f"{design}:{mut.name}:analyze",
                                   lambda: factor.analyze(
                                       mut.name, path=mut.path,
                                       use_piers=True))
                    if result is None:
                        continue
                    name = f"{design}:{mut.name}@{atpg_seed}"
                    report = timed(ops, name, lambda: factor.generate_tests(
                        result, atpg_options(self.fault_model, atpg_seed)))
                    if report is not None:
                        observed[name] = atpg_outcome(report)
            wall = clock() - start
        return PassResult(wall, ops, observed)

    def expected_key(self, seed: int) -> str:
        return str(self.atpg_seed(seed))

    def check(self, result: PassResult, seed: int,
              expected: Optional[Dict[str, Dict[str, object]]]
              ) -> Dict[str, str]:
        problems: Dict[str, str] = {}
        for name, out in result.observed.items():
            problem = self._invariant_problem(out)
            if problem is None and expected is not None:
                problem = _diff(out, expected.get(name))
            if problem is not None:
                problems[name] = problem
        return problems

    def _invariant_problem(self, out: Dict[str, object]) -> Optional[str]:
        reasons = out["abort_reasons"]
        timed_out = {r: n for r, n in reasons.items() if "time" in r}
        if timed_out:
            return f"time-limit aborts make coverage host-dependent: " \
                   f"{timed_out}"
        total, det = out["faults"], out["detected"]
        unt, abo, una = out["untestable"], out["aborted"], out["unattempted"]
        if self.fault_model == "stuck":
            # ``aborted`` already includes the unattempted faults.
            if det + unt + abo != total or una > abo:
                return f"classification does not add up: {out}"
        elif unt or abo or una or det > total:
            return f"transient mode ran PODEM or over-counted: {out}"
        if not 0 <= out["seu_detected"] <= out["seu_total"]:
            return f"SEU counts out of range: {out}"
        return None

    def oracle(self, seed: int, observed: Dict[str, Dict[str, object]]
               ) -> Op:
        """Re-derive one MUT's outcome with the interpreted oracle
        backend; it must agree with the default backend's pass."""
        from repro import Factor

        atpg_seed = self.atpg_seed(seed)
        [(design, top, text, [mut])] = designs([ORACLE_MUT])
        key = f"{design}:{mut.name}@{atpg_seed}"
        name = f"oracle:{key}"
        with private_store(f"{self.name}-oracle"):
            try:
                factor = Factor.from_verilog(text, top=top)
                result = factor.analyze(mut.name, path=mut.path,
                                        use_piers=True)
                report = factor.generate_tests(result, atpg_options(
                    self.fault_model, atpg_seed, "interpreted"))
            except Exception as exc:
                return Op(name, None, False, f"{type(exc).__name__}: {exc}")
        problem = _diff(observed.get(key), atpg_outcome(report))
        return Op(name, None, problem is None, problem or "")


# -- front end ----------------------------------------------------------------


#: Observed fields that depend on the order MUTs are extracted in
#: (compose mode reuses the tasks of earlier MUTs).
ORDER_DEPENDENT = ("tasks_run", "tasks_reused")


class FrontEndWorkload:
    """``front_end``: every front-end and FACTOR-core stage, no ATPG."""

    name = "front_end"

    def __init__(self, design_names: Optional[List[str]] = None):
        self.design_names = design_names

    def setup_sample(self) -> float:
        return time_setup_subprocess()

    def run_pass(self, seed: int, index: int) -> PassResult:
        ops: List[Op] = []
        observed: Dict[str, Dict[str, object]] = {}
        with private_store(f"front_end-{index}"):
            start = clock()
            for design, top, text, muts in designs(
                    shuffle_seed=f"{self.name}:{seed}"):
                if self.design_names and design not in self.design_names:
                    continue
                self._design_pass(ops, observed, design, top, text, muts)
            wall = clock() - start
        return PassResult(wall, ops, observed)

    @staticmethod
    def _design_pass(ops, observed, design, top, text, muts) -> None:
        from repro import ExtractionMode, Factor
        from repro.core.piers import find_piers
        from repro.core.testability import analyze_testability
        from repro.lint import run_lint
        from repro.synth import synthesize

        compose = timed(ops, f"{design}:load",
                        lambda: Factor.from_verilog(text, top=top))
        if compose is None:
            return
        conventional = Factor(compose.design,
                              mode=ExtractionMode.CONVENTIONAL)
        extractions = {}
        for factor in (compose, conventional):
            mode = factor.mode.value
            for mut in muts:
                spec = factor.mut_spec(mut.name, mut.path)

                def stage(factor=factor, spec=spec):
                    extraction = factor.composer.extract(spec)
                    return extraction, factor.composer.transform(spec)

                done = timed(ops, f"{design}:{mode}:{mut.name}", stage)
                if done is None:
                    continue
                extraction, tr = done
                if mode == "compose":
                    extractions[mut.name] = extraction
                observed[f"{design}:{mode}:{mut.name}"] = {
                    "surrounding_gates": tr.surrounding_gates,
                    "total_gates": tr.total_gates,
                    "num_pis": tr.num_pis,
                    "num_pos": tr.num_pos,
                    "tasks_run": extraction.tasks_run,
                    "tasks_reused": extraction.tasks_reused,
                }
        for mut in muts:
            if mut.name not in extractions:
                continue
            report = timed(ops, f"{design}:testability:{mut.name}",
                           lambda: analyze_testability(
                               compose.design, extractions[mut.name]))
            if report is not None:
                observed[f"{design}:testability:{mut.name}"] = {
                    "hard_coded_inputs": report.num_hard_coded,
                    "total_input_ports": report.total_input_ports,
                    "warnings": len(report.warnings),
                }
        piers = timed(ops, f"{design}:piers",
                      lambda: find_piers(compose.design))
        if piers is not None:
            observed[f"{design}:piers"] = {
                "registers": len(piers),
                "piers": sum(1 for p in piers if p.is_pier),
            }
        netlist = timed(ops, f"{design}:synth",
                        lambda: synthesize(compose.design))
        if netlist is not None:
            observed[f"{design}:synth"] = {
                "gates": netlist.gate_count(),
                "num_pis": len(netlist.pis),
                "num_pos": len(netlist.pos),
            }
        lint = timed(ops, f"{design}:lint",
                     lambda: run_lint(compose.design))
        if lint is not None:
            observed[f"{design}:lint"] = {
                "errors": len(lint.errors),
                "warnings": len(lint.warnings),
            }

    def expected_key(self, seed: int) -> str:
        return str(seed)

    def check(self, result: PassResult, seed: int,
              expected: Optional[Dict[str, Dict[str, object]]]
              ) -> Dict[str, str]:
        problems: Dict[str, str] = {}
        if expected is not None:
            for name, out in result.observed.items():
                problem = _diff(out, expected.get(name))
                if problem is not None:
                    problems[name] = problem
            return problems
        # Another seed extracts the MUTs in another order.  Compose mode
        # then splits the work between tasks run and reused differently
        # per MUT, but each task still runs once per design; everything
        # else must stay the same.
        reference = load_expected()[self.name][str(DEFAULT_SEED)]
        for name, out in result.observed.items():
            want = reference.get(name)
            if ":compose:" in name and want is not None:
                out = _without(out, ORDER_DEPENDENT)
                want = _without(want, ORDER_DEPENDENT)
            problem = _diff(out, want)
            if problem is not None:
                problems[name] = problem
        for design in {name.split(":")[0] for name in result.observed}:
            got, want = (_compose_tasks_run(table, design)
                         for table in (result.observed, reference))
            if got != want:
                problems[f"check:{design}:tasks_run"] = (
                    f"compose tasks run {got} != {want}")
        return problems


def _without(out: Dict[str, object], keys) -> Dict[str, object]:
    return {k: v for k, v in out.items() if k not in keys}


def _compose_tasks_run(table: Dict[str, Dict[str, object]],
                       design: str) -> int:
    return sum(out["tasks_run"] for name, out in table.items()
               if name.startswith(f"{design}:compose:"))


def _diff(got: Optional[Dict[str, object]],
          want: Optional[Dict[str, object]]) -> Optional[str]:
    if want is None:
        return "no expected value"
    if got is None:
        return "no output"
    wrong = {k: (got.get(k), v) for k, v in want.items() if got.get(k) != v}
    return f"got/expected {wrong}" if wrong else None


# -- serve replay ----------------------------------------------------------------


class ServerProcess:
    """A ``repro serve`` subprocess on an ephemeral port, private store.

    ``repro.bench.serve`` has a private equivalent; this one creates the
    store directory 0700 and sends the server's output to a file, so a
    long run cannot block the server on a full pipe.
    """

    def __init__(self, work: str):
        self.work = work
        env = child_env()
        env["REPRO_CACHE_DIR"] = os.path.join(work, "store")
        os.mkdir(env["REPRO_CACHE_DIR"], 0o700)
        self.log_path = os.path.join(work, "server.log")
        self._log = open(self.log_path, "w", encoding="utf-8")
        start = clock()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--jobs", str(SERVE_WORKERS),
             "--journal", os.path.join(work, "journal.jsonl")],
            env=env, cwd=ROOT, stdout=self._log, stderr=subprocess.STDOUT)
        try:
            self.base_url = self._wait_for_address()
            from repro.serve.client import ServeClient

            ServeClient(self.base_url, timeout=60.0).wait_until_up()
        except BaseException:
            self.stop()
            raise
        self.start_s = clock() - start

    def _wait_for_address(self, timeout: float = 60.0) -> str:
        deadline = clock() + timeout
        while clock() < deadline:
            if self.proc.poll() is not None:
                break
            with open(self.log_path, encoding="utf-8") as handle:
                for line in handle:
                    if line.startswith("serving on "):
                        return line.split()[-1].strip()
            time.sleep(0.01)
        raise RuntimeError(f"server did not start: {self._tail()}")

    def _tail(self) -> str:
        with open(self.log_path, encoding="utf-8") as handle:
            return handle.read()[-2000:]

    def stop(self) -> int:
        """SIGTERM, then wait; returns the exit code."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self._log.close()
        return self.proc.returncode


def serve_catalog() -> List[Tuple[str, str, str, str, str, str]]:
    """Every spec the traffic draws from: (op, design, top, mode, mut,
    path)."""
    from repro.designs import ARM2_MUTS, FILTERCHIP_MUTS

    out = []
    for design, top, muts in (("arm2", "arm", ARM2_MUTS),
                              ("filterchip", "filterchip", FILTERCHIP_MUTS)):
        for mut in muts:
            for mode in ("compose", "conventional"):
                out.append(("analyze", design, top, mode, mut.name,
                            mut.path))
            out.append(("testability", design, top, "compose", mut.name,
                        mut.path))
        out.append(("lint", design, top, "compose", "", ""))
    return out


def serve_spec(entry, source: Optional[str] = None) -> Dict[str, object]:
    op, design, top, mode, mut, path = entry
    spec: Dict[str, object] = {"op": op, "top": top}
    if source is None:
        spec["design"] = design
    else:
        spec["source"] = source
    if op != "lint":
        spec["mut"] = mut
        spec["path"] = path
        spec["mode"] = mode
    return spec


def serve_script(seed: int, index: int, requests: int = SERVE_REQUESTS,
                 cold: int = SERVE_COLD):
    """The pass's warm-up and timed request sequences, each a list of
    ``(key, catalog entry, spec)``.

    The warm-up submits every catalog spec once, in a seeded order, so
    that the timed requests find them in the store.  The timed sequence
    repeats catalog specs drawn uniformly; at ``cold`` seeded positions it
    sends a first-time spec instead, an upload of a revision of a bundled
    design (the source plus a unique comment), which parses and extracts
    from scratch in a worker and writes new store entries.  First-time
    specs take turns over the (design, op) groups with a seeded MUT and
    mode.  Every seed thus makes the server execute the whole catalog and
    the same kinds of first-time job, so the mix of work does not move
    from seed to seed; a seeded six-spec hot set moved the run's peak RSS
    by up to 10% between seeds.
    """
    from repro.designs import arm2_source, filterchip_source

    sources = {"arm2": arm2_source(), "filterchip": filterchip_source()}
    rng = random.Random(f"serve_replay:{seed}:{index}")
    catalog = serve_catalog()
    warmup = [("hot:" + ":".join(entry[:5]), entry, serve_spec(entry))
              for entry in rng.sample(catalog, len(catalog))]
    groups: Dict[Tuple[str, str], List[Tuple]] = {}
    for entry in catalog:
        if entry[0] != "lint":
            groups.setdefault((entry[1], entry[0]), []).append(entry)
    cold_groups = list(groups.values())
    cold_at = sorted(rng.sample(range(requests), cold))
    script = []
    for i in range(requests):
        if i in cold_at:
            entry = rng.choice(cold_groups[cold_at.index(i)
                                           % len(cold_groups)])
            text = (f"{sources[entry[1]]}\n"
                    f"// revision {seed}.{index}.{i}\n")
            script.append((f"cold:{i}", entry, serve_spec(entry, text)))
        else:
            script.append(warmup[rng.randrange(len(warmup))])
    return warmup, script


def _serve_request(client, spec) -> Dict[str, object]:
    """Submit and follow the job to a terminal state; returns the job."""
    job = client.submit(spec)["job"]
    if job["status"] not in ("done", "failed"):
        for event in client.events(job["id"]):
            if event.get("event") in ("done", "failed"):
                break
        job = client.job(job["id"])
    return job


class ServeWorkload:
    """``serve_replay``: a closed-loop client against a fresh server."""

    name = "serve_replay"

    def __init__(self, requests: int = SERVE_REQUESTS):
        self.requests = requests

    def setup_sample(self) -> float:
        work = fresh_dir("serve-setup")
        try:
            server = ServerProcess(work)
            server.stop()
            return server.start_s
        finally:
            shutil.rmtree(work, ignore_errors=True)

    def run_pass(self, seed: int, index: int) -> PassResult:
        """Start a server on an empty store, warm it up untimed, time the
        script, stop the server.  The pass's counters are those of the
        timed requests: the server's ``/metrics`` after them less its
        ``/metrics`` after the warm-up."""
        from layers import parse_prometheus, untraced
        from repro.serve.client import ServeClient

        warmup, script = serve_script(seed, index, self.requests)
        work = fresh_dir(f"serve-{index}")
        first: Dict[str, object] = {}
        try:
            server = ServerProcess(work)
            try:
                client = ServeClient(server.base_url)
                with untraced():
                    warm_ops, warm_results, _ = self._drive(
                        server.base_url, warmup, first, "warmup:")
                before = parse_prometheus(client.metrics_text())
                ops, results, wall = self._drive(server.base_url, script,
                                                 first)
                after = parse_prometheus(client.metrics_text())
            finally:
                exit_code = server.stop()
        finally:
            shutil.rmtree(work, ignore_errors=True)
        counters = {name: value - before.get(name, 0.0)
                    for name, value in after.items()}
        # The warm-up's operations are checked but not timed.
        ops += [Op(op.name, None, op.ok, op.error) for op in warm_ops]
        result = PassResult(wall, ops, setup_s=[server.start_s],
                            counters=counters, per_op_latency=True)
        samples = sorted(op.seconds for op in ops if op.seconds is not None)
        rank = int(0.95 * (len(samples) - 1))
        result.notes.append(
            f"serve pass {index}: {len(samples)} timed requests, p95 "
            f"{1000 * samples[rank]:.2f} ms with {len(samples) - 1 - rank} "
            f"beyond it; server exit code {exit_code} after SIGTERM")
        result.observed = {"results": warm_results + results,
                           "first": first,
                           "distinct": len({k for k, _, _ in
                                            warmup + script}),
                           "executed": after.get("serve_executed_total"),
                           "exit_code": exit_code}
        return result

    @staticmethod
    def _drive(base_url: str, script, first: Dict[str, object],
               tag: str = ""):
        """Send the script's requests one after another from one client.

        Returns the operations, every request's ``(name, key, entry,
        result digest)`` and the time taken, the sum of the request
        latencies.  ``first`` collects the first result of every key.
        Only digests of the repeats are kept, so a run's peak RSS does not
        grow with its number of passes, and they are taken outside the
        latencies."""
        from repro.serve.client import ServeClient

        client = ServeClient(base_url, timeout=120.0)
        ops: List[Op] = []
        results = []
        for i, (key, entry, spec) in enumerate(script):
            name = f"{tag}{key}#{i}"
            start = clock()
            try:
                job = _serve_request(client, spec)
            except Exception as exc:  # counted as a failed request
                ops.append(Op(name, clock() - start, False,
                              f"{type(exc).__name__}: {exc}"))
                results.append((name, key, entry, None))
                continue
            seconds = clock() - start
            ok = job.get("status") == "done"
            ops.append(Op(name, seconds, ok,
                          "" if ok else str(job.get("error"))))
            digest = None
            if ok:
                digest = _digest(job.get("result"))
                first.setdefault(key, job.get("result"))
            results.append((name, key, entry, digest))
        return ops, results, sum(op.seconds for op in ops)

    def expected_key(self, seed: int) -> str:
        return str(DEFAULT_SEED)

    def check(self, result: PassResult, seed: int,
              expected: Optional[Dict[str, Dict[str, object]]]
              ) -> Dict[str, str]:
        """Repeats equal their first execution; results match the
        front-end structure; one execution per distinct spec; the server
        drains cleanly on SIGTERM."""
        reference = load_expected()["front_end"][str(DEFAULT_SEED)]
        problems: Dict[str, str] = {}
        first = result.observed["first"]
        first_digest = {key: _digest(body) for key, body in first.items()}
        checked = set()
        for name, key, entry, digest in result.observed["results"]:
            if digest is None:
                continue
            if digest != first_digest[key]:
                problems[name] = "repeat differs from first execution"
            elif key not in checked:
                checked.add(key)
                problem = _serve_structure_problem(entry, first[key],
                                                   reference)
                if problem is not None:
                    problems[name] = problem
        if result.observed["executed"] != result.observed["distinct"]:
            problems["check:executed"] = (
                f"serve.executed={result.observed['executed']} != "
                f"{result.observed['distinct']} distinct specs")
        if result.observed["exit_code"] != 0:
            problems["check:sigterm"] = (
                f"server exit code {result.observed['exit_code']} "
                "after SIGTERM")
        return problems


def _digest(body: object) -> str:
    return hashlib.sha256(
        json.dumps(body, sort_keys=True).encode("utf-8")).hexdigest()


def _serve_structure_problem(entry, body, reference) -> Optional[str]:
    op, design, _top, mode, mut, _path = entry
    if op == "analyze":
        want = reference.get(f"{design}:{mode}:{mut}")
        fields = ("surrounding_gates", "total_gates", "num_pis", "num_pos")
    elif op == "testability":
        want = reference.get(f"{design}:testability:{mut}")
        fields = ("hard_coded_inputs", "total_input_ports", "warnings")
    else:
        want = reference.get(f"{design}:lint")
        fields = ("errors", "warnings")
    if want is None:
        return "no expected value"
    return _diff({k: body.get(k) for k in fields},
                 {k: want[k] for k in fields})


def make_workload(name: str, smoke: bool = False):
    """The workload object for a name; ``smoke`` shrinks it for tests."""
    if name == "atpg_stuck":
        return AtpgWorkload(name, "stuck",
                            ["limiter", "forward"] if smoke else None)
    if name == "seu_grade":
        return AtpgWorkload(name, "transient",
                            ["limiter", "forward"] if smoke else None)
    if name == "front_end":
        return FrontEndWorkload(["filterchip"] if smoke else None)
    if name == "serve_replay":
        return ServeWorkload(40 if smoke else SERVE_REQUESTS)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("atpg_stuck", "seu_grade", "front_end", "serve_replay")


def remove_work_root() -> None:
    """Delete this process's leftover pass directories."""
    prefix = f"{os.getpid()}-"
    try:
        entries = os.listdir(WORK_ROOT)
    except FileNotFoundError:
        return
    for entry in entries:
        if entry.startswith(prefix):
            shutil.rmtree(os.path.join(WORK_ROOT, entry), ignore_errors=True)
    try:
        os.rmdir(WORK_ROOT)
    except OSError:
        pass  # another run still uses it
