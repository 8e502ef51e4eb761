"""The ``service-mix`` workload: a closed loop through the deployed mesh.

Topology, all as child processes started from the checkout:

* a ``StubChatServer`` (``stub_main.py``) with a fixed response delay
  standing in for a remote model;
* two ``repro serve`` shards with their default (process) workers;
* one ``repro mesh serve`` router in front of them.

Set-up starts the fleet and warms the 25 rq1 windows into the shards'
job caches.  The load generator is this one process with two client
connections; each connection sends its next ``submit`` only after the
previous reply arrived (a closed loop).  The request stream is made from
``--seed``: Zipf-skewed repeats of the warmed rq1 windows (a fixed
popularity ranking; the seed draws the sequence), plus one fresh window
in every ``FRESH_EVERY`` requests, drawn without replacement from a
generated corpus.  The stub delay, the fresh share and the skew are
assumptions, not measurements; README.md says why each was chosen.
Every request names the stub's
``http://`` model with no ``transport=`` parameter, so the default LLM
transport is what gets measured.
"""

from __future__ import annotations

import os
import random
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import measure
import oracle

MODEL = "Gemini2.0T"
ATTEMPT_LIMIT = 2
CONNECTIONS = 2
SHARDS = 2
#: Stand-in service time of the remote model, per call (assumed).  The
#: Gemini2.0T profile models 7.5 s, at which two closed-loop connections
#: finish a handful of fresh jobs in a run; at 25 ms a model call still
#: takes far longer than a fresh job's local compute (about 1 ms).
STUB_DELAY_S = 0.025
#: One fresh window per this many requests (5%, assumed): enough that
#: the slowest 1% of requests, and so p99, are fresh jobs.
FRESH_EVERY = 20
#: Popularity skew of the repeats (assumed; no request trace to fit).
ZIPF_EXPONENT = 1.1
#: Requests per second of ``--seconds`` (sized so a run lasts about
#: that long on a 2-CPU host); the stream length is fixed by
#: ``--seconds``, never by how fast the fleet answers.
REQUESTS_PER_SECOND = 500
#: The corpus the fresh windows are drawn from.
POOL_SEED = 0

_STARTUP_TIMEOUT_S = 60.0
_STOP_TIMEOUT_S = 15.0


# -- inputs -------------------------------------------------------------------
def rq1_windows() -> List[str]:
    from repro.corpus.issues import rq1_cases
    return [case.src for case in rq1_cases()]


def pool_windows() -> List[str]:
    from repro.core.extractor import extract_from_corpus
    from repro.corpus.generator import generate_corpus
    from repro.ir.printer import print_function
    return [print_function(window.function)
            for window in extract_from_corpus(
                generate_corpus(seed=POOL_SEED))]


@dataclass
class Stream:
    requests: List[str]
    fresh: int


def make_stream(seed: int, length: int, warm: List[str],
                pool: List[str], reference: dict) -> Stream:
    """The seeded request stream; see the module docstring."""
    rng = random.Random(f"service-mix:{seed}")
    verdicts = [reference["pool"][oracle.text_key(ir)] for ir in pool]
    # Found windows come from the proved ones only, so findings and
    # proved_frac are the same for every seed.
    found = [ir for ir, (hit, _status, proved) in zip(pool, verdicts)
             if hit and proved]
    other = [ir for ir, (hit, _status, _proved) in zip(pool, verdicts)
             if not hit]
    blocks = max(1, length // FRESH_EVERY)
    # Fresh windows are findings at the pool's own rate (34 of 840).
    found_count = round(blocks * (len(pool) - len(other)) / len(pool))
    if found_count > len(found) or blocks - found_count > len(other):
        raise ValueError(f"{length} requests need more fresh windows "
                         f"than the pool holds; use fewer --seconds")
    fresh = (rng.sample(found, found_count)
             + rng.sample(other, blocks - found_count))
    rng.shuffle(fresh)
    # The popularity ranking is fixed (rq1 order): which window is hot
    # sets the cache-hit latency, since the router and the shard each
    # parse a request's window to key it.  The seed draws the sequence.
    weights = [1.0 / (rank + 1) ** ZIPF_EXPONENT
               for rank in range(len(warm))]
    requests: List[str] = []
    for window in fresh:
        repeats = rng.choices(warm, weights, k=FRESH_EVERY - 1)
        repeats.insert(rng.randrange(FRESH_EVERY), window)
        requests.extend(repeats)
    return Stream(requests=requests, fresh=len(fresh))


# -- the fleet ----------------------------------------------------------------
class Fleet:
    """The stub, the shards and the router, as child processes."""

    def __init__(self, run_dir: Path):
        self.run_dir = run_dir
        run_dir.mkdir(parents=True, exist_ok=True)
        self.processes: List[subprocess.Popen] = []
        self._logs = []
        try:
            stub = self._spawn("stub", [str(measure.BENCH_DIR
                                            / "stub_main.py"),
                                        "--delay", str(STUB_DELAY_S)])
            shards = [self._spawn(f"shard{index}",
                                  ["-m", "repro", "serve"])
                      for index in range(SHARDS)]
            self.stub_port = self._port(stub)
            shard_ports = [self._port(shard) for shard in shards]
            args = ["-m", "repro", "mesh", "serve"]
            for port in shard_ports:
                args += ["--shard", f"127.0.0.1:{port}"]
            router = self._spawn("router", args)
            self.port = self._port(router)
        except BaseException:
            self.close()
            raise
        #: The program under test: shards and router (not the stub).
        self.program = [process.pid for process in self.processes[1:]]

    @property
    def model(self) -> str:
        return f"http://127.0.0.1:{self.stub_port}/{MODEL}"

    def _spawn(self, name: str, args: List[str]):
        port_file = self.run_dir / f"{name}.port"
        if port_file.exists():
            port_file.unlink()
        log = open(self.run_dir / f"{name}.log", "w")
        self._logs.append(log)
        extra = ["--port", "0", "--port-file", str(port_file)]
        if name != "stub":
            extra += ["--log-file", str(self.run_dir / f"{name}.jsonl")]
        process = subprocess.Popen(
            [sys.executable, *args, *extra], cwd=measure.ROOT,
            env=measure.child_env(), stdout=log, stderr=log,
            start_new_session=True)
        self.processes.append(process)
        return port_file, process

    def _port(self, spawned) -> int:
        port_file, process = spawned
        deadline = time.monotonic() + _STARTUP_TIMEOUT_S
        while time.monotonic() < deadline:
            if process.poll() is not None:
                raise RuntimeError(f"{port_file.stem} exited with "
                                   f"{process.returncode}; see its log")
            try:
                text = port_file.read_text().strip()
            except OSError:
                text = ""
            if text:
                return int(text)
            time.sleep(0.02)
        raise RuntimeError(f"{port_file.stem} did not start")

    def client(self):
        from repro.service import ServiceClient
        return ServiceClient(self.port, timeout=120.0)

    def status(self) -> dict:
        with self.client() as client:
            return client.status()

    def close(self) -> None:
        """Interrupt every process (router first), then reap them all."""
        for process in reversed(self.processes):
            if process.poll() is None:
                try:
                    os.killpg(process.pid, signal.SIGINT)
                except ProcessLookupError:
                    pass
        for process in reversed(self.processes):
            try:
                process.wait(timeout=_STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                pass
            # A shard's workers share its process group; kill what is
            # left of the group and wait until none of it remains.
            try:
                os.killpg(process.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            process.wait()
            deadline = time.monotonic() + _STOP_TIMEOUT_S
            while time.monotonic() < deadline:
                try:
                    os.killpg(process.pid, 0)
                except ProcessLookupError:
                    break
                time.sleep(0.01)
        for log in self._logs:
            log.close()
        self._logs = []
        self.processes = []


# -- the load generator -------------------------------------------------------
@dataclass
class Sample:
    index: int
    seconds: float
    result: object = None
    error: str = ""


def drive(fleet: Fleet, requests: List[str]) -> Tuple[List[Sample], float]:
    """Send ``requests`` over ``CONNECTIONS`` closed-loop connections;
    the samples in stream order and the wall time."""
    from repro.service import JobSpec
    samples: List[Optional[Sample]] = [None] * len(requests)
    cursor = iter(range(len(requests)))
    lock = threading.Lock()
    clients = [fleet.client() for _ in range(CONNECTIONS)]
    model = fleet.model

    def loop(client) -> None:
        while True:
            with lock:
                index = next(cursor, None)
            if index is None:
                return
            spec = JobSpec(ir=requests[index], model=model,
                           attempt_limit=ATTEMPT_LIMIT)
            start = time.perf_counter()
            try:
                result = client.submit(spec)
                error = "" if result.ok else result.error or "not ok"
            except Exception as exc:  # noqa: BLE001 - counted as failed
                result, error = None, f"{type(exc).__name__}: {exc}"
            samples[index] = Sample(index, time.perf_counter() - start,
                                    result, error)

    threads = [threading.Thread(target=loop, args=(client,))
               for client in clients]
    start = time.perf_counter()
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        for client in clients:
            client.close()
    return samples, time.perf_counter() - start


def _fleet_cpu(pids: List[int]) -> Dict[int, float]:
    return {pid: measure.cpu_seconds(pid)
            for pid in measure.process_tree(pids)}


def setup(run_dir: Path, warm: List[str]) -> Fleet:
    """Start a fleet and warm every rq1 window into its job caches."""
    fleet = Fleet(run_dir)
    try:
        samples, _wall = drive(fleet, warm)
        bad = [sample.error for sample in samples if sample.error]
        if bad:
            raise RuntimeError(f"warm-up failed: {bad[0]}")
    except BaseException:
        fleet.close()
        raise
    return fleet


# -- one run ------------------------------------------------------------------
def _delta(after: dict, before: dict, *path: str) -> float:
    for key in path:
        after = after.get(key, {})
        before = before.get(key, {})
    return float(after or 0) - float(before or 0)


def run(seed: int, seconds: float, trace: bool,
        smoke: bool = False) -> dict:
    reference = oracle.load_reference()["service-mix"]
    warm = rq1_windows()
    pool = pool_windows()
    length = 200 if smoke else int(REQUESTS_PER_SECOND * seconds)
    stream = make_stream(seed, length, warm, pool, reference)
    run_dir = measure.RUN_DIR / f"service-mix-{os.getpid()}"

    setups: List[float] = []
    fleet: Optional[Fleet] = None
    for _repeat in range(measure.SETUP_REPEATS):
        if fleet is not None:
            fleet.close()
        start = time.perf_counter()
        fleet = setup(run_dir, warm)
        setups.append(time.perf_counter() - start)
    try:
        before = fleet.status()
        cpu_before = _fleet_cpu(fleet.program)
        samples, wall = drive(fleet, stream.requests)
        cpu_after = _fleet_cpu(fleet.program)
        after = fleet.status()
        rss = sum(measure.peak_rss_mb(pid)
                  for pid in measure.process_tree(fleet.program))
    finally:
        fleet.close()
    shutil.rmtree(run_dir, ignore_errors=True)

    failed, problems, findings = _check(samples, stream.requests,
                                        reference, seed)
    attempted = len(samples)
    latencies = [sample.seconds * 1e3 for sample in samples]
    proved = sum(1 for ir in findings
                 if _reference_entry(reference, ir)[2])
    end_to_end = {
        "setup_s": measure.median(setups),
        "jobs_per_s": attempted / wall,
        "latency_p50_ms": measure.median(latencies),
        "latency_p99_ms": measure.percentile(latencies, 0.99),
        "findings": len(findings),
        "proved_frac": measure.frac(proved, len(findings)),
        "ops_ok_frac": 1.0 - measure.frac(failed, attempted),
        "llm_cost_usd": sum(sample.result.cost_usd for sample in samples
                            if sample.result is not None),
        "peak_rss_mb": rss,
    }
    result = {"attempted": attempted, "failed": failed,
              "problems": problems, "end_to_end": end_to_end}
    if trace:
        cpu = sum(cpu_after.get(pid, 0.0) - cpu_before.get(pid, 0.0)
                  for pid in cpu_after)
        result["per_layer"] = _layers(
            samples, stream, warm, before, after, wall,
            cpu / (wall * (os.cpu_count() or 1)),
            measure.frac(failed, attempted))
    return result


def _reference_entry(reference: dict, ir: str) -> list:
    """``[found, status, proved]`` recorded for one window."""
    key = oracle.text_key(ir)
    return reference["rq1"].get(key) or reference["pool"][key]


def _check(samples: List[Sample], requests: List[str], reference: dict,
           seed: int) -> Tuple[int, List[str], Dict[str, str]]:
    """Failed requests and why, plus the distinct findings
    (window -> candidate)."""
    failed = 0
    problems: List[str] = []
    findings: Dict[str, str] = {}
    for sample in samples:
        ir = requests[sample.index]
        if sample.error:
            failed += 1
            problems.append(f"request {sample.index}: {sample.error}")
            continue
        want_found, want_status, _proved = _reference_entry(reference, ir)
        got = sample.result
        if (got.found, got.status) != (want_found, want_status):
            failed += 1
            problems.append(
                f"request {sample.index} ({oracle.text_key(ir)}): got "
                f"{got.found}/{got.status!r}, reference "
                f"{want_found}/{want_status!r}")
        elif got.found:
            findings.setdefault(ir, got.candidate_text)
    oracle_failures = oracle.check_findings(list(findings.items()), seed)
    failed += len(oracle_failures)
    problems.extend(oracle_failures)
    return failed, problems, findings


#: Layer metrics the fleet does not expose outside its processes (call
#: counts and verdict splits inside the workers, the step cache, the
#: in-process span residual): reported as 0 on this workload.
UNOBSERVABLE = (
    "verify.static.calls", "verify.static.refuted",
    "verify.testing.calls", "verify.testing.refuted",
    "verify.exhaustive.calls", "verify.exhaustive.proved",
    "verify.exhaustive.refuted",
    "verify.sat.calls", "verify.sat.proved", "verify.sat.conflicts",
    "verify.sat.max_s",
    "opt.calls", "opt.error_frac", "analysis.calls",
    "analysis.reject_frac", "core.interestingness.calls",
    "core.interestingness.pass_frac", "core.cache.opt_hit_frac",
    "core.cache.verify_hit_frac", "core.pipeline.residual_s")


def _layers(samples: List[Sample], stream: Stream, warm: List[str],
            before: dict, after: dict, wall: float, cpu_util: float,
            failed_frac: float) -> Dict[str, float]:
    results = [(sample.seconds, sample.result) for sample in samples
               if sample.result is not None]
    route = [(seconds - result.latency_seconds) * 1e3
             for seconds, result in results]
    fresh = [result for _seconds, result in results if not result.cached]
    queue_wait = [(result.latency_seconds - result.elapsed_seconds) * 1e3
                  for result in fresh] or [0.0]
    compute = [result.elapsed_seconds * 1e3 for result in fresh] or [0.0]
    seen = set(warm)
    repeats = 0
    for ir in stream.requests:
        repeats += ir in seen
        seen.add(ir)

    def phase(name: str) -> float:
        return _delta(after, before, "phases", name)

    tiers = ("static", "testing", "exhaustive", "sat")
    llm_calls = _delta(after, before, "llm_backend", "calls")
    hits = _delta(after, before, "cache_hits")
    misses = _delta(after, before, "cache_misses")
    layers = {name: 0.0 for name in UNOBSERVABLE}
    layers.update({f"verify.{tier}.busy_s": phase(f"verify.{tier}")
                   for tier in tiers})
    layers.update({
        "verify.self_s": phase("verify") - sum(
            phase(f"verify.{tier}") for tier in tiers),
        "llm.calls": llm_calls,
        "llm.busy_s": phase("llm"),
        "opt.busy_s": phase("opt"),
        "analysis.busy_s": phase("analysis"),
        "core.interestingness.busy_s": phase("interestingness"),
        "llm.http.call_ms": measure.frac(
            _delta(after, before, "llm_backend", "latency_seconds") * 1e3,
            llm_calls),
        "llm.http.retries": _delta(after, before, "llm_backend",
                                   "retries"),
        "core.executor.cpu_util": cpu_util,
        "service.mesh.route_ms_p50": measure.median(route),
        "service.mesh.route_ms_p99": measure.percentile(route, 0.99),
        "service.server.queue_wait_ms_p50": measure.median(queue_wait),
        "service.server.queue_wait_ms_p99": measure.percentile(
            queue_wait, 0.99),
        "service.workers.compute_ms_p50": measure.median(compute),
        "service.workers.compute_ms_p99": measure.percentile(compute,
                                                             0.99),
        "service.cache.hit_frac": measure.frac(hits, hits + misses),
        "service.server.coalesced": _delta(after, before, "mesh",
                                           "router", "coalesced"),
        "service.server.rejected": _delta(after, before, "rejected"),
        "workload.repeat_frac": measure.frac(repeats,
                                             len(stream.requests)),
        "workload.fresh_windows": float(stream.fresh),
        # No benchmark spans run inside the fleet's processes, so the
        # traced run is the untraced run.
        "trace.overhead_frac": 0.0,
        "trace.wall_s": wall,
        "ops_failed_frac": failed_frac,
    })
    return layers
